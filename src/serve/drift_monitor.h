// Engine-level drift -> repair escalation (docs/operations.md).
//
// PR 7 gave each SPOT-capable shard a ring of "did this score exceed the
// calibration t" bits and a drift statistic |observed exceed rate -
// (1 - level)|; ServingEngine::Stats() surfaces the max over shards. That
// number told an operator the model had gone bad, but nothing ACTED on it.
// DriftMonitor closes the loop: fed the engine's drift statistic after
// each flush cycle, it emits at most one RepairRequest per excursion past
// a configured threshold — the signal caee_serve turns into an operator
// advisory naming caee_repair, and the repair CLI turns into a new
// artifact for ReloadArtifact to hot-swap.
//
// Hysteresis (serve/hysteresis.h), not a naive threshold: once fired, the
// monitor disarms until drift falls back below `clear` (default
// threshold/2). A successful hot-swap resets the monitor (new calibration
// baseline, new excursion accounting).

#ifndef CAEE_SERVE_DRIFT_MONITOR_H_
#define CAEE_SERVE_DRIFT_MONITOR_H_

#include <cstdint>
#include <optional>

#include "serve/hysteresis.h"

namespace caee {
namespace serve {

/// \brief What the monitor emits when drift crosses the threshold: enough
/// context for an operator (or an automated runner) to invoke caee_repair
/// and attribute the incident.
struct RepairRequest {
  int64_t generation = 0;   // the generation that drifted
  double drift = 0.0;       // the statistic at fire time, in [0, 1]
  int64_t drift_window = 0; // scores the statistic was computed over
};

struct DriftMonitorConfig {
  /// Fire when drift exceeds this. <= 0 disables the monitor entirely
  /// (Update never fires) — the default, so existing deployments see no
  /// behavior change.
  double threshold = 0.0;
  /// Re-arm once drift falls below this. <= 0 means threshold / 2.
  double clear = 0.0;
  /// Minimum scores in the drift window before the statistic is trusted.
  /// A near-empty ring after a cold start (or a reset) reads as extreme
  /// drift from a handful of samples.
  int64_t min_window = 64;
};

class DriftMonitor {
 public:
  explicit DriftMonitor(const DriftMonitorConfig& config);

  /// \brief Feed the current drift statistic. Returns a RepairRequest the
  /// FIRST time drift exceeds the threshold (with at least min_window
  /// scores behind it), then nothing until the excursion clears and a new
  /// one begins.
  std::optional<RepairRequest> Update(int64_t generation, double drift,
                                      int64_t drift_window);

  /// \brief Forget the current excursion — called after a successful
  /// hot-swap, when the calibration baseline the statistic compares
  /// against has been replaced.
  void Reset() { latch_.Reset(); }

  bool enabled() const { return config_.threshold > 0.0; }
  bool armed() const { return latch_.armed(); }
  const DriftMonitorConfig& config() const { return config_; }

 private:
  DriftMonitorConfig config_;
  Hysteresis latch_;
};

}  // namespace serve
}  // namespace caee

#endif  // CAEE_SERVE_DRIFT_MONITOR_H_
