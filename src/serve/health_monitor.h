// Engine-level model-health escalation (docs/operations.md).
//
// The drift monitor (serve/drift_monitor.h) watches ONE statistic — the
// SPOT exceed-rate shift — and answers "has the DATA moved away from the
// calibration?". HealthMonitor answers the complementary question the
// ROADMAP's unsupervised-validation item asks: has the MODEL gone bad,
// without labels? It watches four statistics the shards maintain over a
// ring of recent scores, each against the artifact's persisted calibration
// reference (core::HealthRef):
//
//   kScoreShift     total-variation distance between the live score
//                   histogram and the training-score histogram;
//   kDispersion     live / reference ratio of the mean per-window member
//                   dispersion (diversity-driven members agree on normal
//                   data; when they stop agreeing everywhere, the ensemble
//                   itself — not the data — has degraded);
//   kNonFiniteRate  fraction of non-finite scores (a healthy model never
//                   produces them);
//   kAlertRate      fraction of flagged verdicts (alert runaway).
//
// Each signal has its own hysteresis latch (serve/hysteresis.h): fire once
// per excursion, disarm, re-arm strictly below half its threshold. An
// excursion is CLASSIFIED: non-finite scores and member-agreement collapse
// can only come from the model (kModelDegradation — the rollback
// escalation); score shift and alert runaway alone are indistinguishable
// from the data moving (kDataDrift — the existing drift -> repair advisory
// path).
//
// The monitor is pure policy over a snapshot of gauges; the engine owns
// the gauges (shard health rings), the probation window, and the rollback
// itself (ServingEngine::PollHealth).

#ifndef CAEE_SERVE_HEALTH_MONITOR_H_
#define CAEE_SERVE_HEALTH_MONITOR_H_

#include <cstdint>
#include <optional>

#include "serve/hysteresis.h"

namespace caee {
namespace serve {

enum class HealthSignal {
  kScoreShift = 0,
  kDispersion = 1,
  kNonFiniteRate = 2,
  kAlertRate = 3,
};
inline constexpr int kNumHealthSignals = 4;

enum class HealthVerdict {
  kHealthy = 0,
  /// The data moved; the model may still be fine. Escalates like the
  /// drift monitor: repair advisory, no rollback.
  kDataDrift = 1,
  /// The model itself is misbehaving. During probation this verdict
  /// triggers automatic rollback to the last-known-good generation.
  kModelDegradation = 2,
};

const char* HealthSignalName(HealthSignal signal);
const char* HealthVerdictName(HealthVerdict verdict);

/// \brief Which verdict an excursion of `signal` is classified as (the
/// signal -> verdict mapping in the file comment).
HealthVerdict ClassifyHealthSignal(HealthSignal signal);

/// \brief The gauges one Update judges — computed by ServingEngine::Stats
/// from the shard health rings (each gauge is the max over shards, the
/// window the sum; see EngineStats).
struct HealthSnapshot {
  int64_t window = 0;            // scores behind the gauges
  double score_shift = 0.0;      // TV distance, in [0, 1]
  double dispersion_ratio = 0.0; // live / reference mean dispersion
  double non_finite_rate = 0.0;  // in [0, 1]
  double alert_rate = 0.0;       // in [0, 1]
};

/// \brief Model-health knobs (ServeConfig::health). The thresholds are
/// deliberately loose by default — a health FIRING is an operator-visible
/// incident (and during probation a rollback), so the defaults aim at
/// "unambiguously broken", not "statistically interesting".
struct HealthConfig {
  /// Master switch. Off (the default): no health rings, no canary buffer,
  /// no probation — byte-for-byte the pre-health engine behavior.
  bool enabled = false;
  /// Fire kScoreShift when the TV distance exceeds this.
  double shift_threshold = 0.35;
  /// Fire kDispersion when live/reference mean dispersion exceeds this.
  double dispersion_threshold = 4.0;
  /// Fire kNonFiniteRate when the non-finite fraction exceeds this.
  double non_finite_threshold = 0.01;
  /// Fire kAlertRate when the flagged fraction exceeds this.
  double alert_threshold = 0.5;
  /// Minimum scores behind the gauges before any signal is trusted (a
  /// near-empty ring after a swap reads as extreme shift).
  int64_t min_window = 64;
  /// Scored windows after a successful swap during which a
  /// kModelDegradation verdict rolls back to the last-known-good
  /// generation; surviving probation promotes the new generation.
  int64_t probation_windows = 512;
  /// Fewest retained canary windows needed to shadow-score a reload
  /// candidate; below this the canary phase is skipped (cold engine).
  int64_t canary_min_windows = 8;
  /// Recent raw windows each shard retains for the canary (bytes/stream
  /// cost is measured in BENCH_10.json).
  int64_t canary_capacity = 64;
};

/// \brief What the monitor emits when a signal crosses its threshold.
struct HealthEvent {
  HealthVerdict verdict = HealthVerdict::kHealthy;
  HealthSignal signal = HealthSignal::kScoreShift;  // the signal that fired
  int64_t generation = 0;  // the generation under suspicion
  double value = 0.0;      // the statistic at fire time
  double threshold = 0.0;  // the limit it crossed
  int64_t window = 0;      // scores behind the statistic
  /// Set by ServingEngine::PollHealth when this event triggered an
  /// automatic rollback (kModelDegradation inside probation).
  bool rolled_back = false;
  int64_t rolled_back_to = 0;  // generation id restored, when rolled_back
};

class HealthMonitor {
 public:
  explicit HealthMonitor(const HealthConfig& config);

  /// \brief Judge one snapshot. Signals are checked most-severe first
  /// (non-finite, dispersion, shift, alert rate) and at most ONE event is
  /// returned per call; every signal keeps its own hysteresis, so a
  /// still-excursed signal stays quiet until it clears and re-fires.
  /// Always nullopt when disabled or window < min_window.
  std::optional<HealthEvent> Update(int64_t generation,
                                    const HealthSnapshot& snapshot);

  /// \brief Forget every excursion — called after a successful swap or a
  /// rollback, when the reference the gauges compare against changed.
  void Reset();

  bool enabled() const { return config_.enabled; }
  bool armed(HealthSignal signal) const;
  const HealthConfig& config() const { return config_; }

 private:
  HealthConfig config_;
  // One latch per signal, re-arming at half its threshold.
  Hysteresis shift_, dispersion_, non_finite_, alert_;
};

}  // namespace serve
}  // namespace caee

#endif  // CAEE_SERVE_HEALTH_MONITOR_H_
