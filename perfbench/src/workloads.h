// The two workloads, the configuration serve_fleet serves, and the traced
// run.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "pipeline.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string serve_bin;  // caee_serve, for serve_fleet
  std::string work_dir;   // scratch space inside the checkout
};

// serve_fleet: caee_serve with 1024 SPOT sessions, --health (canary-gated
// reloads, probation), 4 shards, batches of up to 16, a 10 ms flush
// deadline.
inline constexpr int64_t kStreams = 1024;
inline constexpr int64_t kShards = 4;
inline constexpr int64_t kMaxBatch = 16;
inline constexpr int64_t kFlushMs = 10;

// p50 and the reloads are measured at 750 windows/s, about a third of the
// capacity of 2 threads. At 1500/s (about 70%) a busy period of the shared
// host pushed p99 from ~45 ms to 80-210 ms in 2 of 10 runs (quartile
// spread 0.40 of the median, over the 0.25 bound). The latency phase gets
// the most time; the reload phase follows at the same rate.
inline constexpr double kLatencyRate = 750;
inline constexpr double kLatencyShare = 0.4;  // of --seconds
inline constexpr int kReloads = 5;
inline constexpr double kReloadShare = 0.2;

// The ladder that decides max_wps. Its first attempt is the latency phase;
// every other attempt, a retry included, runs for kRungShare of --seconds.
// Between the highest passing and the lowest missed rung (or 0 and 750/s),
// kRefineSteps bisections follow: with rungs alone, max_wps read 1500 or
// 3000 from run to run as the shared host sped up or slowed down (capacity
// ~2100-3100/s), and a host slow enough to miss 750/s failed the run.
inline constexpr double kLadder[] = {kLatencyRate, 1500, 3000, 6000};
inline constexpr int kRefineSteps = 3;
inline constexpr double kRungShare = 0.15;

/// \brief How long a serve_fleet phase runs: its share of `seconds`, and
/// never less than 1.5 p99 blocks of arrivals at `rate`.
double PhaseSeconds(double seconds, double share, double rate);

/// \brief Offline figures every workload reports on its model: score_wps
/// (median of five Score calls over the test split) and pr_auc. Fills
/// `test_scores` with the scores of the first call.
void MeasureOffline(const Model& model, const caee::ts::TimeSeries& test,
                    std::vector<double>* test_scores, Result* result);

Result RunTrainSmd(const RunArgs& args);
Result RunServe(const RunArgs& args);
Result RunTraced(const RunArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
