// The caee_train pipeline the workloads share, plus the result record
// every workload fills in.

#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/ensemble.h"
#include "core/health.h"
#include "core/spot.h"
#include "ts/time_series.h"

namespace perfbench {

/// Every workload runs the library at this explicit worker count: two of
/// the four cores, leaving two for the generator. 0 ("whatever the machine
/// has") is never used.
inline constexpr int64_t kThreads = 2;

/// The SMD profile at scale 0.25 (1000 x 38 training rows, 1000 labelled
/// test rows) with caee_train's default seed. The data seed is fixed so
/// that pr_auc is one bitwise-deterministic quality figure; across data
/// seeds it ranges 0.14-0.59, far wider than any regression bound.
inline constexpr double kScale = 0.25;
inline constexpr uint64_t kDataSeed = 7;
/// Evenly subsampled training windows (of 985). Fit of all 985 takes
/// 9-25 s at 2 threads on a shared 4-core machine; 512 keeps every
/// training shape and halves the time, so a run can afford repeats.
inline constexpr int64_t kMaxTrainWindows = 512;

/// \brief M=8, E=3, w=16, batch 64, two layers, auto embed width,
/// diversity and transfer on: caee_train's pipeline at these settings.
caee::core::EnsembleConfig TrainConfig(int64_t threads);

/// \brief A fitted ensemble with everything caee_train --spot --health
/// calibrates from its training scores.
struct Model {
  std::unique_ptr<caee::core::CaeEnsemble> ensemble;
  double fit_s = 0.0;      // wall time of Fit
  double fit_cpu_s = 0.0;  // CPU time of Fit, summed over its threads
  double threshold = 0.0;
  caee::core::SpotInit spot;
  caee::core::HealthRef health;
};

caee::Status MakeSmd(caee::ts::Dataset* out);

/// \brief Fit only (timed into model->fit_s and model->fit_cpu_s).
caee::Status FitModel(const caee::ts::TimeSeries& train, int64_t threads,
                      Model* model);

/// \brief Threshold (top 5%), SPOT and health calibration, as caee_train.
caee::Status Calibrate(const caee::ts::TimeSeries& train, Model* model);

caee::Status Save(const Model& model, const std::string& path);

/// \brief PR-AUC of `scores` against the series' labels.
double PrAuc(const std::vector<double>& scores, const caee::ts::TimeSeries& s);

/// \brief Copy the w-row windows starting at `starts` into `out`
/// (len(starts) * w * dims floats).
void GatherWindows(const caee::ts::TimeSeries& series,
                   const std::vector<int64_t>& starts, int64_t w, float* out);

double SecondsSince(int64_t start_ns);

/// \brief CPU time of the whole process (every thread), in seconds.
double ProcessCpuSeconds();

/// \brief One event of an open-loop schedule: an observation for `stream`
/// (1-based), or a reload frame when `stream` is 0.
struct ScheduleEvent {
  int64_t offset_ns;
  int64_t stream;
};

/// \brief The generator serve_fleet's arrival times and stream choices are
/// drawn from, phase after phase. The traced run draws its replay from the
/// same one, so it sees the same arrivals as the first phase.
caee::Rng ScheduleRng(uint64_t seed);

/// \brief Poisson arrivals at `rate` per second over `duration_s`, each to
/// a uniformly chosen stream of 1..`streams`, plus `reloads` evenly spaced
/// reload events, ordered by offset.
std::vector<ScheduleEvent> PoissonSchedule(caee::Rng* rng, double rate,
                                           double duration_s, int64_t streams,
                                           int reloads);

/// \brief The rows the streams replay: stream s (0..streams) replays
/// `series` cyclically from its own seeded offset. The offsets come from a
/// generator of their own, so they do not shift the schedule.
class StreamRows {
 public:
  StreamRows(const caee::ts::TimeSeries& series, int64_t streams,
             uint64_t seed);
  /// \brief Observation `k` of `stream`.
  const float* Row(int64_t stream, int64_t k) const;
  std::vector<float> Obs(int64_t stream, int64_t k) const;
  int64_t dims() const { return series_.dims(); }

 private:
  const caee::ts::TimeSeries& series_;
  std::vector<int64_t> offsets_;
};

/// \brief One named measurement of a run.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// \brief What a run prints: the contract's result line plus a report.
struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> problems;  // failed output checks
  std::vector<Metric> metrics;
  std::vector<std::string> report;    // human-readable lines

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Fail(const std::string& problem, int64_t count = 1) {
    problems.push_back(problem);
    failed += count;
  }
  void Note(const std::string& line) { report.push_back(line); }
};

/// \brief Fit the training split at kThreads at least `min_fits` (>= 2)
/// times and until `min_seconds` have passed. The first model goes to
/// `model`; every fit's wall and CPU time to `wall_s` and `cpu_s`. Checks
/// that the first two fits score the test split identically. Returns false
/// (with the problem recorded in `result`) when a fit fails.
bool FitRepeatedly(const caee::ts::Dataset& data, int min_fits,
                   double min_seconds, Model* model, std::vector<double>* wall_s,
                   std::vector<double>* cpu_s, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
