// train_smd: the caee_train pipeline in-process (Fit, Score on the test
// split, PR-AUC, threshold/SPOT/health calibration, SaveEnsemble ->
// LoadEnsemble). No serving code runs, which makes it the workload a
// serve-side change must leave unchanged.

#include <algorithm>
#include <cstring>

#include "child.h"
#include "common/rng.h"
#include "core/persistence.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

using namespace caee;

void MeasureOffline(const Model& model, const ts::TimeSeries& test,
                    std::vector<double>* test_scores, Result* result) {
  const int64_t windows = test.length() - model.ensemble->config().window + 1;
  std::vector<double> wps;
  for (int rep = 0; rep < 5; ++rep) {
    const int64_t t0 = Tracer::NowNs();
    auto scores = model.ensemble->Score(test);
    const double s = SecondsSince(t0);
    ++result->attempted;
    if (!scores.ok()) {
      result->Fail("Score: " + scores.status().ToString());
      return;
    }
    if (rep == 0) {
      *test_scores = std::move(scores).value();
    } else if (*scores != *test_scores) {
      result->Fail("Score is not deterministic across calls");
    }
    wps.push_back(static_cast<double>(windows) / s);
  }
  result->Add("score_wps", Median(wps), "windows/s");
  result->Add("pr_auc", PrAuc(*test_scores, test), "1");
}

Result RunTrainSmd(const RunArgs& args) {
  Result result;
  ts::Dataset dataset;
  std::vector<double> datagen_s;
  for (int i = 0; i < 9; ++i) {
    const int64_t t0 = Tracer::NowNs();
    if (Status s = MakeSmd(&dataset); !s.ok()) {
      result.Fail("dataset: " + s.ToString());
      return result;
    }
    datagen_s.push_back(SecondsSince(t0));
  }

  // Fit until the measuring time is used, at least three times. train_s is
  // the median CPU time of Fit: on a shared VM whose vCPUs the host steals
  // for seconds at a time, Fit's wall time varied 3.8-7.4 s over 40 fits
  // while its CPU time varied 5.4-6.4 s.
  Model model;
  std::vector<double> fit_wall_s, fit_cpu_s;
  if (!FitRepeatedly(dataset, 3, args.seconds, &model, &fit_wall_s,
                     &fit_cpu_s, &result)) {
    return result;
  }
  result.Add("train_s", Median(fit_cpu_s), "s");

  std::vector<double> test_scores;
  MeasureOffline(model, dataset.test, &test_scores, &result);

  const std::string artifact = args.work_dir + "/model.caee";
  Status status = Calibrate(dataset.train, &model);
  if (status.ok()) status = Save(model, artifact);
  result.attempted += 2;
  if (!status.ok()) {
    result.Fail("calibrate/save: " + status.ToString());
    return result;
  }
  std::vector<double> load_ms;
  std::unique_ptr<core::CaeEnsemble> loaded;
  for (int rep = 0; rep < 41; ++rep) {
    const int64_t t0 = Tracer::NowNs();
    auto l = core::LoadEnsemble(artifact);
    load_ms.push_back(SecondsSince(t0) * 1e3);
    ++result.attempted;
    if (!l.ok()) {
      result.Fail("LoadEnsemble: " + l.status().ToString());
      return result;
    }
    loaded = std::move(l->ensemble);
  }
  loaded->set_num_threads(kThreads);
  auto reloaded_scores = loaded->Score(dataset.test);
  ++result.attempted;
  if (!reloaded_scores.ok() || *reloaded_scores != test_scores) {
    result.Fail("scores of the loaded artifact differ from the in-memory ones");
  }

  // Online scoring through the library, one window per call (the paper's
  // per-window inference), then in batches of 16; windows in seeded order.
  // p99 is blocked as on serve_fleet: at two threads every call wakes a
  // pool worker, and one delayed wake-up on a shared host must not decide
  // the run's p99.
  const int64_t w = loaded->config().window, dims = dataset.test.dims();
  const int64_t num_windows = dataset.test.length() - w + 1;
  Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 3);
  std::vector<int64_t> starts(4 * kP99Block);
  for (int64_t& s : starts) {
    s = static_cast<int64_t>(rng.NextUint64() %
                             static_cast<uint64_t>(num_windows));
  }
  std::vector<float> window(static_cast<size_t>(w * dims));
  std::vector<double> score, latency_ms;
  int64_t mismatches = 0;
  for (size_t i = 0; i < starts.size(); ++i) {
    GatherWindows(dataset.test, {starts[i]}, w, window.data());
    const int64_t t0 = Tracer::NowNs();
    const Status s = loaded->ScoreWindowsLastInto(window.data(), 1, &score);
    latency_ms.push_back(SecondsSince(t0) * 1e3);
    ++result.attempted;
    if (!s.ok()) ++mismatches;
    if (i < 64) {  // the in-memory model must agree, bitwise
      std::vector<double> mine;
      model.ensemble->ScoreWindowsLastInto(window.data(), 1, &mine);
      if (std::memcmp(&mine[0], &score[0], sizeof(double)) != 0) ++mismatches;
    }
  }
  if (mismatches > 0) {
    result.Fail("per-window scores of the loaded artifact differ", mismatches);
  }
  const TailSummary tail = Summarize(latency_ms);
  const double p99 = BlockedP99(latency_ms);
  result.Note("in-process window latency, batch 1: " +
              DescribeTail(tail, "ms") + "; blocked p99 " +
              std::to_string(p99) + " ms");
  result.Add("p50_ms", tail.median, "ms");

  std::vector<float> batch(static_cast<size_t>(16 * w * dims));
  std::vector<double> wps;
  for (int rep = 0; rep < 5; ++rep) {
    const int64_t t0 = Tracer::NowNs();
    for (size_t b = 0; b + 16 <= 1024; b += 16) {
      std::vector<int64_t> group(starts.begin() + static_cast<long>(b),
                                 starts.begin() + static_cast<long>(b + 16));
      GatherWindows(dataset.test, group, w, batch.data());
      if (!loaded->ScoreWindowsLastInto(batch.data(), 16, &score).ok()) {
        result.Fail("batched scoring failed");
      }
      ++result.attempted;
    }
    wps.push_back(1024.0 / SecondsSince(t0));
  }
  result.Add("max_wps", Median(wps), "windows/s");
  result.Add("reload_pause_ms", Median(load_ms), "ms");
  result.Add("setup_s", Median(datagen_s), "s");
  result.Add("peak_rss_mb", ReadPeakRssMb("self"), "MiB");

  std::string line = "fits, wall/cpu s:";
  for (size_t i = 0; i < fit_wall_s.size(); ++i) {
    line += " " + std::to_string(fit_wall_s[i]) + "/" + std::to_string(fit_cpu_s[i]);
  }
  result.Note(line);
  return result;
}

}  // namespace perfbench
