#include "pipeline.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/persistence.h"
#include "core/threshold.h"
#include "data/registry.h"
#include "metrics/metrics.h"
#include "stats.h"

namespace perfbench {

using namespace caee;

core::EnsembleConfig TrainConfig(int64_t threads) {
  core::EnsembleConfig config;
  config.window = 16;
  config.num_models = 8;
  config.epochs_per_model = 3;
  config.batch_size = 64;
  config.cae.embed_dim = 0;
  config.cae.num_layers = 2;
  config.max_train_windows = kMaxTrainWindows;
  config.num_threads = threads;
  config.seed = kDataSeed;
  return config;
}

Status MakeSmd(ts::Dataset* out) {
  auto dataset = data::MakeDataset("SMD", kScale, kDataSeed);
  if (!dataset.ok()) return dataset.status();
  *out = std::move(dataset).value();
  return Status::OK();
}

Status FitModel(const ts::TimeSeries& train, int64_t threads, Model* model) {
  model->ensemble = std::make_unique<core::CaeEnsemble>(TrainConfig(threads));
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = Tracer::NowNs();
  const Status status = model->ensemble->Fit(train);
  model->fit_s = SecondsSince(t0);
  model->fit_cpu_s = ProcessCpuSeconds() - cpu0;
  return status;
}

bool FitRepeatedly(const ts::Dataset& data, int min_fits, double min_seconds,
                   Model* model, std::vector<double>* wall_s,
                   std::vector<double>* cpu_s, Result* result) {
  const int64_t t0 = Tracer::NowNs();
  while (static_cast<int>(wall_s->size()) < min_fits ||
         SecondsSince(t0) < min_seconds) {
    Model m;
    const Status s = FitModel(data.train, kThreads, &m);
    ++result->attempted;
    if (!s.ok()) {
      result->Fail("Fit: " + s.ToString());
      return false;
    }
    wall_s->push_back(m.fit_s);
    cpu_s->push_back(m.fit_cpu_s);
    if (wall_s->size() == 1) {
      *model = std::move(m);
    } else if (wall_s->size() == 2) {
      auto a = model->ensemble->Score(data.test);
      auto b = m.ensemble->Score(data.test);
      if (!a.ok() || !b.ok() || *a != *b) {
        result->Fail("two fits of the same data give different scores");
      }
    }
  }
  return true;
}

Status Calibrate(const ts::TimeSeries& train, Model* model) {
  const core::CaeEnsemble& ensemble = *model->ensemble;
  auto train_scores = ensemble.Score(train);
  if (!train_scores.ok()) return train_scores.status();
  core::ThresholdConfig threshold_config;
  threshold_config.strategy = core::ThresholdStrategy::kTopK;
  threshold_config.top_k_percent = 5.0;
  auto threshold = core::CalibrateThreshold(*train_scores, threshold_config);
  if (!threshold.ok()) return threshold.status();
  model->threshold = *threshold;
  auto spot = core::CalibrateSpot(*train_scores, core::SpotConfig{});
  if (!spot.ok()) return spot.status();
  model->spot = std::move(spot).value();

  // Health is calibrated through the serving entry point, one last-position
  // score per training window, as caee_train --health does.
  const int64_t w = ensemble.config().window;
  const int64_t n = train.length() - w + 1;
  std::vector<double> scores, dispersions, chunk_scores, chunk_dispersions;
  std::vector<float> buffer;
  std::vector<int64_t> starts;
  for (int64_t begin = 0; begin < n; begin += 256) {
    starts.clear();
    for (int64_t s = begin; s < std::min(n, begin + 256); ++s) {
      starts.push_back(s);
    }
    buffer.resize(starts.size() * static_cast<size_t>(w * train.dims()));
    GatherWindows(train, starts, w, buffer.data());
    if (Status s = ensemble.ScoreWindowsLastInto(
            buffer.data(), static_cast<int64_t>(starts.size()), &chunk_scores,
            &chunk_dispersions);
        !s.ok()) {
      return s;
    }
    scores.insert(scores.end(), chunk_scores.begin(), chunk_scores.end());
    dispersions.insert(dispersions.end(), chunk_dispersions.begin(),
                       chunk_dispersions.end());
  }
  auto health = core::CalibrateHealthRef(scores, dispersions);
  if (!health.ok()) return health.status();
  model->health = std::move(health).value();
  return Status::OK();
}

Status Save(const Model& model, const std::string& path) {
  return core::SaveEnsemble(*model.ensemble, path, model.threshold,
                            &model.spot, &model.health);
}

double PrAuc(const std::vector<double>& scores, const ts::TimeSeries& s) {
  std::vector<int> labels(static_cast<size_t>(s.length()));
  for (int64_t t = 0; t < s.length(); ++t) labels[t] = s.label(t);
  return metrics::PrAuc(scores, labels);
}

void GatherWindows(const ts::TimeSeries& series,
                   const std::vector<int64_t>& starts, int64_t w, float* out) {
  const size_t row_bytes = static_cast<size_t>(series.dims()) * sizeof(float);
  for (const int64_t start : starts) {
    for (int64_t r = 0; r < w; ++r) {
      std::memcpy(out, series.row(start + r), row_bytes);
      out += series.dims();
    }
  }
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(Tracer::NowNs() - start_ns) * 1e-9;
}

double ProcessCpuSeconds() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

Rng ScheduleRng(uint64_t seed) { return Rng(seed * 0xD1B54A32D192ED03ULL + 5); }

std::vector<ScheduleEvent> PoissonSchedule(Rng* rng, double rate,
                                           double duration_s, int64_t streams,
                                           int reloads) {
  std::vector<ScheduleEvent> events;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng->Uniform()) / rate;
    if (t >= duration_s) break;
    const int64_t stream =
        1 + static_cast<int64_t>(rng->NextUint64() %
                                 static_cast<uint64_t>(streams));
    events.push_back({static_cast<int64_t>(t * 1e9), stream});
  }
  for (int i = 0; i < reloads; ++i) {
    events.push_back(
        {static_cast<int64_t>((i + 0.5) / reloads * duration_s * 1e9), 0});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const ScheduleEvent& a, const ScheduleEvent& b) {
                     return a.offset_ns < b.offset_ns;
                   });
  return events;
}

StreamRows::StreamRows(const ts::TimeSeries& series, int64_t streams,
                       uint64_t seed)
    : series_(series), offsets_(static_cast<size_t>(streams + 1)) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 11);
  for (int64_t& o : offsets_) {
    o = static_cast<int64_t>(rng.NextUint64() %
                             static_cast<uint64_t>(series.length()));
  }
}

const float* StreamRows::Row(int64_t stream, int64_t k) const {
  return series_.row((offsets_[stream] + k) % series_.length());
}

std::vector<float> StreamRows::Obs(int64_t stream, int64_t k) const {
  const float* r = Row(stream, k);
  return std::vector<float>(r, r + series_.dims());
}

}  // namespace perfbench
