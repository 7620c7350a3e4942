// The traced run (--trace 1): per-layer metrics from spans the benchmark
// records around the library's public calls. It replays both workloads
// in-process, whichever one is named: the train pipeline; the serve engine
// on serve_fleet's seeded real-time schedule, with a flusher thread calling
// FlushIfExpired the way caee_serve does; and the child calls of a scoring
// flush, replayed at the batch sizes the flushes had and attached to the
// call they decompose. Spans stay in fixed-capacity
// buffers and are written to the work directory at the end.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <thread>

#include "autograd/ops.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/cae.h"
#include "core/persistence.h"
#include "core/spot.h"
#include "infer/arena.h"
#include "infer/plan.h"
#include "kernels/conv1d.h"
#include "kernels/gemm.h"
#include "optim/adam.h"
#include "optim/clip.h"
#include "serve/framing.h"
#include "serve/serving_engine.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

using namespace caee;
namespace fr = serve::framing;

namespace {

// Which end-to-end metric each layer metric should move, on which
// workload (perfbench/README.md has the reasoning).
struct Layer {
  const char* name;
  const char* unit;
  const char* moves;
};

constexpr Layer kLayers[] = {
    {"common.pool.dispatch_us", "us", "p50_ms on train_smd, train_s"},
    {"common.pool.speedup_score_b1", "x", "p50_ms on train_smd"},
    {"common.pool.speedup_score_b16", "x", "max_wps on serve_fleet"},
    {"common.pool.speedup_fit", "x", "train_s"},
    {"kernels.conv_fwd_b1_us", "us", "p50_ms on train_smd"},
    {"kernels.conv_fwd_b16_us", "us", "max_wps, p99 (reported) on serve_fleet"},
    {"kernels.conv_fwd_train_us", "us", "train_s"},
    {"kernels.conv_bwd_train_us", "us", "train_s only; serve unchanged"},
    {"kernels.sgemm_gflops_b1", "GFLOP/s", "p50_ms on train_smd"},
    {"kernels.sgemm_gflops_b16", "GFLOP/s", "max_wps, p99 (reported) on serve_fleet"},
    {"kernels.sgemm_gflops_train", "GFLOP/s", "train_s"},
    {"kernels.flops_per_window", "flop", "max_wps; p50_ms on train_smd"},
    {"infer.embed_b1_us", "us", "p50_ms on train_smd"},
    {"infer.embed_b16_us", "us", "max_wps on serve_fleet"},
    {"infer.member_b1_us", "us", "p50_ms on train_smd"},
    {"infer.member_b16_us", "us", "max_wps on serve_fleet"},
    {"infer.member_full_us", "us", "score_wps"},
    {"core.score_b1_us", "us", "p50_ms on train_smd"},
    {"core.score_b16_us", "us", "max_wps on serve_fleet"},
    {"core.score_self_b16_us", "us", "max_wps on serve_fleet"},
    {"core.fit_s", "s", "train_s"},
    {"core.score_series_ms", "ms", "score_wps"},
    {"core.transfer_ms", "ms", "train_s"},
    {"core.spot_observe_ns", "ns", "p50_ms on serve_fleet (<1% share)"},
    {"core.persistence.save_ms", "ms", "setup_s"},
    {"core.persistence.load_ms", "ms", "setup_s, reload_pause_ms"},
    {"core.persistence.artifact_bytes", "bytes", "setup_s, reload_pause_ms"},
    {"nn.cae_forward_ms", "ms", "train_s only"},
    {"autograd.backward_ms", "ms", "train_s only"},
    {"optim.adam_step_us", "us", "train_s only"},
    {"optim.clip_us", "us", "train_s only"},
    {"serve.framing.decode_ns", "ns", "p50_ms on serve_fleet (<1% share)"},
    {"serve.framing.encode_ns", "ns", "p50_ms on serve_fleet (<1% share)"},
    {"serve.engine.push_ns", "ns", "p50_ms, p99 (reported), max_wps on serve_fleet"},
    {"serve.engine.flush_ms", "ms", "p50_ms, p99 (reported), max_wps on serve_fleet"},
    {"serve.engine.batch_windows", "windows", "p50_ms, max_wps on serve_fleet"},
    {"serve.engine.queue_wait_p50_ms", "ms", "p50_ms on serve_fleet"},
    {"serve.engine.queue_wait_p99_ms", "ms", "p99 (reported) on serve_fleet"},
    {"serve.engine.pending_max", "windows", "p99 (reported), max_wps on serve_fleet"},
    {"serve.engine.bytes_per_stream", "bytes", "peak_rss_mb on serve_fleet"},
    {"serve.reload.total_ms", "ms", "reload_pause_ms"},
    {"serve.reload.canary_ms", "ms", "reload_pause_ms"},
    {"data.make_dataset_ms", "ms", "setup_s"},
    {"gen.late_max_ms", "ms", "validity check, not a target"},
    {"gen.backlog_end", "windows", "validity check, not a target"},
    {"harness.trace_overhead_pct", "%", "none: cost of the spans themselves"},
};

double MedianOf(const Tracer& tr, const char* name, double scale) {
  const std::vector<double> d = tr.Durations(name);
  return d.empty() ? 0.0 : Median(d) * scale;
}

// Time `fn` `reps` times as spans called `name`; the median in ns of
// these spans alone.
template <typename F>
double TimeSpans(Tracer* tr, const char* name, int reps, const F& fn) {
  std::vector<double> ns;
  for (int i = 0; i < reps; ++i) {
    const int32_t id = tr->Begin(name);
    fn();
    tr->End(id);
    if (id >= 0) {
      const Span& span = tr->spans()[static_cast<size_t>(id)];
      ns.push_back(static_cast<double>(span.end_ns - span.start_ns));
    }
  }
  return ns.empty() ? 0.0 : Median(ns);
}

std::vector<float> RandomBuffer(size_t n, Rng* rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng->Uniform(-1.0, 1.0));
  return v;
}

struct EngineReplay {
  int64_t scored = 0, expected = 0, flushes = 0, batched = 0;
  int64_t pending_max = 0, backlog_end = 0;
  double late_max_ms = 0.0;
  std::vector<double> queue_wait_ms;
  std::vector<int64_t> batch_sizes;
  double bytes_per_stream = 0.0;
};

// The serve engine in-process on the same seeded schedule and rows as
// serve_fleet's latency phase. Pushes and flushes are spanned; every
// arrival's observation goes through the request decoder and every score
// through the response encoder, as in caee_serve's loop.
EngineReplay ReplayEngine(const core::LoadedEnsemble& l,
                          const ts::TimeSeries& traffic, uint64_t seed,
                          double seconds, Tracer* tr, Result* result) {
  EngineReplay out;
  serve::ServeConfig config;
  config.max_batch = kMaxBatch;
  config.flush_deadline_ms = kFlushMs;
  config.num_shards = kShards;
  config.threshold_policy = core::ThresholdPolicy::kSpot;
  config.health.enabled = true;
  serve::ServingEngine engine(l.ensemble.get(), config, l.threshold, l.spot,
                              l.health);
  const int64_t w = l.ensemble->config().window;
  const StreamRows rows(traffic, kStreams + 1, seed);
  std::vector<int64_t> seen(static_cast<size_t>(kStreams + 1), 0);
  auto obs = [&](int64_t s) { return rows.Obs(s, seen[s]++); };
  std::vector<serve::StreamScore> results;
  for (int64_t s = 1; s <= kStreams; ++s) {
    engine.OpenStream(s, config.threshold_policy);
    for (int64_t j = 0; j + 1 < w; ++j) engine.Push(s, obs(s), &results);
  }

  // (stream, index) -> enqueue time, for the queue wait of each window.
  std::vector<std::vector<int64_t>> enqueued(static_cast<size_t>(kStreams + 1));
  struct Scored {
    int64_t stream, index, flush_start;
  };
  std::vector<Scored> scored;
  std::mutex scored_mu;
  // One flush call may score several shards; each shard's batch is one
  // forward pass, so batch sizes are counted per shard. Call under
  // scored_mu.
  auto record = [&](const std::vector<serve::StreamScore>& res, int64_t start) {
    std::vector<int64_t> per_shard(static_cast<size_t>(kShards), 0);
    for (const auto& r : res) {
      ++per_shard[serve::ServingEngine::ShardOf(r.stream_id,
                                                static_cast<size_t>(kShards))];
      scored.push_back({r.stream_id, r.index, start});
    }
    for (const int64_t n : per_shard) {
      if (n > 0) out.batch_sizes.push_back(n);
    }
  };
  std::atomic<bool> done{false};
  // Every score frame goes through the response encoder, on whichever
  // thread produced the score.
  auto encode = [](const std::vector<serve::StreamScore>& res, Tracer* t,
                   std::ostringstream* out) {
    for (const auto& r : res) {
      const int32_t id = t->Begin("serve.framing.encode", -1, r.stream_id);
      out->str("");
      fr::WriteFrame(*out, fr::MakeScoreFrame(r));
      t->End(id);
    }
  };
  Tracer flusher_tr(1 << 16);
  std::thread flusher([&] {
    std::vector<serve::StreamScore> res;
    std::ostringstream flusher_wire;
    const auto tick = std::chrono::milliseconds(std::max<int64_t>(1, kFlushMs / 2));
    while (!done.load()) {
      std::this_thread::sleep_for(tick);
      res.clear();
      const int64_t t0 = Tracer::NowNs();
      engine.FlushIfExpired(&res);
      const int64_t t1 = Tracer::NowNs();
      if (res.empty()) continue;
      flusher_tr.Add("serve.engine.flush", t0, t1, -1, 0);
      encode(res, &flusher_tr, &flusher_wire);
      std::lock_guard<std::mutex> lock(scored_mu);
      record(res, t0);
    }
  });

  std::ostringstream wire;
  std::string request;
  fr::Frame frame;
  std::vector<float> parsed;
  Rng rng = ScheduleRng(seed);
  const std::vector<ScheduleEvent> events =
      PoissonSchedule(&rng, kLatencyRate, seconds, kStreams, 0);
  const int64_t start = Tracer::NowNs() + 2'000'000;
  for (const ScheduleEvent& e : events) {
    const int64_t s = e.stream;
    const int64_t due = start + e.offset_ns;
    if (Tracer::NowNs() < due) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
    }
    out.late_max_ms = std::max(out.late_max_ms,
                               static_cast<double>(Tracer::NowNs() - due) * 1e-6);
    wire.str("");
    fr::WriteFrame(wire, fr::MakeObserveFrame(s, obs(s)));
    request = wire.str();
    std::istringstream in(request);
    bool eof = false;
    const int32_t id = tr->Begin("serve.framing.decode", -1, s);
    const bool decoded = fr::ReadFrame(in, &frame, &eof).ok() &&
                         fr::ParseObserve(frame, &parsed).ok();
    tr->End(id);
    if (!decoded) result->Fail("replay: observation frame did not decode");
    results.clear();
    const int64_t t0 = Tracer::NowNs();
    const Status status = engine.Push(s, parsed, &results);
    const int64_t t1 = Tracer::NowNs();
    ++out.expected;
    if (!status.ok()) result->Fail("replay push: " + status.ToString());
    tr->Add(results.empty() ? "serve.engine.push" : "serve.engine.flush", t0, t1,
            -1, s);
    enqueued[s].resize(static_cast<size_t>(seen[s]), 0);
    enqueued[s][static_cast<size_t>(seen[s] - 1)] = t1;
    encode(results, tr, &wire);
    {
      std::lock_guard<std::mutex> lock(scored_mu);
      record(results, t0);
    }
    out.pending_max = std::max(out.pending_max, engine.pending_windows());
  }
  {
    std::lock_guard<std::mutex> lock(scored_mu);
    out.backlog_end = out.expected - static_cast<int64_t>(scored.size());
  }
  // Let the deadline flusher drain what is left, as it would live.
  const int64_t drain_until = Tracer::NowNs() + 5'000'000'000;
  while (Tracer::NowNs() < drain_until) {
    {
      std::lock_guard<std::mutex> lock(scored_mu);
      if (static_cast<int64_t>(scored.size()) >= out.expected) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true);
  flusher.join();
  for (const Span& sp : flusher_tr.spans()) {
    tr->Add(sp.name, sp.start_ns, sp.end_ns, -1, sp.request);
  }
  if (flusher_tr.dropped() > 0) {
    result->Fail("replay: flusher spans over the buffer's capacity");
  }

  for (const Scored& sc : scored) {
    const auto& e = enqueued[sc.stream];
    if (sc.index < 0 || sc.index >= static_cast<int64_t>(e.size()) || e[sc.index] == 0) {
      result->Fail("replay: score for an observation never pushed");
      continue;
    }
    out.queue_wait_ms.push_back(
        std::max<int64_t>(0, sc.flush_start - e[sc.index]) * 1e-6);
  }
  out.scored = static_cast<int64_t>(scored.size());
  if (out.scored != out.expected) {
    result->Fail("replay: " + std::to_string(out.expected - out.scored) +
                 " observation(s) not scored exactly once");
  }
  for (const int64_t b : out.batch_sizes) out.batched += b;
  out.flushes = static_cast<int64_t>(out.batch_sizes.size());
  out.bytes_per_stream = static_cast<double>(engine.MemoryBytes()) /
                         static_cast<double>(std::max<int64_t>(1, engine.num_streams()));
  result->attempted += out.expected;
  return out;
}

// Closed-loop pushes of a fixed sequence, spanned or not: the difference
// is what recording spans costs.
double PushLoopSeconds(const core::LoadedEnsemble& l,
                       const ts::TimeSeries& traffic, Tracer* tr) {
  serve::ServeConfig config;
  config.max_batch = kMaxBatch;
  config.flush_deadline_ms = 0;
  config.num_shards = kShards;
  serve::ServingEngine engine(l.ensemble.get(), config, l.threshold);
  const int64_t w = l.ensemble->config().window, dims = traffic.dims();
  std::vector<serve::StreamScore> results;
  const int64_t streams = std::min<int64_t>(kStreams, 64);
  std::vector<float> o(static_cast<size_t>(dims));
  auto row = [&](int64_t i) {
    std::memcpy(o.data(), traffic.row(i % traffic.length()), o.size() * sizeof(float));
  };
  for (int64_t s = 1; s <= streams; ++s) {
    engine.OpenStream(s);
    for (int64_t j = 0; j + 1 < w; ++j) {
      row(s * 7 + j);
      engine.Push(s, o, &results);
    }
  }
  const int64_t t0 = Tracer::NowNs();
  for (int64_t i = 0; i < 4096; ++i) {
    row(i);
    results.clear();
    const int32_t id = tr->Begin("harness.push", -1, i);
    engine.Push(1 + i % streams, o, &results);
    tr->End(id);
    for (size_t r = 0; r < results.size(); ++r) tr->End(tr->Begin("harness.score", id, i));
  }
  return SecondsSince(t0);
}

}  // namespace

Result RunTraced(const RunArgs& args) {
  Result result;
  Tracer tr(1 << 18);
  std::vector<std::pair<std::string, double>> values;
  auto put = [&](const char* name, double v) { values.emplace_back(name, v); };

  // --- data + train --------------------------------------------------------
  ts::Dataset dataset;
  for (int i = 0; i < 3; ++i) {
    const int32_t id = tr.Begin("data.make_dataset");
    if (Status s = MakeSmd(&dataset); !s.ok()) {
      result.Fail("dataset: " + s.ToString());
      return result;
    }
    tr.End(id);
  }
  put("data.make_dataset_ms", MedianOf(tr, "data.make_dataset", 1e-6));
  Model model, model_t1;
  int32_t id = tr.Begin("core.fit");
  Status status = FitModel(dataset.train, kThreads, &model);
  tr.End(id);
  if (status.ok()) {
    id = tr.Begin("core.fit_t1");
    status = FitModel(dataset.train, 1, &model_t1);
    tr.End(id);
  }
  if (status.ok()) status = Calibrate(dataset.train, &model);
  result.attempted += 3;
  if (!status.ok()) {
    result.Fail("train: " + status.ToString());
    return result;
  }
  put("core.fit_s", model.fit_s);
  put("common.pool.speedup_fit", model_t1.fit_s / model.fit_s);
  {
    auto a = model.ensemble->Score(dataset.test);
    auto b = model_t1.ensemble->Score(dataset.test);
    if (!a.ok() || !b.ok() || *a != *b) {
      result.Fail("fits at 1 and 2 threads give different scores");
    }
  }
  const std::string artifact = args.work_dir + "/model.caee";
  for (int i = 0; i < 3; ++i) {
    id = tr.Begin("core.persistence.save");
    status = Save(model, artifact);
    tr.End(id);
    if (!status.ok()) result.Fail("save: " + status.ToString());
  }
  put("core.persistence.save_ms", MedianOf(tr, "core.persistence.save", 1e-6));
  put("core.persistence.artifact_bytes",
      static_cast<double>(std::filesystem::file_size(artifact)));
  StatusOr<core::LoadedEnsemble> loaded_or = Status::Internal("not loaded");
  for (int i = 0; i < 3; ++i) {
    id = tr.Begin("core.persistence.load");
    loaded_or = core::LoadEnsemble(artifact);
    tr.End(id);
  }
  if (!loaded_or.ok()) {
    result.Fail("load: " + loaded_or.status().ToString());
    return result;
  }
  put("core.persistence.load_ms", MedianOf(tr, "core.persistence.load", 1e-6));
  core::LoadedEnsemble& loaded = *loaded_or;
  core::CaeEnsemble& ens = *loaded.ensemble;
  ens.set_num_threads(kThreads);
  TimeSpans(&tr, "core.score_series", 3, [&] { (void)ens.Score(dataset.test); });
  put("core.score_series_ms", MedianOf(tr, "core.score_series", 1e-6));

  // --- serve engine replay -------------------------------------------------
  const ts::TimeSeries& traffic = dataset.train;
  EngineReplay rep = ReplayEngine(
      loaded, traffic, args.seed,
      PhaseSeconds(args.seconds, kLatencyShare, kLatencyRate), &tr, &result);
  put("serve.framing.decode_ns", MedianOf(tr, "serve.framing.decode", 1.0));
  put("serve.framing.encode_ns", MedianOf(tr, "serve.framing.encode", 1.0));
  put("serve.engine.push_ns", MedianOf(tr, "serve.engine.push", 1.0));
  put("serve.engine.flush_ms", MedianOf(tr, "serve.engine.flush", 1e-6));
  put("serve.engine.batch_windows",
      static_cast<double>(rep.batched) / static_cast<double>(std::max<int64_t>(1, rep.flushes)));
  const TailSummary wait = Summarize(rep.queue_wait_ms);
  put("serve.engine.queue_wait_p50_ms", wait.median);
  put("serve.engine.queue_wait_p99_ms", SupportedPercentile(rep.queue_wait_ms, 99.0));
  put("serve.engine.pending_max", static_cast<double>(rep.pending_max));
  put("serve.engine.bytes_per_stream", rep.bytes_per_stream);
  put("gen.late_max_ms", rep.late_max_ms);
  put("gen.backlog_end", static_cast<double>(rep.backlog_end));
  result.Note("engine replay at " + std::to_string(static_cast<int>(kLatencyRate)) +
              "/s: " + std::to_string(rep.expected) + " windows in " +
              std::to_string(rep.flushes) + " flushes; queue wait " +
              DescribeTail(wait, "ms"));

  {  // Reloads: total, and the canary as total minus a load of the artifact.
    serve::ServeConfig config;
    config.max_batch = kMaxBatch;
    config.num_shards = kShards;
    config.threshold_policy = core::ThresholdPolicy::kSpot;
    config.health.enabled = true;
    serve::ServingEngine engine(&ens, config, loaded.threshold, loaded.spot,
                                loaded.health);
    std::vector<serve::StreamScore> res;
    const int64_t w = ens.config().window;
    for (int64_t s = 1; s <= std::min<int64_t>(kStreams, 64); ++s) {
      engine.OpenStream(s, config.threshold_policy);
      for (int64_t j = 0; j < 2 * w; ++j) {
        const float* r = traffic.row((s * 13 + j) % traffic.length());
        engine.Push(s, std::vector<float>(r, r + traffic.dims()), &res);
      }
    }
    engine.Flush(&res);
    for (int i = 0; i < 3; ++i) {
      id = tr.Begin("serve.reload.total");
      auto g = engine.ReloadArtifact(artifact);
      tr.End(id);
      id = tr.Begin("serve.reload.load");
      auto again = core::LoadEnsemble(artifact);
      tr.End(id);
      result.attempted += 2;
      if (!g.ok() || !again.ok()) result.Fail("reload in replay failed");
    }
    const double total = MedianOf(tr, "serve.reload.total", 1e-6);
    put("serve.reload.total_ms", total);
    put("serve.reload.canary_ms", total - MedianOf(tr, "serve.reload.load", 1e-6));
  }

  // --- scoring decomposition: core -> infer, at batch 1 and 16 -------------
  const int64_t w = ens.config().window, dims = traffic.dims();
  const int64_t E = ens.model(0).config().embed_dim;
  const int64_t M = ens.num_models();
  const infer::EmbeddingPlan embed_plan = infer::EmbeddingPlan::Compile(ens.embedding());
  std::vector<infer::CaePlan> plans;
  for (int64_t m = 0; m < M; ++m) plans.push_back(ens.model(m).CompilePlan(0));
  infer::Arena arena;
  Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 17);
  std::vector<double> scores;
  auto windows_for = [&](int64_t b) {
    std::vector<int64_t> starts(static_cast<size_t>(b));
    for (int64_t& s : starts) {
      s = static_cast<int64_t>(rng.NextUint64() %
                               static_cast<uint64_t>(traffic.length() - w + 1));
    }
    std::vector<float> buf(static_cast<size_t>(b * w * dims));
    GatherWindows(traffic, starts, w, buf.data());
    return buf;
  };
  // Replays the flushes' own batch sizes, then fixed batches of 1 and 16.
  // At one thread the parent's members run one after another, so the
  // replayed children account for everything but its own work (z-scale,
  // median, dispersion).
  auto decompose = [&](int64_t b, const char* parent, const char* embed,
                       const char* member, int64_t request) {
    const std::vector<float> buf = windows_for(b);
    std::vector<float> scaled(buf.size()), x(static_cast<size_t>(b * w * E)),
        y(x.size());
    const std::vector<double>& mean = ens.scaler().mean();
    const std::vector<double>& sd = ens.scaler().stddev();
    for (size_t i = 0; i < buf.size(); ++i) {
      const size_t d = i % static_cast<size_t>(dims);
      scaled[i] = static_cast<float>((buf[i] - mean[d]) / sd[d]);
    }
    ParallelismCap cap(1);
    ens.set_num_threads(1);
    const int32_t p = tr.Begin(parent, -1, request);
    ens.ScoreWindowsLastInto(buf.data(), b, &scores);
    tr.End(p);
    int32_t c = tr.Begin(embed, p, request);
    embed_plan.Execute(scaled.data(), b, x.data());
    tr.End(c);
    for (int64_t m = 0; m < M; ++m) {
      c = tr.Begin(member, p, request);
      plans[m].Execute(x.data(), b, w, &arena, y.data());
      tr.End(c);
    }
    ens.set_num_threads(kThreads);
  };
  for (size_t i = 0; i < rep.batch_sizes.size() && i < 400; ++i) {
    decompose(rep.batch_sizes[i], "core.score_flush", "infer.embed_flush",
              "infer.member_flush", static_cast<int64_t>(i));
  }
  for (int i = 0; i < 200; ++i) decompose(1, "core.score_b1_t1", "infer.embed_b1", "infer.member_b1", i);
  for (int i = 0; i < 100; ++i) decompose(16, "core.score_b16_t1", "infer.embed_b16", "infer.member_b16", i);
  put("infer.embed_b1_us", MedianOf(tr, "infer.embed_b1", 1e-3));
  put("infer.embed_b16_us", MedianOf(tr, "infer.embed_b16", 1e-3 / 16));
  put("infer.member_b1_us", MedianOf(tr, "infer.member_b1", 1e-3));
  put("infer.member_b16_us", MedianOf(tr, "infer.member_b16", 1e-3 / 16));
  {
    // The self time is 0.2-0.8% of the call, inside the noise between a
    // call and its replayed children, so a per-call self time clipped at
    // zero (SelfTimesNs) reads 0 in most calls. The mean of the unclipped
    // difference is reported instead; it can dip below zero.
    const std::vector<double> calls = tr.Durations("core.score_b16_t1");
    double self_ns = 0.0;
    for (const double d : calls) self_ns += d;
    for (const char* child : {"infer.embed_b16", "infer.member_b16"}) {
      for (const double d : tr.Durations(child)) self_ns -= d;
    }
    put("core.score_self_b16_us",
        self_ns * 1e-3 / (16.0 * static_cast<double>(calls.size())));
  }
  {
    double flush_total = 0.0, flush_self = 0.0;
    for (const double d : tr.Durations("core.score_flush")) flush_total += d;
    for (const double d : tr.SelfTimes("core.score_flush")) flush_self += d;
    char line[200];
    std::snprintf(line, sizeof(line),
                  "flush replay (%zu flushes, 1 thread): core.score self %.1f%%, "
                  "infer.embed %.1f%%, infer.member %.1f%% of scoring time",
                  tr.Durations("core.score_flush").size(),
                  100.0 * flush_self / std::max(1.0, flush_total),
                  100.0 * MedianOf(tr, "infer.embed_flush", 1.0) *
                      static_cast<double>(tr.Durations("infer.embed_flush").size()) /
                      std::max(1.0, flush_total),
                  100.0 * MedianOf(tr, "infer.member_flush", 1.0) *
                      static_cast<double>(tr.Durations("infer.member_flush").size()) /
                      std::max(1.0, flush_total));
    result.Note(line);
  }
  for (const int64_t b : {int64_t{1}, int64_t{16}}) {
    const std::vector<float> buf = windows_for(b);
    const char* t2 = b == 1 ? "core.score_b1" : "core.score_b16";
    const char* t1 = b == 1 ? "core.score_b1_t1only" : "core.score_b16_t1only";
    ens.set_num_threads(kThreads);
    const double at2 = TimeSpans(&tr, t2, b == 1 ? 300 : 100, [&] {
      ens.ScoreWindowsLastInto(buf.data(), b, &scores);
    });
    ens.set_num_threads(1);
    const double at1 = TimeSpans(&tr, t1, b == 1 ? 300 : 100, [&] {
      ens.ScoreWindowsLastInto(buf.data(), b, &scores);
    });
    ens.set_num_threads(kThreads);
    put(b == 1 ? "core.score_b1_us" : "core.score_b16_us", at2 * 1e-3 / static_cast<double>(b));
    put(b == 1 ? "common.pool.speedup_score_b1" : "common.pool.speedup_score_b16", at1 / at2);
  }
  {
    ParallelismCap cap(kThreads);
    const int64_t b = ens.config().batch_size;
    const std::vector<float> buf = windows_for(b);
    std::vector<float> x(static_cast<size_t>(b * w * E)), y(x.size());
    embed_plan.Execute(buf.data(), b, x.data());
    put("infer.member_full_us",
        TimeSpans(&tr, "infer.member_full", 30, [&] {
          plans[0].Execute(x.data(), b, w, &arena, y.data());
        }) * 1e-3 / static_cast<double>(b));
  }

  // --- kernels at the member's conv shapes ---------------------------------
  {
    ParallelismCap cap(kThreads);
    struct Conv {
      int64_t cout, k, cin;
    };
    std::vector<Conv> convs;
    double member_flops = 0.0;
    for (const auto& [name, v] : ens.model(0).NamedParameters()) {
      const auto& shape = v->value().shape();
      if (shape.size() == 3) {
        convs.push_back({shape[0], shape[1], shape[2]});
        member_flops += 2.0 * w * shape[1] * shape[2] * shape[0];
      } else if (shape.size() == 2 && name.find("attention") != std::string::npos) {
        // z-projection plus the two (w x w) attention products.
        member_flops += 2.0 * w * shape[0] * shape[1] + 2.0 * 2.0 * w * w * shape[0];
      }
    }
    put("kernels.flops_per_window",
        member_flops * static_cast<double>(M) + 2.0 * w * dims * E);
    const Conv* dominant = &convs.front();
    for (const Conv& c : convs) {
      if (c.k * c.cin * c.cout > dominant->k * dominant->cin * dominant->cout) dominant = &c;
    }
    struct Shape {
      int64_t batch;
      const char* fwd;
      const char* gemm_span;
      const char* gflops;
      const char* fwd_metric;
      int reps;
    };
    const Shape shapes[] = {
        {1, "kernels.conv_fwd_b1", "kernels.sgemm_b1", "kernels.sgemm_gflops_b1", "kernels.conv_fwd_b1_us", 300},
        {16, "kernels.conv_fwd_b16", "kernels.sgemm_b16", "kernels.sgemm_gflops_b16", "kernels.conv_fwd_b16_us", 100},
        {ens.config().batch_size, "kernels.conv_fwd_train", "kernels.sgemm_train", "kernels.sgemm_gflops_train", "kernels.conv_fwd_train_us", 30},
    };
    for (const Shape& sh : shapes) {
      double sum_ns = 0.0, bwd_ns = 0.0;
      for (const Conv& c : convs) {
        const std::vector<float> x = RandomBuffer(static_cast<size_t>(sh.batch * w * c.cin), &rng);
        const std::vector<float> wt = RandomBuffer(static_cast<size_t>(c.cout * c.k * c.cin), &rng);
        const std::vector<float> bias = RandomBuffer(static_cast<size_t>(c.cout), &rng);
        std::vector<float> y(static_cast<size_t>(sh.batch * w * c.cout));
        const int64_t pad = (c.k - 1) / 2;
        sum_ns += TimeSpans(&tr, sh.fwd, sh.reps, [&] {
          kernels::Conv1dForward(x.data(), wt.data(), bias.data(), y.data(), sh.batch, w,
                                 c.cin, c.cout, c.k, pad, w);
        });
        if (sh.batch == ens.config().batch_size) {
          std::vector<float> dx(x.size()), dw(wt.size());
            bwd_ns += TimeSpans(&tr, "kernels.conv_bwd_train", sh.reps, [&] {
            kernels::Conv1dBackwardInput(y.data(), wt.data(), dx.data(), sh.batch, w, c.cin,
                                         c.cout, c.k, pad, w);
            kernels::Conv1dBackwardWeight(y.data(), x.data(), dw.data(), sh.batch, w, c.cin,
                                          c.cout, c.k, pad, w);
          });
        }
      }
      put(sh.fwd_metric, sum_ns * 1e-3);
      if (bwd_ns > 0.0) put("kernels.conv_bwd_train_us", bwd_ns * 1e-3);
      const int64_t m = sh.batch * w, k = dominant->k * dominant->cin, n = dominant->cout;
      const std::vector<float> a = RandomBuffer(static_cast<size_t>(m * k), &rng);
      const std::vector<float> bm = RandomBuffer(static_cast<size_t>(k * n), &rng);
      std::vector<float> cm(static_cast<size_t>(m * n));
      const double ns = TimeSpans(&tr, sh.gemm_span, sh.reps * 3, [&] {
        kernels::Sgemm(m, n, k, a.data(), k, bm.data(), n, cm.data(), n);
      });
      put(sh.gflops, 2.0 * static_cast<double>(m * n * k) / ns);
    }
  }

  // --- one training step at batch 64: nn, autograd, optim ------------------
  {
    ParallelismCap cap(kThreads);
    Rng init(args.seed + 29);
    core::Cae cae(ens.model(0).config(), &init);
    const std::vector<ag::Var> params = cae.Parameters();
    optim::Adam adam(params, 1e-3f);
    const int64_t b = ens.config().batch_size;
    Tensor input(Shape{b, w, E});
    for (int64_t i = 0; i < b * w * E; ++i) {
      input.data()[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
    const ag::Var x = ag::Constant(input);
    for (int step = 0; step < 12; ++step) {
      const int32_t s = tr.Begin("train.step", -1, step);
      int32_t c = tr.Begin("nn.cae_forward", s, step);
      const ag::Var loss = ag::MseLoss(cae.Reconstruct(x), x);
      tr.End(c);
      c = tr.Begin("autograd.backward", s, step);
      ag::Backward(loss);
      tr.End(c);
      c = tr.Begin("optim.clip", s, step);
      optim::ClipGradNorm(params, 5.0);
      tr.End(c);
      c = tr.Begin("optim.adam_step", s, step);
      adam.Step();
      tr.End(c);
      cae.ZeroGrad();
      tr.End(s);
    }
    put("nn.cae_forward_ms", MedianOf(tr, "nn.cae_forward", 1e-6));
    put("autograd.backward_ms", MedianOf(tr, "autograd.backward", 1e-6));
    put("optim.clip_us", MedianOf(tr, "optim.clip", 1e-3));
    put("optim.adam_step_us", MedianOf(tr, "optim.adam_step", 1e-3));
    put("core.transfer_ms", TimeSpans(&tr, "core.transfer", 10, [&] {
          core::TransferParameters(ens.model(1), &cae, 0.5f, &init);
        }) * 1e-6);
  }

  // --- SPOT, pool dispatch -------------------------------------------------
  {
    const core::SpotInit& spot = *loaded.spot;
    core::SpotTail tail;
    std::vector<double> peaks(static_cast<size_t>(spot.config.peak_capacity));
    core::SpotSeedTail(spot, &tail, peaks.data());
    auto series = ens.Score(dataset.test);
    int64_t alerts = 0;
    const double block_ns = TimeSpans(&tr, "core.spot_observe_block", 50, [&] {
      for (const double s : *series) alerts += core::SpotObserve(spot, &tail, peaks.data(), s);
    });
    put("core.spot_observe_ns", block_ns / static_cast<double>(series->size()));
    std::atomic<int64_t> sink{0};
    put("common.pool.dispatch_us", TimeSpans(&tr, "common.pool.dispatch", 2000, [&] {
          ParallelFor(2, [&](size_t i) { sink.fetch_add(static_cast<int64_t>(i)); }, 1,
                      static_cast<size_t>(kThreads));
        }) * 1e-3);
  }

  // --- tracing overhead: the same closed-loop pushes, spanned and not -------
  {
    std::vector<double> on, off;
    for (int i = 0; i < 5; ++i) {
      Tracer disabled(0, false), enabled(1 << 14);
      off.push_back(PushLoopSeconds(loaded, traffic, &disabled));
      on.push_back(PushLoopSeconds(loaded, traffic, &enabled));
    }
    put("harness.trace_overhead_pct", 100.0 * (Median(on) - Median(off)) / Median(off));
  }

  if (tr.dropped() > 0) {
    result.Fail(std::to_string(tr.dropped()) + " span(s) over the buffer's capacity");
  }
  if (!WriteSpans(tr.spans(), args.work_dir + "/spans.jsonl")) {
    result.Fail("could not write spans");
  }
  // Report each layer metric next to what it should move.
  for (const Layer& layer : kLayers) {
    auto it = std::find_if(values.begin(), values.end(),
                           [&](const auto& v) { return v.first == layer.name; });
    if (it == values.end()) {
      result.Fail(std::string("layer metric not measured: ") + layer.name);
      continue;
    }
    result.Add(layer.name, it->second, layer.unit);
    char line[240];
    std::snprintf(line, sizeof(line), "%-34s %14.6g %-8s -> %s", layer.name,
                  it->second, layer.unit, layer.moves);
    result.Note(line);
  }
  return result;
}

}  // namespace perfbench
