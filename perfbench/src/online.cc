// serve_fleet: caee_serve --streams --binary as a child process, driven
// open-loop over its pipes. Latency runs from each
// arrival's due time to its score frame read back, so a stall is charged
// to every arrival it delays, and a late generator is reported and fails
// the rung instead of passing it.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iterator>
#include <thread>

#include "child.h"
#include "core/persistence.h"
#include "serve/framing.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

using namespace caee;
namespace fr = serve::framing;

namespace {

struct Arrival {
  int64_t due_ns = 0;
  int64_t stream = 0;
  int64_t k = 0;       // observation index within the stream
  int scored = 0;      // score frames received for it
  double latency_ms = 0.0;
  double score = 0.0;  // as served
};

// Generator state for one child: the rows the streams replay and which
// arrival each post-warm-up observation is.
class Generator {
 public:
  Generator(const ts::TimeSeries& traffic, int64_t streams, int64_t w,
            uint64_t seed)
      : rows_(traffic, streams + 1, seed), w_(w),
        arrival_of_(static_cast<size_t>(streams + 2)) {}

  const StreamRows& rows() const { return rows_; }
  // The next observation of `stream`, recorded as arrival `id` (-1 for
  // warm-up observations, which are never scored).
  int64_t Next(int64_t stream, int32_t id) {
    auto& of = arrival_of_[stream];
    of.push_back(id);
    return static_cast<int64_t>(of.size()) - 1;
  }
  int32_t ArrivalOf(int64_t stream, int64_t k) const {
    if (stream < 0 || stream >= static_cast<int64_t>(arrival_of_.size())) {
      return -1;
    }
    const auto& of = arrival_of_[stream];
    return k >= 0 && k < static_cast<int64_t>(of.size()) ? of[k] : -1;
  }
  int64_t w() const { return w_; }

 private:
  StreamRows rows_;
  int64_t w_;
  std::vector<std::vector<int32_t>> arrival_of_;
};

// Everything the kept child's run accumulates.
struct Session {
  ServeChild child;
  std::unique_ptr<Generator> gen;
  std::vector<Arrival> arrivals;
  int64_t frames_sent = 0;
  int64_t expected_scores = 0;
  size_t absorbed = 0;  // responses already matched
  int64_t open_acks = 0, backpressure = 0, errors = 0, unexpected = 0,
          duplicates = 0;
  std::vector<int64_t> reload_sent_ns, reload_ack_ns;
  int64_t reload_errors = 0;
  int64_t health_generation = -1;
};

bool SendCounted(Session* s, const fr::Frame& frame) {
  ++s->frames_sent;
  return s->child.Send(frame);
}

// Match every response received since the last call.
void Absorb(Session* s) {
  const size_t n = s->child.received();
  for (; s->absorbed < n; ++s->absorbed) {
    const Response& r = s->child.response(s->absorbed);
    switch (static_cast<fr::FrameType>(r.type)) {
      case fr::FrameType::kScore: {
        const int32_t id = s->gen->ArrivalOf(r.stream_id, r.index);
        if (id < 0) {
          ++s->unexpected;
          break;
        }
        Arrival& a = s->arrivals[static_cast<size_t>(id)];
        if (++a.scored > 1) {
          ++s->duplicates;
          break;
        }
        a.latency_ms = static_cast<double>(r.recv_ns - a.due_ns) * 1e-6;
        a.score = r.score;
        break;
      }
      case fr::FrameType::kOk:
        if (r.stream_id == 0) {
          s->reload_ack_ns.push_back(r.recv_ns);
        } else {
          ++s->open_acks;
        }
        break;
      case fr::FrameType::kError:
        if (r.stream_id == 0) {
          ++s->reload_errors;
          s->reload_ack_ns.push_back(r.recv_ns);
        } else {
          ++s->errors;
        }
        break;
      case fr::FrameType::kBackpressure:
        ++s->backpressure;
        break;
      case fr::FrameType::kHealthStatus:
        s->health_generation = r.generation;
        break;
      default:
        ++s->errors;
        break;
    }
  }
}

std::vector<std::string> ServeArgv(const RunArgs& args,
                                   const std::string& artifact) {
  return {args.serve_bin, "--model", artifact, "--threads",
          std::to_string(kThreads), "--streams", "--binary", "--shards",
          std::to_string(kShards), "--max-batch", std::to_string(kMaxBatch),
          "--flush-ms", std::to_string(kFlushMs), "--health"};
}

// Start a child and bring it to the timed state: every session open, every
// ring at w-1 observations. A sync stream then completes one window; its
// score frame (which also flushes the buffered open acks) marks the end.
// Returns the set-up seconds, or a negative value on failure.
double SetUpServer(const RunArgs& args, const std::string& artifact,
                   const ts::TimeSeries& traffic, int64_t w, size_t capacity,
                   Session* s) {
  const int64_t t0 = Tracer::NowNs();
  s->gen = std::make_unique<Generator>(traffic, kStreams, w, args.seed);
  if (!s->child.Start(ServeArgv(args, artifact),
                      args.work_dir + "/caee_serve.log", capacity)) {
    return -1.0;
  }
  const int64_t sync = kStreams + 1;
  bool ok = true;
  for (int64_t id = 1; id <= sync && ok; ++id) {
    ok = SendCounted(s, fr::MakeOpenFrame(id, core::ThresholdPolicy::kSpot));
  }
  for (int64_t j = 0; j + 1 < w && ok; ++j) {
    for (int64_t id = 1; id <= kStreams && ok; ++id) {
      const int64_t k = s->gen->Next(id, -1);
      ok = SendCounted(s, fr::MakeObserveFrame(id, s->gen->rows().Obs(id, k)));
    }
  }
  for (int64_t j = 0; j < w && ok; ++j) {
    Arrival a;
    a.due_ns = Tracer::NowNs();
    a.stream = sync;
    const int32_t id = j + 1 < w ? -1 : static_cast<int32_t>(s->arrivals.size());
    a.k = s->gen->Next(sync, id);
    if (id >= 0) s->arrivals.push_back(a);
    ok = SendCounted(s, fr::MakeObserveFrame(sync, s->gen->rows().Obs(sync, a.k)));
  }
  s->expected_scores = 1;
  if (!ok || !s->child.WaitForScores(1, 60.0) ||
      !s->child.WaitForResponses(static_cast<size_t>(sync) + 1, 60.0)) {
    return -1.0;
  }
  const double seconds = SecondsSince(t0);
  Absorb(s);
  return seconds;
}

struct PhaseOut {
  RungResult rung;
  double duration_s = 0.0;
  size_t first = 0, end = 0;  // arrival range
};

// One open-loop phase: `events` (arrivals at `rate` over `duration_s`, and
// reloads) sent on schedule.
PhaseOut RunPhase(Session* s, const std::vector<ScheduleEvent>& events,
                  double rate, double duration_s,
                  const std::string& artifact) {
  PhaseOut out;
  out.rung.rate = rate;
  out.duration_s = duration_s;
  out.first = s->arrivals.size();
  const int64_t start = Tracer::NowNs() + 2'000'000;
  for (const ScheduleEvent& e : events) {
    const int64_t due = start + e.offset_ns;
    if (Tracer::NowNs() < due) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
    }
    const int64_t now = Tracer::NowNs();
    const double late_ms = static_cast<double>(now - due) * 1e-6;
    out.rung.late_max_ms = std::max(out.rung.late_max_ms, late_ms);
    if (e.stream != 0) out.rung.late_ms.push_back(late_ms);
    if (e.stream == 0) {
      s->reload_sent_ns.push_back(now);
      SendCounted(s, fr::MakeReloadFrame(artifact));
      continue;
    }
    Arrival a;
    a.due_ns = due;
    a.stream = e.stream;
    a.k = s->gen->Next(e.stream, static_cast<int32_t>(s->arrivals.size()));
    s->arrivals.push_back(a);
    ++s->expected_scores;
    SendCounted(s, fr::MakeObserveFrame(e.stream, s->gen->rows().Obs(e.stream, a.k)));
  }
  out.end = s->arrivals.size();
  out.rung.attempted = static_cast<int64_t>(out.end - out.first);
  out.rung.backlog_end = s->expected_scores - s->child.scores();
  s->child.WaitForScores(s->expected_scores, 60.0);
  Absorb(s);
  for (size_t i = out.first; i < out.end; ++i) {
    const Arrival& a = s->arrivals[i];
    if (a.scored == 1) {
      out.rung.latency_ms.push_back(a.latency_ms);
    } else {
      ++out.rung.failed;
    }
  }
  return out;
}

// Online == offline: every served score must equal, bitwise, what the
// library computes in-process for the same window; so must their sum.
void CheckAgainstLibrary(const Session& s, const std::string& artifact,
                         const ts::TimeSeries& traffic, Result* result) {
  auto loaded = core::LoadEnsemble(artifact);
  if (!loaded.ok()) {
    result->Fail("reference load failed: " + loaded.status().ToString());
    return;
  }
  core::CaeEnsemble& ensemble = *loaded->ensemble;
  ensemble.set_num_threads(kThreads);
  const int64_t w = s.gen->w(), dims = traffic.dims();
  std::vector<float> windows;
  std::vector<double> reference, served, chunk;
  int64_t batch = 0;
  bool scored = true;
  auto flush = [&] {
    if (batch == 0) return;
    scored = scored &&
             ensemble.ScoreWindowsLastInto(windows.data(), batch, &chunk).ok();
    reference.insert(reference.end(), chunk.begin(), chunk.end());
    windows.clear();
    batch = 0;
  };
  for (const Arrival& a : s.arrivals) {
    if (a.scored != 1) continue;
    for (int64_t j = a.k - w + 1; j <= a.k; ++j) {
      const float* row = s.gen->rows().Row(a.stream, j);
      windows.insert(windows.end(), row, row + dims);
    }
    served.push_back(a.score);
    if (++batch == 256) flush();
  }
  flush();
  if (!scored || reference.size() != served.size()) {
    result->Fail("in-process reference scoring failed");
    return;
  }
  int64_t mismatches = 0;
  double sum_served = 0.0, sum_reference = 0.0;
  for (size_t i = 0; i < served.size(); ++i) {
    if (std::memcmp(&served[i], &reference[i], sizeof(double)) != 0) {
      ++mismatches;
    }
    sum_served += served[i];
    sum_reference += reference[i];
  }
  if (mismatches > 0) {
    result->Fail(std::to_string(mismatches) +
                     " served score(s) differ from in-process "
                     "ScoreWindowsLastInto",
                 mismatches);
  }
  if (std::memcmp(&sum_served, &sum_reference, sizeof(double)) != 0) {
    result->Fail("sum of served scores differs from the in-process sum");
  }
  char line[200];
  std::snprintf(line, sizeof(line),
                "online == offline: %zu scores, sum %.17g served vs %.17g "
                "in-process, %lld mismatch(es)",
                served.size(), sum_served, sum_reference,
                static_cast<long long>(mismatches));
  result->Note(line);
}

std::string RungLine(const PhaseOut& p, const char* verdict) {
  char line[300];
  std::snprintf(line, sizeof(line),
                "rung %6.0f/s: %lld sent in %.2f s, %s, late_max %.3f ms, "
                "backlog_end %lld, failed %lld -> %s",
                p.rung.rate, static_cast<long long>(p.rung.attempted),
                p.duration_s,
                DescribeTail(Summarize(p.rung.latency_ms), "ms").c_str(),
                p.rung.late_max_ms,
                static_cast<long long>(p.rung.backlog_end),
                static_cast<long long>(p.rung.failed), verdict);
  return line;
}

}  // namespace

double PhaseSeconds(double seconds, double share, double rate) {
  return std::max(seconds * share, 1.5 * static_cast<double>(kP99Block) / rate);
}

Result RunServe(const RunArgs& args) {
  Result result;

  // --- Set-up: data (x3), the served artifact, then the server (x3). ------
  ts::Dataset dataset;
  std::vector<double> datagen_s;
  for (int i = 0; i < 3; ++i) {
    const int64_t t0 = Tracer::NowNs();
    if (Status s = MakeSmd(&dataset); !s.ok()) {
      result.Fail("dataset: " + s.ToString());
      return result;
    }
    datagen_s.push_back(SecondsSince(t0));
  }
  // The artifact is the first of three fits; train_s and set-up count
  // their median.
  Model model;
  std::vector<double> fit_wall_s, fit_cpu_s;
  if (!FitRepeatedly(dataset, 3, 0.0, &model, &fit_wall_s, &fit_cpu_s,
                     &result)) {
    return result;
  }
  const std::string artifact = args.work_dir + "/model.caee";
  const int64_t calibrate0 = Tracer::NowNs();
  Status status = Calibrate(dataset.train, &model);
  if (status.ok()) status = Save(model, artifact);
  const double calibrate_s = SecondsSince(calibrate0);
  if (!status.ok()) {
    result.Fail("artifact: " + status.ToString());
    return result;
  }
  std::vector<double> test_scores;
  MeasureOffline(model, dataset.test, &test_scores, &result);
  result.Add("train_s", Median(fit_cpu_s), "s");

  const int64_t w = model.ensemble->config().window;
  double offered = args.seconds * (kLatencyShare + kReloadShare) * kLatencyRate;
  for (const double rate : kLadder) {
    offered += 2.0 * (args.seconds * kRungShare * rate + 1.5 * kP99Block);
  }
  const size_t capacity =
      static_cast<size_t>(static_cast<double>(kStreams) + 64 + offered * 1.5);

  // The streams replay the training split: in-distribution traffic, which
  // the canary must accept when the same artifact is reloaded. Replaying
  // the test split, live scores sit at a total-variation distance of 0.6
  // from the training-score histogram, above the default 0.35, and the
  // canary rightly rejects every reload.
  const ts::TimeSeries& traffic = dataset.train;
  Session s;
  std::vector<double> server_s;
  for (int rep = 0; rep < 3; ++rep) {
    Session scratch;
    Session& target = rep == 2 ? s : scratch;
    const double t = SetUpServer(args, artifact, traffic, w,
                                 rep == 2 ? capacity : 4096, &target);
    if (t < 0.0) {
      result.Fail("server set-up failed: " + target.child.reader_error());
      return result;
    }
    server_s.push_back(t);
    if (rep < 2) {
      result.attempted += target.frames_sent;
      Absorb(&target);
      if (target.child.Finish() != 0 || target.errors > 0 ||
          target.unexpected > 0) {
        result.Fail("set-up child did not exit cleanly");
      }
    }
  }
  // Fit enters set-up as its CPU time, as in train_s: two workers that wait
  // on each other at every step make its wall time the number most exposed
  // to stolen vCPU time (+23% between two 10-seed sets, against +9% for
  // p50_ms and none for offline Score).
  const double setup_s = Median(datagen_s) + Median(fit_cpu_s) + calibrate_s +
                         Median(server_s);

  // --- Timed phases. ------------------------------------------------------
  Rng rng = ScheduleRng(args.seed);
  auto run = [&](double rate, double share, int reloads) {
    const double duration_s = PhaseSeconds(args.seconds, share, rate);
    return RunPhase(&s, PoissonSchedule(&rng, rate, duration_s, kStreams, reloads),
                    rate, duration_s, artifact);
  };
  RungLimit limit;
  limit.in_flight = kShards * kMaxBatch;
  // The latency phase: p50 comes from it, and it is the first attempt at
  // the ladder's first rung.
  const PhaseOut latency = run(kLatencyRate, kLatencyShare, 0);
  const RungVerdict latency_verdict = JudgeRung(latency.rung, limit);
  result.Note(RungLine(latency, RungVerdictName(latency_verdict)));
  // The reload phase, then peak RSS, so that it covers serving and reloads
  // but not the backlog an overloaded rung queues.
  const PhaseOut reload_phase = run(kLatencyRate, kReloadShare, kReloads);
  result.Note(RungLine(reload_phase, "reload phase, not judged"));
  const double peak_rss = s.child.PeakRssMb();
  auto achieved = [](const PhaseOut& p) {
    return static_cast<double>(p.rung.attempted) / p.duration_s;
  };
  bool latency_used = false;
  const double max_wps = ClimbLadder(
      std::vector<double>(std::begin(kLadder), std::end(kLadder)),
      kRefineSteps, [&](double rate, int retry) {
        if (!latency_used) {  // the ladder's first attempt: 750/s
          latency_used = true;
          return RungAttempt{latency_verdict, achieved(latency)};
        }
        const PhaseOut p = run(rate, kRungShare, 0);
        const RungVerdict verdict = JudgeRung(p.rung, limit);
        result.Note(RungLine(p, RungVerdictName(verdict)) +
                    (retry ? " (retry)" : ""));
        return RungAttempt{verdict, achieved(p)};
      });
  if (max_wps < 0.0) result.Fail("no rate met the limit, down to 1/8 of 750/s");

  // --- Shut down: final health frame, clean exit. -------------------------
  SendCounted(&s, fr::MakeHealthFrame());
  const int exit_code = s.child.Finish();
  Absorb(&s);
  result.attempted += s.frames_sent;

  // --- Output checks. -----------------------------------------------------
  if (exit_code != 0) result.Fail("caee_serve exited with " + std::to_string(exit_code));
  if (!s.child.reader_error().empty()) {
    result.Fail("reader: " + s.child.reader_error());
  }
  int64_t missing = 0;
  for (const Arrival& a : s.arrivals) missing += a.scored == 0;
  if (missing > 0) result.Fail(std::to_string(missing) + " observation(s) never scored", missing);
  if (s.duplicates > 0) result.Fail("duplicate scores", s.duplicates);
  if (s.unexpected > 0) result.Fail("scores for warm-up or unknown observations", s.unexpected);
  if (s.errors > 0) result.Fail("error frames", s.errors);
  if (s.backpressure > 0) result.Fail("backpressure frames", s.backpressure);
  if (s.open_acks != kStreams + 1) result.Fail("open acks missing");
  const int64_t reloads = static_cast<int64_t>(s.reload_sent_ns.size());
  if (s.reload_errors > 0) result.Fail("reloads rejected", s.reload_errors);
  if (static_cast<int64_t>(s.reload_ack_ns.size()) != reloads) {
    result.Fail("reload acks missing",
                reloads - static_cast<int64_t>(s.reload_ack_ns.size()));
  }
  if (s.health_generation != 1 + reloads - s.reload_errors) {
    result.Fail("final health frame reports generation " +
                std::to_string(s.health_generation) + ", expected " +
                std::to_string(1 + reloads));
  }
  CheckAgainstLibrary(s, artifact, traffic, &result);

  // --- Metrics. ----------------------------------------------------------
  std::vector<double> pauses;
  for (size_t i = 0; i < s.reload_ack_ns.size() && i < s.reload_sent_ns.size(); ++i) {
    pauses.push_back(static_cast<double>(s.reload_ack_ns[i] - s.reload_sent_ns[i]) * 1e-6);
  }
  const TailSummary tail = Summarize(latency.rung.latency_ms);
  const double p99 = BlockedP99(latency.rung.latency_ms);
  if (p99 < 0.0) result.Fail("too few latency samples to support p99");
  result.Note("latency at " + std::to_string(static_cast<int>(kLatencyRate)) +
              "/s: " + DescribeTail(tail, "ms") + "; p99 as the median of " +
              std::to_string(latency.rung.latency_ms.size() / kP99Block) +
              " blocks' p99: " + std::to_string(p99) + " ms");
  result.Add("p50_ms", tail.median, "ms");
  result.Add("max_wps", std::max(max_wps, 0.0), "windows/s");
  result.Add("reload_pause_ms", pauses.empty() ? 0.0 : Median(pauses), "ms");
  result.Add("setup_s", setup_s, "s");
  result.Add("peak_rss_mb", peak_rss, "MiB");
  char line[300];
  std::snprintf(line, sizeof(line),
                "setup: data %.4f s, fit wall %.3f s (cpu %.3f s, median of "
                "%zu), calibrate+save %.3f s, server start+load+warm-up "
                "%.4f s (median of 3); reloads %lld",
                Median(datagen_s), Median(fit_wall_s), Median(fit_cpu_s),
                fit_wall_s.size(), calibrate_s, Median(server_s),
                static_cast<long long>(reloads));
  result.Note(line);
  return result;
}

}  // namespace perfbench
