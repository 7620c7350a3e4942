// caee_serve: the ONLINE half of the train/serve split (paper Sec. 4.2.7).
//
// Loads an artifact written by caee_train in a fresh process — no access to
// the training data or code path — and serves it (docs/serving.md has the
// full story). Every serving mode is a reader in front of ONE request path,
// serve::Dispatcher: it makes the ServingEngine call for each request frame,
// answers through one serialised response sink, owns the deadline flusher
// and the drift/health advisories, and drains and summarises at the end.
// This file only parses arguments and reads input.
//
// SINGLE-STREAM (default): each CSV line is one observation of stream 0 on
// a one-shard engine with max-batch 1 (every warm observation scores
// inline) and no deadline flusher; each score prints as
// `index,score,flag` on stdout.
//
//   caee_train --synthetic SMD --output model.caee --dump-input train.csv
//   caee_serve --model model.caee --input train.csv
//   tail -f live.csv | caee_serve --model model.caee
//
// With --expect-scores FILE (the batch scores caee_train dumped), the tool
// verifies that the streaming path reproduces the offline scores for every
// post-warm-up observation and exits non-zero on any mismatch.
//
// MULTI-STREAM (--streams): one process serves N independent series against
// the same loaded ensemble, sharded across --shards engine shards and
// micro-batched per shard (serve::ServingEngine). Text input lines
// (serve/text_protocol.h):
//
//   open,<id>[,static|spot]   open a session for stream <id>
//   <id>,v1,v2,...            one observation for stream <id>
//   close,<id>                close the session (its shard's pending
//                             windows are flushed)
//   reload,<path> / health    admin: hot-swap the artifact / report health
//
// Each line is encoded to the request frame --encode-frames would write, and
// each answer printed as --decode-frames would print it: scores as
// `stream,index,score,flag`. A rejected reload is degraded mode (reported,
// serving continues); any other error or backpressure answer fails the run,
// naming the line. Scores are bitwise identical to serving each stream in
// its own single-stream process, at ANY shard count.
//
// BINARY PROTOCOL (--streams --binary): the same requests as the
// length-prefixed CRC-checked frames of docs/protocol.md on stdin, response
// frames (score/ok/error/backpressure/health-status) on stdout; tenant
// errors are answered and serving continues. --max-pending arms per-shard
// admission control. `caee_serve --encode-frames | caee_serve --streams
// --binary | caee_serve --decode-frames` is byte-identical to the text
// pipeline (no --model needed for the two translators).
//
// OPERATIONS (docs/operations.md): a reload request hot-swaps the serving
// artifact with zero downtime; --drift-threshold arms the drift -> repair
// advisory; --health arms canary-judged reloads and probation rollback.
// SIGTERM/SIGINT stop intake, drain every shard, and exit 0 — scores
// already owed are delivered, not dropped.

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "cli_util.h"
#include "core/persistence.h"
#include "serve/dispatcher.h"
#include "serve/framing.h"
#include "serve/serving_engine.h"
#include "serve/text_protocol.h"

using namespace caee;

namespace {

namespace fr = serve::framing;

const char kUsage[] =
    "usage: caee_serve --model model.caee [--input obs.csv] [--threads T]\n"
    "                  [--threshold-policy static|spot]\n"
    "                  [--expect-scores scores.txt [--tolerance X]]\n"
    "                  [--streams [--max-batch N] [--flush-ms MS]\n"
    "                   [--shards S] [--max-pending N] [--binary]\n"
    "                   [--drift-threshold X [--drift-clear Y]]\n"
    "                   [--health [--health-shift X] [--health-dispersion X]\n"
    "                    [--health-nonfinite X] [--health-alert X]\n"
    "                    [--probation N]]]\n"
    "       caee_serve --encode-frames | --decode-frames   (no --model)\n"
    "  Default mode reads comma-separated observations from --input\n"
    "  (default: stdin) and prints `index,score,flag` per scored\n"
    "  observation (flag=1 above the calibrated threshold; a non-finite\n"
    "  score always flags).\n"
    "  --threshold-policy picks how verdicts are made (default static):\n"
    "  `spot` adapts the threshold online per stream via streaming\n"
    "  Peaks-Over-Threshold and needs an artifact trained with --spot\n"
    "  (docs/thresholds.md).\n"
    "  --expect-scores cross-checks the streaming scores against offline\n"
    "  batch scores and fails on mismatch.\n"
    "  --streams serves many sessions at once: lines are\n"
    "  `open,<id>[,static|spot]`, `close,<id>`, `<id>,v1,v2,...`, or the\n"
    "  admin line `reload,<path>` (hot-swap the serving artifact with zero\n"
    "  downtime; a rejected candidate keeps the old one serving —\n"
    "  docs/operations.md); output is `stream,index,score,flag`. Sessions\n"
    "  are sharded across --shards (default 1) independent engine shards;\n"
    "  ready windows from different streams of a shard are scored in one\n"
    "  batched forward pass\n"
    "  (<= --max-batch windows, default 8); --flush-ms (default 50,\n"
    "  0 = off) bounds the wait of a partially filled batch.\n"
    "  --binary swaps the text protocol for the length-prefixed binary\n"
    "  framing of docs/protocol.md (request frames in, response frames\n"
    "  out); --max-pending N (default 0 = unbounded) arms per-shard\n"
    "  admission control, answered with backpressure frames.\n"
    "  --drift-threshold X arms the drift -> repair escalation: once the\n"
    "  |exceed-rate shift| drift statistic exceeds X an advisory naming\n"
    "  caee_repair is printed to stderr, once per excursion\n"
    "  (re-arming below --drift-clear Y, default X/2). Needs a\n"
    "  SPOT-calibrated artifact (docs/operations.md).\n"
    "  --health arms unsupervised model-health monitoring against the\n"
    "  artifact's calibration reference (needs caee_train --health):\n"
    "  reload candidates are canary-judged on retained live windows before\n"
    "  any shard switches, every successful swap starts a probation of\n"
    "  --probation N scored windows (default 512) during which a\n"
    "  model-degradation verdict rolls back to the last-known-good\n"
    "  generation automatically, and health excursions land on stderr.\n"
    "  --health-shift/--health-dispersion/--health-nonfinite/\n"
    "  --health-alert override the per-signal thresholds\n"
    "  (docs/operations.md). The admin line `health` (or a health frame in\n"
    "  binary mode) reports the live gauges.\n"
    "  SIGTERM/SIGINT shut down gracefully: intake stops, every shard is\n"
    "  drained, and the process exits 0.\n"
    "  --encode-frames converts text-protocol lines on stdin to request\n"
    "  frames on stdout; --decode-frames converts response frames on\n"
    "  stdin back to text lines. Neither needs a model.\n";

int Fail(const Status& status) {
  std::cerr << "caee_serve: " << status << "\n";
  return 1;
}

// ---------------------------------------------------------------------------
// Graceful shutdown (docs/operations.md).
//
// SIGTERM/SIGINT set a flag; every reader checks it and treats it as
// end-of-input, which funnels into the Dispatcher's drain: every shard's
// pending windows are scored and delivered, the deadline flusher is
// joined, the summary prints, and the process exits 0. The handler is
// installed WITHOUT SA_RESTART on purpose — a getline/ReadFrame blocked
// on a quiet stdin must come back with EINTR (reads as EOF) instead of
// being transparently restarted, or intake would never stop.
// ---------------------------------------------------------------------------

volatile std::sig_atomic_t g_shutdown = 0;

void HandleShutdownSignal(int) { g_shutdown = 1; }

void InstallShutdownHandler() {
#ifndef _WIN32
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleShutdownSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocked reads must return EINTR
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
#else
  std::signal(SIGINT, HandleShutdownSignal);
  std::signal(SIGTERM, HandleShutdownSignal);
#endif
}

StatusOr<serve::ServeConfig> ServeConfigFromArgs(const cli::Args& args) {
  serve::ServeConfig config;
  config.max_batch = args.GetInt("max-batch", 8);
  config.flush_deadline_ms = args.GetInt("flush-ms", 50);
  config.num_shards = args.GetInt("shards", 1);
  config.max_pending = args.GetInt("max-pending", 0);
  config.drift_threshold = args.GetDouble("drift-threshold", 0.0);
  config.drift_clear = args.GetDouble("drift-clear", 0.0);
  if (config.max_batch < 1) {
    return Status::InvalidArgument("--max-batch must be >= 1");
  }
  if (config.num_shards < 1) {
    return Status::InvalidArgument("--shards must be >= 1");
  }
  if (config.max_pending < 0) {
    return Status::InvalidArgument("--max-pending must be >= 0");
  }
  if (args.Has("drift-threshold") && config.drift_threshold <= 0.0) {
    return Status::InvalidArgument("--drift-threshold must be > 0");
  }
  if (config.drift_clear < 0.0 ||
      (config.drift_clear > 0.0 &&
       config.drift_clear >= config.drift_threshold)) {
    return Status::InvalidArgument(
        "--drift-clear must be in (0, drift-threshold) — it is the "
        "re-arm level of the hysteresis");
  }
  config.health.enabled = args.Has("health");
  config.health.shift_threshold =
      args.GetDouble("health-shift", config.health.shift_threshold);
  config.health.dispersion_threshold =
      args.GetDouble("health-dispersion", config.health.dispersion_threshold);
  config.health.non_finite_threshold =
      args.GetDouble("health-nonfinite", config.health.non_finite_threshold);
  config.health.alert_threshold =
      args.GetDouble("health-alert", config.health.alert_threshold);
  config.health.probation_windows =
      args.GetInt("probation", config.health.probation_windows);
  if (!config.health.enabled &&
      (args.Has("health-shift") || args.Has("health-dispersion") ||
       args.Has("health-nonfinite") || args.Has("health-alert") ||
       args.Has("probation"))) {
    return Status::InvalidArgument(
        "--health-shift/--health-dispersion/--health-nonfinite/"
        "--health-alert/--probation require --health");
  }
  if (config.health.enabled &&
      (config.health.shift_threshold <= 0.0 ||
       config.health.dispersion_threshold <= 0.0 ||
       config.health.non_finite_threshold <= 0.0 ||
       config.health.alert_threshold <= 0.0 ||
       config.health.probation_windows < 1)) {
    return Status::InvalidArgument(
        "--health thresholds must be > 0 and --probation >= 1");
  }
  return config;
}

// A request line the text protocol cannot encode, named by its number.
Status BadLine(int64_t line_no, const Status& why) {
  return Status(why.code(),
                "line " + std::to_string(line_no) + " " + why.message());
}

// End of input or a shutdown signal: the Dispatcher drains every shard and
// prints the summary — scores already owed are delivered, not dropped.
int Drain(serve::Dispatcher& dispatcher) {
  if (g_shutdown) {
    std::cerr << "caee_serve: caught shutdown signal, draining shards\n";
  }
  const Status status = dispatcher.Drain();
  return status.ok() ? 0 : Fail(status);
}

// ---------------------------------------------------------------------------
// Readers: each turns its input into request frames for the Dispatcher.
// ---------------------------------------------------------------------------

// --streams --binary: response frames straight onto stdout.
class FrameSink : public serve::ResponseSink {
 public:
  void Write(const fr::Frame& frame) override {
    fr::WriteFrame(std::cout, frame);
  }
  void Flush() override { std::cout.flush(); }
};

int ServeBinary(serve::Dispatcher& dispatcher, std::istream& in) {
  // Only wire-level corruption (truncation, CRC, version skew) is fatal: a
  // byte stream cannot resync past it. Tenant errors are answered.
  fr::Frame frame;
  int64_t frame_no = 0;
  while (!g_shutdown) {
    if (Status status = dispatcher.flusher_status(); !status.ok()) {
      return Fail(status);
    }
    bool eof = false;
    if (Status status = fr::ReadFrame(in, &frame, &eof); !status.ok()) {
      // A frame cut mid-read by the shutdown signal (EINTR) is the signal
      // doing its job, not wire corruption: stop intake and drain.
      if (g_shutdown) break;
      return Fail(Status(status.code(), "frame " + std::to_string(frame_no) +
                                            ": " + status.message()));
    }
    if (eof) break;
    ++frame_no;
    dispatcher.Handle(frame);
  }
  return Drain(dispatcher);
}

// --streams: answers printed exactly as --decode-frames prints them. Error
// and backpressure answers are left to the reader, which reports them
// against the line that caused them.
class TextSink : public serve::ResponseSink {
 public:
  void Write(const fr::Frame& frame) override {
    if (frame.frame_type() == fr::FrameType::kError ||
        frame.frame_type() == fr::FrameType::kBackpressure) {
      return;
    }
    serve::text::PrintResponse(frame, std::cout, std::cerr);
  }
  void Flush() override { std::cout.flush(); }
};

int ServeText(serve::Dispatcher& dispatcher, std::istream& in) {
  std::string line;
  fr::Frame frame;
  int64_t line_no = 0;
  while (!g_shutdown && std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (Status status = dispatcher.flusher_status(); !status.ok()) {
      return Fail(status);
    }
    if (Status bad = serve::text::EncodeLine(line, &frame); !bad.ok()) {
      return Fail(BadLine(line_no, bad));
    }
    const Status status = dispatcher.Handle(frame);
    if (status.ok()) continue;
    if (frame.frame_type() == fr::FrameType::kReload) {
      // DEGRADED MODE, not fatal: the engine keeps serving the old
      // generation, and the error names it.
      std::cerr << "caee_serve: " << status << "\n";
      continue;
    }
    return Fail(Status(status.code(), "line " + std::to_string(line_no) +
                                          ": " + status.message()));
  }
  return Drain(dispatcher);
}

// Single-stream mode: `index,score,flag` per scored observation, checked
// against the offline batch scores when --expect-scores is given.
class SingleStreamSink : public serve::ResponseSink {
 public:
  SingleStreamSink(std::vector<double> expected, double tolerance)
      : expected_(std::move(expected)), tolerance_(tolerance) {}

  void Write(const fr::Frame& frame) override {
    serve::StreamScore r;
    // Only scores print; the reader reports error answers itself.
    if (!fr::ParseScore(frame, &r).ok()) return;
    ++scored_;
    std::cout << r.index << "," << r.score << "," << (r.flag ? 1 : 0)
              << "\n";
    if (expected_.empty()) return;
    // Batch scores cover every observation, but the first w-1 are scored
    // from the first window only in the batch policy (Fig. 10) and are
    // unavailable while streaming warms up — so compare from w-1 onward.
    if (r.index >= static_cast<int64_t>(expected_.size())) {
      status_ = Status::InvalidArgument(
          "more observations than expected scores");
      return;
    }
    const double want = expected_[static_cast<size_t>(r.index)];
    const double diff = std::fabs(r.score - want);
    if (!(diff <= tolerance_)) {
      ++mismatches_;
      worst_diff_ = std::max(worst_diff_, diff);
      if (mismatches_ <= 5) {
        std::cerr << "MISMATCH at " << r.index << ": streaming " << r.score
                  << " vs batch " << want << "\n";
      }
    }
  }
  void Flush() override { std::cout.flush(); }

  const Status& status() const { return status_; }

  // The --expect-scores verdict, after the drain.
  int Verdict(int64_t window) const {
    if (expected_.empty()) return 0;
    if (mismatches_ > 0) {
      std::cerr << mismatches_ << " streaming/batch mismatches (worst |diff| "
                << worst_diff_ << ")\n";
      return 1;
    }
    // Guard against a vacuous pass: every expected score past warm-up must
    // actually have been compared (a truncated --input would otherwise
    // report success after verifying only a prefix).
    const int64_t verifiable =
        static_cast<int64_t>(expected_.size()) - (window - 1);
    if (scored_ == 0 || scored_ < verifiable) {
      std::cerr << "only " << scored_ << " of " << verifiable
                << " expected post-warm-up scores were verified (input or "
                   "expected-scores file truncated?)\n";
      return 1;
    }
    std::cerr << "streaming scores reproduce the offline batch scores ("
              << scored_ << " observations, tolerance " << tolerance_
              << ")\n";
    return 0;
  }

 private:
  const std::vector<double> expected_;
  const double tolerance_;
  Status status_;
  int64_t scored_ = 0, mismatches_ = 0;
  double worst_diff_ = 0.0;
};

int ServeSingleStream(const cli::Args& args, serve::ServingEngine& engine,
                      int64_t window, std::istream& in) {
  std::vector<double> expected;
  if (args.Has("expect-scores")) {
    std::ifstream scores_in(args.Get("expect-scores", ""));
    if (!scores_in) {
      return Fail(Status::IOError("cannot open expected-scores file"));
    }
    double value = 0.0;
    while (scores_in >> value) expected.push_back(value);
    if (expected.empty()) {
      return Fail(Status::InvalidArgument(
          "expected-scores file has no scores — nothing would be verified"));
    }
  }
  SingleStreamSink sink(std::move(expected), args.GetDouble("tolerance", 0.0));
  serve::Dispatcher dispatcher(&engine, &sink, &std::cerr);
  if (Status status = dispatcher.Handle(fr::MakeOpenFrame(0)); !status.ok()) {
    return Fail(status);
  }
  std::string line;
  std::vector<float> observation;
  int64_t index = -1;
  while (!g_shutdown && std::getline(in, line)) {
    if (line.empty()) continue;
    ++index;
    if (!serve::text::ParseObservation(line, &observation)) {
      return Fail(Status::InvalidArgument("non-numeric observation at line " +
                                          std::to_string(index + 1)));
    }
    if (Status status = dispatcher.Handle(fr::MakeObserveFrame(0, observation));
        !status.ok()) {
      return Fail(status);
    }
    if (!sink.status().ok()) return Fail(sink.status());
  }
  if (const int rc = Drain(dispatcher); rc != 0) return rc;
  return sink.Verdict(window);
}

// ---------------------------------------------------------------------------
// Translator modes: text protocol <-> binary framing (no model involved).
// ---------------------------------------------------------------------------

int RunEncodeFrames(std::istream& in) {
  std::string line;
  fr::Frame frame;
  int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (Status bad = serve::text::EncodeLine(line, &frame); !bad.ok()) {
      return Fail(BadLine(line_no, bad));
    }
    fr::WriteFrame(std::cout, frame);
  }
  std::cout.flush();
  return 0;
}

int RunDecodeFrames(std::istream& in) {
  fr::Frame frame;
  int64_t frame_no = 0, errors = 0;
  while (true) {
    bool eof = false;
    if (Status status = fr::ReadFrame(in, &frame, &eof); !status.ok()) {
      return Fail(Status(status.code(), "frame " + std::to_string(frame_no) +
                                            ": " + status.message()));
    }
    if (eof) break;
    ++frame_no;
    if (Status status = serve::text::PrintResponse(frame, std::cout, std::cerr);
        !status.ok()) {
      return Fail(status);
    }
    errors += frame.frame_type() == fr::FrameType::kError;
  }
  std::cout.flush();
  return errors == 0 ? 0 : 1;
}

// Flags that configure the multi-stream engine: meaningless without
// --streams.
const std::vector<std::string> kStreamFlags = {
    "max-batch",    "flush-ms",          "shards",           "max-pending",
    "binary",       "drift-threshold",   "drift-clear",      "health",
    "health-shift", "health-dispersion", "health-nonfinite", "health-alert",
    "probation"};
// Flags of the serving modes as a whole.
const std::vector<std::string> kServeFlags = {
    "model", "threads", "expect-scores", "tolerance", "streams",
    "threshold-policy"};

bool HasAny(const cli::Args& args, const std::vector<std::string>& flags) {
  for (const std::string& flag : flags) {
    if (args.Has(flag)) return true;
  }
  return false;
}

// --input, or stdin; nullptr when the file cannot be opened. Binary so
// frame bytes pass through untranslated; harmless for text.
std::istream* OpenInput(const cli::Args& args, std::ifstream* file) {
  if (!args.Has("input")) return &std::cin;
  file->open(args.Get("input", ""), std::ios::binary);
  return *file ? file : nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  cli::Args args(argc, argv);
  std::vector<std::string> known = kStreamFlags;
  known.insert(known.end(), kServeFlags.begin(), kServeFlags.end());
  known.insert(known.end(),
               {"input", "encode-frames", "decode-frames", "help"});
  args.RejectUnknown(known, kUsage);
  if (args.Has("help")) {
    std::cerr << kUsage;
    return 0;
  }
  std::cout.precision(std::numeric_limits<double>::max_digits10);
  std::ifstream file;

  // Translator modes are pure wire-format conversions — no model, no
  // engine. They reject every serving flag so a typo'd serving invocation
  // cannot silently degrade into a translator.
  if (args.Has("encode-frames") || args.Has("decode-frames")) {
    if (HasAny(args, kServeFlags) || HasAny(args, kStreamFlags)) {
      std::cerr << "--encode-frames/--decode-frames take only --input\n"
                << kUsage;
      return 2;
    }
    if (args.Has("encode-frames") && args.Has("decode-frames")) {
      std::cerr << "pick one of --encode-frames / --decode-frames\n"
                << kUsage;
      return 2;
    }
    std::istream* in = OpenInput(args, &file);
    if (in == nullptr) return Fail(Status::IOError("cannot open input file"));
    return args.Has("encode-frames") ? RunEncodeFrames(*in)
                                     : RunDecodeFrames(*in);
  }

  if (!args.Has("model")) {
    std::cerr << kUsage;
    return 2;
  }
  if (!args.Has("streams") && HasAny(args, kStreamFlags)) {
    std::cerr << "--max-batch/--flush-ms/--shards/--max-pending/--binary/"
                 "--drift-threshold/--drift-clear/--health (and its knobs) "
                 "require --streams\n"
              << kUsage;
    return 2;
  }
  if (args.Has("streams") &&
      (args.Has("expect-scores") || args.Has("tolerance"))) {
    // Refusing beats silently skipping the cross-check: a "verification"
    // run that verified nothing must not exit 0.
    std::cerr << "--expect-scores/--tolerance are single-stream only\n"
              << kUsage;
    return 2;
  }

  auto loaded = core::LoadEnsemble(args.Get("model", ""));
  if (!loaded.ok()) return Fail(loaded.status());
  core::CaeEnsemble& ensemble = *loaded->ensemble;
  ensemble.set_num_threads(args.GetInt("threads", 0));
  const double threshold =
      loaded->threshold.value_or(std::numeric_limits<double>::infinity());

  core::ThresholdPolicy policy = core::ThresholdPolicy::kStatic;
  if (args.Has("threshold-policy")) {
    auto parsed =
        core::ParseThresholdPolicy(args.Get("threshold-policy", ""));
    if (!parsed.ok()) return Fail(parsed.status());
    policy = *parsed;
  }
  if (policy == core::ThresholdPolicy::kSpot && !loaded->spot.has_value()) {
    return Fail(Status::FailedPrecondition(
        "--threshold-policy spot needs SPOT init params in the artifact; "
        "retrain with caee_train --spot (docs/thresholds.md)"));
  }
  if (args.GetDouble("drift-threshold", 0.0) > 0.0 &&
      !loaded->spot.has_value()) {
    // Drift is measured against the SPOT calibration baseline — without
    // one the statistic is identically zero and the monitor could never
    // fire. Refusing beats a silent no-op "armed" monitor.
    return Fail(Status::FailedPrecondition(
        "--drift-threshold needs SPOT init params in the artifact; "
        "retrain with caee_train --spot (docs/operations.md)"));
  }
  if (args.Has("health") && !loaded->health.has_value()) {
    // Health is judged against the artifact's own calibration reference —
    // without one there is nothing to compare live traffic to. Refusing
    // beats a monitor that silently can never fire.
    return Fail(Status::FailedPrecondition(
        "--health needs a model-health reference in the artifact; "
        "retrain with caee_train --health (docs/operations.md)"));
  }

  std::cerr << "loaded ensemble: " << ensemble.num_models() << " models, "
            << "window " << ensemble.config().window << ", "
            << ensemble.input_dim() << " dims"
            << (loaded->threshold ? ", threshold " + std::to_string(threshold)
                                  : ", no threshold (flag always 0)")
            << (loaded->spot ? ", spot-calibrated" : "")
            << (loaded->health ? ", health-calibrated" : "") << "\n";

  auto config = ServeConfigFromArgs(args);
  if (!config.ok()) return Fail(config.status());
  if (!args.Has("streams")) {
    // Single-stream mode is stream 0 on a one-shard engine: max_batch 1
    // scores each warm observation inline, and no deadline flusher runs.
    config->max_batch = 1;
    config->flush_deadline_ms = 0;
  }
  config->threshold_policy = policy;
  serve::ServingEngine engine(&ensemble, *config, loaded->threshold,
                              loaded->spot, loaded->health);

  std::istream* in = OpenInput(args, &file);
  if (in == nullptr) return Fail(Status::IOError("cannot open input file"));

  InstallShutdownHandler();
  if (!args.Has("streams")) {
    return ServeSingleStream(args, engine, ensemble.config().window, *in);
  }
  if (args.Has("binary")) {
    FrameSink sink;
    serve::Dispatcher dispatcher(&engine, &sink, &std::cerr);
    return ServeBinary(dispatcher, *in);
  }
  TextSink sink;
  serve::Dispatcher dispatcher(&engine, &sink, &std::cerr);
  return ServeText(dispatcher, *in);
}
