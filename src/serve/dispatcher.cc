#include "serve/dispatcher.h"

#include <algorithm>
#include <chrono>

namespace caee {
namespace serve {

namespace fr = framing;

Dispatcher::Dispatcher(ServingEngine* engine, ResponseSink* sink,
                       std::ostream* log)
    : engine_(engine), sink_(sink), log_(log) {
  if (engine_->config().flush_deadline_ms > 0) {
    flusher_ = std::thread([this] { FlusherLoop(); });
  }
}

Dispatcher::~Dispatcher() { StopFlusher(); }

Status Dispatcher::Handle(const fr::Frame& request) {
  results_.clear();
  Status status;
  switch (request.frame_type()) {
    case fr::FrameType::kOpen: {
      // An empty payload opens with the server's default policy; a 1-byte
      // payload selects per session (docs/protocol.md).
      std::optional<core::ThresholdPolicy> policy;
      status = fr::ParseOpenPolicy(request, &policy);
      if (status.ok()) {
        status = policy.has_value()
                     ? engine_->OpenStream(request.stream_id, *policy)
                     : engine_->OpenStream(request.stream_id);
      }
      Respond(status.ok() ? fr::MakeOkFrame(request.stream_id)
                          : fr::MakeErrorFrame(request.stream_id, status));
      break;
    }
    case fr::FrameType::kClose:
      status = engine_->CloseStream(request.stream_id, &results_);
      Deliver(results_);
      Respond(status.ok() ? fr::MakeOkFrame(request.stream_id)
                          : fr::MakeErrorFrame(request.stream_id, status));
      break;
    case fr::FrameType::kObserve:
      status = fr::ParseObserve(request, &observation_);
      if (status.ok()) {
        status = engine_->Push(request.stream_id, observation_, &results_);
      }
      if (status.code() == StatusCode::kResourceExhausted) {
        ++backpressured_;
        Respond(fr::MakeBackpressureFrame(request.stream_id));
      } else if (!status.ok()) {
        Respond(fr::MakeErrorFrame(request.stream_id, status));
      } else {
        Deliver(results_);
      }
      break;
    case fr::FrameType::kFlush:
      status = engine_->Flush(&results_);
      Deliver(results_);
      if (!status.ok()) Respond(fr::MakeErrorFrame(0, status));
      break;
    case fr::FrameType::kReload: {
      // Admin hot-swap. A rejected candidate is answered with an error
      // frame and the engine keeps serving the old generation.
      status = fr::ParseReload(request, &path_);
      if (status.ok()) {
        auto swapped = engine_->ReloadArtifact(path_);
        if (swapped.ok()) {
          std::lock_guard<std::mutex> lock(out_mu_);
          *log_ << "reloaded: now serving generation " << swapped.value()
                << " from " << path_ << "\n";
        } else {
          status = swapped.status();
        }
      }
      Respond(status.ok() ? fr::MakeOkFrame(request.stream_id)
                          : fr::MakeErrorFrame(request.stream_id, status));
      break;
    }
    case fr::FrameType::kHealth:
      // Always answered, even without health monitoring (enabled=0, gauges
      // zero): monitoring clients need no mode flag.
      Respond(HealthStatusFrame());
      break;
    default:
      status = Status::InvalidArgument("unknown frame type " +
                                       std::to_string(request.type));
      Respond(fr::MakeErrorFrame(request.stream_id, status));
      break;
  }
  PollAdvisories();
  return status;
}

Status Dispatcher::flusher_status() const {
  std::lock_guard<std::mutex> lock(flusher_mu_);
  if (flusher_status_.ok()) return flusher_status_;
  return Status(flusher_status_.code(),
                "deadline flush failed: " + flusher_status_.message());
}

Status Dispatcher::Drain() {
  results_.clear();
  const Status status = engine_->Flush(&results_);
  StopFlusher();
  CAEE_RETURN_NOT_OK(status);
  CAEE_RETURN_NOT_OK(flusher_status());
  Deliver(results_);
  sink_->Flush();
  PrintSummary();
  return Status::OK();
}

void Dispatcher::Deliver(const std::vector<StreamScore>& results) {
  if (results.empty()) return;
  std::lock_guard<std::mutex> lock(out_mu_);
  for (const StreamScore& r : results) {
    ++scored_;
    alerts_ += r.flag;
    sink_->Write(fr::MakeScoreFrame(r));
  }
  sink_->Flush();
}

void Dispatcher::Respond(const fr::Frame& frame) {
  std::lock_guard<std::mutex> lock(out_mu_);
  sink_->Write(frame);
}

void Dispatcher::PollAdvisories() {
  const ServeConfig& config = engine_->config();
  if (config.drift_threshold > 0.0) {
    if (const auto repair = engine_->PollDrift()) {
      std::lock_guard<std::mutex> lock(out_mu_);
      *log_ << "drift alert: |exceed-rate shift| " << repair->drift
            << " over " << repair->drift_window
            << " recent scores on generation " << repair->generation
            << " exceeds --drift-threshold " << config.drift_threshold
            << "; repair with caee_repair and hot-swap the result via "
               "`reload,<path>` (docs/operations.md)\n";
    }
  }
  if (!config.health.enabled) return;
  const auto event = engine_->PollHealth();
  if (!event.has_value()) return;
  // A rollback notice names the restored generation so the operator knows
  // the bad candidate is already out of service.
  std::lock_guard<std::mutex> lock(out_mu_);
  *log_ << "health alert (" << HealthVerdictName(event->verdict)
        << "): " << HealthSignalName(event->signal) << " " << event->value
        << " over " << event->window << " recent scores on generation "
        << event->generation << " exceeds " << event->threshold;
  if (event->rolled_back) {
    *log_ << "; rolled back to last-known-good generation "
          << event->rolled_back_to << " (docs/operations.md)\n";
  } else if (event->verdict == HealthVerdict::kDataDrift) {
    *log_ << "; the DATA has likely shifted — repair with caee_repair "
             "and hot-swap the result via `reload,<path>` "
             "(docs/operations.md)\n";
  } else {
    *log_ << "; the MODEL looks degraded — hot-swap a known-good "
             "artifact via `reload,<path>` (docs/operations.md)\n";
  }
}

void Dispatcher::FlusherLoop() {
  const auto tick = std::chrono::milliseconds(
      std::max<int64_t>(1, engine_->config().flush_deadline_ms / 2));
  std::vector<StreamScore> results;
  while (!done_.load()) {
    std::this_thread::sleep_for(tick);
    results.clear();
    const Status status = engine_->FlushIfExpired(&results);
    if (!status.ok()) {
      std::lock_guard<std::mutex> lock(flusher_mu_);
      flusher_status_ = status;
      return;
    }
    Deliver(results);
    PollAdvisories();
  }
}

void Dispatcher::StopFlusher() {
  done_.store(true);
  if (flusher_.joinable()) flusher_.join();
}

void Dispatcher::PrintSummary() {
  const EngineStats stats = engine_->Stats();
  const ServeConfig& config = engine_->config();
  std::lock_guard<std::mutex> lock(out_mu_);
  *log_ << "scored " << scored_ << " windows across streams, " << alerts_
        << " flagged, " << stats.non_finite_scores << " non-finite scores, "
        << backpressured_ << " pushes backpressured ("
        << engine_->num_streams() << " sessions still open at EOF, "
        << config.num_shards << " shards)\n";
  if (stats.reloads + stats.failed_reloads > 0) {
    *log_ << "generation " << stats.generation << " live after "
          << stats.reloads << " reload(s), " << stats.failed_reloads
          << " rejected\n";
  }
  if (engine_->spot() != nullptr) {
    *log_ << "drift: |exceed-rate shift| " << stats.drift << " over "
          << stats.drift_window << " recent scores vs the calibration "
          << "baseline (docs/thresholds.md)\n";
  }
  if (config.health.enabled) {
    *log_ << "health: " << stats.canary_rejections
          << " canary rejection(s), " << stats.rollbacks
          << " rollback(s), gauges over " << stats.health_window
          << " recent scores: score-shift " << stats.score_shift
          << ", dispersion-ratio " << stats.dispersion_ratio
          << ", non-finite-rate " << stats.non_finite_rate
          << ", alert-rate " << stats.alert_rate << " (docs/operations.md)\n";
  }
}

fr::Frame Dispatcher::HealthStatusFrame() const {
  // The same EngineStats the summary prints (aggregation contract in
  // serve/shard.h).
  const EngineStats stats = engine_->Stats();
  fr::HealthStatus health;
  health.enabled = engine_->config().health.enabled;
  health.generation = stats.generation;
  health.window = stats.health_window;
  health.score_shift = stats.score_shift;
  health.dispersion_ratio = stats.dispersion_ratio;
  health.non_finite_rate = stats.non_finite_rate;
  health.alert_rate = stats.alert_rate;
  health.rollbacks = stats.rollbacks;
  health.canary_rejections = stats.canary_rejections;
  return fr::MakeHealthStatusFrame(health);
}

}  // namespace serve
}  // namespace caee
