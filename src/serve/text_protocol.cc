#include "serve/text_protocol.h"

#include <optional>

namespace caee {
namespace serve {
namespace text {

namespace fr = framing;

namespace {

// `open,3` / `open,3,spot` / `close,3` control lines. Returns false for
// data lines; a threshold-policy suffix is legal only on open.
bool ParseControl(const std::string& line, std::string* verb, int64_t* id,
                  std::optional<core::ThresholdPolicy>* policy) {
  policy->reset();
  const size_t comma = line.find(',');
  if (comma == std::string::npos) return false;
  const std::string head = line.substr(0, comma);
  if (head != "open" && head != "close") return false;
  std::string rest = line.substr(comma + 1);
  const size_t second = rest.find(',');
  if (second != std::string::npos) {
    if (head != "open") return false;
    auto parsed = core::ParseThresholdPolicy(rest.substr(second + 1));
    if (!parsed.ok()) return false;
    *policy = parsed.value();
    rest.resize(second);
  }
  try {
    size_t consumed = 0;
    *id = std::stoll(rest, &consumed);
    if (consumed != rest.size()) return false;
  } catch (...) {
    return false;
  }
  *verb = head;
  return true;
}

// `3,0.5,1.2` — stream id, then the observation values.
bool ParseStreamObservation(const std::string& line, int64_t* id,
                            std::vector<float>* out) {
  const size_t comma = line.find(',');
  if (comma == std::string::npos) return false;
  try {
    size_t consumed = 0;
    *id = std::stoll(line.substr(0, comma), &consumed);
    if (consumed != comma) return false;
  } catch (...) {
    return false;
  }
  return ParseObservation(line.substr(comma + 1), out);
}

}  // namespace

bool ParseObservation(const std::string& cells, std::vector<float>* out) {
  out->clear();
  size_t start = 0;
  while (true) {
    const size_t comma = cells.find(',', start);
    const std::string cell = cells.substr(start, comma - start);
    try {
      size_t consumed = 0;
      const float value = std::stof(cell, &consumed);  // throws on ""
      if (consumed != cell.size()) return false;       // "1.2.3" etc.
      out->push_back(value);
    } catch (...) {
      return false;
    }
    if (comma == std::string::npos) return true;
    start = comma + 1;
  }
}

Status EncodeLine(const std::string& line, fr::Frame* frame) {
  if (line.rfind("reload,", 0) == 0) {
    const std::string path = line.substr(7);
    if (path.size() > fr::kMaxReloadPathBytes) {
      return Status::InvalidArgument(
          "is a reload whose " + std::to_string(path.size()) +
          "-byte path exceeds the frame bound");
    }
    *frame = fr::MakeReloadFrame(path);
    return Status::OK();
  }
  if (line == "health") {
    *frame = fr::MakeHealthFrame();
    return Status::OK();
  }
  std::string verb;
  int64_t id = 0;
  std::optional<core::ThresholdPolicy> policy;
  if (ParseControl(line, &verb, &id, &policy)) {
    if (verb == "close") {
      *frame = fr::MakeCloseFrame(id);
    } else {
      *frame = policy.has_value() ? fr::MakeOpenFrame(id, *policy)
                                  : fr::MakeOpenFrame(id);
    }
    return Status::OK();
  }
  std::vector<float> observation;
  if (!ParseStreamObservation(line, &id, &observation)) {
    return Status::InvalidArgument(
        "is neither `open,<id>[,static|spot]`/`close,<id>` nor "
        "`<id>,v1,v2,...`");
  }
  *frame = fr::MakeObserveFrame(id, observation);
  return Status::OK();
}

Status PrintResponse(const fr::Frame& frame, std::ostream& out,
                     std::ostream& err) {
  switch (frame.frame_type()) {
    case fr::FrameType::kScore: {
      StreamScore score;
      CAEE_RETURN_NOT_OK(fr::ParseScore(frame, &score));
      out << score.stream_id << "," << score.index << "," << score.score
          << "," << (score.flag ? 1 : 0) << "\n";
      return Status::OK();
    }
    case fr::FrameType::kOk:
      return Status::OK();  // open/close/reload acknowledged
    case fr::FrameType::kBackpressure:
      err << "backpressure: stream " << frame.stream_id
          << " rejected (shard pending pool full)\n";
      return Status::OK();
    case fr::FrameType::kError: {
      Status error;
      CAEE_RETURN_NOT_OK(fr::ParseError(frame, &error));
      err << "server error for stream " << frame.stream_id << ": " << error
          << "\n";
      return Status::OK();
    }
    case fr::FrameType::kHealthStatus: {
      fr::HealthStatus hs;
      CAEE_RETURN_NOT_OK(fr::ParseHealthStatus(frame, &hs));
      if (!hs.enabled) {
        err << "health: monitoring off (serve with --health)\n";
        return Status::OK();
      }
      err << "health: generation " << hs.generation << ", " << hs.window
          << " recent scores, score-shift " << hs.score_shift
          << ", dispersion-ratio " << hs.dispersion_ratio
          << ", non-finite-rate " << hs.non_finite_rate << ", alert-rate "
          << hs.alert_rate << ", " << hs.canary_rejections
          << " canary rejection(s), " << hs.rollbacks << " rollback(s)\n";
      return Status::OK();
    }
    default:
      return Status::InvalidArgument("unexpected frame type " +
                                     std::to_string(frame.type) +
                                     " in a response stream");
  }
}

}  // namespace text
}  // namespace serve
}  // namespace caee
