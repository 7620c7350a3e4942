#include "serve/health_monitor.h"

#include <utility>

namespace caee {
namespace serve {
namespace {

double SnapshotValue(const HealthSnapshot& snapshot, HealthSignal signal) {
  switch (signal) {
    case HealthSignal::kScoreShift:
      return snapshot.score_shift;
    case HealthSignal::kDispersion:
      return snapshot.dispersion_ratio;
    case HealthSignal::kNonFiniteRate:
      return snapshot.non_finite_rate;
    case HealthSignal::kAlertRate:
      return snapshot.alert_rate;
  }
  return 0.0;
}

}  // namespace

const char* HealthSignalName(HealthSignal signal) {
  switch (signal) {
    case HealthSignal::kScoreShift:
      return "score-shift";
    case HealthSignal::kDispersion:
      return "dispersion";
    case HealthSignal::kNonFiniteRate:
      return "non-finite-rate";
    case HealthSignal::kAlertRate:
      return "alert-rate";
  }
  return "unknown";
}

const char* HealthVerdictName(HealthVerdict verdict) {
  switch (verdict) {
    case HealthVerdict::kHealthy:
      return "healthy";
    case HealthVerdict::kDataDrift:
      return "data-drift";
    case HealthVerdict::kModelDegradation:
      return "model-degradation";
  }
  return "unknown";
}

HealthVerdict ClassifyHealthSignal(HealthSignal signal) {
  switch (signal) {
    case HealthSignal::kNonFiniteRate:
    case HealthSignal::kDispersion:
      return HealthVerdict::kModelDegradation;
    case HealthSignal::kScoreShift:
    case HealthSignal::kAlertRate:
      return HealthVerdict::kDataDrift;
  }
  return HealthVerdict::kHealthy;
}

HealthMonitor::HealthMonitor(const HealthConfig& config)
    : config_(config),
      shift_(config.shift_threshold, config.shift_threshold / 2.0),
      dispersion_(config.dispersion_threshold,
                  config.dispersion_threshold / 2.0),
      non_finite_(config.non_finite_threshold,
                  config.non_finite_threshold / 2.0),
      alert_(config.alert_threshold, config.alert_threshold / 2.0) {}

bool HealthMonitor::armed(HealthSignal signal) const {
  switch (signal) {
    case HealthSignal::kScoreShift:
      return shift_.armed();
    case HealthSignal::kDispersion:
      return dispersion_.armed();
    case HealthSignal::kNonFiniteRate:
      return non_finite_.armed();
    case HealthSignal::kAlertRate:
      break;
  }
  return alert_.armed();
}

std::optional<HealthEvent> HealthMonitor::Update(
    int64_t generation, const HealthSnapshot& snapshot) {
  if (!config_.enabled || snapshot.window < config_.min_window) {
    return std::nullopt;
  }
  // Every latch sees every update (a disarmed signal may re-arm), but at
  // most one fires: checked most severe first, so one Update on a badly
  // broken model reports the signal that best explains the breakage.
  const std::pair<HealthSignal, Hysteresis*> checks[] = {
      {HealthSignal::kNonFiniteRate, &non_finite_},
      {HealthSignal::kDispersion, &dispersion_},
      {HealthSignal::kScoreShift, &shift_},
      {HealthSignal::kAlertRate, &alert_},
  };
  std::optional<HealthEvent> fired;
  for (const auto& [signal, latch] : checks) {
    const double value = SnapshotValue(snapshot, signal);
    if (latch->Update(value, /*may_fire=*/!fired.has_value())) {
      HealthEvent event;
      event.signal = signal;
      event.verdict = ClassifyHealthSignal(signal);
      event.generation = generation;
      event.value = value;
      event.threshold = latch->threshold();
      event.window = snapshot.window;
      fired = event;
    }
  }
  return fired;
}

void HealthMonitor::Reset() {
  for (Hysteresis* latch : {&shift_, &dispersion_, &non_finite_, &alert_}) {
    latch->Reset();
  }
}

}  // namespace serve
}  // namespace caee
