#include "serve/drift_monitor.h"

namespace caee {
namespace serve {

DriftMonitor::DriftMonitor(const DriftMonitorConfig& config)
    : config_(config),
      latch_(config.threshold,
             config.clear > 0.0 ? config.clear : config.threshold / 2.0) {}

std::optional<RepairRequest> DriftMonitor::Update(int64_t generation,
                                                  double drift,
                                                  int64_t drift_window) {
  if (!enabled()) return std::nullopt;
  // A disarmed monitor may re-arm on a short window; only firing needs
  // min_window scores behind the statistic.
  if (!latch_.Update(drift, drift_window >= config_.min_window)) {
    return std::nullopt;
  }
  RepairRequest request;
  request.generation = generation;
  request.drift = drift;
  request.drift_window = drift_window;
  return request;
}

}  // namespace serve
}  // namespace caee
