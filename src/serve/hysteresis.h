// The fire-once-per-excursion latch shared by the drift monitor
// (serve/drift_monitor.h) and the four model-health signals
// (serve/health_monitor.h).
//
// A statistic that has crossed its threshold usually STAYS crossed — a
// drifting model stays drifted — so a naive `value > threshold` check
// would raise one advisory per poll, thousands per second, for one
// incident. The latch fires on the first value above the threshold, then
// disarms until the value drops strictly below the clear level (hovering
// AT it keeps the latch quiet: the excursion has not convincingly ended).
// The update that re-arms never fires itself.

#ifndef CAEE_SERVE_HYSTERESIS_H_
#define CAEE_SERVE_HYSTERESIS_H_

namespace caee {
namespace serve {

class Hysteresis {
 public:
  Hysteresis(double threshold, double clear)
      : threshold_(threshold), clear_(clear) {}

  /// \brief Feed one value. Disarmed: re-arm once value < clear and
  /// return false. Armed: when `may_fire` and value > threshold, disarm
  /// and return true (the start of an excursion).
  bool Update(double value, bool may_fire) {
    if (!armed_) {
      if (value < clear_) armed_ = true;
      return false;
    }
    if (!may_fire || !(value > threshold_)) return false;  // NaN never fires
    armed_ = false;
    return true;
  }

  /// \brief Forget the current excursion.
  void Reset() { armed_ = true; }

  bool armed() const { return armed_; }
  double threshold() const { return threshold_; }

 private:
  double threshold_;
  double clear_;
  bool armed_ = true;
};

}  // namespace serve
}  // namespace caee

#endif  // CAEE_SERVE_HYSTERESIS_H_
