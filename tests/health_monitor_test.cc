// Model-health validation units: the HealthRef calibration contract
// (core/health.h — histogram binning, total-variation distance,
// validation of untrusted artifact bytes) and the HealthMonitor's
// per-signal hysteresis (serve/health_monitor.h — one event per
// excursion per signal, severity-ordered single event per update,
// drift-vs-degradation classification, cold-start silence).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/health.h"
#include "serve/health_monitor.h"

namespace caee {
namespace {

// A well-behaved reference sample: kHealthMinScores+ distinct scores
// spread over [0, 2) with a constant dispersion baseline.
core::HealthRef MakeRef() {
  std::vector<double> scores, dispersions;
  for (int i = 0; i < 128; ++i) {
    scores.push_back(2.0 * static_cast<double>(i) / 128.0);
    dispersions.push_back(0.25);
  }
  auto ref = core::CalibrateHealthRef(scores, dispersions);
  CAEE_CHECK_MSG(ref.ok(), "health calibration failed in test setup");
  return std::move(ref).value();
}

TEST(HealthRefTest, CalibrationProducesAValidNormalizedHistogram) {
  const core::HealthRef ref = MakeRef();
  EXPECT_TRUE(core::ValidateHealthRef(ref).ok());
  EXPECT_EQ(ref.count, 128);
  EXPECT_EQ(static_cast<int64_t>(ref.bins.size()), core::kHealthBins);
  EXPECT_DOUBLE_EQ(ref.mean_dispersion, 0.25);
  EXPECT_LT(ref.min, ref.max);
  double mass = 0.0;
  for (const double b : ref.bins) {
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, 1.0);
    mass += b;
  }
  EXPECT_NEAR(mass, 1.0, 1e-9);
}

TEST(HealthRefTest, CalibrationRejectsDegenerateInput) {
  std::vector<double> few(10, 1.0), disp_few(10, 0.1);
  EXPECT_FALSE(core::CalibrateHealthRef(few, disp_few).ok());

  std::vector<double> constant(100, 1.0), disp(100, 0.1);
  EXPECT_FALSE(core::CalibrateHealthRef(constant, disp).ok());

  std::vector<double> scores, dispersions;
  for (int i = 0; i < 100; ++i) {
    scores.push_back(static_cast<double>(i));
    dispersions.push_back(0.1);
  }
  std::vector<double> mismatched(99, 0.1);
  EXPECT_FALSE(core::CalibrateHealthRef(scores, mismatched).ok());

  std::vector<double> with_nan = scores;
  with_nan[50] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(core::CalibrateHealthRef(with_nan, dispersions).ok());
}

TEST(HealthRefTest, BinIndexClampsTheTails) {
  const core::HealthRef ref = MakeRef();
  // Below the range and at the minimum: bin 0. At or above the maximum:
  // the last bin. The tails are exactly what shift detection must keep.
  EXPECT_EQ(core::HealthBinIndex(ref, ref.min - 100.0), 0);
  EXPECT_EQ(core::HealthBinIndex(ref, ref.min), 0);
  EXPECT_EQ(core::HealthBinIndex(ref, ref.max), core::kHealthBins - 1);
  EXPECT_EQ(core::HealthBinIndex(ref, ref.max + 100.0),
            core::kHealthBins - 1);
  const int64_t mid = core::HealthBinIndex(ref, (ref.min + ref.max) / 2.0);
  EXPECT_GT(mid, 0);
  EXPECT_LT(mid, core::kHealthBins - 1);
}

TEST(HealthRefTest, TotalVariationSpansIdenticalToDisjoint) {
  const core::HealthRef ref = MakeRef();

  // A live histogram proportional to the reference mass: TV ~ 0.
  std::vector<int64_t> matched(static_cast<size_t>(core::kHealthBins), 0);
  int64_t total = 0;
  for (int64_t i = 0; i < core::kHealthBins; ++i) {
    matched[static_cast<size_t>(i)] =
        static_cast<int64_t>(ref.bins[static_cast<size_t>(i)] * 1000.0 + 0.5);
    total += matched[static_cast<size_t>(i)];
  }
  EXPECT_LT(core::HealthTotalVariation(ref, matched.data(), total), 0.05);

  // All mass in one tail bin the reference barely occupies: TV -> 1.
  std::vector<int64_t> shifted(static_cast<size_t>(core::kHealthBins), 0);
  shifted[0] = 500;
  EXPECT_GT(core::HealthTotalVariation(ref, shifted.data(), 500), 0.9);

  // An empty live histogram is "no evidence", not "maximal shift".
  std::vector<int64_t> empty(static_cast<size_t>(core::kHealthBins), 0);
  EXPECT_EQ(core::HealthTotalVariation(ref, empty.data(), 0), 0.0);
}

TEST(HealthRefTest, ValidationCatchesCorruptFields) {
  core::HealthRef ref = MakeRef();
  ASSERT_TRUE(core::ValidateHealthRef(ref).ok());

  core::HealthRef bad = ref;
  bad.max = bad.min;  // empty range
  EXPECT_FALSE(core::ValidateHealthRef(bad).ok());

  bad = ref;
  bad.bins[3] = 1.5;  // out-of-range fraction
  EXPECT_FALSE(core::ValidateHealthRef(bad).ok());

  bad = ref;
  bad.bins.pop_back();  // wrong bin count
  EXPECT_FALSE(core::ValidateHealthRef(bad).ok());

  bad = ref;
  bad.mean = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(core::ValidateHealthRef(bad).ok());

  bad = ref;
  bad.count = core::kHealthMinScores - 1;
  EXPECT_FALSE(core::ValidateHealthRef(bad).ok());

  bad = ref;
  bad.mean_dispersion = -0.1;
  EXPECT_FALSE(core::ValidateHealthRef(bad).ok());
}

// --------------------------------------------------------------------------
// HealthMonitor.
// --------------------------------------------------------------------------

serve::HealthConfig MonitorConfig() {
  serve::HealthConfig config;
  config.enabled = true;
  config.shift_threshold = 0.3;
  config.dispersion_threshold = 4.0;
  config.non_finite_threshold = 0.01;
  config.alert_threshold = 0.5;
  config.min_window = 64;
  return config;
}

serve::HealthSnapshot Healthy(int64_t window = 256) {
  serve::HealthSnapshot snapshot;
  snapshot.window = window;
  snapshot.score_shift = 0.05;
  snapshot.dispersion_ratio = 1.0;
  snapshot.non_finite_rate = 0.0;
  snapshot.alert_rate = 0.05;
  return snapshot;
}

TEST(HealthMonitorTest, DisabledMonitorNeverFires) {
  serve::HealthConfig config = MonitorConfig();
  config.enabled = false;
  serve::HealthMonitor monitor(config);
  EXPECT_FALSE(monitor.enabled());
  serve::HealthSnapshot bad = Healthy();
  bad.non_finite_rate = 1.0;
  bad.score_shift = 1.0;
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(monitor.Update(1, bad).has_value());
  }
}

TEST(HealthMonitorTest, ColdStartWindowIsIgnored) {
  serve::HealthMonitor monitor(MonitorConfig());
  serve::HealthSnapshot bad = Healthy(/*window=*/8);
  bad.score_shift = 0.99;  // a near-empty ring reads as extreme shift
  EXPECT_FALSE(monitor.Update(1, bad).has_value());
  bad.window = 63;
  EXPECT_FALSE(monitor.Update(1, bad).has_value());
  bad.window = 64;
  EXPECT_TRUE(monitor.Update(1, bad).has_value());
}

TEST(HealthMonitorTest, ClassificationSplitsDriftFromDegradation) {
  // Shift and alert-rate runaway mean the DATA changed (repair can fix
  // it); non-finite scores and member-agreement collapse mean the MODEL
  // is broken (rollback territory).
  EXPECT_EQ(serve::ClassifyHealthSignal(serve::HealthSignal::kScoreShift),
            serve::HealthVerdict::kDataDrift);
  EXPECT_EQ(serve::ClassifyHealthSignal(serve::HealthSignal::kAlertRate),
            serve::HealthVerdict::kDataDrift);
  EXPECT_EQ(serve::ClassifyHealthSignal(serve::HealthSignal::kNonFiniteRate),
            serve::HealthVerdict::kModelDegradation);
  EXPECT_EQ(serve::ClassifyHealthSignal(serve::HealthSignal::kDispersion),
            serve::HealthVerdict::kModelDegradation);
}

TEST(HealthMonitorTest, FiresOncePerExcursionWithEventFields) {
  serve::HealthMonitor monitor(MonitorConfig());
  EXPECT_FALSE(monitor.Update(3, Healthy()).has_value());

  serve::HealthSnapshot shifted = Healthy();
  shifted.score_shift = 0.45;
  const auto fired = monitor.Update(3, shifted);
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->signal, serve::HealthSignal::kScoreShift);
  EXPECT_EQ(fired->verdict, serve::HealthVerdict::kDataDrift);
  EXPECT_EQ(fired->generation, 3);
  EXPECT_EQ(fired->value, 0.45);
  EXPECT_EQ(fired->threshold, 0.3);
  EXPECT_EQ(fired->window, 256);
  EXPECT_FALSE(fired->rolled_back);

  // Disarmed: staying high, or dipping between clear and threshold, must
  // not re-fire — one event per excursion.
  EXPECT_FALSE(monitor.Update(3, shifted).has_value());
  shifted.score_shift = 0.2;  // clear defaults to threshold/2 = 0.15
  EXPECT_FALSE(monitor.Update(3, shifted).has_value());
  shifted.score_shift = 0.5;
  EXPECT_FALSE(monitor.Update(3, shifted).has_value());

  // Strictly below the clear level: re-armed, next excursion fires again.
  shifted.score_shift = 0.1;
  EXPECT_FALSE(monitor.Update(3, shifted).has_value());
  EXPECT_TRUE(monitor.armed(serve::HealthSignal::kScoreShift));
  shifted.score_shift = 0.5;
  EXPECT_TRUE(monitor.Update(3, shifted).has_value());
}

TEST(HealthMonitorTest, MostSevereSignalWinsAndOthersKeepTheirState) {
  serve::HealthMonitor monitor(MonitorConfig());
  // Everything bad at once: the single event is the most severe signal
  // (non-finite rate), and the others stay ARMED — they fire on later
  // updates, so nothing is silently swallowed.
  serve::HealthSnapshot bad = Healthy();
  bad.non_finite_rate = 0.5;
  bad.dispersion_ratio = 10.0;
  bad.score_shift = 0.9;
  bad.alert_rate = 0.9;
  const auto first = monitor.Update(1, bad);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->signal, serve::HealthSignal::kNonFiniteRate);
  EXPECT_EQ(first->verdict, serve::HealthVerdict::kModelDegradation);

  const auto second = monitor.Update(1, bad);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->signal, serve::HealthSignal::kDispersion);
  const auto third = monitor.Update(1, bad);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->signal, serve::HealthSignal::kScoreShift);
  const auto fourth = monitor.Update(1, bad);
  ASSERT_TRUE(fourth.has_value());
  EXPECT_EQ(fourth->signal, serve::HealthSignal::kAlertRate);
  // Every signal disarmed: silence until something clears.
  EXPECT_FALSE(monitor.Update(1, bad).has_value());
}

TEST(HealthMonitorTest, PerSignalHysteresisIsIndependent) {
  serve::HealthMonitor monitor(MonitorConfig());
  serve::HealthSnapshot snapshot = Healthy();
  snapshot.score_shift = 0.5;
  ASSERT_TRUE(monitor.Update(1, snapshot).has_value());

  // The shift excursion is still in progress when the alert rate spikes:
  // the alert signal has its own hysteresis and fires immediately.
  snapshot.alert_rate = 0.8;
  const auto fired = monitor.Update(1, snapshot);
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->signal, serve::HealthSignal::kAlertRate);

  // Shift clears and re-fires while alert stays disarmed.
  snapshot.score_shift = 0.05;
  EXPECT_FALSE(monitor.Update(1, snapshot).has_value());
  snapshot.score_shift = 0.5;
  const auto again = monitor.Update(1, snapshot);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->signal, serve::HealthSignal::kScoreShift);
}

TEST(HealthMonitorTest, ResetReArmsEverySignal) {
  serve::HealthMonitor monitor(MonitorConfig());
  serve::HealthSnapshot bad = Healthy();
  bad.non_finite_rate = 0.5;
  bad.score_shift = 0.9;
  ASSERT_TRUE(monitor.Update(1, bad).has_value());  // non-finite
  ASSERT_TRUE(monitor.Update(1, bad).has_value());  // shift
  EXPECT_FALSE(monitor.armed(serve::HealthSignal::kNonFiniteRate));
  EXPECT_FALSE(monitor.armed(serve::HealthSignal::kScoreShift));

  // A swap or rollback installs a new generation: fresh excursion
  // accounting even though the gauges never dipped.
  monitor.Reset();
  EXPECT_TRUE(monitor.armed(serve::HealthSignal::kNonFiniteRate));
  EXPECT_TRUE(monitor.armed(serve::HealthSignal::kScoreShift));
  const auto fired = monitor.Update(2, bad);
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->generation, 2);
}

TEST(HealthMonitorTest, NamesAreStableForOperatorOutput) {
  EXPECT_STREQ(serve::HealthSignalName(serve::HealthSignal::kScoreShift),
               "score-shift");
  EXPECT_STREQ(serve::HealthSignalName(serve::HealthSignal::kDispersion),
               "dispersion");
  EXPECT_STREQ(serve::HealthSignalName(serve::HealthSignal::kNonFiniteRate),
               "non-finite-rate");
  EXPECT_STREQ(serve::HealthSignalName(serve::HealthSignal::kAlertRate),
               "alert-rate");
  EXPECT_STREQ(serve::HealthVerdictName(serve::HealthVerdict::kDataDrift),
               "data-drift");
  EXPECT_STREQ(
      serve::HealthVerdictName(serve::HealthVerdict::kModelDegradation),
      "model-degradation");
}

}  // namespace
}  // namespace caee
