// Unit tests of the benchmark's own rules: the percentile rule, span
// self-time arithmetic and the open-loop rung decision. Plain asserts that
// survive NDEBUG; run through `python3 perfbench/run.py --selftest`.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                             \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

using namespace perfbench;

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void PercentileRule() {
  // n = 1000: p99 is rank 990 with exactly 10 beyond; p99.9 has 1.
  TailSummary t = Summarize(Ramp(1000));
  EXPECT(t.samples == 1000);
  EXPECT(t.percentile == 99.0);
  EXPECT(t.value == 990.0);
  EXPECT(t.beyond == 10);
  EXPECT(t.median == 500.5);
  // n = 999: p99 would leave 9 beyond, so only p90 qualifies.
  t = Summarize(Ramp(999));
  EXPECT(t.percentile == 90.0);
  EXPECT(t.beyond == 99);
  EXPECT(t.value == 900.0);
  // n = 10000: p99.9 has 10 beyond.
  t = Summarize(Ramp(10000));
  EXPECT(t.percentile == 99.9);
  EXPECT(t.beyond == 10);
  EXPECT(t.value == 9990.0);
  // Too small for any tail: only the median is reported.
  t = Summarize(Ramp(50));
  EXPECT(t.percentile == 0.0);
  EXPECT(t.median == 25.5);
  EXPECT(SamplesBeyond(4500, 99.0) == 45);
  EXPECT(SupportedPercentile(Ramp(999), 99.0) < 0.0);
  EXPECT(SupportedPercentile(Ramp(2000), 99.0) == 1980.0);
  EXPECT(Median({3.0, 1.0, 2.0}) == 2.0);

  // Blocked p99: 3 blocks of 1200; a stall in one block moves only that
  // block's p99, so the median of the three stays at the quiet value.
  std::vector<double> lat(3600, 5.0);
  for (int i = 0; i < 50; ++i) lat[1300 + i] = 400.0;
  EXPECT(BlockedP99(lat) == 5.0);
  EXPECT(SupportedPercentile(lat, 99.0) == 400.0);
  for (int i = 0; i < 50; ++i) lat[2500 + i] = 300.0;
  EXPECT(BlockedP99(lat) == 300.0);
  EXPECT(BlockedP99(std::vector<double>(1199, 1.0)) < 0.0);
  std::vector<double> one_block = Ramp(1250);
  EXPECT(BlockedP99(one_block) == SupportedPercentile(one_block, 99.0));
}

void SelfTime() {
  // Parent [0,100) with nested children [10,30) and [20,50) (overlap
  // counted once: 40 covered) and a grandchild that must not count twice.
  std::vector<Span> spans = {
      {"p", 0, 100, -1, 1},   // 0
      {"a", 10, 30, 0, 1},    // 1
      {"b", 20, 50, 0, 1},    // 2
      {"g", 12, 18, 1, 1},    // 3: child of a
  };
  std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT(self[0] == 60);
  EXPECT(self[1] == 14);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 6);
  // A child sticking out of its parent is clipped to the parent.
  spans = {{"p", 0, 100, -1, 0}, {"c", 90, 130, 0, 0}};
  EXPECT(SelfTimesNs(spans)[0] == 90);
  // Replayed children (measured after the call they decompose) are
  // charged by their durations; self time never goes negative.
  spans = {{"score", 0, 100, -1, 0},
           {"embed", 200, 230, 0, 0},
           {"member", 230, 290, 0, 0}};
  EXPECT(SelfTimesNs(spans)[0] == 10);
  spans.push_back({"member", 290, 350, 0, 0});
  EXPECT(SelfTimesNs(spans)[0] == 0);

  Tracer tracer(2);
  const int32_t a = tracer.Begin("x");
  tracer.End(a);
  tracer.Add("y", 5, 7, a, 3);
  EXPECT(tracer.Add("z", 0, 1, -1, 0) == -1);  // over capacity
  EXPECT(tracer.dropped() == 1);
  EXPECT(tracer.Durations("y").size() == 1 && tracer.Durations("y")[0] == 2);
  Tracer off(4, false);
  EXPECT(off.Begin("x") == -1);
  EXPECT(off.spans().empty());
}

void RungDecision() {
  RungLimit limit;
  limit.p99_ms = 100.0;
  limit.late_p99_ms = 10.0;
  limit.in_flight = 64;
  RungResult rung;
  rung.rate = 1000.0;
  rung.attempted = 2000;
  for (int i = 0; i < 2000; ++i) rung.latency_ms.push_back(i < 1980 ? 5 : 99);
  EXPECT(JudgeRung(rung, limit) == RungVerdict::kPass);
  // p99 just over the limit.
  rung.latency_ms.back() = 500;
  for (int i = 1979; i < 2000; ++i) rung.latency_ms[i] = 101;
  EXPECT(JudgeRung(rung, limit) == RungVerdict::kLatency);
  for (int i = 1979; i < 2000; ++i) rung.latency_ms[i] = 20;
  // Backlog: 1000/s x 0.1 s + 64 in flight = 164 may be outstanding.
  rung.backlog_end = 164;
  EXPECT(JudgeRung(rung, limit) == RungVerdict::kPass);
  rung.backlog_end = 165;
  EXPECT(JudgeRung(rung, limit) == RungVerdict::kBacklog);
  rung.backlog_end = 0;
  // One failure fails the rung even with perfect latency.
  rung.failed = 1;
  EXPECT(JudgeRung(rung, limit) == RungVerdict::kFailures);
  rung.failed = 0;
  // A late generator never counts as a pass, but a rung that fails on its
  // own merits is reported for that.
  // One arrival in 100 sent 50 ms late is a hiccup, two are falling behind.
  rung.late_ms.assign(200, 0.5);
  rung.late_ms[7] = 50.0;
  rung.late_ms[8] = 50.0;
  EXPECT(JudgeRung(rung, limit) == RungVerdict::kPass);
  rung.late_ms[9] = 50.0;
  EXPECT(JudgeRung(rung, limit) == RungVerdict::kLateGenerator);
  for (int i = 1979; i < 2000; ++i) rung.latency_ms[i] = 150;
  EXPECT(JudgeRung(rung, limit) == RungVerdict::kLatency);
  for (int i = 1979; i < 2000; ++i) rung.latency_ms[i] = 20;
  rung.late_ms.clear();
  // Too few samples to support p99.
  rung.latency_ms.resize(1199);
  EXPECT(JudgeRung(rung, limit) == RungVerdict::kTooFewSamples);
}

// The ladder retries a missed rate once, bisects between the highest
// passing and the lowest missed rate (from 0 when the first missed), and
// reports no rate (negative) rather than 0.
void Ladder() {
  const std::vector<double> rates = {750, 1500, 3000, 6000};
  std::vector<std::pair<double, int>> calls;
  // Capacity 2400/s; 1500 misses once (a stall) and passes on its retry.
  auto run = [&](double rate, int retry) {
    calls.emplace_back(rate, retry);
    const bool stall = rate == 1500 && retry == 0;
    return RungAttempt{!stall && rate <= 2400 ? RungVerdict::kPass
                                              : RungVerdict::kLatency,
                       rate + 1};
  };
  EXPECT(ClimbLadder(rates, 2, run) == 2251.0);
  const std::vector<std::pair<double, int>> want = {
      {750, 0},  {1500, 0}, {1500, 1}, {3000, 0},
      {3000, 1}, {2250, 0}, {2625, 0}, {2625, 1}};
  EXPECT(calls == want);
  // Every rate passes: the top one is reported, nothing is retried or
  // refined.
  calls.clear();
  auto all = [&](double rate, int retry) {
    calls.emplace_back(rate, retry);
    return RungAttempt{RungVerdict::kPass, rate};
  };
  EXPECT(ClimbLadder(rates, 3, all) == 6000.0);
  EXPECT(calls.size() == 4);
  // Capacity 500/s: the first rate misses twice, and the bisection goes
  // below it (375 passes, 562.5 misses twice).
  calls.clear();
  auto slow = [&](double rate, int retry) {
    calls.emplace_back(rate, retry);
    return RungAttempt{rate <= 500 ? RungVerdict::kPass : RungVerdict::kLatency,
                       rate};
  };
  EXPECT(ClimbLadder(rates, 2, slow) == 375.0);
  EXPECT(calls.size() == 5);
  // Nothing passes, not even the bisection below the first rate.
  calls.clear();
  auto none = [&](double rate, int retry) {
    calls.emplace_back(rate, retry);
    return RungAttempt{RungVerdict::kBacklog, rate};
  };
  EXPECT(ClimbLadder(rates, 3, none) < 0.0);
  EXPECT(calls.size() == 8);
}

}  // namespace

int main() {
  PercentileRule();
  SelfTime();
  RungDecision();
  Ladder();
  if (g_failures > 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", g_failures);
    return 1;
  }
  std::printf("stats_test: all expectations hold\n");
  return 0;
}
