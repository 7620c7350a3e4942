// The benchmark's own statistics: the percentile rule, the open-loop rung
// decision, and an in-memory span buffer with self-time arithmetic.
// Everything here is pure bookkeeping over numbers the workloads measure;
// tests/stats_test.cc pins each rule.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// \brief Nearest-rank quantile of an ascending sample: the value at rank
/// ceil(q * n) (1-based). Requires a non-empty sample and q in (0, 1].
double NearestRank(const std::vector<double>& sorted, double q);

/// \brief Median of an unsorted sample (the mean of the two middle values
/// for an even count). Requires a non-empty sample.
double Median(std::vector<double> values);

/// \brief A timing sample summarised by the percentile rule: its median and
/// the highest percentile of the ladder 90, 99, 99.9, 99.99 that has at
/// least kMinBeyond samples ranked above it.
struct TailSummary {
  int64_t samples = 0;
  double median = 0.0;
  double percentile = 0.0;  // e.g. 99; 0 when no ladder rung qualifies
  double value = 0.0;       // the sample at that percentile
  int64_t beyond = 0;       // samples ranked above it
};

inline constexpr int64_t kMinBeyond = 10;

/// \brief Samples ranked strictly above the nearest-rank p-th percentile
/// of n samples: n - ceil(p / 100 * n).
int64_t SamplesBeyond(int64_t n, double percentile);

TailSummary Summarize(std::vector<double> samples);

/// \brief The nearest-rank p-th percentile when at least kMinBeyond samples
/// lie beyond it, else a negative value (the sample cannot support it).
double SupportedPercentile(std::vector<double> samples, double percentile);

/// \brief Samples per block of BlockedP99: enough for p99 to have at least
/// kMinBeyond samples beyond it.
inline constexpr size_t kP99Block = 1200;

/// \brief The p99 of a rung: `samples` (in arrival order) are cut into
/// floor(n / kP99Block) consecutive blocks of equal size, and the result is
/// the median of the blocks' p99s. A single stall of the host lifts the
/// p99 of the block it falls in, not the rung's. Negative when n <
/// kP99Block.
double BlockedP99(const std::vector<double>& samples);

/// \brief "p99 12.3 ms (45 beyond, n=4500)" for reports.
std::string DescribeTail(const TailSummary& tail, const char* unit);

/// \brief What one open-loop rung measured.
struct RungResult {
  double rate = 0.0;          // offered windows/s
  int64_t attempted = 0;      // arrivals sent
  int64_t failed = 0;         // error/backpressure/missing/duplicate/wrong
  int64_t backlog_end = 0;    // arrivals sent but unscored when it ended
  double late_max_ms = 0.0;   // worst generator lateness vs the schedule
  std::vector<double> late_ms;     // each arrival's send time - due time
  std::vector<double> latency_ms;  // due time -> score frame read back,
                                   // in arrival order
};

/// \brief The limit a rung must meet.
struct RungLimit {
  double p99_ms = 100.0;      // latency limit on the 99th percentile
  double late_p99_ms = 10.0;  // the generator must keep its schedule
  int64_t in_flight = 0;      // windows legitimately queued (shards x batch)
};

enum class RungVerdict {
  kPass,
  kFailures,       // some operation failed: counts as missing the limit
  kLateGenerator,  // the generator fell behind: the rung proves nothing
  kTooFewSamples,  // p99 is not supported by the sample
  kLatency,        // p99 over the limit
  kBacklog,        // the queue grew: more outstanding than the limit drains
};

const char* RungVerdictName(RungVerdict verdict);

/// \brief A rung passes only when nothing failed, its BlockedP99 is
/// supported and within the limit, the backlog left at the end is no more than the
/// arrivals of one latency limit plus the windows the server may
/// legitimately hold in its batches, and the generator kept its schedule:
/// 99% of arrivals sent within late_p99_ms of their due time. (Lateness is
/// charged to latency anyway; a lone descheduling of the generator on a
/// shared machine does not void a rung, falling behind does.)
RungVerdict JudgeRung(const RungResult& rung, const RungLimit& limit);

/// \brief One attempt at a rung: its verdict and the windows/s it achieved.
struct RungAttempt {
  RungVerdict verdict = RungVerdict::kFailures;
  double achieved_wps = 0.0;
};

/// \brief The ladder: `rates` are climbed in order through
/// `attempt(rate, retry)`. A rate that misses the limit is run once more
/// (retry = 1) before it counts as missed, so that one stall of a shared
/// host does not decide it. When the climb stops at a missed rate,
/// `refine_steps` bisections narrow the gap between it and the highest
/// passing rate (0 when the first rate missed). Returns what the highest
/// passing attempt achieved, or a negative value when nothing passed.
double ClimbLadder(const std::vector<double>& rates, int refine_steps,
                   const std::function<RungAttempt(double rate, int retry)>& attempt);

/// \brief One recorded span. `parent` indexes the span buffer (-1 = root).
struct Span {
  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t request = 0;
};

/// \brief Fixed-capacity in-memory span buffer. Begin/End never allocate
/// once constructed; spans beyond the capacity are counted as dropped. A
/// disabled tracer records nothing and returns -1, which is how the
/// untraced baseline for the overhead figure is run.
class Tracer {
 public:
  explicit Tracer(size_t capacity, bool enabled = true);

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  int32_t Begin(const char* name, int32_t parent = -1, int64_t request = 0);
  void End(int32_t id);
  /// \brief Record a span measured elsewhere (a replayed child call).
  int32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int32_t parent, int64_t request);

  const std::vector<Span>& spans() const { return spans_; }
  int64_t dropped() const { return dropped_; }

  /// \brief Durations in ns of every span called `name`.
  std::vector<double> Durations(const char* name) const;

  /// \brief Self time of every span called `name`: see SelfTimesNs.
  std::vector<double> SelfTimes(const char* name) const;

 private:
  size_t capacity_;
  bool enabled_;
  std::vector<Span> spans_;
  int64_t dropped_ = 0;
};

/// \brief Self time of each span: its duration minus the part of its
/// interval covered by its children (spans whose parent it is), clipped to
/// the parent's interval and counting overlapping children once. A child
/// recorded outside its parent's interval (a replay measured after the
/// call it decomposes) is charged by its duration instead, so self time is
/// the span minus its children either way; never below zero.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// \brief Write spans as JSON lines (name, start, end, parent, request).
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
