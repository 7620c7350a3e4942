#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

double NearestRank(const std::vector<double>& sorted, double q) {
  const int64_t n = static_cast<int64_t>(sorted.size());
  int64_t rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<int64_t>(rank, 1, n);
  return sorted[static_cast<size_t>(rank - 1)];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

int64_t SamplesBeyond(int64_t n, double percentile) {
  // Round away the binary error of p/100*n (0.99 * 1000 = 990.0000000001)
  // before the ceiling, so the rank is the one the decimal arithmetic gives.
  const double exact = percentile / 100.0 * static_cast<double>(n);
  const int64_t rank =
      static_cast<int64_t>(std::ceil(std::round(exact * 1e6) / 1e6));
  return n - rank;
}

TailSummary Summarize(std::vector<double> samples) {
  TailSummary tail;
  tail.samples = static_cast<int64_t>(samples.size());
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  tail.median = Median(samples);
  for (const double p : {90.0, 99.0, 99.9, 99.99}) {
    const int64_t beyond = SamplesBeyond(tail.samples, p);
    if (beyond < kMinBeyond) break;
    tail.percentile = p;
    tail.beyond = beyond;
    tail.value = samples[static_cast<size_t>(tail.samples - beyond - 1)];
  }
  return tail;
}

double SupportedPercentile(std::vector<double> samples, double percentile) {
  const int64_t n = static_cast<int64_t>(samples.size());
  const int64_t beyond = SamplesBeyond(n, percentile);
  if (n == 0 || beyond < kMinBeyond) return -1.0;
  std::sort(samples.begin(), samples.end());
  return samples[static_cast<size_t>(n - beyond - 1)];
}

double BlockedP99(const std::vector<double>& samples) {
  const size_t blocks = samples.size() / kP99Block;
  if (blocks == 0) return -1.0;
  std::vector<double> p99s;
  for (size_t b = 0; b < blocks; ++b) {
    const auto begin = samples.begin() + static_cast<long>(b * samples.size() / blocks);
    const auto end = samples.begin() + static_cast<long>((b + 1) * samples.size() / blocks);
    p99s.push_back(SupportedPercentile(std::vector<double>(begin, end), 99.0));
  }
  return Median(p99s);
}

std::string DescribeTail(const TailSummary& tail, const char* unit) {
  char buf[160];
  if (tail.percentile == 0.0) {
    std::snprintf(buf, sizeof(buf), "median %.4g %s (n=%lld, no tail)",
                  tail.median, unit, static_cast<long long>(tail.samples));
  } else {
    std::snprintf(buf, sizeof(buf),
                  "median %.4g %s, p%g %.4g %s (%lld beyond, n=%lld)",
                  tail.median, unit, tail.percentile, tail.value, unit,
                  static_cast<long long>(tail.beyond),
                  static_cast<long long>(tail.samples));
  }
  return buf;
}

const char* RungVerdictName(RungVerdict verdict) {
  switch (verdict) {
    case RungVerdict::kPass: return "pass";
    case RungVerdict::kFailures: return "failures";
    case RungVerdict::kLateGenerator: return "late-generator";
    case RungVerdict::kTooFewSamples: return "too-few-samples";
    case RungVerdict::kLatency: return "p99-over-limit";
    case RungVerdict::kBacklog: return "growing-backlog";
  }
  return "?";
}

RungVerdict JudgeRung(const RungResult& rung, const RungLimit& limit) {
  if (rung.failed > 0) return RungVerdict::kFailures;
  const double p99 = BlockedP99(rung.latency_ms);
  if (p99 < 0.0) return RungVerdict::kTooFewSamples;
  if (p99 > limit.p99_ms) return RungVerdict::kLatency;
  const double drainable = rung.rate * limit.p99_ms / 1000.0 +
                           static_cast<double>(limit.in_flight);
  if (static_cast<double>(rung.backlog_end) > drainable) {
    return RungVerdict::kBacklog;
  }
  // Checked last so a saturated server (whose full pipe also blocks the
  // writer) reads as what it is; a rung that would otherwise pass is still
  // void when the generator fell behind its schedule.
  if (!rung.late_ms.empty()) {
    std::vector<double> late = rung.late_ms;
    std::sort(late.begin(), late.end());
    if (NearestRank(late, 0.99) > limit.late_p99_ms) {
      return RungVerdict::kLateGenerator;
    }
  }
  return RungVerdict::kPass;
}

double ClimbLadder(const std::vector<double>& rates, int refine_steps,
                   const std::function<RungAttempt(double, int)>& attempt) {
  auto passes = [&](double rate, double* achieved) {
    for (int retry = 0; retry < 2; ++retry) {
      const RungAttempt a = attempt(rate, retry);
      if (a.verdict == RungVerdict::kPass) {
        *achieved = a.achieved_wps;
        return true;
      }
    }
    return false;
  };
  double best = -1.0, lo = 0.0, hi = 0.0;
  for (const double rate : rates) {
    double achieved = 0.0;
    if (!passes(rate, &achieved)) {
      hi = rate;
      break;
    }
    best = achieved;
    lo = rate;
  }
  // The top rate passed. Otherwise bisect, below the first rate too when
  // it missed: a host slow enough to miss it reports a lower rate rather
  // than none.
  if (hi == 0.0) return best;
  for (int i = 0; i < refine_steps; ++i) {
    const double mid = 0.5 * (lo + hi);
    double achieved = 0.0;
    if (passes(mid, &achieved)) {
      best = achieved;
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return best;
}

Tracer::Tracer(size_t capacity, bool enabled)
    : capacity_(capacity), enabled_(enabled) {
  spans_.reserve(enabled ? capacity : 0);
}

int32_t Tracer::Begin(const char* name, int32_t parent, int64_t request) {
  if (!enabled_) return -1;
  return Add(name, NowNs(), 0, parent, request);
}

void Tracer::End(int32_t id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
}

int32_t Tracer::Add(const char* name, int64_t start_ns, int64_t end_ns,
                    int32_t parent, int64_t request) {
  if (!enabled_) return -1;
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return -1;
  }
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<int32_t>(spans_.size() - 1);
}

std::vector<double> Tracer::Durations(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::string(s.name) == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

std::vector<double> Tracer::SelfTimes(const char* name) const {
  const std::vector<int64_t> self = SelfTimesNs(spans_);
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (std::string(spans_[i].name) == name) {
      out.push_back(static_cast<double>(self[i]));
    }
  }
  return out;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int32_t p = spans[i].parent;
    if (p >= 0 && static_cast<size_t>(p) < spans.size()) {
      children[static_cast<size_t>(p)].push_back(i);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t begin = spans[i].start_ns, end = spans[i].end_ns;
    std::vector<std::pair<int64_t, int64_t>> inside;
    int64_t outside = 0;
    for (const size_t c : children[i]) {
      const int64_t cb = std::max(begin, spans[c].start_ns);
      const int64_t ce = std::min(end, spans[c].end_ns);
      if (ce > cb) {
        inside.emplace_back(cb, ce);
      } else {
        outside += spans[c].end_ns - spans[c].start_ns;
      }
    }
    std::sort(inside.begin(), inside.end());
    int64_t covered = 0, reach = begin;
    for (const auto& [cb, ce] : inside) {
      const int64_t from = std::max(cb, reach);
      if (ce > from) covered += ce - from;
      reach = std::max(reach, ce);
    }
    self[i] = std::max<int64_t>(0, end - begin - covered - outside);
  }
  return self;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
