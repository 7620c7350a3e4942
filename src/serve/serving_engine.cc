#include "serve/serving_engine.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/health.h"

namespace caee {
namespace serve {

namespace {

DriftMonitorConfig MakeDriftConfig(const ServeConfig& config) {
  DriftMonitorConfig drift;
  drift.threshold = config.drift_threshold;
  drift.clear = config.drift_clear;
  return drift;
}

// Guard for dividing by a (theoretically) zero reference dispersion; same
// floor the shard health gauges use.
constexpr double kDispersionFloor = 1e-12;

/// Shadow-score the retained canary windows with the reload candidate and
/// judge the result against the CANDIDATE's own calibration reference —
/// "would this candidate look healthy on today's traffic?". OK means
/// adopt; any error is the rejection reason (the caller wraps it with the
/// reload-rejected prefix). Uses the same three model-owned statistics the
/// live HealthMonitor classifies as degradation-or-shift, against the same
/// configured thresholds.
Status JudgeCanary(const core::CaeEnsemble& candidate,
                   const core::HealthRef& ref, const HealthConfig& health,
                   const std::vector<float>& windows, int64_t count) {
  std::vector<double> scores;
  std::vector<double> dispersions;
  CAEE_RETURN_NOT_OK(candidate.ScoreWindowsLastInto(windows.data(), count,
                                                    &scores, &dispersions));
  int64_t non_finite = 0;
  std::vector<int64_t> bins(core::kHealthBins, 0);
  double disp_sum = 0.0;
  int64_t disp_count = 0;
  for (int64_t i = 0; i < count; ++i) {
    if (std::isfinite(scores[static_cast<size_t>(i)])) {
      ++bins[core::HealthBinIndex(ref, scores[static_cast<size_t>(i)])];
    } else {
      ++non_finite;
    }
    if (std::isfinite(dispersions[static_cast<size_t>(i)])) {
      disp_sum += dispersions[static_cast<size_t>(i)];
      ++disp_count;
    }
  }
  const double non_finite_rate =
      static_cast<double>(non_finite) / static_cast<double>(count);
  if (non_finite_rate > health.non_finite_threshold) {
    return Status::FailedPrecondition(
        "canary rejected candidate: " + std::to_string(non_finite) + " of " +
        std::to_string(count) +
        " shadow-scored windows came back non-finite (threshold rate " +
        std::to_string(health.non_finite_threshold) + ")");
  }
  const double shift =
      core::HealthTotalVariation(ref, bins.data(), count - non_finite);
  if (shift > health.shift_threshold) {
    return Status::FailedPrecondition(
        "canary rejected candidate: shadow scores sit at total-variation "
        "distance " +
        std::to_string(shift) +
        " from the candidate's own calibration histogram (threshold " +
        std::to_string(health.shift_threshold) +
        ") — the candidate does not recognize live traffic as normal");
  }
  if (disp_count > 0) {
    const double ratio =
        (disp_sum / static_cast<double>(disp_count)) /
        std::max(ref.mean_dispersion, kDispersionFloor);
    if (ratio > health.dispersion_threshold) {
      return Status::FailedPrecondition(
          "canary rejected candidate: member dispersion on live traffic is " +
          std::to_string(ratio) +
          "x the candidate's calibration baseline (threshold " +
          std::to_string(health.dispersion_threshold) +
          "x) — the ensemble members no longer agree");
    }
  }
  return Status::OK();
}

}  // namespace

ServingEngine::ServingEngine(const core::CaeEnsemble* ensemble,
                             const ServeConfig& config,
                             std::optional<double> threshold,
                             std::optional<core::SpotInit> spot,
                             std::optional<core::HealthRef> health)
    : config_(config),
      drift_monitor_(MakeDriftConfig(config)),
      health_monitor_(config.health) {
  CAEE_CHECK_MSG(config_.num_shards >= 1, "num_shards must be >= 1");
  // Generation 1 wraps the caller-owned ensemble (serve/generation.h);
  // every later generation comes from ReloadArtifact and owns its weights.
  auto gen = std::make_shared<Generation>();
  gen->id = 1;
  gen->source = "<construction>";
  gen->ensemble = ensemble;
  gen->threshold = threshold;
  if (spot.has_value()) {
    const Status valid = core::ValidateSpotInit(*spot);
    CAEE_CHECK_MSG(valid.ok(), "ServingEngine: invalid SPOT init params");
    gen->spot = std::make_unique<const core::SpotInit>(std::move(*spot));
  }
  CAEE_CHECK_MSG(
      config_.threshold_policy != core::ThresholdPolicy::kSpot ||
          gen->spot != nullptr,
      "default threshold policy kSpot needs SPOT init params");
  if (config_.health.enabled) {
    CAEE_CHECK_MSG(health.has_value(),
                   "health monitoring needs a health calibration reference "
                   "(train with --health; docs/operations.md)");
    const Status valid = core::ValidateHealthRef(*health);
    CAEE_CHECK_MSG(valid.ok(), "ServingEngine: invalid health reference");
  }
  if (health.has_value()) {
    gen->health = std::make_unique<const core::HealthRef>(std::move(*health));
  }
  gen_ = gen;
  // Generation 1 starts as last-known-good: the operator deployed it.
  last_good_ = gen_;
  ShardConfig shard_config;
  shard_config.max_batch = config_.max_batch;
  shard_config.flush_deadline_ms = config_.flush_deadline_ms;
  shard_config.max_pending = config_.max_pending;
  shard_config.health = config_.health.enabled;
  shard_config.canary_capacity = config_.health.canary_capacity;
  shards_.reserve(static_cast<size_t>(config_.num_shards));
  for (int64_t s = 0; s < config_.num_shards; ++s) {
    shards_.push_back(std::make_unique<EngineShard>(
        gen_, shard_config, config_.threshold_policy));
  }
}

std::shared_ptr<const Generation> ServingEngine::CurrentGeneration() const {
  std::lock_guard<std::mutex> lock(gen_mu_);
  return gen_;
}

std::optional<double> ServingEngine::threshold() const {
  return CurrentGeneration()->threshold;
}

const core::SpotInit* ServingEngine::spot() const {
  return CurrentGeneration()->spot.get();
}

int64_t ServingEngine::generation() const { return CurrentGeneration()->id; }

void ServingEngine::set_fault_injector(FaultInjector* fault) {
  fault_ = fault;
  for (auto& shard : shards_) shard->set_fault_injector(fault);
}

StatusOr<int64_t> ServingEngine::ReloadArtifact(const std::string& path) {
  // One reload at a time, end to end: the shard fan-outs of two concurrent
  // reloads must not interleave — the engine always converges to exactly
  // one live generation (the last reload to run wins).
  std::lock_guard<std::mutex> reload_lock(reload_mu_);
  const std::shared_ptr<const Generation> current = CurrentGeneration();

  auto fail = [&](Status s) -> Status {
    reloads_failed_.fetch_add(1, std::memory_order_relaxed);
    // A rejected reload RE-ARMS both monitors. The excursion that
    // prompted this repair attempt is still live and still measured (no
    // shard state was touched), so the next poll can fire a fresh
    // advisory — one per failed repair attempt, instead of silence after
    // the first firing (tests/drift_monitor_test.cc pins this).
    ResetMonitors();
    return Status(s.code(),
                  "reload rejected, still serving generation " +
                      std::to_string(current->id) + ": " + s.message());
  };

  auto candidate =
      LoadGeneration(path, current->id + 1, retry_, fault_);
  if (!candidate.ok()) return fail(candidate.status());
  std::shared_ptr<Generation> gen = std::move(candidate).value();

  // Validate the candidate against the LIVE deployment before any shard
  // sees it. Session rings and SPOT slabs are sized by this geometry, and
  // open sessions must keep scoring across the swap — an incompatible
  // artifact is a degraded-mode error, not a crash.
  const core::CaeEnsemble& live = *current->ensemble;
  const core::CaeEnsemble& next = *gen->ensemble;
  if (next.config().window != live.config().window) {
    return fail(Status::FailedPrecondition(
        "candidate artifact window " +
        std::to_string(next.config().window) + " != serving window " +
        std::to_string(live.config().window)));
  }
  if (next.input_dim() != live.input_dim()) {
    return fail(Status::FailedPrecondition(
        "candidate artifact input width " +
        std::to_string(next.input_dim()) + " != serving width " +
        std::to_string(live.input_dim())));
  }
  if ((gen->spot != nullptr) != (current->spot != nullptr)) {
    return fail(Status::FailedPrecondition(
        std::string("SPOT capability is fixed at engine construction: "
                    "candidate artifact ") +
        (gen->spot != nullptr ? "carries" : "lacks") +
        " SPOT init params but the engine was loaded " +
        (current->spot != nullptr ? "with" : "without") + " them"));
  }
  if (gen->spot != nullptr &&
      gen->spot->config.peak_capacity != current->spot->config.peak_capacity) {
    return fail(Status::FailedPrecondition(
        "candidate SPOT peak capacity " +
        std::to_string(gen->spot->config.peak_capacity) +
        " != serving capacity " +
        std::to_string(current->spot->config.peak_capacity) +
        " (per-stream peak slabs are sized by it)"));
  }
  if (config_.health.enabled && gen->health == nullptr) {
    return fail(Status::FailedPrecondition(
        "health monitoring is on but the candidate artifact has no health "
        "section (train with --health; docs/operations.md)"));
  }
  // The new ensemble inherits the live one's runtime knobs — they are
  // deployment configuration, not artifact content. Safe to mutate here:
  // the candidate is not yet shared with any shard (the canary below
  // shadow-scores with the deployment's backend, like live traffic will).
  gen->owned_ensemble->set_num_threads(live.config().num_threads);
  gen->owned_ensemble->set_scoring_backend(live.scoring_backend());

  // Canary phase: shadow-score the retained ring of recent live windows
  // with the candidate BEFORE any shard adopts it. Rejection leaves every
  // shard bitwise untouched — the canary buffer is COPIED out under each
  // shard's lock (one brief lock at a time), and the candidate scores the
  // copy on this thread. Skipped on a cold engine (too few retained
  // windows to judge).
  if (config_.health.enabled) {
    std::vector<float> canary_windows;
    int64_t canary_count = 0;
    for (auto& shard : shards_) {
      canary_count += shard->CopyCanaryWindows(&canary_windows);
    }
    if (canary_count >= config_.health.canary_min_windows) {
      if (Status verdict =
              JudgeCanary(*gen->ensemble, *gen->health, config_.health,
                          canary_windows, canary_count);
          !verdict.ok()) {
        canary_rejections_.fetch_add(1, std::memory_order_relaxed);
        return fail(verdict);
      }
    }
  }

  // Fan the swap out shard by shard. Each AdoptGeneration takes that
  // shard's mutex, so any flush in flight finishes on its starting
  // generation first (the RCU grace period). During the fan-out, shards
  // ahead of the cursor score on the new generation and shards behind it
  // on the old — every window still lands on exactly one generation.
  const std::shared_ptr<const Generation> adopted = std::move(gen);
  InstallGeneration(adopted);
  {
    // New calibration baseline -> a fresh drift excursion accounting.
    std::lock_guard<std::mutex> lock(drift_mu_);
    drift_monitor_.Reset();
  }
  {
    // The health monitor restarts with the swap (its gauges now measure
    // the new generation against the new reference), and the new
    // generation enters PROBATION: the previous one is retained as
    // last-known-good for automatic rollback until probation is survived
    // (PollHealth promotes it then). A swap landing DURING probation
    // keeps the existing last-known-good — an unproven chain of
    // candidates never gets promoted by merely reloading again.
    int64_t scored = 0;
    for (const auto& shard : shards_) {
      scored += shard->Stats().scored_windows;
    }
    std::lock_guard<std::mutex> lock(health_mu_);
    health_monitor_.Reset();
    if (config_.health.enabled) {
      if (!in_probation_) last_good_ = current;
      in_probation_ = true;
      probation_start_windows_ = scored;
    }
  }
  reloads_ok_.fetch_add(1, std::memory_order_relaxed);
  return adopted->id;
}

std::optional<RepairRequest> ServingEngine::PollDrift() {
  const EngineStats stats = Stats();
  std::lock_guard<std::mutex> lock(drift_mu_);
  return drift_monitor_.Update(stats.generation, stats.drift,
                               stats.drift_window);
}

std::optional<HealthEvent> ServingEngine::PollHealth() {
  if (!config_.health.enabled) return std::nullopt;
  const EngineStats stats = Stats();
  // Read BEFORE health_mu_ (strict leaf-lock discipline). If a reload
  // lands between this read and the lock, the probation-expiry check
  // below cannot promote stale state: the reload just refreshed
  // probation_start_windows_ to a value >= stats.scored_windows, so the
  // expiry condition is false.
  const std::shared_ptr<const Generation> live = CurrentGeneration();
  HealthSnapshot snapshot;
  snapshot.window = stats.health_window;
  snapshot.score_shift = stats.score_shift;
  snapshot.dispersion_ratio = stats.dispersion_ratio;
  snapshot.non_finite_rate = stats.non_finite_rate;
  snapshot.alert_rate = stats.alert_rate;
  std::optional<HealthEvent> event;
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    // Probation expiry first: a generation that survived its window is
    // promoted to last-known-good before any new verdict can land on it.
    if (in_probation_ &&
        stats.scored_windows - probation_start_windows_ >=
            config_.health.probation_windows) {
      in_probation_ = false;
      last_good_ = live;
    }
    event = health_monitor_.Update(stats.generation, snapshot);
  }
  if (!event.has_value()) return std::nullopt;
  signal_events_[static_cast<int>(event->signal)].fetch_add(
      1, std::memory_order_relaxed);
  if (event->verdict != HealthVerdict::kModelDegradation) return event;

  // Automatic rollback: only while the suspect generation is inside its
  // probation window and a DISTINCT last-known-good is retained. Taken
  // under the reload lock — a rollback IS a swap, just to a generation
  // the engine already holds in memory, so there is no IO and no failure
  // path. Outside probation the event is advisory only.
  std::lock_guard<std::mutex> reload_lock(reload_mu_);
  const std::shared_ptr<const Generation> current = CurrentGeneration();
  std::shared_ptr<const Generation> target;
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    if (in_probation_ && current->id == event->generation &&
        last_good_ != nullptr && last_good_->id != current->id) {
      target = last_good_;
      in_probation_ = false;
    }
  }
  if (target == nullptr) return event;
  // Same fan-out as a reload: each AdoptGeneration takes that shard's
  // mutex (the RCU grace period) and restarts its drift + health rings.
  // The restored generation keeps its ORIGINAL id — generation ids name
  // artifacts, and this artifact already has one.
  InstallGeneration(target);
  ResetMonitors();
  rollbacks_.fetch_add(1, std::memory_order_relaxed);
  event->rolled_back = true;
  event->rolled_back_to = target->id;
  return event;
}

void ServingEngine::InstallGeneration(
    const std::shared_ptr<const Generation>& gen) {
  for (auto& shard : shards_) shard->AdoptGeneration(gen);
  std::lock_guard<std::mutex> lock(gen_mu_);
  gen_ = gen;
}

void ServingEngine::ResetMonitors() {
  {
    std::lock_guard<std::mutex> lock(drift_mu_);
    drift_monitor_.Reset();
  }
  std::lock_guard<std::mutex> lock(health_mu_);
  health_monitor_.Reset();
}

bool ServingEngine::drift_armed() const {
  std::lock_guard<std::mutex> lock(drift_mu_);
  return drift_monitor_.armed();
}

bool ServingEngine::health_armed(HealthSignal signal) const {
  std::lock_guard<std::mutex> lock(health_mu_);
  return health_monitor_.armed(signal);
}

bool ServingEngine::in_probation() const {
  std::lock_guard<std::mutex> lock(health_mu_);
  return in_probation_;
}

size_t ServingEngine::ShardOf(int64_t stream_id, size_t num_shards) {
  // SplitMix64 finalizer: adjacent tenant ids (0, 1, 2, ...) must spread
  // across shards, not land on one.
  uint64_t x = static_cast<uint64_t>(stream_id);
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<size_t>(x % num_shards);
}

Status ServingEngine::OpenStream(int64_t stream_id) {
  return ShardFor(stream_id).OpenStream(stream_id,
                                        config_.threshold_policy);
}

Status ServingEngine::OpenStream(int64_t stream_id,
                                 core::ThresholdPolicy policy) {
  return ShardFor(stream_id).OpenStream(stream_id, policy);
}

Status ServingEngine::CloseStream(int64_t stream_id,
                                  std::vector<StreamScore>* out) {
  return ShardFor(stream_id).CloseStream(stream_id, out);
}

Status ServingEngine::Push(int64_t stream_id,
                           const std::vector<float>& observation,
                           std::vector<StreamScore>* out) {
  return ShardFor(stream_id).Push(stream_id, observation, out);
}

Status ServingEngine::Flush(std::vector<StreamScore>* out) {
  for (auto& shard : shards_) {
    CAEE_RETURN_NOT_OK(shard->Flush(out));
  }
  return Status::OK();
}

Status ServingEngine::FlushIfExpired(std::vector<StreamScore>* out) {
  for (auto& shard : shards_) {
    CAEE_RETURN_NOT_OK(shard->FlushIfExpired(out));
  }
  return Status::OK();
}

EngineStats ServingEngine::Stats() const {
  EngineStats total;
  for (const auto& shard : shards_) {
    const EngineStats s = shard->Stats();
    total.scored_windows += s.scored_windows;
    total.alerts += s.alerts;
    total.non_finite_scores += s.non_finite_scores;
    total.drift_window += s.drift_window;
    total.drift = std::max(total.drift, s.drift);
    total.health_window += s.health_window;
    total.score_shift = std::max(total.score_shift, s.score_shift);
    total.dispersion_ratio =
        std::max(total.dispersion_ratio, s.dispersion_ratio);
    total.non_finite_rate =
        std::max(total.non_finite_rate, s.non_finite_rate);
    total.alert_rate = std::max(total.alert_rate, s.alert_rate);
  }
  total.generation = generation();
  total.reloads = reloads_ok_.load(std::memory_order_relaxed);
  total.failed_reloads = reloads_failed_.load(std::memory_order_relaxed);
  total.canary_rejections =
      canary_rejections_.load(std::memory_order_relaxed);
  total.rollbacks = rollbacks_.load(std::memory_order_relaxed);
  total.score_shift_events =
      signal_events_[static_cast<int>(HealthSignal::kScoreShift)].load(
          std::memory_order_relaxed);
  total.dispersion_events =
      signal_events_[static_cast<int>(HealthSignal::kDispersion)].load(
          std::memory_order_relaxed);
  total.non_finite_events =
      signal_events_[static_cast<int>(HealthSignal::kNonFiniteRate)].load(
          std::memory_order_relaxed);
  total.alert_rate_events =
      signal_events_[static_cast<int>(HealthSignal::kAlertRate)].load(
          std::memory_order_relaxed);
  return total;
}

int64_t ServingEngine::num_streams() const {
  int64_t total = 0;
  for (const auto& shard : shards_) total += shard->num_streams();
  return total;
}

int64_t ServingEngine::pending_windows() const {
  int64_t total = 0;
  for (const auto& shard : shards_) total += shard->pending_windows();
  return total;
}

size_t ServingEngine::MemoryBytes() const {
  size_t total = sizeof(*this);
  for (const auto& shard : shards_) total += shard->MemoryBytes();
  return total;
}

}  // namespace serve
}  // namespace caee
