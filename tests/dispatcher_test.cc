// serve::Dispatcher (serve/dispatcher.h), the one request path of
// caee_serve: request frames in, response frames out through an in-memory
// sink. Pins the answer to every request kind, that tenant errors are
// answered without ending the session, and that single-stream mode —
// stream 0 on a one-shard engine at max_batch 1 — scores and flags
// bitwise like core::StreamingScorer under both threshold policies. Also
// covers the text protocol's line parser (serve/text_protocol.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/spot.h"
#include "core/streaming.h"
#include "core/threshold.h"
#include "serve/dispatcher.h"
#include "serve/text_protocol.h"
#include "test_util.h"

namespace caee {
namespace {

namespace fr = serve::framing;

core::EnsembleConfig TinyConfig() {
  core::EnsembleConfig cfg;
  cfg.cae.embed_dim = 6;
  cfg.cae.num_layers = 1;
  cfg.window = 5;
  cfg.num_models = 3;
  cfg.epochs_per_model = 2;
  cfg.batch_size = 32;
  cfg.max_train_windows = 64;
  cfg.seed = 11;
  return cfg;
}

std::vector<float> Row(const ts::TimeSeries& s, int64_t t) {
  return std::vector<float>(s.row(t), s.row(t) + s.dims());
}

// Collects every response frame; locked because the deadline flusher
// writes from its own thread.
class MemorySink : public serve::ResponseSink {
 public:
  void Write(const fr::Frame& frame) override {
    std::lock_guard<std::mutex> lock(mu_);
    frames_.push_back(frame);
  }
  std::vector<fr::Frame> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<fr::Frame> out;
    out.swap(frames_);
    return out;
  }
  size_t size() {
    std::lock_guard<std::mutex> lock(mu_);
    return frames_.size();
  }

 private:
  std::mutex mu_;
  std::vector<fr::Frame> frames_;
};

Status ErrorOf(const fr::Frame& frame) {
  EXPECT_EQ(frame.frame_type(), fr::FrameType::kError);
  Status error;
  EXPECT_TRUE(fr::ParseError(frame, &error).ok());
  return error;
}

serve::StreamScore ScoreOf(const fr::Frame& frame) {
  serve::StreamScore score;
  EXPECT_TRUE(fr::ParseScore(frame, &score).ok());
  return score;
}

class DispatcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ensemble_ = std::make_unique<core::CaeEnsemble>(TinyConfig());
    ASSERT_TRUE(ensemble_->Fit(testutil::PlantedSeries(250, 2, 1)).ok());
    series_ = testutil::PlantedSeries(40, 2, 5, {20});
  }

  serve::ServeConfig Config() const {
    serve::ServeConfig config;
    config.flush_deadline_ms = 0;
    return config;
  }
  // Observation t of the fixture series, for stream `id`.
  fr::Frame Obs(int64_t id, int64_t t) const {
    return fr::MakeObserveFrame(id, Row(series_, t));
  }

  std::unique_ptr<core::CaeEnsemble> ensemble_;
  ts::TimeSeries series_;
  MemorySink sink_;
  std::ostringstream log_;
};

TEST_F(DispatcherTest, TenantErrorsAreAnsweredAndServingContinues) {
  serve::ServingEngine engine(ensemble_.get(), Config());
  serve::Dispatcher dispatcher(&engine, &sink_, &log_);

  // Unknown stream.
  EXPECT_EQ(dispatcher.Handle(Obs(7, 0)).code(), StatusCode::kNotFound);
  // Double open.
  ASSERT_TRUE(dispatcher.Handle(fr::MakeOpenFrame(1)).ok());
  EXPECT_EQ(dispatcher.Handle(fr::MakeOpenFrame(1)).code(),
            StatusCode::kFailedPrecondition);
  // Width mismatch.
  EXPECT_EQ(dispatcher.Handle(fr::MakeObserveFrame(1, {1.0f})).code(),
            StatusCode::kInvalidArgument);
  // Malformed open payload (neither empty nor one policy byte).
  fr::Frame bad_open = fr::MakeOpenFrame(2);
  bad_open.payload = {1, 2};
  EXPECT_EQ(dispatcher.Handle(bad_open).code(), StatusCode::kInvalidArgument);
  // Unknown frame type.
  fr::Frame unknown = fr::MakeOpenFrame(3);
  unknown.type = 99;
  EXPECT_EQ(dispatcher.Handle(unknown).code(), StatusCode::kInvalidArgument);

  const std::vector<fr::Frame> answers = sink_.Take();
  ASSERT_EQ(answers.size(), 6u);
  EXPECT_EQ(answers[0].stream_id, 7);
  EXPECT_EQ(ErrorOf(answers[0]).code(), StatusCode::kNotFound);
  EXPECT_EQ(answers[1].frame_type(), fr::FrameType::kOk);
  EXPECT_EQ(ErrorOf(answers[2]).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ErrorOf(answers[3]).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(answers[4].stream_id, 2);
  EXPECT_EQ(ErrorOf(answers[4]).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(answers[5].stream_id, 3);
  EXPECT_NE(ErrorOf(answers[5]).message().find("unknown frame type 99"),
            std::string::npos);

  // Stream 1 was never disturbed: it warms up and scores normally.
  const int64_t w = ensemble_->config().window;
  for (int64_t t = 0; t < w; ++t) {
    ASSERT_TRUE(dispatcher.Handle(Obs(1, t)).ok());
  }
  ASSERT_TRUE(dispatcher.Drain().ok());
  const std::vector<fr::Frame> scores = sink_.Take();
  ASSERT_EQ(scores.size(), 1u);
  EXPECT_EQ(ScoreOf(scores[0]).stream_id, 1);
  EXPECT_EQ(ScoreOf(scores[0]).index, w - 1);
  EXPECT_NE(log_.str().find("scored 1 windows across streams"),
            std::string::npos)
      << log_.str();
}

TEST_F(DispatcherTest, FullShardIsAnsweredWithBackpressure) {
  serve::ServeConfig config = Config();
  config.max_pending = 1;
  serve::ServingEngine engine(ensemble_.get(), config);
  serve::Dispatcher dispatcher(&engine, &sink_, &log_);
  ASSERT_TRUE(dispatcher.Handle(fr::MakeOpenFrame(0)).ok());
  const int64_t w = ensemble_->config().window;
  for (int64_t t = 0; t < w; ++t) {  // the w-th push fills the pool
    ASSERT_TRUE(dispatcher.Handle(Obs(0, t)).ok());
  }
  EXPECT_EQ(dispatcher.Handle(Obs(0, w)).code(),
            StatusCode::kResourceExhausted);
  std::vector<fr::Frame> answers = sink_.Take();
  ASSERT_EQ(answers.size(), 2u);  // open's ok, then the backpressure
  EXPECT_EQ(answers[1].frame_type(), fr::FrameType::kBackpressure);
  EXPECT_EQ(answers[1].stream_id, 0);

  // Nothing was consumed: after a flush the same observation is accepted.
  fr::Frame flush = fr::MakeFlushFrame();
  ASSERT_TRUE(dispatcher.Handle(flush).ok());
  EXPECT_TRUE(dispatcher.Handle(Obs(0, w)).ok());
  answers = sink_.Take();
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(ScoreOf(answers[0]).index, w - 1);
  ASSERT_TRUE(dispatcher.Drain().ok());
  EXPECT_NE(log_.str().find("1 pushes backpressured"), std::string::npos)
      << log_.str();
}

TEST_F(DispatcherTest, CloseAnswersTheStreamsScoresThenOk) {
  serve::ServeConfig config = Config();
  config.max_batch = 8;
  serve::ServingEngine engine(ensemble_.get(), config);
  serve::Dispatcher dispatcher(&engine, &sink_, &log_);
  ASSERT_TRUE(dispatcher.Handle(fr::MakeOpenFrame(4)).ok());
  const int64_t w = ensemble_->config().window;
  for (int64_t t = 0; t < w + 2; ++t) {  // three windows pending
    ASSERT_TRUE(dispatcher.Handle(Obs(4, t)).ok());
  }
  ASSERT_EQ(sink_.Take().size(), 1u);  // only open's ok so far
  ASSERT_TRUE(dispatcher.Handle(fr::MakeCloseFrame(4)).ok());
  const std::vector<fr::Frame> answers = sink_.Take();
  ASSERT_EQ(answers.size(), 4u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(ScoreOf(answers[i]).stream_id, 4);
    EXPECT_EQ(ScoreOf(answers[i]).index, w - 1 + i);
  }
  EXPECT_EQ(answers[3].frame_type(), fr::FrameType::kOk);
  EXPECT_EQ(answers[3].stream_id, 4);
  // Closing it again is a tenant error, answered.
  EXPECT_EQ(dispatcher.Handle(fr::MakeCloseFrame(4)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(sink_.Take()[0].frame_type(), fr::FrameType::kError);
}

TEST_F(DispatcherTest, HealthWithoutMonitoringReportsDisabled) {
  serve::ServingEngine engine(ensemble_.get(), Config());
  serve::Dispatcher dispatcher(&engine, &sink_, &log_);
  ASSERT_TRUE(dispatcher.Handle(fr::MakeHealthFrame()).ok());
  const std::vector<fr::Frame> answers = sink_.Take();
  ASSERT_EQ(answers.size(), 1u);
  fr::HealthStatus health;
  ASSERT_TRUE(fr::ParseHealthStatus(answers[0], &health).ok());
  EXPECT_FALSE(health.enabled);
  EXPECT_EQ(health.generation, 1);
}

TEST_F(DispatcherTest, RejectedReloadIsAnsweredAndKeepsTheGeneration) {
  serve::ServingEngine engine(ensemble_.get(), Config());
  serve::Dispatcher dispatcher(&engine, &sink_, &log_);
  const Status status =
      dispatcher.Handle(fr::MakeReloadFrame("/nonexistent/model.caee"));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(engine.generation(), 1);
  const std::vector<fr::Frame> answers = sink_.Take();
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(ErrorOf(answers[0]).code(), status.code());
  ASSERT_TRUE(dispatcher.Drain().ok());
  EXPECT_NE(log_.str().find("generation 1 live after 0 reload(s), 1 rejected"),
            std::string::npos)
      << log_.str();
}

TEST_F(DispatcherTest, DeadlineFlusherDeliversWithoutFurtherRequests) {
  serve::ServeConfig config = Config();
  config.max_batch = 8;
  config.flush_deadline_ms = 5;
  serve::ServingEngine engine(ensemble_.get(), config);
  serve::Dispatcher dispatcher(&engine, &sink_, &log_);
  ASSERT_TRUE(dispatcher.Handle(fr::MakeOpenFrame(0)).ok());
  const int64_t w = ensemble_->config().window;
  for (int64_t t = 0; t < w; ++t) {
    ASSERT_TRUE(dispatcher.Handle(Obs(0, t)).ok());
  }
  // One window waits in a batch of 8; only the flusher can score it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (sink_.size() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::vector<fr::Frame> answers = sink_.Take();
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_EQ(ScoreOf(answers[1]).index, w - 1);
  EXPECT_TRUE(dispatcher.flusher_status().ok());
  ASSERT_TRUE(dispatcher.Drain().ok());
}

// Single-stream mode is stream 0 on a one-shard engine at max_batch 1 with
// no deadline flusher: every warm observation must come back inline, in
// order, bitwise equal to core::StreamingScorer's score and to the flag the
// sequential threshold reference gives.
TEST_F(DispatcherTest, SingleStreamEqualsStreamingScorerUnderBothPolicies) {
  const ts::TimeSeries series = testutil::PlantedSeries(60, 2, 9, {30, 45});
  std::vector<double> reference;
  core::StreamingScorer scorer(ensemble_.get());
  for (int64_t t = 0; t < series.length(); ++t) {
    auto result = scorer.Push(Row(series, t));
    ASSERT_TRUE(result.ok());
    if (result->has_value()) reference.push_back(result->value());
  }
  core::SpotConfig spot_config;
  spot_config.level = 0.8;
  spot_config.q = 0.05;
  spot_config.peak_capacity = 16;
  auto spot = core::CalibrateSpot(reference, spot_config);
  ASSERT_TRUE(spot.ok());
  // A static threshold inside the score range so both verdicts occur.
  std::vector<double> sorted = reference;
  std::sort(sorted.begin(), sorted.end());
  const double threshold = sorted[sorted.size() * 3 / 4];

  for (const auto policy :
       {core::ThresholdPolicy::kStatic, core::ThresholdPolicy::kSpot}) {
    std::vector<bool> want_flags;
    core::SpotState spot_state(spot.value());
    for (double score : reference) {
      want_flags.push_back(policy == core::ThresholdPolicy::kSpot
                               ? spot_state.Observe(score)
                               : core::ThresholdExceeded(score, threshold));
    }

    serve::ServeConfig config;
    config.max_batch = 1;
    config.flush_deadline_ms = 0;
    config.threshold_policy = policy;
    serve::ServingEngine engine(ensemble_.get(), config, threshold,
                                spot.value());
    MemorySink sink;
    serve::Dispatcher dispatcher(&engine, &sink, &log_);
    ASSERT_TRUE(dispatcher.Handle(fr::MakeOpenFrame(0)).ok());
    sink.Take();
    const int64_t w = ensemble_->config().window;
    for (int64_t t = 0; t < series.length(); ++t) {
      ASSERT_TRUE(
          dispatcher.Handle(fr::MakeObserveFrame(0, Row(series, t))).ok());
      const std::vector<fr::Frame> answers = sink.Take();
      ASSERT_EQ(answers.size(), t >= w - 1 ? 1u : 0u) << "obs " << t;
      if (answers.empty()) continue;
      const serve::StreamScore got = ScoreOf(answers[0]);
      const size_t i = static_cast<size_t>(t - (w - 1));
      EXPECT_EQ(got.index, t);
      EXPECT_EQ(got.score, reference[i]) << "obs " << t;
      EXPECT_EQ(got.flag, want_flags[i])
          << "obs " << t << " policy " << core::ThresholdPolicyName(policy);
    }
    ASSERT_TRUE(dispatcher.Drain().ok());
    EXPECT_TRUE(sink.Take().empty());
  }
}

TEST(TextProtocolTest, ObservationRejectsEveryEmptyCell) {
  std::vector<float> values;
  EXPECT_TRUE(serve::text::ParseObservation("1,2.5,-3", &values));
  EXPECT_EQ(values, (std::vector<float>{1.0f, 2.5f, -3.0f}));
  // A trailing comma is a trailing EMPTY cell, as ts::ReadCsv reads it.
  EXPECT_FALSE(serve::text::ParseObservation("1,2,", &values));
  EXPECT_FALSE(serve::text::ParseObservation("1,,2", &values));
  EXPECT_FALSE(serve::text::ParseObservation(",1", &values));
  EXPECT_FALSE(serve::text::ParseObservation("", &values));
  EXPECT_FALSE(serve::text::ParseObservation("1.2.3", &values));
  // Non-finite values parse: rejecting them is the engine's one answer.
  ASSERT_TRUE(serve::text::ParseObservation("nan,1", &values));
  EXPECT_TRUE(std::isnan(values[0]));

  fr::Frame frame;
  EXPECT_FALSE(serve::text::EncodeLine("0,1,2,", &frame).ok());
  ASSERT_TRUE(serve::text::EncodeLine("0,1,2", &frame).ok());
  EXPECT_EQ(frame.frame_type(), fr::FrameType::kObserve);
}

TEST(TextProtocolTest, OversizedReloadPathIsRejectedNotFatal) {
  fr::Frame frame;
  const std::string path(fr::kMaxReloadPathBytes + 1, 'a');
  const Status status = serve::text::EncodeLine("reload," + path, &frame);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("exceeds the frame bound"),
            std::string::npos);
  ASSERT_TRUE(serve::text::EncodeLine(
                  "reload," + path.substr(0, fr::kMaxReloadPathBytes), &frame)
                  .ok());
  EXPECT_EQ(frame.frame_type(), fr::FrameType::kReload);
}

TEST_F(DispatcherTest, TextLinesRoundTripThroughTheRequestPath) {
  serve::ServeConfig config = Config();
  config.max_batch = 1;
  serve::ServingEngine engine(ensemble_.get(), config);
  serve::Dispatcher dispatcher(&engine, &sink_, &log_);
  fr::Frame frame;
  ASSERT_TRUE(serve::text::EncodeLine("open,3,static", &frame).ok());
  ASSERT_TRUE(dispatcher.Handle(frame).ok());
  const int64_t w = ensemble_->config().window;
  for (int64_t t = 0; t < w; ++t) {
    std::ostringstream line;
    line << "3," << series_.value(t, 0) << "," << series_.value(t, 1);
    ASSERT_TRUE(serve::text::EncodeLine(line.str(), &frame).ok())
        << line.str();
    ASSERT_TRUE(dispatcher.Handle(frame).ok());
  }
  ASSERT_TRUE(serve::text::EncodeLine("health", &frame).ok());
  ASSERT_TRUE(dispatcher.Handle(frame).ok());
  EXPECT_FALSE(serve::text::EncodeLine("open,x", &frame).ok());

  std::ostringstream out, err;
  for (const fr::Frame& answer : sink_.Take()) {
    ASSERT_TRUE(serve::text::PrintResponse(answer, out, err).ok());
  }
  EXPECT_EQ(out.str().rfind("3," + std::to_string(w - 1) + ",", 0), 0u)
      << out.str();
  EXPECT_EQ(err.str(), "health: monitoring off (serve with --health)\n");
  EXPECT_FALSE(serve::text::PrintResponse(fr::MakeOpenFrame(1), out, err).ok());
}

}  // namespace
}  // namespace caee
