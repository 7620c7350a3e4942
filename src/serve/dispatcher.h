// The one request path of caee_serve (docs/serving.md): a request frame
// in, the ServingEngine call, response frames out.
//
// Every serving mode of caee_serve is a reader in front of one Dispatcher:
// the binary protocol hands it the frames it reads, the text protocol the
// frames its lines encode to (serve/text_protocol.h), and single-stream
// mode the open and observe frames of stream 0 on a one-shard engine. The
// Dispatcher answers each request exactly once through one serialised
// ResponseSink — score frames for scored windows, then ok, error,
// backpressure or health-status as docs/protocol.md specifies — and owns
// what every mode shares:
//
//   - the deadline flusher: a background thread that keeps the
//     flush-deadline promise when input stalls mid-batch (started when the
//     engine's flush_deadline_ms > 0); a failing flush parks its error and
//     stops, so the reader can fail the run on its next request;
//   - the drift and health advisory poll, after every request and every
//     flusher tick (each monitor's hysteresis fires once per excursion, so
//     two polling threads cannot double-report);
//   - the drain: Flush every shard, stop the flusher, report an error it
//     parked, then print one end-of-run summary.
//
// Tenant-level rejections (unknown stream, width mismatch, double open,
// malformed payload, unknown frame type, full shard) are ANSWERED and
// serving continues; whether a reader treats one as fatal is its call.
//
// Threading: Handle and Drain are called from one reader thread. Sink
// writes, the log and the delivery counters are serialised by one mutex
// shared with the flusher, taken once per answer; an observation that
// scores nothing is not answered and takes no lock beyond the engine's.

#ifndef CAEE_SERVE_DISPATCHER_H_
#define CAEE_SERVE_DISPATCHER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "serve/framing.h"
#include "serve/serving_engine.h"

namespace caee {
namespace serve {

/// \brief Where response frames go. The Dispatcher serialises every call.
class ResponseSink {
 public:
  virtual ~ResponseSink() = default;
  virtual void Write(const framing::Frame& frame) = 0;
  /// \brief Push buffered frames to the client; called after each batch of
  /// score frames and at the end of the drain.
  virtual void Flush() {}
};

class Dispatcher {
 public:
  /// \brief `engine`, `sink` and `log` must outlive the Dispatcher. `log`
  /// receives reload notices, drift/health advisories and the summary.
  Dispatcher(ServingEngine* engine, ResponseSink* sink, std::ostream* log);
  /// \brief Stops the deadline flusher; pending windows are NOT drained
  /// (call Drain for that).
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// \brief Serve one request frame and answer it through the sink.
  /// Returns what the answer carried: OK for ok/score/health-status
  /// answers (and a flush that succeeded), the error for an error frame,
  /// the engine's ResourceExhausted status for a backpressure frame.
  Status Handle(const framing::Frame& request);

  /// \brief The error the deadline flusher parked, as "deadline flush
  /// failed: ...", or OK. Readers check it before each request.
  Status flusher_status() const;

  /// \brief End of input: score every pending window, stop the flusher,
  /// report a parked flusher error, deliver the last scores and print the
  /// summary to the log.
  Status Drain();

 private:
  void Deliver(const std::vector<StreamScore>& results);
  void Respond(const framing::Frame& frame);
  void PollAdvisories();
  void FlusherLoop();
  void StopFlusher();
  void PrintSummary();
  framing::Frame HealthStatusFrame() const;

  ServingEngine* engine_;
  ResponseSink* sink_;
  std::ostream* log_;

  // Serialises sink_ and log_ writes; guards the delivery counters, which
  // the flusher thread bumps too.
  std::mutex out_mu_;
  int64_t scored_ = 0, alerts_ = 0;

  // Reader-thread state; the scratch is reused so a request allocates
  // nothing here.
  int64_t backpressured_ = 0;
  std::vector<float> observation_;
  std::vector<StreamScore> results_;
  std::string path_;

  std::atomic<bool> done_{false};
  mutable std::mutex flusher_mu_;
  Status flusher_status_;  // guarded by flusher_mu_
  std::thread flusher_;
};

}  // namespace serve
}  // namespace caee

#endif  // CAEE_SERVE_DISPATCHER_H_
