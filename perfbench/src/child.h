// A caee_serve child process driven over its stdin/stdout pipes, exactly
// as a client would: request frames in, response frames out. One writer
// (the caller's thread) and one reader thread, which timestamps every
// response frame the moment it is decoded.

#ifndef PERFBENCH_CHILD_H_
#define PERFBENCH_CHILD_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/framing.h"

namespace perfbench {

/// \brief One response frame as the reader saw it.
struct Response {
  int64_t recv_ns = 0;
  uint8_t type = 0;
  int64_t stream_id = 0;
  int64_t index = 0;    // kScore only
  double score = 0.0;   // kScore only
  int64_t generation = 0;  // kHealthStatus only
};

class ServeChild {
 public:
  ServeChild() = default;
  ~ServeChild();
  ServeChild(const ServeChild&) = delete;
  ServeChild& operator=(const ServeChild&) = delete;

  /// \brief Start `argv[0]` with `argv`, its stderr appended to
  /// `log_path`, and the reader thread; responses are kept in a buffer of
  /// `capacity` entries (a fuller buffer is a reader error).
  bool Start(const std::vector<std::string>& argv, const std::string& log_path,
             size_t capacity);

  /// \brief Encode and write one request frame; false on a write error.
  /// Blocks while the pipe is full, which is how a slow server makes the
  /// generator late.
  bool Send(const caee::serve::framing::Frame& frame);

  /// \brief Responses decoded so far (acquire: entries [0, n) are final).
  size_t received() const { return count_.load(std::memory_order_acquire); }
  const Response& response(size_t i) const { return responses_[i]; }
  int64_t scores() const { return scores_.load(std::memory_order_acquire); }

  /// \brief Wait until at least `n` score frames arrived or the timeout
  /// passed; true when they all arrived.
  bool WaitForScores(int64_t n, double timeout_s) const;
  bool WaitForResponses(size_t n, double timeout_s) const;

  /// \brief Peak resident set (VmHWM) of the child, in MiB; -1 if unread.
  double PeakRssMb() const;

  /// \brief Close the child's stdin, let the reader drain stdout to EOF,
  /// reap the child. Returns its exit status (0 = clean), -1 on a signal.
  int Finish();

  /// \brief Reader-side failures: undecodable frames or a full buffer.
  std::string reader_error() const;

 private:
  void ReadLoop();

  pid_t pid_ = -1;
  int in_fd_ = -1;   // our end of the child's stdin
  int out_fd_ = -1;  // our end of the child's stdout
  std::vector<Response> responses_;
  std::atomic<size_t> count_{0};
  std::atomic<int64_t> scores_{0};
  mutable std::mutex error_mu_;
  std::string reader_error_;  // guarded by error_mu_
  std::string encode_buf_;
  std::thread reader_;  // declared last: it uses every member above
};

/// \brief VmHWM of `pid` ("self" for this process) in MiB, -1 on error.
double ReadPeakRssMb(const std::string& pid);

}  // namespace perfbench

#endif  // PERFBENCH_CHILD_H_
