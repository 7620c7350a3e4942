#include "child.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <fstream>
#include <istream>
#include <sstream>
#include <streambuf>

#include "stats.h"

namespace perfbench {

namespace fr = caee::serve::framing;

namespace {

// Buffered std::streambuf over a pipe, so framing::ReadFrame can decode
// straight from the child's stdout.
class FdInBuf : public std::streambuf {
 public:
  explicit FdInBuf(int fd) : fd_(fd) {}

 protected:
  int_type underflow() override {
    ssize_t n;
    do {
      n = ::read(fd_, buf_, sizeof(buf_));
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return traits_type::eof();
    setg(buf_, buf_, buf_ + n);
    return traits_type::to_int_type(buf_[0]);
  }

 private:
  int fd_;
  char buf_[1 << 16];
};

bool WriteAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

double ReadPeakRssMb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return -1.0;
}

ServeChild::~ServeChild() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    Finish();
  }
}

bool ServeChild::Start(const std::vector<std::string>& argv,
                       const std::string& log_path, size_t capacity) {
  responses_.resize(capacity);
  int to_child[2], from_child[2];
  if (::pipe2(to_child, O_CLOEXEC) != 0) return false;
  if (::pipe2(from_child, O_CLOEXEC) != 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    return false;
  }
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  pid_ = ::fork();
  if (pid_ == 0) {
    if (log_fd >= 0) ::dup2(log_fd, STDERR_FILENO);
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  if (log_fd >= 0) ::close(log_fd);
  ::close(to_child[0]);
  ::close(from_child[1]);
  in_fd_ = to_child[1];
  out_fd_ = from_child[0];
  if (pid_ < 0) {
    ::close(in_fd_);
    ::close(out_fd_);
    in_fd_ = out_fd_ = -1;
    return false;
  }
  reader_ = std::thread([this] { ReadLoop(); });
  return true;
}

bool ServeChild::Send(const fr::Frame& frame) {
  std::ostringstream out;
  fr::WriteFrame(out, frame);
  encode_buf_ = out.str();
  return in_fd_ >= 0 && WriteAll(in_fd_, encode_buf_.data(), encode_buf_.size());
}

void ServeChild::ReadLoop() {
  FdInBuf buf(out_fd_);
  std::istream in(&buf);
  fr::Frame frame;
  caee::serve::StreamScore score;
  fr::HealthStatus health;
  auto fail = [this](const std::string& message) {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (reader_error_.empty()) reader_error_ = message;
  };
  for (;;) {
    bool eof = false;
    const caee::Status status = fr::ReadFrame(in, &frame, &eof);
    const int64_t now = Tracer::NowNs();
    if (!status.ok()) {
      fail("undecodable response frame: " + status.ToString());
      return;
    }
    if (eof) return;
    const size_t i = count_.load(std::memory_order_relaxed);
    if (i >= responses_.size()) {
      fail("response buffer full");
      return;
    }
    Response& r = responses_[i];
    r = Response{};
    r.recv_ns = now;
    r.type = frame.type;
    r.stream_id = frame.stream_id;
    if (frame.frame_type() == fr::FrameType::kScore) {
      if (!fr::ParseScore(frame, &score).ok()) {
        fail("bad score frame");
        return;
      }
      r.index = score.index;
      r.score = score.score;
      scores_.fetch_add(1, std::memory_order_release);
    } else if (frame.frame_type() == fr::FrameType::kHealthStatus) {
      if (!fr::ParseHealthStatus(frame, &health).ok()) {
        fail("bad health frame");
        return;
      }
      r.generation = health.generation;
    } else if (frame.frame_type() == fr::FrameType::kError) {
      caee::Status error;
      fr::ParseError(frame, &error);
      fail("error frame for stream " + std::to_string(frame.stream_id) +
           ": " + error.ToString());
    }
    count_.store(i + 1, std::memory_order_release);
  }
}

bool ServeChild::WaitForScores(int64_t n, double timeout_s) const {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (scores() < n) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

bool ServeChild::WaitForResponses(size_t n, double timeout_s) const {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (received() < n) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

double ServeChild::PeakRssMb() const {
  return pid_ > 0 ? ReadPeakRssMb(std::to_string(pid_)) : -1.0;
}

int ServeChild::Finish() {
  if (in_fd_ >= 0) {
    ::close(in_fd_);
    in_fd_ = -1;
  }
  if (reader_.joinable()) reader_.join();
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
  int status = 0;
  if (pid_ > 0) {
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string ServeChild::reader_error() const {
  std::lock_guard<std::mutex> lock(error_mu_);
  return reader_error_;
}

}  // namespace perfbench
