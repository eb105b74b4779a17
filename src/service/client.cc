#include "service/client.h"

#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <cstdint>
#include <utility>

namespace cqlopt {

namespace {

int64_t NowMs() {
  timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

/// Absolute deadline for a relative timeout; <= 0 means "no deadline".
int64_t DeadlineFor(int timeout_ms) {
  if (timeout_ms <= 0) return -1;
  return NowMs() + timeout_ms;
}

/// poll() timeout argument for a deadline: -1 = infinite, 0 = expired.
int PollBudget(int64_t deadline_ms) {
  if (deadline_ms < 0) return -1;
  int64_t left = deadline_ms - NowMs();
  if (left <= 0) return 0;
  if (left > 1 << 30) left = 1 << 30;
  return static_cast<int>(left);
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal(std::string("fcntl(O_NONBLOCK): ") +
                            ::strerror(errno));
  }
  return Status::OK();
}

/// Finishes a non-blocking connect on `fd` within the deadline: poll for
/// writability, then read SO_ERROR for the real verdict. Consumes `fd` on
/// failure.
Status AwaitConnect(int fd, int64_t deadline_ms, const std::string& peer) {
  pollfd pfd{fd, POLLOUT, 0};
  for (;;) {
    int rc = ::poll(&pfd, 1, PollBudget(deadline_ms));
    if (rc < 0 && errno == EINTR) continue;
    if (rc < 0) {
      int saved = errno;
      ::close(fd);
      return Status::Internal(std::string("poll: ") + ::strerror(saved));
    }
    if (rc == 0) {
      ::close(fd);
      return Status::DeadlineExceeded("connect to " + peer +
                                      " timed out (client-side deadline)");
    }
    break;
  }
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) err = errno;
  if (err != 0) {
    ::close(fd);
    return Status::Unavailable("connect to " + peer + ": " +
                               ::strerror(err));
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<LineClient>> LineClient::ConnectUnix(
    const std::string& path, int connect_timeout_ms) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  ::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + ::strerror(errno));
  }
  Status nb = SetNonBlocking(fd);
  if (!nb.ok()) {
    ::close(fd);
    return nb;
  }
  int64_t deadline = DeadlineFor(connect_timeout_ms);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (errno == EINPROGRESS || errno == EAGAIN) {
      CQLOPT_RETURN_IF_ERROR(AwaitConnect(fd, deadline, path));
    } else {
      int saved = errno;
      ::close(fd);
      return Status::Unavailable("connect to " + path + ": " +
                                 ::strerror(saved));
    }
  }
  return std::unique_ptr<LineClient>(new LineClient(fd));
}

Result<std::unique_ptr<LineClient>> LineClient::ConnectTcp(
    const std::string& host, const std::string& port,
    int connect_timeout_ms) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  int rc = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &results);
  if (rc != 0) {
    return Status::InvalidArgument("resolve " + host + ":" + port + ": " +
                                   ::gai_strerror(rc));
  }
  int64_t deadline = DeadlineFor(connect_timeout_ms);
  Status last = Status::Unavailable("no addresses for " + host + ":" + port);
  for (addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Status::Internal(std::string("socket: ") + ::strerror(errno));
      continue;
    }
    Status nb = SetNonBlocking(fd);
    if (!nb.ok()) {
      ::close(fd);
      last = nb;
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) < 0 &&
        errno != EINPROGRESS && errno != EAGAIN) {
      last = Status::Unavailable("connect to " + host + ":" + port + ": " +
                                 ::strerror(errno));
      ::close(fd);
      continue;
    }
    Status done = AwaitConnect(fd, deadline, host + ":" + port);
    if (done.ok()) {
      ::freeaddrinfo(results);
      return std::unique_ptr<LineClient>(new LineClient(fd));
    }
    last = done;
    // A spent deadline dooms every remaining address too.
    if (done.code() == StatusCode::kDeadlineExceeded) break;
  }
  ::freeaddrinfo(results);
  return last;
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

Status LineClient::SendLine(const std::string& line, int timeout_ms) {
  std::string data = line + "\n";
  int64_t deadline = DeadlineFor(timeout_ms);
  size_t off = 0;
  while (off < data.size()) {
    // MSG_NOSIGNAL: a peer that died (a killed primary, say) must surface
    // as EPIPE, not SIGPIPE killing the process that holds this client.
    ssize_t n =
        ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd_, POLLOUT, 0};
      int rc = ::poll(&pfd, 1, PollBudget(deadline));
      if (rc < 0 && errno == EINTR) continue;
      if (rc < 0) {
        return Status::Internal(std::string("poll: ") + ::strerror(errno));
      }
      if (rc == 0) {
        return Status::DeadlineExceeded(
            "write timed out (client-side deadline)");
      }
      continue;
    }
    return Status::Unavailable(std::string("write: ") +
                               (n < 0 ? ::strerror(errno) : "short write"));
  }
  return Status::OK();
}

Status LineClient::ReadResponse(int timeout_ms, Response* out) {
  out->lines.clear();
  out->is_error = false;
  int64_t deadline = DeadlineFor(timeout_ms);
  for (;;) {
    // Drain complete lines already buffered before touching the socket.
    size_t nl;
    while ((nl = buffer_.find('\n')) != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line == "END") return Status::OK();
      if (line.rfind("ERR ", 0) == 0) out->is_error = true;
      out->lines.push_back(std::move(line));
    }
    pollfd pfd{fd_, POLLIN, 0};
    int rc = ::poll(&pfd, 1, PollBudget(deadline));
    if (rc < 0 && errno == EINTR) continue;
    if (rc < 0) {
      return Status::Internal(std::string("poll: ") + ::strerror(errno));
    }
    if (rc == 0) {
      return Status::DeadlineExceeded(
          "read timed out waiting for response (client-side deadline)");
    }
    char chunk[4096];
    ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      continue;
    }
    if (n < 0) {
      return Status::Unavailable(std::string("read: ") + ::strerror(errno));
    }
    if (n == 0) {
      return Status::Unavailable("connection closed mid-response");
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

Status LineClient::Exchange(const std::string& line, int timeout_ms,
                            Response* out) {
  CQLOPT_RETURN_IF_ERROR(SendLine(line, timeout_ms));
  return ReadResponse(timeout_ms, out);
}

}  // namespace cqlopt
