#include "service/server.h"

#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <time.h>

#include <cerrno>
#include <cstring>
#include <istream>
#include <map>
#include <mutex>
#include <ostream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/failpoint.h"

namespace cqlopt {

bool WriteFull(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    size_t want = data.size() - sent;
    // Fault injection: clamp the transfer to one byte so tests drive the
    // short-write continuation path deterministically.
    if (failpoint::ShouldFail(failpoint::kServerShortWrite)) want = 1;
    ssize_t n = ::send(fd, data.data() + sent, want, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // peer cannot make progress
    sent += static_cast<size_t>(n);
  }
  return true;
}

namespace {

/// A request line past the admission bound is refused with this payload —
/// typed, immediate, and never enqueued (DESIGN.md §13 backpressure).
std::string ShedPayload(int queue_limit) {
  return "ERR RESOURCE_EXHAUSTED admission queue full (queue_limit=" +
         std::to_string(queue_limit) + "): request shed, retry later\nEND\n";
}

std::string RenderResponse(const std::vector<std::string>& lines) {
  std::string payload;
  for (const std::string& line : lines) {
    payload += line;
    payload += '\n';
  }
  return payload;
}

/// First word of a trimmed request line — the event loop peeks at it to
/// route connection/server-level verbs inline instead of scheduling them.
std::string PeekVerb(const std::string& line) {
  size_t begin = line.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  size_t end = line.find_first_of(" \t\r\n", begin);
  return line.substr(begin, end == std::string::npos ? end : end - begin);
}

/// Lines with no newline past this size indicate a broken or hostile peer;
/// the connection is dropped rather than buffering without bound.
constexpr size_t kMaxLineBytes = 1 << 20;

constexpr uint64_t kUnixListenerTag = 0;
constexpr uint64_t kTcpListenerTag = 1;
constexpr uint64_t kEventFdTag = 2;
constexpr uint64_t kDrainFdTag = 3;
constexpr uint64_t kFirstConnId = 16;

int64_t MonotonicMs() {
  timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

struct Listener {
  int fd = -1;
  std::string unix_path;  // unlinked on teardown when nonempty
};

Status ListenUnix(const std::string& socket_path, int backlog,
                  Listener* out) {
  if (socket_path.empty() ||
      socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    return Status::InvalidArgument("socket path empty or too long: '" +
                                   socket_path + "'");
  }
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  ::unlink(socket_path.c_str());  // stale socket from a previous run
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return Status::Internal("bind " + socket_path + ": " +
                            std::strerror(errno));
  }
  if (::listen(fd, backlog) < 0) {
    ::close(fd);
    ::unlink(socket_path.c_str());
    return Status::Internal(std::string("listen: ") + std::strerror(errno));
  }
  out->fd = fd;
  out->unix_path = socket_path;
  return Status::OK();
}

Status ListenTcp(int port, int backlog, Listener* out, int* bound_port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return Status::Internal("bind tcp port " + std::to_string(port) + ": " +
                            std::strerror(errno));
  }
  if (::listen(fd, backlog) < 0) {
    ::close(fd);
    return Status::Internal(std::string("listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    ::close(fd);
    return Status::Internal(std::string("getsockname: ") +
                            std::strerror(errno));
  }
  out->fd = fd;
  *bound_port = ntohs(addr.sin_port);
  return Status::OK();
}

/// The epoll event loop: single accept/frame/flush thread in front of the
/// Scheduler's worker pool. Workers hand finished responses back through a
/// mutexed completion queue + eventfd; the loop reassembles them in
/// per-connection sequence order so pipelined clients always read replies
/// in request order, however the pool interleaves execution. An epoch-hit
/// QUERY is answered on this thread instead (DispatchLine), skipping the
/// worker wake-up and the eventfd round-trip.
class EventLoop {
 public:
  EventLoop(QueryService& service, const ServerOptions& options)
      : service_(service), options_(options), scheduler_(options.scheduler) {}

  ~EventLoop() {
    // Stop the workers before the eventfd they signal goes away.
    scheduler_.Stop();
    for (auto& [id, conn] : conns_) ::close(conn.fd);
    if (event_fd_ >= 0) ::close(event_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    for (Listener* l : {&unix_listener_, &tcp_listener_}) {
      if (l->fd >= 0) ::close(l->fd);
      if (!l->unix_path.empty()) ::unlink(l->unix_path.c_str());
    }
  }

  Status Run() {
    if (options_.socket_path.empty() && options_.tcp_port < 0) {
      return Status::InvalidArgument(
          "ServeLoop needs a unix socket path or a TCP port");
    }
    ServerEndpoints endpoints;
    if (!options_.socket_path.empty()) {
      CQLOPT_RETURN_IF_ERROR(ListenUnix(
          options_.socket_path, options_.listen_backlog, &unix_listener_));
      endpoints.socket_path = options_.socket_path;
    }
    if (options_.tcp_port >= 0) {
      CQLOPT_RETURN_IF_ERROR(ListenTcp(options_.tcp_port,
                                       options_.listen_backlog, &tcp_listener_,
                                       &endpoints.tcp_port));
    }
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
      return Status::Internal(std::string("epoll_create1: ") +
                              std::strerror(errno));
    }
    event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (event_fd_ < 0) {
      return Status::Internal(std::string("eventfd: ") +
                              std::strerror(errno));
    }
    CQLOPT_RETURN_IF_ERROR(Watch(event_fd_, kEventFdTag, EPOLLIN));
    if (unix_listener_.fd >= 0) {
      CQLOPT_RETURN_IF_ERROR(
          Watch(unix_listener_.fd, kUnixListenerTag, EPOLLIN));
    }
    if (tcp_listener_.fd >= 0) {
      CQLOPT_RETURN_IF_ERROR(Watch(tcp_listener_.fd, kTcpListenerTag, EPOLLIN));
    }
    if (options_.drain_fd >= 0) {
      CQLOPT_RETURN_IF_ERROR(Watch(options_.drain_fd, kDrainFdTag, EPOLLIN));
    }
    scheduler_.Attach(&service_);
    if (options_.on_ready) options_.on_ready(endpoints);

    epoll_event events[64];
    while (running_) {
      int timeout = -1;
      if (draining_ && drain_deadline_ms_ >= 0) {
        int64_t left = drain_deadline_ms_ - MonotonicMs();
        if (left <= 0) {
          // Deadline spent: connections still owed bytes are dropped.
          break;
        }
        timeout = left > 1 << 30 ? 1 << 30 : static_cast<int>(left);
      }
      int n = ::epoll_wait(epoll_fd_, events, 64, timeout);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::Internal(std::string("epoll_wait: ") +
                                std::strerror(errno));
      }
      for (int i = 0; i < n && running_; ++i) {
        uint64_t tag = events[i].data.u64;
        uint32_t mask = events[i].events;
        if (tag == kUnixListenerTag) {
          AcceptAll(unix_listener_.fd);
        } else if (tag == kTcpListenerTag) {
          AcceptAll(tcp_listener_.fd);
        } else if (tag == kDrainFdTag) {
          BeginDrain();
        } else if (tag == kEventFdTag) {
          DrainCompletions();
        } else {
          auto it = conns_.find(tag);
          if (it == conns_.end()) continue;  // closed earlier in this batch
          if (mask & (EPOLLERR | EPOLLHUP)) {
            CloseConn(it->second);
            continue;
          }
          if (mask & EPOLLIN) {
            if (!ReadConn(it->second)) continue;  // connection closed
          }
          if (mask & EPOLLOUT) TryWrite(it->second);
        }
      }
      // A drain is complete once every connection has flushed everything it
      // is owed — responses still in workers show as next_seq > flush_seq,
      // so idle-but-open clients cannot hold the exit hostage.
      if (draining_ && running_ && ConnsIdle()) break;
    }
    return Status::OK();
  }

 private:
  struct Conn {
    uint64_t id = 0;
    int fd = -1;
    PriorityClass priority = PriorityClass::kNormal;
    std::string in;           // bytes read, not yet framed into lines
    std::string out;          // response bytes awaiting the socket
    uint64_t next_seq = 0;    // sequence assigned to the next request line
    uint64_t flush_seq = 0;   // next sequence to append to `out`
    int64_t shutdown_seq = -1;  // sequence of a handled SHUTDOWN, if any
    /// Completed responses whose turn has not come yet (a later request may
    /// finish — or be shed — before an earlier one leaves a worker).
    std::map<uint64_t, std::string> ready;
    bool want_write = false;  // EPOLLOUT armed
  };

  struct Completion {
    uint64_t conn_id = 0;
    uint64_t seq = 0;
    std::string payload;
  };

  Status Watch(int fd, uint64_t tag, uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = tag;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      return Status::Internal(std::string("epoll_ctl: ") +
                              std::strerror(errno));
    }
    return Status::OK();
  }

  void AcceptAll(int listen_fd) {
    for (;;) {
      int fd = ::accept4(listen_fd, nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN (drained), or transient accept failure
      }
      uint64_t id = next_conn_id_++;
      Conn& conn = conns_[id];
      conn.id = id;
      conn.fd = fd;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = id;
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
        ::close(fd);
        conns_.erase(id);
      }
    }
  }

  /// Reads everything available; frames and dispatches complete lines.
  /// False if the connection was closed. Dispatching can close the
  /// connection (write error mid-flush), so the map is re-consulted by id
  /// between lines instead of trusting the reference.
  bool ReadConn(Conn& conn) {
    const uint64_t id = conn.id;
    char chunk[4096];
    bool eof = false;
    for (;;) {
      ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        conn.in.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) {
        eof = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConn(conn);
      return false;
    }
    for (;;) {
      auto it = conns_.find(id);
      if (it == conns_.end()) return false;  // closed while dispatching
      size_t newline = it->second.in.find('\n');
      if (newline == std::string::npos) break;
      std::string line = it->second.in.substr(0, newline);
      it->second.in.erase(0, newline + 1);
      DispatchLine(it->second, line);
    }
    auto it = conns_.find(id);
    if (it == conns_.end()) return false;
    if (it->second.in.size() > kMaxLineBytes || eof) {
      // A peer that closed (or streams an unbounded line) is done sending;
      // in-flight responses for it are dropped on completion.
      CloseConn(it->second);
      return false;
    }
    return true;
  }

  /// Routes one request line: connection/server-level verbs (PRIORITY,
  /// SHUTDOWN, keep-alive blanks) run inline on the loop thread — they are
  /// cheap, must not be reordered behind queued work of *other*
  /// connections, and must never be shed. So does a QUERY that is an epoch
  /// hit (TryAnswerEpochHit, which never waits on a lock), when nothing
  /// earlier on its connection is still outstanding: a QUERY pipelined
  /// behind its own connection's INGEST must see that write. Everything
  /// else goes through scheduler admission under the connection's
  /// priority class.
  void DispatchLine(Conn& conn, const std::string& line) {
    uint64_t seq = conn.next_seq++;
    std::string verb = PeekVerb(line);
    if (verb.empty() || verb == "PRIORITY" || verb == "SHUTDOWN") {
      std::vector<std::string> lines;
      LineOutcome outcome;
      ProtocolAction action = HandleLine(service_, line, &lines, &outcome);
      if (outcome.priority_changed) conn.priority = outcome.priority;
      Deliver(conn, seq, RenderResponse(lines),
              action == ProtocolAction::kShutdown);
      return;
    }
    if (draining_) {
      // Work admitted before the drain began still completes; new work is
      // refused so the drain is bounded by what is already in flight.
      Deliver(conn, seq,
              "ERR UNAVAILABLE server draining: request refused\nEND\n",
              /*shutdown=*/false);
      return;
    }
    if (verb == "QUERY" && conn.flush_seq == seq) {
      std::vector<std::string> lines;
      if (TryAnswerEpochHit(service_, line, &lines)) {
        Deliver(conn, seq, RenderResponse(lines), /*shutdown=*/false);
        return;
      }
    }
    uint64_t conn_id = conn.id;
    PriorityClass priority = conn.priority;
    Scheduler::Task task;
    task.priority = priority;
    task.run = [this, conn_id, seq, line, priority] {
      std::vector<std::string> lines;
      LineOutcome outcome;
      HandleLine(service_, line, &lines, &outcome);
      scheduler_.Charge(priority, outcome.derived_facts);
      PostCompletion(conn_id, seq, RenderResponse(lines));
    };
    task.shed = [this, conn_id, seq] {
      PostCompletion(conn_id, seq,
                     ShedPayload(options_.scheduler.queue_depth));
    };
    scheduler_.TrySubmit(std::move(task));
  }

  /// Worker-side handoff: queue the finished response and tick the eventfd
  /// so the loop thread wakes to flush it. Also runs on the loop thread
  /// itself for synchronous sheds — the eventfd round-trip keeps one code
  /// path for both.
  void PostCompletion(uint64_t conn_id, uint64_t seq, std::string payload) {
    {
      std::lock_guard<std::mutex> lock(completions_mutex_);
      completions_.push_back({conn_id, seq, std::move(payload)});
    }
    uint64_t one = 1;
    // A full eventfd counter is unreachable in practice; a failed tick is
    // recovered by the next completion's write.
    ssize_t ignored = ::write(event_fd_, &one, sizeof(one));
    (void)ignored;
  }

  void DrainCompletions() {
    uint64_t counter;
    while (::read(event_fd_, &counter, sizeof(counter)) > 0) {
    }
    std::vector<Completion> batch;
    {
      std::lock_guard<std::mutex> lock(completions_mutex_);
      batch.swap(completions_);
    }
    for (Completion& done : batch) {
      auto it = conns_.find(done.conn_id);
      if (it == conns_.end()) continue;  // connection died while in flight
      Deliver(it->second, done.seq, std::move(done.payload),
              /*shutdown=*/false);
    }
  }

  /// Slots a completed response into the connection's reorder buffer and
  /// flushes the contiguous prefix, so replies leave in request order.
  void Deliver(Conn& conn, uint64_t seq, std::string payload, bool shutdown) {
    if (shutdown) conn.shutdown_seq = static_cast<int64_t>(seq);
    conn.ready[seq] = std::move(payload);
    while (true) {
      auto it = conn.ready.find(conn.flush_seq);
      if (it == conn.ready.end()) break;
      conn.out += it->second;
      conn.ready.erase(it);
      if (conn.shutdown_seq >= 0 &&
          conn.flush_seq == static_cast<uint64_t>(conn.shutdown_seq)) {
        // The SHUTDOWN acknowledgment is in the buffer: stop once it (and
        // everything before it) reaches the socket.
        stop_conn_id_ = conn.id;
      }
      ++conn.flush_seq;
    }
    TryWrite(conn);
  }

  void TryWrite(Conn& conn) {
    while (!conn.out.empty()) {
      size_t want = conn.out.size();
      if (failpoint::ShouldFail(failpoint::kServerShortWrite)) want = 1;
      ssize_t n = ::send(conn.fd, conn.out.data(), want, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out.erase(0, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        SetWantWrite(conn, true);
        return;
      }
      CloseConn(conn);
      return;
    }
    SetWantWrite(conn, false);
    if (stop_conn_id_ == conn.id) running_ = false;
  }

  /// Starts the graceful drain (idempotent): eat the self-pipe bytes, stop
  /// accepting by closing the listeners outright, and arm the deadline.
  void BeginDrain() {
    char buf[64];
    while (::read(options_.drain_fd, buf, sizeof(buf)) > 0) {
    }
    if (draining_) return;
    draining_ = true;
    for (Listener* l : {&unix_listener_, &tcp_listener_}) {
      if (l->fd < 0) continue;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, l->fd, nullptr);
      ::close(l->fd);
      l->fd = -1;
      if (!l->unix_path.empty()) {
        ::unlink(l->unix_path.c_str());
        l->unix_path.clear();
      }
    }
    drain_deadline_ms_ = options_.drain_timeout_ms > 0
                             ? MonotonicMs() + options_.drain_timeout_ms
                             : -1;
  }

  /// True when no connection is owed anything: no request dispatched but
  /// not yet delivered, no response waiting its turn, no bytes unflushed.
  bool ConnsIdle() const {
    for (const auto& [id, conn] : conns_) {
      if (conn.next_seq != conn.flush_seq || !conn.ready.empty() ||
          !conn.out.empty()) {
        return false;
      }
    }
    return true;
  }

  void SetWantWrite(Conn& conn, bool want) {
    if (conn.want_write == want) return;
    conn.want_write = want;
    epoll_event ev{};
    ev.events = EPOLLIN;
    if (want) ev.events |= EPOLLOUT;
    ev.data.u64 = conn.id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  }

  void CloseConn(Conn& conn) {
    // A dying connection that carried SHUTDOWN still stops the server (the
    // acknowledgment just has nowhere to go).
    if (conn.shutdown_seq >= 0 || stop_conn_id_ == conn.id) running_ = false;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    conns_.erase(conn.id);
  }

  QueryService& service_;
  const ServerOptions& options_;
  Scheduler scheduler_;
  Listener unix_listener_;
  Listener tcp_listener_;
  int epoll_fd_ = -1;
  int event_fd_ = -1;
  uint64_t next_conn_id_ = kFirstConnId;
  std::unordered_map<uint64_t, Conn> conns_;
  std::mutex completions_mutex_;
  std::vector<Completion> completions_;
  bool running_ = true;
  /// Connection whose drained output buffer ends the serve loop (set when
  /// a SHUTDOWN acknowledgment is queued on it).
  uint64_t stop_conn_id_ = 0;
  /// Graceful drain in progress (ServerOptions::drain_fd fired): listeners
  /// are gone, new request lines are refused, the loop exits once
  /// ConnsIdle() or the deadline passes.
  bool draining_ = false;
  int64_t drain_deadline_ms_ = -1;
};

}  // namespace

Status ServeLoop(QueryService& service, const ServerOptions& options) {
  EventLoop loop(service, options);
  return loop.Run();
}

Status ServeStreams(QueryService& service, std::istream& in,
                    std::ostream& out) {
  std::string line;
  while (std::getline(in, line)) {
    std::vector<std::string> response;
    ProtocolAction action = HandleLine(service, line, &response);
    for (const std::string& out_line : response) {
      out << out_line << '\n';
    }
    out.flush();
    if (action == ProtocolAction::kShutdown) break;
  }
  return Status::OK();
}

}  // namespace cqlopt
