#ifndef CQLOPT_SERVICE_SERVER_H_
#define CQLOPT_SERVICE_SERVER_H_

#include <functional>
#include <iosfwd>
#include <string>

#include "service/protocol.h"
#include "service/scheduler.h"

namespace cqlopt {

/// Writes all of `data` to socket `fd`, looping on short writes and EINTR —
/// a partial transfer is normal backpressure, not a protocol error. Uses
/// send(2) with MSG_NOSIGNAL so a peer that disconnected mid-response
/// surfaces as EPIPE here instead of a process-killing SIGPIPE. Returns
/// false on a real write error. The "server/short-write" failpoint
/// (util/failpoint.h) forces 1-byte transfers to exercise the loop.
bool WriteFull(int fd, const std::string& data);

/// The endpoints a ServeLoop actually bound, reported through
/// ServerOptions::on_ready — `tcp_port` resolves an ephemeral request
/// (tcp_port = 0) to the kernel-assigned port.
struct ServerEndpoints {
  std::string socket_path;  // empty when no unix listener
  int tcp_port = -1;        // -1 when no TCP listener
};

struct ServerOptions {
  /// Unix-domain listener path; empty disables. A stale socket file from a
  /// previous run is removed before binding, and the file is unlinked on
  /// return.
  std::string socket_path;
  /// TCP listener port (all interfaces); -1 disables, 0 binds an ephemeral
  /// port (reported via on_ready).
  int tcp_port = -1;
  /// listen(2) backlog for both listeners.
  int listen_backlog = 64;
  /// Worker pool + admission control (service/scheduler.h).
  SchedulerOptions scheduler;
  /// Invoked once from the serving thread after every listener is bound
  /// and before the first accept — how tests and cqld learn the ephemeral
  /// TCP port. May be empty.
  std::function<void(const ServerEndpoints&)> on_ready;
  /// Graceful-drain trigger: when >= 0, the loop watches this fd and a
  /// readable event (one byte on a signal self-pipe — cqld's SIGTERM /
  /// SIGINT handlers write it) starts a drain. The listeners close
  /// immediately (no new connections), requests already admitted or in
  /// flight finish and flush, new request lines on surviving connections
  /// are refused with `ERR UNAVAILABLE server draining`, and once every
  /// connection's responses have reached its socket — or
  /// `drain_timeout_ms` elapses, whichever is first — ServeLoop returns OK.
  /// The WAL needs no extra flush here: every commit fsynced before it was
  /// acknowledged. The fd is borrowed, not owned.
  int drain_fd = -1;
  /// Upper bound on the drain, in milliseconds (connections still owed
  /// bytes after it are dropped). <= 0 means drain without a deadline.
  int drain_timeout_ms = 5000;
};

/// Serves the line protocol over a non-blocking epoll event loop: one
/// thread accepts connections and frames lines, a Scheduler worker pool
/// executes them (reads concurrent over snapshot epochs, ingests
/// serialized by the service's single-writer commit path), and responses
/// flush back in per-connection request order however the workers
/// interleave. Requests past the admission bound are shed with a typed
/// `ERR RESOURCE_EXHAUSTED` response instead of stalling the accept loop
/// (DESIGN.md §13). Blocks until a client sends SHUTDOWN (any connection
/// stops the whole server — cqld is a single-tenant daemon); admitted work
/// drains before return.
Status ServeLoop(QueryService& service, const ServerOptions& options);

/// Serves the line protocol over an istream/ostream pair — `cqld --stdio`
/// and the protocol tests. Single-threaded, no scheduler: lines execute
/// inline in arrival order. Returns after SHUTDOWN or end of input.
Status ServeStreams(QueryService& service, std::istream& in,
                    std::ostream& out);

}  // namespace cqlopt

#endif  // CQLOPT_SERVICE_SERVER_H_
