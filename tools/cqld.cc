// cqld: the CQL query server. Loads a program (and optionally an EDB),
// then serves the line protocol (src/service/protocol.h) over a
// unix-domain socket, TCP, or stdio until a client sends SHUTDOWN.
//
//   cqld --program programs/flights.cql --edb programs/flights_edb.cql
//        --socket /tmp/cqld.sock
//   cqld --program programs/flights.cql --tcp-port 7777 --workers 8
//   cqld --program programs/flights.cql --stdio
//
// Streaming (DESIGN.md §14): the protocol's RETRACT, TICK, and
// INGEST TTL <ms> verbs delete base facts, advance the logical clock
// (expiring due TTL facts), and commit window-bounded facts; all three
// are WAL-logged and replayed like inserts.
//
// Durability and operational limits (README "Operational limits"):
//   --wal-dir DIR            write-ahead-log every batch; replay on start
//   --wal-compact-bytes N    auto-compact the log past N bytes
//   --query-deadline-ms N    per-query wall-clock deadline
//   --max-derived-facts N    per-query derived-fact budget
//
// Scheduling and admission control (DESIGN.md §13):
//   --workers N              scheduler worker threads (default 4)
//   --queue-depth N          admission-queue bound; excess load is shed
//                            with ERR RESOURCE_EXHAUSTED (default 64)
//   --listen-backlog N       listen(2) backlog for both listeners
//   --priority-weights A,B,C stride weights for interactive,normal,batch
//
// Replication and lifecycle (DESIGN.md §15, README runbook):
//   --follow ENDPOINT        run as a read-only follower pulling the WAL
//                            feed from the primary at ENDPOINT (host:port,
//                            or a unix socket path containing '/')
//   --replica-timeout-ms N   per-fetch I/O deadline on the replication
//                            link (default 3000)
//   --drain-timeout-ms N     bound on the SIGTERM/SIGINT graceful drain
//                            (default 5000); in-flight requests finish and
//                            flush, new ones are refused, then exit 0

#include <fcntl.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>

#include "service/protocol.h"
#include "service/replica.h"
#include "service/server.h"

namespace {

int Usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " --program <file.cql> [--edb <file.cql>]"
      << " (--socket <path> | --tcp-port N | --stdio)\n"
      << "       [--max-iterations N] [--prepared-capacity N]\n"
      << "       [--wal-dir DIR] [--wal-compact-bytes N]\n"
      << "       [--query-deadline-ms N] [--max-derived-facts N]\n"
      << "       [--workers N] [--queue-depth N] [--listen-backlog N]\n"
      << "       [--priority-weights A,B,C]\n"
      << "       [--follow ENDPOINT] [--replica-timeout-ms N]\n"
      << "       [--drain-timeout-ms N]\n";
  return 2;
}

/// Write end of the SIGTERM/SIGINT self-pipe; the handler only writes one
/// byte (the only async-signal-safe thing worth doing) and the serve loop
/// reads it as the graceful-drain trigger.
int g_drain_pipe_write = -1;

void OnShutdownSignal(int) {
  char byte = 1;
  ssize_t ignored = ::write(g_drain_pipe_write, &byte, 1);
  (void)ignored;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string program_path;
  std::string edb_path;
  std::string socket_path;
  std::string follow_endpoint;
  int replica_timeout_ms = 3000;
  bool stdio = false;
  cqlopt::ServiceOptions options;
  cqlopt::ServerOptions server;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // A numeric flag's value: a whole integer in [0, hi] (ParseInt64 — no
    // junk, no overflow), `hi` capped at the field type's maximum.
    auto int_flag = [&](auto* field,
                        int64_t hi = std::numeric_limits<int64_t>::max()) {
      using T = std::remove_pointer_t<decltype(field)>;
      if (std::cmp_less(std::numeric_limits<T>::max(), hi)) {
        hi = static_cast<int64_t>(std::numeric_limits<T>::max());
      }
      const char* v = next();
      int64_t parsed = 0;
      if (v == nullptr || !cqlopt::ParseInt64(v, &parsed) || parsed < 0 ||
          parsed > hi) {
        std::cerr << "cqld: " << arg << " needs an integer in [0, " << hi
                  << "], got '" << (v != nullptr ? v : "") << "'\n";
        return false;
      }
      *field = static_cast<T>(parsed);
      return true;
    };
    if (arg == "--program") {
      if (const char* v = next()) program_path = v; else return Usage(argv[0]);
    } else if (arg == "--edb") {
      if (const char* v = next()) edb_path = v; else return Usage(argv[0]);
    } else if (arg == "--socket") {
      if (const char* v = next()) socket_path = v; else return Usage(argv[0]);
    } else if (arg == "--stdio") {
      stdio = true;
    } else if (arg == "--tcp-port") {
      if (!int_flag(&server.tcp_port, 65535)) return 2;
    } else if (arg == "--workers") {
      if (!int_flag(&server.scheduler.workers)) return 2;
    } else if (arg == "--queue-depth") {
      if (!int_flag(&server.scheduler.queue_depth)) return 2;
    } else if (arg == "--listen-backlog") {
      if (!int_flag(&server.listen_backlog)) return 2;
    } else if (arg == "--priority-weights") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      long weights[cqlopt::kPriorityClasses];
      if (std::sscanf(v, "%ld,%ld,%ld", &weights[0], &weights[1],
                      &weights[2]) != 3 ||
          weights[0] < 1 || weights[1] < 1 || weights[2] < 1) {
        std::cerr << "cqld: --priority-weights needs three positive "
                     "integers, e.g. 8,4,1\n";
        return 2;
      }
      for (int c = 0; c < cqlopt::kPriorityClasses; ++c) {
        server.scheduler.weights[c] = weights[c];
      }
    } else if (arg == "--max-iterations") {
      if (!int_flag(&options.eval.max_iterations)) return 2;
    } else if (arg == "--prepared-capacity") {
      if (!int_flag(&options.prepared_capacity)) return 2;
    } else if (arg == "--wal-dir") {
      if (const char* v = next()) options.wal_dir = v;
      else return Usage(argv[0]);
    } else if (arg == "--wal-compact-bytes") {
      if (!int_flag(&options.wal_compact_bytes)) return 2;
    } else if (arg == "--query-deadline-ms") {
      if (!int_flag(&options.eval.deadline_ms)) return 2;
    } else if (arg == "--max-derived-facts") {
      if (!int_flag(&options.eval.max_derived_facts)) return 2;
    } else if (arg == "--follow") {
      if (const char* v = next()) follow_endpoint = v;
      else return Usage(argv[0]);
    } else if (arg == "--replica-timeout-ms") {
      if (!int_flag(&replica_timeout_ms)) return 2;
    } else if (arg == "--drain-timeout-ms") {
      if (!int_flag(&server.drain_timeout_ms)) return 2;
    } else {
      std::cerr << "cqld: unknown flag '" << arg << "'\n";
      return Usage(argv[0]);
    }
  }

  const bool has_listener = !socket_path.empty() || server.tcp_port >= 0;
  if (program_path.empty() || stdio == has_listener) {
    return Usage(argv[0]);
  }

  std::string program_text;
  if (!ReadFile(program_path, &program_text)) {
    std::cerr << "cqld: cannot read program file " << program_path << "\n";
    return 1;
  }
  std::string edb_text;
  if (!edb_path.empty() && !ReadFile(edb_path, &edb_text)) {
    std::cerr << "cqld: cannot read EDB file " << edb_path << "\n";
    return 1;
  }

  auto service =
      cqlopt::QueryService::FromText(program_text, edb_text, options);
  if (!service.ok()) {
    std::cerr << "cqld: " << service.status().ToString() << "\n";
    return 1;
  }

  if (!options.wal_dir.empty()) {
    cqlopt::RecoverOutcome recovered;
    cqlopt::Status status = (*service)->Recover(&recovered);
    if (!status.ok()) {
      std::cerr << "cqld: WAL recovery failed: " << status.ToString() << "\n";
      return 1;
    }
    if (!recovered.warning.empty()) {
      std::cerr << "cqld: " << recovered.warning << "\n";
    }
    std::cerr << "cqld: recovered epoch " << recovered.epoch << " from "
              << options.wal_dir << " ("
              << (recovered.snapshot_loaded
                      ? "snapshot at epoch " +
                            std::to_string(recovered.snapshot_epoch) + " + "
                      : "")
              << recovered.batches_replayed << " replayed batch(es))\n";
  }

  // Follower mode: pull the primary's WAL feed in the background, serve
  // reads (and HEALTH / PROMOTE) locally. The replicator is declared after
  // the service so it detaches its hooks and joins its thread first.
  std::unique_ptr<cqlopt::Replicator> replicator;
  if (!follow_endpoint.empty()) {
    auto reconnect = [follow_endpoint, replica_timeout_ms]()
        -> cqlopt::Result<std::unique_ptr<cqlopt::LineClient>> {
      if (follow_endpoint.find('/') != std::string::npos) {
        return cqlopt::LineClient::ConnectUnix(follow_endpoint,
                                               replica_timeout_ms);
      }
      size_t colon = follow_endpoint.rfind(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 == follow_endpoint.size()) {
        return cqlopt::Status::InvalidArgument(
            "--follow needs host:port or a socket path, got '" +
            follow_endpoint + "'");
      }
      return cqlopt::LineClient::ConnectTcp(
          follow_endpoint.substr(0, colon), follow_endpoint.substr(colon + 1),
          replica_timeout_ms);
    };
    auto source = std::make_unique<cqlopt::RemoteReplicationSource>(
        nullptr, reconnect, replica_timeout_ms);
    replicator = std::make_unique<cqlopt::Replicator>(service->get(),
                                                      std::move(source));
    replicator->AttachHooks();
    replicator->Start();
    std::cerr << "cqld: following " << follow_endpoint
              << " (read-only until PROMOTE)\n";
  }

  cqlopt::Status served;
  if (stdio) {
    served = cqlopt::ServeStreams(**service, std::cin, std::cout);
  } else {
    // Graceful drain on SIGTERM/SIGINT via a self-pipe the serve loop
    // watches; a second signal during the drain falls back to the default
    // disposition (immediate death) so a wedged drain cannot trap the
    // operator.
    int drain_pipe[2] = {-1, -1};
    if (::pipe2(drain_pipe, O_NONBLOCK | O_CLOEXEC) == 0) {
      g_drain_pipe_write = drain_pipe[1];
      struct sigaction action {};
      action.sa_handler = OnShutdownSignal;
      action.sa_flags = SA_RESETHAND;
      ::sigaction(SIGTERM, &action, nullptr);
      ::sigaction(SIGINT, &action, nullptr);
      server.drain_fd = drain_pipe[0];
    } else {
      std::cerr << "cqld: pipe2 failed, serving without graceful drain\n";
    }
    server.socket_path = socket_path;
    server.on_ready = [](const cqlopt::ServerEndpoints& endpoints) {
      std::cerr << "cqld: serving on";
      if (!endpoints.socket_path.empty()) {
        std::cerr << " " << endpoints.socket_path;
      }
      if (endpoints.tcp_port >= 0) {
        std::cerr << " tcp:" << endpoints.tcp_port;
      }
      std::cerr << "\n";
    };
    served = cqlopt::ServeLoop(**service, server);
    if (drain_pipe[0] >= 0) ::close(drain_pipe[0]);
    if (drain_pipe[1] >= 0) ::close(drain_pipe[1]);
  }
  if (replicator != nullptr) replicator->Stop();
  if (!served.ok()) {
    std::cerr << "cqld: " << served.ToString() << "\n";
    return 1;
  }
  return 0;
}
