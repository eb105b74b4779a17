// cqlc: line-protocol client for cqld. Sends each positional argument as
// one request (or reads requests from stdin when none are given), prints
// the response lines, and exits nonzero if any response was an ERR.
//
//   cqlc --socket /tmp/cqld.sock
//        "PREPARE pred,qrp,mg ?- cheaporshort(msn, sea, T, C)."
//        "QUERY pred,qrp,mg ?- cheaporshort(msn, sea, T, C)."
//        "STATS" "SHUTDOWN"
//   cqlc --tcp localhost:7777 "STATS"
//   cqlc --tcp primary:7777,replica:7778 --retries 4 "QUERY - ?- p(X)."
//
// Transport robustness (DESIGN.md §15.6): every connect, write, and read is
// bounded by a deadline; a deadline or lost connection is a *client-side*
// error, reported distinctly from a server `ERR` response and retried with
// jittered exponential backoff across the (comma-separated) endpoint list.
// Exit codes: 0 all responses OK, 1 some response was a server ERR, 2
// usage, 3 transport gave out (timeout / no endpoint reachable) — scripts
// can tell "the server answered no" from "no server answered".
//
// Retrying a request after a torn exchange may deliver it twice; every
// protocol verb is idempotent on re-delivery (duplicate inserts dedup,
// retracts of absent facts count as misses, TICK re-advances a monotone
// clock by the same delta at most once per ack loss).

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/client.h"
#include "service/protocol.h"

namespace {

using cqlopt::LineClient;
using cqlopt::Status;
using cqlopt::StatusCode;

constexpr int kExitServerErr = 1;
constexpr int kExitUsage = 2;
constexpr int kExitTransport = 3;

int Usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " (--socket <path[,path...]> | --tcp <host:port[,host:port...]>)"
      << " [request ...]\n"
      << "       [--connect-timeout-ms N] [--read-timeout-ms N]\n"
      << "       [--retries N] [--retry-backoff-ms N]\n"
      << "       (requests from stdin when none are given)\n";
  return kExitUsage;
}

/// One place to dial: a unix path or a host:port, from the comma-separated
/// endpoint list. Failover walks the list round-robin.
struct Endpoint {
  bool tcp = false;
  std::string path_or_host;
  std::string port;
  std::string label;  // for error messages
};

bool ParseEndpoints(const std::string& list, bool tcp,
                    std::vector<Endpoint>* out) {
  size_t start = 0;
  while (start <= list.size()) {
    size_t comma = list.find(',', start);
    std::string item = list.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (item.empty()) return false;
    Endpoint endpoint;
    endpoint.tcp = tcp;
    endpoint.label = item;
    if (tcp) {
      size_t colon = item.rfind(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 == item.size()) {
        return false;
      }
      endpoint.path_or_host = item.substr(0, colon);
      endpoint.port = item.substr(colon + 1);
    } else {
      endpoint.path_or_host = item;
    }
    out->push_back(std::move(endpoint));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return !out->empty();
}

}  // namespace

int main(int argc, char** argv) {
  // A server that dies mid-exchange must surface as "connection lost", not
  // kill the client: writes to the closed socket get EPIPE instead.
  std::signal(SIGPIPE, SIG_IGN);
  std::string socket_list;
  std::string tcp_list;
  int connect_timeout_ms = 3000;
  int read_timeout_ms = 10000;
  int retries = 2;
  int retry_backoff_ms = 100;
  std::vector<std::string> requests;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // A numeric flag's value: a whole integer in [0, INT_MAX] (ParseInt64 —
    // no junk, no overflow).
    auto int_flag = [&](int* field) {
      const char* v = next();
      int64_t parsed = 0;
      if (v == nullptr || !cqlopt::ParseInt64(v, &parsed) || parsed < 0 ||
          parsed > std::numeric_limits<int>::max()) {
        std::cerr << "cqlc: " << arg << " needs an integer in [0, "
                  << std::numeric_limits<int>::max() << "], got '"
                  << (v != nullptr ? v : "") << "'\n";
        return false;
      }
      *field = static_cast<int>(parsed);
      return true;
    };
    if (arg == "--socket") {
      if (const char* v = next()) socket_list = v; else return Usage(argv[0]);
    } else if (arg == "--tcp") {
      if (const char* v = next()) tcp_list = v; else return Usage(argv[0]);
    } else if (arg == "--connect-timeout-ms") {
      if (!int_flag(&connect_timeout_ms)) return kExitUsage;
    } else if (arg == "--read-timeout-ms") {
      if (!int_flag(&read_timeout_ms)) return kExitUsage;
    } else if (arg == "--retries") {
      if (!int_flag(&retries)) return kExitUsage;
    } else if (arg == "--retry-backoff-ms") {
      if (!int_flag(&retry_backoff_ms)) return kExitUsage;
    } else {
      requests.push_back(arg);
    }
  }
  if (socket_list.empty() == tcp_list.empty()) return Usage(argv[0]);

  std::vector<Endpoint> endpoints;
  if (!ParseEndpoints(tcp_list.empty() ? socket_list : tcp_list,
                      !tcp_list.empty(), &endpoints)) {
    std::cerr << "cqlc: bad endpoint list '"
              << (tcp_list.empty() ? socket_list : tcp_list) << "'\n";
    return Usage(argv[0]);
  }

  std::unique_ptr<LineClient> client;
  size_t endpoint_index = 0;  // next endpoint to dial (round-robin failover)
  uint64_t jitter = 0x9e3779b97f4a7c15ull;  // deterministic xorshift stream

  // Dials endpoints round-robin until one accepts; cycles the whole list
  // once per call. Returns the last failure when none did.
  auto connect_somewhere = [&]() -> Status {
    Status last = Status::Unavailable("no endpoints");
    for (size_t attempt = 0; attempt < endpoints.size(); ++attempt) {
      const Endpoint& endpoint = endpoints[endpoint_index];
      endpoint_index = (endpoint_index + 1) % endpoints.size();
      cqlopt::Result<std::unique_ptr<LineClient>> conn =
          endpoint.tcp
              ? LineClient::ConnectTcp(endpoint.path_or_host, endpoint.port,
                                       connect_timeout_ms)
              : LineClient::ConnectUnix(endpoint.path_or_host,
                                        connect_timeout_ms);
      if (conn.ok()) {
        client = std::move(*conn);
        return Status::OK();
      }
      last = conn.status();
      std::cerr << "cqlc: " << endpoint.label << ": "
                << conn.status().ToString() << "\n";
    }
    return last;
  };

  int exit_code = 0;
  // Runs one request with retry/backoff/failover; returns false when the
  // transport is exhausted (exit_code already set to kExitTransport).
  auto run = [&](const std::string& request) {
    Status last = Status::OK();
    for (int attempt = 0; attempt <= retries; ++attempt) {
      if (attempt > 0) {
        // Jittered exponential backoff: full backoff doubling with a
        // deterministic jitter in the upper half, so stampedes decorrelate
        // but runs reproduce.
        int64_t base = static_cast<int64_t>(retry_backoff_ms)
                       << (attempt - 1 > 20 ? 20 : attempt - 1);
        jitter ^= jitter >> 12;
        jitter ^= jitter << 25;
        jitter ^= jitter >> 27;
        int64_t delay = base / 2 + 1 +
                        static_cast<int64_t>(jitter % (base / 2 + 1));
        std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      }
      if (client == nullptr) {
        last = connect_somewhere();
        if (!last.ok()) continue;
      }
      LineClient::Response response;
      last = client->Exchange(request, read_timeout_ms, &response);
      if (last.ok()) {
        for (const std::string& line : response.lines) {
          std::cout << line << "\n";
        }
        if (response.is_error) exit_code = kExitServerErr;
        return true;
      }
      // Transport failure: the connection is in an unknown state, drop it
      // and fail over to the next endpoint on the retry.
      client.reset();
      std::cerr << "cqlc: " << last.ToString() << "\n";
    }
    std::cerr << "cqlc: giving up after " << (retries + 1)
              << " attempt(s): " << last.ToString() << "\n";
    exit_code = kExitTransport;
    return false;
  };

  if (!requests.empty()) {
    for (const std::string& request : requests) {
      if (!run(request)) break;
    }
  } else {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!run(line)) break;
    }
  }
  return exit_code;
}
