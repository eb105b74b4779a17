// Open-loop load sweep for the cqld serve loop (src/service): Poisson
// arrivals at a sweep of fractions of the calibrated service capacity,
// fanned over pipelined unix-socket connections against a small worker
// pool, on the flights query. Per rate point it reports p50/p99/p999
// latency (scheduled arrival → response) and the shed rate — the
// scheduler's contract is that overload turns into typed
// RESOURCE_EXHAUSTED sheds, never into accepted-but-unanswered requests,
// so `unanswered` must be zero at every point.
//
//   bench_service [--json]   # --json also writes BENCH_service.json
//
// CI's load-smoke job gates the JSON against
// bench/baselines/service_load.json. Latencies are reported, never gated;
// perfbench/run.py is the harness that times the serving paths.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <future>
#include <mutex>
#include <random>
#include <thread>

#include "bench_util.h"
#include "service/protocol.h"
#include "service/query_service.h"
#include "service/server.h"

namespace cqlopt {
namespace bench {
namespace {

constexpr int kAirports = 24;
constexpr int kLegs = 800;
constexpr const char* kSteps = "pred,qrp,mg";

std::string ServiceQuery() {
  return "?- cheaporshort(a5, a9, Time, Cost).";
}

std::unique_ptr<QueryService> MakeService() {
  ParsedInput in = ParseWithQueryOrDie(FlightsProgram());
  FlightNetworkSpec spec;
  spec.airports = kAirports;
  spec.legs = kLegs;
  spec.seed = 42;
  Database db;
  (void)AddFlightNetwork(in.program.symbols.get(), spec, &db);
  return ValueOrDie(
      QueryService::FromParts(std::move(in.program), std::move(db), {}),
      "service");
}

/// Scratch directory for one rate point's socket, removed on destruction
/// (the serve loop unlinks the socket itself on teardown).
struct TempDir {
  std::string path;
  TempDir() {
    const char* base = std::getenv("TMPDIR");
    path = std::string(base != nullptr ? base : "/tmp") +
           "/cqlopt-bench-XXXXXX";
    if (mkdtemp(path.data()) == nullptr) {
      std::fprintf(stderr, "mkdtemp failed for %s\n", path.c_str());
      std::abort();
    }
  }
  ~TempDir() { (void)rmdir(path.c_str()); }
};

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

constexpr int kLoadConnections = 8;
constexpr int kLoadWorkers = 2;
constexpr int kLoadQueueDepth = 16;
constexpr double kLoadMultipliers[] = {0.25, 0.5, 1.0, 4.0};
constexpr double kLoadSeconds = 1.2;  // send window per rate point

/// The serving mix: one INGEST (a single fresh leg, forcing the next query
/// onto the resumed path) per nine QUERYs.
std::string LoadRequest(long i) {
  if (i % 10 == 9) {
    long from = i % (kAirports - 1);
    long to = from + 1 + (i / 10) % (kAirports - 1 - from);
    return "INGEST singleleg(a" + std::to_string(from) + ", a" +
           std::to_string(to) + ", " + std::to_string(30 + i % 570) + ", " +
           std::to_string(20 + i % 380) + ").";
  }
  return std::string("QUERY ") + kSteps + " " + ServiceQuery();
}

/// Mean per-request service time of the mix, measured serially on a warm
/// service — the capacity estimate the sweep's rate points scale from.
double CalibrateMeanServiceMs() {
  auto service = MakeService();
  (void)ValueOrDie(service->Execute(ServiceQuery(), kSteps), "warm");
  constexpr long kCalibration = 60;
  std::vector<std::string> out;
  auto start = std::chrono::steady_clock::now();
  for (long i = 0; i < kCalibration; ++i) {
    out.clear();
    HandleLine(*service, LoadRequest(i), &out);
  }
  return MillisSince(start) / kCalibration;
}

bool LoadSendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Reads one END-framed response; empty on EOF / receive timeout.
std::vector<std::string> LoadReadResponse(int fd, std::string* buffer) {
  std::vector<std::string> lines;
  char chunk[4096];
  for (;;) {
    size_t newline = buffer->find('\n');
    if (newline == std::string::npos) {
      ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return {};
      buffer->append(chunk, static_cast<size_t>(n));
      continue;
    }
    std::string line = buffer->substr(0, newline);
    buffer->erase(0, newline + 1);
    if (line == "END") return lines;
    lines.push_back(line);
  }
}

int LoadConnect(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval timeout{15, 0};  // a stalled response shows up as `unanswered`
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

struct LoadPoint {
  double multiplier = 0;
  double rate_per_s = 0;
  long sent = 0;
  long ok = 0;
  long shed = 0;
  long errors = 0;
  long unanswered = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
};

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t index = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

/// One rate point: a fresh warmed service behind a fresh serve loop
/// (kLoadWorkers workers, admission bound kLoadQueueDepth), Poisson
/// arrivals fanned round-robin over kLoadConnections pipelined
/// connections. Open loop: senders pace by the schedule, never by
/// responses, so queueing delay is visible instead of self-throttled.
/// Latency is response time minus *scheduled* arrival.
LoadPoint RunLoadPoint(double multiplier, double rate_per_s) {
  LoadPoint point;
  point.multiplier = multiplier;
  point.rate_per_s = rate_per_s;
  point.sent = std::max<long>(
      60, std::min<long>(1200, std::lround(rate_per_s * kLoadSeconds)));

  TempDir scratch;
  const std::string socket_path = scratch.path + "/load.sock";
  auto service = MakeService();
  (void)ValueOrDie(service->Execute(ServiceQuery(), kSteps), "warm");
  ServerOptions options;
  options.socket_path = socket_path;
  options.scheduler.workers = kLoadWorkers;
  options.scheduler.queue_depth = kLoadQueueDepth;
  std::promise<void> ready;
  options.on_ready = [&ready](const ServerEndpoints&) { ready.set_value(); };
  Status server_status = Status::OK();
  std::thread server([&] { server_status = ServeLoop(*service, options); });
  ready.get_future().wait();

  // The deterministic arrival schedule, split round-robin per connection.
  std::mt19937_64 rng(777 + static_cast<uint64_t>(multiplier * 100));
  std::exponential_distribution<double> inter_arrival(rate_per_s);
  std::vector<std::vector<double>> arrivals_ms(kLoadConnections);
  std::vector<std::vector<std::string>> requests(kLoadConnections);
  double t_s = 0;
  for (long i = 0; i < point.sent; ++i) {
    t_s += inter_arrival(rng);
    arrivals_ms[i % kLoadConnections].push_back(t_s * 1000.0);
    requests[i % kLoadConnections].push_back(LoadRequest(i) + "\n");
  }

  std::vector<int> fds(kLoadConnections);
  for (int c = 0; c < kLoadConnections; ++c) {
    fds[c] = LoadConnect(socket_path);
    if (fds[c] < 0) {
      std::fprintf(stderr, "load: connect failed\n");
      std::abort();
    }
  }

  std::mutex merge_mutex;
  std::vector<double> ok_latencies;
  const auto base = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kLoadConnections; ++c) {
    threads.emplace_back([&, c] {  // sender
      for (size_t j = 0; j < requests[c].size(); ++j) {
        auto due = base + std::chrono::duration_cast<
                              std::chrono::steady_clock::duration>(
                              std::chrono::duration<double, std::milli>(
                                  arrivals_ms[c][j]));
        std::this_thread::sleep_until(due);
        if (!LoadSendAll(fds[c], requests[c][j])) return;
      }
    });
    threads.emplace_back([&, c] {  // reader
      std::string buffer;
      std::vector<double> latencies;
      long shed = 0, ok = 0, errors = 0;
      for (size_t j = 0; j < requests[c].size(); ++j) {
        std::vector<std::string> response = LoadReadResponse(fds[c], &buffer);
        if (response.empty()) break;  // timeout/EOF: the rest is unanswered
        double latency = MillisSince(base) - arrivals_ms[c][j];
        if (response.front().rfind("OK", 0) == 0) {
          ++ok;
          latencies.push_back(latency);
        } else if (response.front().rfind("ERR RESOURCE_EXHAUSTED", 0) == 0) {
          ++shed;
        } else {
          ++errors;
        }
      }
      std::lock_guard<std::mutex> hold(merge_mutex);
      point.ok += ok;
      point.shed += shed;
      point.errors += errors;
      ok_latencies.insert(ok_latencies.end(), latencies.begin(),
                          latencies.end());
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int fd : fds) ::close(fd);
  point.unanswered = point.sent - point.ok - point.shed - point.errors;

  int control = LoadConnect(socket_path);
  if (control >= 0) {
    std::string buffer;
    (void)LoadSendAll(control, "SHUTDOWN\n");
    (void)LoadReadResponse(control, &buffer);
    ::close(control);
  }
  server.join();
  if (!server_status.ok()) {
    std::fprintf(stderr, "load: serve loop failed: %s\n",
                 server_status.ToString().c_str());
    std::abort();
  }

  std::sort(ok_latencies.begin(), ok_latencies.end());
  point.p50_ms = Percentile(ok_latencies, 0.50);
  point.p99_ms = Percentile(ok_latencies, 0.99);
  point.p999_ms = Percentile(ok_latencies, 0.999);
  return point;
}

/// Runs the sweep, prints the table, and appends the "load" JSON section.
void RunLoadSweep(std::string* json_out) {
  double mean_service_ms = CalibrateMeanServiceMs();
  double capacity_per_s = kLoadWorkers * 1000.0 / mean_service_ms;
  std::printf("=== open-loop load: %d workers, queue %d, %d connections, "
              "mean service %.3f ms -> capacity %.0f req/s ===\n",
              kLoadWorkers, kLoadQueueDepth, kLoadConnections,
              mean_service_ms, capacity_per_s);
  std::printf("%-6s %10s %6s %6s %6s %6s %8s %10s %10s %10s\n", "xcap",
              "rate/s", "sent", "ok", "shed", "unans", "errors", "p50_ms",
              "p99_ms", "p999_ms");
  std::string section = "  \"load\": {\n";
  char head[256];
  std::snprintf(head, sizeof(head),
                "    \"workers\": %d, \"queue_depth\": %d, "
                "\"connections\": %d,\n    \"mean_service_ms\": %.3f, "
                "\"capacity_per_s\": %.1f,\n    \"points\": [\n",
                kLoadWorkers, kLoadQueueDepth, kLoadConnections,
                mean_service_ms, capacity_per_s);
  section += head;
  bool first = true;
  for (double multiplier : kLoadMultipliers) {
    LoadPoint point = RunLoadPoint(multiplier, multiplier * capacity_per_s);
    std::printf("%-6.2f %10.1f %6ld %6ld %6ld %6ld %8ld %10.3f %10.3f "
                "%10.3f\n",
                point.multiplier, point.rate_per_s, point.sent, point.ok,
                point.shed, point.unanswered, point.errors, point.p50_ms,
                point.p99_ms, point.p999_ms);
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "      {\"rate_multiplier\": %.2f, \"rate_per_s\": %.1f, "
                  "\"sent\": %ld, \"ok\": %ld, \"shed\": %ld, "
                  "\"unanswered\": %ld, \"errors\": %ld, "
                  "\"shed_rate\": %.4f, \"p50_ms\": %.3f, "
                  "\"p99_ms\": %.3f, \"p999_ms\": %.3f}",
                  point.multiplier, point.rate_per_s, point.sent, point.ok,
                  point.shed, point.unanswered, point.errors,
                  point.sent > 0 ? static_cast<double>(point.shed) /
                                       static_cast<double>(point.sent)
                                 : 0.0,
                  point.p50_ms, point.p99_ms, point.p999_ms);
    if (!first) section += ",\n";
    section += buf;
    first = false;
  }
  section += "\n    ]\n  }\n";
  std::printf("\n");
  *json_out = section;
}

}  // namespace
}  // namespace bench
}  // namespace cqlopt

int main(int argc, char** argv) {
  bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;
  std::string load_section;
  cqlopt::bench::RunLoadSweep(&load_section);
  if (!json) return 0;
  std::string out = "{\n  \"bench\": \"service\",\n" + load_section + "}\n";
  FILE* f = std::fopen("BENCH_service.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_service.json\n");
    return 1;
  }
  std::fputs(out.c_str(), f);
  std::fclose(f);
  std::printf("wrote BENCH_service.json\n");
  return 0;
}
