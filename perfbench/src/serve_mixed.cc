// serve_mixed: cqld's serving path. An in-process ServeLoop on a unix
// socket (2 workers, admission queue 64, WAL on with an fsync per commit)
// serves the flights program under pred,qrp,mg. One seeded request script,
// mostly QUERY over four distinct airport pairs with single-leg INGEST and
// RETRACT of legs ingested earlier in the script, is sent to fresh services
// over two pipelined connections with one sender and one reader thread:
//
//  - closed loop, twice, the first pass untimed: lines go out in script
//    order, each as soon as fewer than kClosedDepth lines await replies.
//    Its QUERY answers per second are the server's capacity on this mix,
//    and the open loop's rate over its line rate is the open loop's
//    utilisation.
//  - open loop: Poisson arrivals at one fixed absolute rate, never derived
//    from a measured service time, so a faster server receives the same
//    load and its gain shows as lower latency. Latency runs from each
//    line's due time.
//
// The network is fixed (generator seed 42, 10 airports, 40 legs; smaller
// than bench_service's 24/800 so a retract catch-up costs tens of ms, not
// seconds).

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <future>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <thread>

#include "common.h"
#include "core/workload.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/query_service.h"
#include "service/server.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cqlopt::LineClient;
using cqlopt::QueryService;

constexpr int kAirports = 10;
constexpr int kLegs = 40;
constexpr uint64_t kNetworkSeed = 42;
constexpr const char* kSteps = "pred,qrp,mg";
/// The open loop's offered load, in requests per second: an absolute
/// number, never recalibrated by a run. It was chosen once as a fifth of
/// the closed loop's capacity measured at the seed commit (450-530 lines/s
/// on a 4-vCPU x86-64 VM): far enough below it that a slow phase of a
/// shared machine does not build a backlog, while queries still queue
/// behind retract catch-ups in the tail.
constexpr double kRatePerS = 100;
constexpr int kConnections = 2;
constexpr int kWorkers = 2;
constexpr int kQueueDepth = 64;
/// Lines in flight in the closed loop: enough to keep both workers busy
/// with a queue behind them, and far below the admission queue, so the
/// closed loop never sheds.
constexpr size_t kClosedDepth = 8;
/// Every block of kBlock lines holds this many INGEST and RETRACT slots, the
/// rest QUERY: 94% reads and 6% writes, the read-mostly mix of YCSB's
/// workload B (95/5) in whole percents, with the writes split evenly
/// between INGEST and RETRACT so the network stays near its base size and
/// a resume costs the same late in a run as early. Fixed counts per block,
/// rather than a draw per line, keep the share of queries that pay a
/// catch-up the same in every run.
constexpr size_t kBlock = 100;
constexpr size_t kBlockIngests = 3;
constexpr size_t kBlockRetracts = 3;
/// The fixed pool the ingested legs are drawn from, in order.
constexpr uint64_t kLegPoolSeed = 20240611;
/// A RETRACT removes the oldest live ingested leg, once that leg's INGEST
/// is at least this many lines earlier; until then the slot is a QUERY.
/// In the closed loop fewer than kClosedDepth lines are unanswered when a
/// line is sent and each connection's replies come back in order, so an
/// INGEST 2 * kClosedDepth or more lines earlier has committed before its
/// RETRACT is sent. In the open loop the lag is 0.2 s at kRatePerS.
constexpr size_t kRetractLag = 20;
static_assert(kRetractLag >= 2 * kClosedDepth);
/// The share of --seconds the open loop sends for. The closed loops, the
/// set-ups, the checks and (with --trace 1) the in-process replays take
/// the rest.
constexpr double kOpenShare = 0.6;
constexpr double kOpenShareTraced = 0.55;
/// The timed closed loop's script is this many times the open loop's.
constexpr double kClosedScale = 2;
/// Set-ups before each closed loop and before the open loop; the last of
/// each group serves the traffic. kSetupsLast more follow the open loop and
/// serve nothing. One set-up takes ~0.1 s in the fast mode of a shared
/// 4-vCPU x86-64 VM and ~0.15 s in its slow mode; the fastest of a run's
/// samples is reported (see Fastest), and their median moved by up to
/// 0.47 of itself between sets of ten runs.
constexpr int kSetupsBefore = 2;
constexpr int kSetupsAfter = 2;
constexpr int kSetupsLast = 10;
/// query_fast_ms is the geometric mean over the four queries of each one's
/// p10 open-loop latency (a 30 s run answers ~420 of each). The tail
/// (client.query_tail_ms) falls on the few queries that queue behind a
/// burst of catch-ups and fsyncs, and its spread across ten runs on a
/// shared 4-vCPU x86-64 VM reached 0.4 of its median.
constexpr double kFastQuantile = 0.1;
/// Deadline for a connect, a send, or one reply: a stalled server shows
/// up as unanswered lines, not as a hang.
constexpr int kTimeoutMs = 20000;

const char* const kQueries[] = {
    "?- cheaporshort(a0, a9, Time, Cost).",
    "?- cheaporshort(a2, a8, Time, Cost).",
    "?- cheaporshort(a4, a9, Time, Cost).",
    "?- cheaporshort(a1, a7, Time, Cost).",
};
constexpr int kQueryCount = 4;

enum class Verb { kQuery, kIngest, kRetract };

struct Line {
  Verb verb = Verb::kQuery;
  std::string text;  // the protocol line, without the newline
  double due_ms = 0;  // open loop: send time from the start of the window
};

std::string LegText(std::mt19937_64* rng) {
  std::uniform_int_distribution<int> airport(0, kAirports - 1);
  std::uniform_int_distribution<int> time(30, 600);
  std::uniform_int_distribution<int> cost(20, 400);
  int src = airport(*rng);
  int dst = airport(*rng);
  if (dst == src) dst = (dst + 1) % kAirports;
  if (src > dst) std::swap(src, dst);
  return "singleleg(a" + std::to_string(src) + ", a" + std::to_string(dst) +
         ", " + std::to_string(time(*rng)) + ", " +
         std::to_string(cost(*rng)) + ").";
}

/// The seeded request script for an open-loop window of `seconds`. The
/// seed draws the arrival times, the query of each QUERY line and where in
/// each block of kBlock lines its writes fall. The ingested legs come, in
/// order, from a fixed pool: what a retract catch-up costs depends on the
/// leg, and drawing the legs from the run's seed would put that spread into
/// every comparison of two runs.
std::vector<Line> MakeScript(uint64_t seed, double seconds) {
  std::mt19937_64 rng(seed);
  std::mt19937_64 pool(kLegPoolSeed);
  std::exponential_distribution<double> gap(kRatePerS);
  std::uniform_int_distribution<int> query(0, kQueryCount - 1);
  std::vector<Verb> block(kBlock, Verb::kQuery);
  std::fill_n(block.begin(), kBlockIngests, Verb::kIngest);
  std::fill_n(block.begin() + kBlockIngests, kBlockRetracts, Verb::kRetract);
  std::vector<Line> script;
  std::deque<std::pair<size_t, std::string>> live;  // (index, leg) ingested
  std::set<std::string> used;
  double t_ms = 0;
  for (;;) {
    t_ms += gap(rng) * 1000.0;
    if (t_ms >= seconds * 1000.0) break;
    Line line;
    line.due_ms = t_ms;
    size_t index = script.size();
    if (index % kBlock == 0) std::shuffle(block.begin(), block.end(), rng);
    Verb verb = block[index % kBlock];
    if (verb == Verb::kRetract && !live.empty() &&
        live.front().first + kRetractLag <= index) {
      line.verb = Verb::kRetract;
      line.text = "RETRACT " + live.front().second;
      live.pop_front();
    } else if (verb == Verb::kIngest) {
      std::string leg = LegText(&pool);
      while (used.count(leg) != 0) leg = LegText(&pool);
      used.insert(leg);
      live.push_back({index, leg});
      line.verb = Verb::kIngest;
      line.text = "INGEST " + leg;
    } else {
      line.verb = Verb::kQuery;
      line.text =
          std::string("QUERY ") + kSteps + " " + kQueries[query(rng)];
    }
    script.push_back(std::move(line));
  }
  return script;
}

std::unique_ptr<QueryService> MakeService(const std::string& wal_dir,
                                          std::string* error) {
  auto parsed = cqlopt::ParseProgram(FlightsRules());
  if (!parsed.ok()) {
    *error = "parse failed";
    return nullptr;
  }
  cqlopt::FlightNetworkSpec spec;
  spec.airports = kAirports;
  spec.legs = kLegs;
  spec.seed = kNetworkSeed;
  cqlopt::Database db;
  (void)cqlopt::AddFlightNetwork(parsed->program.symbols.get(), spec, &db);
  cqlopt::ServiceOptions options;
  options.wal_dir = wal_dir;
  auto service = QueryService::FromParts(std::move(parsed->program),
                                         std::move(db), options);
  if (!service.ok()) {
    *error = "service: " + service.status().ToString();
    return nullptr;
  }
  cqlopt::Status recovered = (*service)->Recover();
  if (!recovered.ok()) {
    *error = "recover: " + recovered.ToString();
    return nullptr;
  }
  return std::move(*service);
}

/// One control line (STATS, SHUTDOWN) over a fresh connection; the reply's
/// lines, or none when the exchange failed.
std::vector<std::string> Control(const std::string& socket_path,
                                 const std::string& line) {
  auto client = LineClient::ConnectUnix(socket_path, kTimeoutMs);
  if (!client.ok()) return {};
  LineClient::Response reply;
  if (!(*client)->Exchange(line, kTimeoutMs, &reply).ok()) return {};
  return reply.lines;
}

/// A ServeLoop running on its own thread; Stop() sends SHUTDOWN and joins.
class Server {
 public:
  Server(QueryService* service, std::string socket_path)
      : socket_path_(std::move(socket_path)) {
    cqlopt::ServerOptions options;
    options.socket_path = socket_path_;
    options.scheduler.workers = kWorkers;
    options.scheduler.queue_depth = kQueueDepth;
    std::promise<void> ready;
    std::future<void> ready_future = ready.get_future();
    options.on_ready = [&ready](const cqlopt::ServerEndpoints&) {
      ready.set_value();
    };
    thread_ = std::thread([this, service, options] {
      status_ = ServeLoop(*service, options);
      finished_.store(true);
    });
    // ServeLoop returns without calling on_ready if it cannot listen.
    while (ready_future.wait_for(std::chrono::milliseconds(10)) !=
           std::future_status::ready) {
      if (finished_.load()) break;
    }
  }
  ~Server() { Stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  const std::string& socket_path() const { return socket_path_; }

  cqlopt::Status Stop() {
    if (thread_.joinable()) {
      (void)Control(socket_path_, "SHUTDOWN");
      thread_.join();
      std::error_code ec;
      std::filesystem::remove(socket_path_, ec);
    }
    return status_;
  }

 private:
  std::string socket_path_;
  cqlopt::Status status_ = cqlopt::Status::OK();
  std::atomic<bool> finished_{false};
  std::thread thread_;
};

// ---- one served session --------------------------------------------------

struct Session {
  std::string wal_dir;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<Server> server;
  std::vector<double> prepare_ms;  // per query, this set-up
  std::vector<double> first_eval_ms;

  ~Session() {
    if (server) (void)server->Stop();
    service.reset();
    std::error_code ec;
    if (!wal_dir.empty()) std::filesystem::remove_all(wal_dir, ec);
  }
};

/// The set-up this workload times: the service over a fresh WAL directory,
/// each distinct query prepared and evaluated once, and the serve loop
/// listening.
bool SetUp(const Args& args, int index, bool listen, Session* s,
           std::string* error) {
  std::string tag = std::to_string(::getpid()) + "-" + std::to_string(index);
  s->wal_dir = args.workdir + "/wal-" + tag;
  ResetDecisionState();  // every set-up starts as cold as a fresh server
  std::error_code ec;
  std::filesystem::remove_all(s->wal_dir, ec);
  s->service = MakeService(s->wal_dir, error);
  if (!s->service) return false;
  for (const char* query : kQueries) {
    int64_t t = NowNs();
    auto prepared = s->service->Prepare(query, kSteps);
    s->prepare_ms.push_back(MsSince(t));
    if (!prepared.ok()) {
      *error = "prepare: " + prepared.status().ToString();
      return false;
    }
    t = NowNs();
    auto executed = s->service->Execute(query, kSteps);
    s->first_eval_ms.push_back(MsSince(t));
    if (!executed.ok()) {
      *error = "execute: " + executed.status().ToString();
      return false;
    }
  }
  if (listen) {
    s->server = std::make_unique<Server>(s->service.get(),
                                         args.workdir + "/s" + tag + ".sock");
    if (!LineClient::ConnectUnix(s->server->socket_path(), kTimeoutMs).ok()) {
      *error = "serve loop did not start listening";
      return false;
    }
  }
  return true;
}

struct ClientResult {
  std::vector<double> latency_ms;   // per script line; -1 when unanswered
  std::vector<std::string> status;  // first reply line
  std::vector<double> lag_ms;       // open loop: send time minus due time
  double elapsed_ms = 0;            // from the start to the last reply
};

/// Sends the script over kConnections pipelined connections, line i on
/// connection i % kConnections. With `closed_depth` 0 the loop is open:
/// each line is sent at its due time, and its latency runs from then.
/// Otherwise the loop is closed: lines go out in script order, each once
/// fewer than `closed_depth` lines await replies, and latency runs from
/// the actual send.
bool Drive(const std::string& socket_path, const std::vector<Line>& script,
           size_t closed_depth, ClientResult* out, std::string* error) {
  std::vector<std::unique_ptr<LineClient>> clients;
  for (int c = 0; c < kConnections; ++c) {
    auto client = LineClient::ConnectUnix(socket_path, kTimeoutMs);
    if (!client.ok()) {
      *error = "connect: " + client.status().ToString();
      return false;
    }
    clients.push_back(std::move(*client));
  }
  const size_t n = script.size();
  std::vector<double> sent_ms(n, 0);
  std::vector<double> reply_ms(n, -1);
  out->status.assign(n, "");
  // Shared by every sender and reader. The closed loop's senders wait on
  // `next` and `answered`; a failed connection sets `stop`.
  std::mutex mu;
  std::condition_variable cv;
  size_t next = 0;
  size_t answered = 0;
  bool stop = false;
  auto halt = [&] {
    std::lock_guard<std::mutex> lock(mu);
    stop = true;
    cv.notify_all();
  };

  const auto base = std::chrono::steady_clock::now();
  auto since_base_ms = [&base] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - base)
        .count();
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    LineClient* client = clients[static_cast<size_t>(c)].get();
    threads.emplace_back([&, c, client] {  // sender
      for (size_t i = static_cast<size_t>(c); i < n; i += kConnections) {
        if (closed_depth == 0) {
          std::this_thread::sleep_until(
              base + std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::duration<double, std::milli>(
                             script[i].due_ms)));
        } else {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] {
            return stop || (next == i && i - answered < closed_depth);
          });
          if (stop) return;
          ++next;
          cv.notify_all();
        }
        sent_ms[i] = since_base_ms();
        if (!client->SendLine(script[i].text, kTimeoutMs).ok()) {
          ::shutdown(client->fd(), SHUT_RDWR);  // ends this reader too
          halt();
          return;
        }
      }
    });
    threads.emplace_back([&, c, client] {  // reader
      for (size_t i = static_cast<size_t>(c); i < n; i += kConnections) {
        LineClient::Response reply;
        if (!client->ReadResponse(kTimeoutMs, &reply).ok()) {
          halt();  // timeout or EOF: the rest is unanswered
          return;
        }
        std::lock_guard<std::mutex> lock(mu);
        reply_ms[i] = since_base_ms();
        out->status[i] = reply.lines.empty() ? "" : reply.lines.front();
        ++answered;
        cv.notify_all();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  out->latency_ms.assign(n, -1);
  out->lag_ms.assign(n, 0);
  out->elapsed_ms = 0;
  for (size_t i = 0; i < n; ++i) {
    if (closed_depth == 0) out->lag_ms[i] = sent_ms[i] - script[i].due_ms;
    if (reply_ms[i] < 0) continue;
    double from = closed_depth == 0 ? script[i].due_ms : sent_ms[i];
    out->latency_ms[i] = reply_ms[i] - from;
    out->elapsed_ms = std::max(out->elapsed_ms, reply_ms[i]);
  }
  return true;
}

/// One loop's answered lines, by verb, and its failures.
struct Tally {
  std::vector<double> query_ms, ingest_ms, retract_ms, all_ms;
  std::map<std::string, std::vector<double>> by_query;  // QUERY, by line
  long shed = 0;
  long unanswered = 0;
  long errors = 0;

  long failed() const { return shed + unanswered + errors; }
};

Tally Count(const std::vector<Line>& script, const ClientResult& client) {
  Tally t;
  for (size_t i = 0; i < script.size(); ++i) {
    if (client.latency_ms[i] < 0) {
      ++t.unanswered;
      continue;
    }
    const std::string& head = client.status[i];
    if (head.rfind("ERR RESOURCE_EXHAUSTED", 0) == 0) {
      ++t.shed;
      continue;
    }
    if (head.rfind("OK", 0) != 0) {
      ++t.errors;
      continue;
    }
    double ms = client.latency_ms[i];
    t.all_ms.push_back(ms);
    switch (script[i].verb) {
      case Verb::kQuery:
        t.query_ms.push_back(ms);
        t.by_query[script[i].text].push_back(ms);
        break;
      case Verb::kIngest:
        t.ingest_ms.push_back(ms);
        break;
      case Verb::kRetract:
        t.retract_ms.push_back(ms);
        break;
    }
  }
  return t;
}

std::vector<std::string> SortedAnswers(const cqlopt::QueryOutcome& outcome) {
  std::vector<std::string> answers = outcome.answers;
  std::sort(answers.begin(), answers.end());
  return answers;
}

/// The check: every distinct query's answers at the final state equal a
/// fresh cold service's, built from the final RenderStateText.
bool FinalStateAgrees(QueryService* served, std::string* why) {
  std::string state = served->RenderStateText();
  std::string edb;
  std::istringstream lines(state);
  for (std::string line; std::getline(lines, line);) {
    if (line.empty() || line[0] == '#' || line.rfind("epoch=", 0) == 0 ||
        line.rfind("clock_ms=", 0) == 0) {
      continue;
    }
    edb += line + "\n";
  }
  auto fresh = QueryService::FromText(FlightsRules(), edb);
  if (!fresh.ok()) {
    *why = "fresh service: " + fresh.status().ToString();
    return false;
  }
  for (const char* query : kQueries) {
    auto a = served->Execute(query, kSteps);
    auto b = (*fresh)->Execute(query, kSteps);
    if (!a.ok() || !b.ok()) {
      *why = std::string("final query failed: ") + query;
      return false;
    }
    if (b->path != cqlopt::ServePath::kCold) {
      *why = "the fresh service did not evaluate cold";
      return false;
    }
    if (SortedAnswers(*a) != SortedAnswers(*b)) {
      *why = std::string("served answers differ from a cold evaluation of "
                         "the final state for ") +
             query;
      return false;
    }
  }
  return true;
}

double SchedulerMs(const std::vector<std::string>& stats,
                   const std::string& field) {
  double total = 0;
  double completed = 0;
  for (const std::string& line : stats) {
    size_t eq = line.find('=');
    if (eq == std::string::npos || line.rfind("sched_", 0) != 0) continue;
    std::string key = line.substr(0, eq);
    double value = std::atof(line.c_str() + eq + 1);
    if (key.size() > field.size() &&
        key.compare(key.size() - field.size(), field.size(), field) == 0 &&
        key != "sched_" + field) {
      total += value;
    }
    if (key == "sched_completed") completed = value;
  }
  return completed > 0 ? total / completed : 0;
}

struct Replay {
  std::map<std::string, std::vector<double>> by_kind;  // span samples
  double handle_line_total_ms = 0;
  /// QUERY lines only, spans and the traced parse included: the writes'
  /// fsyncs vary far more than tracing costs.
  double query_lines_ms = 0;
  long resumed_iterations = 0;
  long retract_resumes = 0;
  long lines = 0;
  DecisionCounters decisions;
  bool ok = true;
};

/// Replays the script in-process, back to back, through HandleLine on a
/// service set up like the served one. With tracing on, every line is a
/// span named after its verb and serving path.
void ReplayInProcess(const Args& args, const std::vector<Line>& script,
                     Tracer* tracer, Replay* out, std::string* error) {
  Session s;
  if (!SetUp(args, 100 + (tracer->enabled() ? 1 : 0), false, &s, error)) {
    out->ok = false;
    return;
  }
  auto parse_target = cqlopt::ParseProgram(FlightsRules());
  DecisionCounters before = DecisionCounters::Now();
  for (size_t i = 0; i < script.size(); ++i) {
    const Line& line = script[i];
    int64_t request = static_cast<int64_t>(i);
    int64_t line_start = NowNs();
    if (line.verb == Verb::kQuery && tracer->enabled()) {
      // Every QUERY line's query text is parsed inside Execute; time the
      // same parse from outside.
      ScopedSpan span(tracer, "ast.parse", request);
      (void)cqlopt::ParseQueryText(line.text.substr(line.text.find("?-")),
                                   &parse_target->program);
    }
    cqlopt::ServiceStats stats_before = s.service->Stats();
    std::vector<std::string> reply;
    int id = tracer->Begin("service.handle_line", request, -1);
    int64_t t = NowNs();
    (void)cqlopt::HandleLine(*s.service, line.text, &reply);
    double ms = MsSince(t);
    tracer->End(id);
    if (line.verb == Verb::kQuery) out->query_lines_ms += MsSince(line_start);
    cqlopt::ServiceStats stats_after = s.service->Stats();
    out->handle_line_total_ms += ms;
    ++out->lines;
    std::string head = reply.empty() ? "" : reply.front();
    if (head.rfind("OK", 0) != 0) out->ok = false;
    std::string kind;
    if (line.verb == Verb::kIngest) {
      kind = "ingest";
    } else if (line.verb == Verb::kRetract) {
      kind = "retract";
    } else {
      size_t p = head.find("path=");
      kind = p == std::string::npos
                 ? "query"
                 : "execute." + head.substr(p + 5, head.find(' ', p) - p - 5);
      if (stats_after.retract_resumes > stats_before.retract_resumes) {
        out->by_kind["catchup.retract"].push_back(ms);
      }
    }
    out->by_kind[kind].push_back(ms);
    out->resumed_iterations +=
        stats_after.resumed_iterations - stats_before.resumed_iterations;
    out->retract_resumes +=
        stats_after.retract_resumes - stats_before.retract_resumes;
  }
  out->decisions = DecisionCounters::Now() - before;
}

/// "<what>: N samples, p50 X ms, pQ Y ms (B beyond)": the median and the
/// highest percentile the sample supports.
std::string Summary(const std::string& what, const std::vector<double>& ms) {
  Percentile tail = HighestQualifying(ms);
  std::string out = what + ": " + std::to_string(ms.size()) +
                    " samples, p50 " + Fmt("%.3f", Median(ms)) + " ms";
  if (tail.quantile <= 0.5) {
    return out + "; no tail percentile has 10 samples beyond it";
  }
  return out + ", p" + Fmt("%g", 100 * tail.quantile) + " " +
         Fmt("%.3f", tail.value) + " ms (" + std::to_string(tail.beyond) +
         " beyond)";
}

}  // namespace

void RunServeMixed(const Args& args, Report* report) {
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);

  // Set-up, before the traffic and again after it, so its fastest sample
  // does not hang on one moment of the machine.
  std::vector<double> setup_s;
  std::vector<std::vector<double>> prepare_ms(kQueryCount), eval_ms(kQueryCount);
  auto set_up = [&](int index, std::unique_ptr<Session>* out) {
    out->reset();
    *out = std::make_unique<Session>();
    std::string error;
    int64_t t = NowNs();
    bool ok = SetUp(args, index, true, out->get(), &error);
    setup_s.push_back(MsSince(t) / 1e3);
    if (!ok) {
      report->Fail("set-up: " + error);
      return false;
    }
    for (int q = 0; q < kQueryCount; ++q) {
      prepare_ms[q].push_back((*out)->prepare_ms[q]);
      eval_ms[q].push_back((*out)->first_eval_ms[q]);
    }
    return true;
  };
  // The closed loops run first, and the first of them is not timed: a
  // process's first seconds of serving ran up to a quarter slower on a
  // shared 4-vCPU x86-64 VM, and the busy closed loop brings it to a
  // steady state before the open loop's mostly idle server is timed.
  double window = args.seconds * (args.trace ? kOpenShareTraced : kOpenShare);
  std::vector<Line> script = MakeScript(args.seed, window);
  // The closed loop's script is kClosedScale times as long, so its rate
  // rests on several seconds of work; the untimed pass sends its first
  // quarter.
  std::vector<Line> closed_script =
      MakeScript(args.seed, window * kClosedScale);
  std::vector<Line> warm_script(
      closed_script.begin(),
      closed_script.begin() + static_cast<long>(closed_script.size() / 4));
  auto check_loop = [&](const char* loop, const std::vector<Line>& lines,
                        const Tally& t) {
    report->attempted += static_cast<long>(lines.size());
    report->failed += t.failed();
    if (t.failed() > 0) {
      report->Fail(std::string(loop) + " loop: " + std::to_string(t.shed) +
                   " shed, " + std::to_string(t.unanswered) +
                   " unanswered, " + std::to_string(t.errors) + " errors");
    }
  };
  std::string error;
  std::unique_ptr<Session> closed_session;
  ClientResult closed;
  cqlopt::Status served = cqlopt::Status::OK();
  for (int pass = 0; pass < 2; ++pass) {
    const std::vector<Line>& lines = pass == 0 ? warm_script : closed_script;
    for (int k = 0; k < kSetupsBefore; ++k) {
      if (!set_up(pass * kSetupsBefore + k, &closed_session)) return;
    }
    if (!Drive(closed_session->server->socket_path(), lines, kClosedDepth,
               &closed, &error)) {
      report->Fail(error);
      return;
    }
    served = closed_session->server->Stop();
    if (!served.ok()) report->Fail("serve loop: " + served.ToString());
    if (pass == 0) check_loop("untimed closed", lines, Count(lines, closed));
  }

  std::unique_ptr<Session> open_session;
  for (int k = 0; k < kSetupsAfter; ++k) {
    if (!set_up(2 * kSetupsBefore + k, &open_session)) return;
  }
  ClientResult open;
  if (!Drive(open_session->server->socket_path(), script, 0, &open, &error)) {
    report->Fail(error);
    return;
  }
  std::vector<std::string> stats =
      Control(open_session->server->socket_path(), "STATS");
  served = open_session->server->Stop();
  if (!served.ok()) report->Fail("serve loop: " + served.ToString());
  double peak_rss = PeakRssMb();
  for (int k = 0; k < kSetupsLast; ++k) {
    std::unique_ptr<Session> unused;
    if (!set_up(2 * kSetupsBefore + kSetupsAfter + k, &unused)) return;
  }
  {
    std::string samples;
    for (double v : setup_s) samples += " " + Fmt("%.3f", v);
    report->Note("set-up samples (s):" + samples);
  }

  Tally o = Count(script, open);
  Tally c = Count(closed_script, closed);
  check_loop("open", script, o);
  check_loop("closed", closed_script, c);
  for (QueryService* service :
       {open_session->service.get(), closed_session->service.get()}) {
    ++report->attempted;  // the final-state check
    std::string why;
    if (!FinalStateAgrees(service, &why)) {
      ++report->failed;
      report->Fail(why);
    }
  }

  double closed_s = closed.elapsed_ms / 1e3;
  double capacity_qps = closed_s > 0 ? c.query_ms.size() / closed_s : 0;
  double capacity_lps = closed_s > 0 ? c.all_ms.size() / closed_s : 0;
  double utilisation = capacity_lps > 0 ? kRatePerS / capacity_lps : 0;
  std::vector<std::vector<double>> per_query;
  for (const auto& [text, ms] : o.by_query) per_query.push_back(ms);
  report->Note("open loop: " + Fmt("%.0f", kRatePerS) +
               " req/s (Poisson) for " + Fmt("%.1f", window) + " s, " +
               std::to_string(kConnections) + " connections, " +
               std::to_string(kWorkers) + " workers, queue " +
               std::to_string(kQueueDepth) + ", WAL on with fsync per commit");
  report->Note("sent " + std::to_string(script.size()) + " lines: " +
               std::to_string(o.query_ms.size()) + " QUERY, " +
               std::to_string(o.ingest_ms.size()) + " INGEST, " +
               std::to_string(o.retract_ms.size()) + " RETRACT answered OK");
  report->Note(Summary("open QUERY", o.query_ms));
  report->Note("open QUERY: " + Quantiles(o.query_ms));
  report->Note(Summary("open INGEST", o.ingest_ms));
  report->Note(Summary("open RETRACT", o.retract_ms));
  report->Note("closed loop, " + std::to_string(kClosedDepth) +
               " lines in flight: " + Fmt("%.3f", closed_s) + " s, " +
               Fmt("%.1f", capacity_lps) + " lines/s, " +
               Fmt("%.1f", capacity_qps) +
               " QUERY/s (client.queries_per_s); open-loop utilisation " +
               Fmt("%.3f", utilisation));
  report->Note(Summary("closed QUERY", c.query_ms));

  std::vector<double> prepare_medians, eval_medians;
  for (int q = 0; q < kQueryCount; ++q) {
    prepare_medians.push_back(Median(prepare_ms[q]));
    eval_medians.push_back(Median(eval_ms[q]));
  }
  report->end_to_end = {
      {"setup_s", Fastest(setup_s), "s"},
      {"peak_rss_mb", peak_rss, "MB"},
      {"query_fast_ms", GeoMeanOfPercentiles(per_query, kFastQuantile), "ms"},
  };

  if (!args.trace) return;
  std::map<std::string, double> m;
  cqlopt::ServiceStats st = open_session->service->Stats();
  m["client.query_p50_ms"] = Median(o.query_ms);
  m["client.queries_per_s"] = capacity_qps;
  m["transform.rewrite_ms_geomean"] = GeoMean(prepare_medians);
  m["eval.run_ms_geomean"] = GeoMean(eval_medians);
  m["client.query_tail_ms"] = HighestQualifying(o.query_ms).value;
  m["client.ingest_p50_ms"] = Median(o.ingest_ms);
  m["client.ingest_tail_ms"] = HighestQualifying(o.ingest_ms).value;
  m["client.retract_p50_ms"] = Median(o.retract_ms);
  m["client.failed_frac"] =
      static_cast<double>(report->failed) /
      static_cast<double>(std::max<long>(report->attempted, 1));
  m["bench.generator_lag_ms"] = HighestQualifying(open.lag_ms).value;
  m["bench.utilisation"] = utilisation;
  m["service.sched_wait_ms"] = SchedulerMs(stats, "wait_ms");
  m["service.sched_run_ms"] = SchedulerMs(stats, "run_ms");
  long lookups = st.prepared_hits + st.prepared_misses;
  m["service.prepared_hit_ratio"] =
      lookups > 0 ? static_cast<double>(st.prepared_hits) / lookups : 0;
  m["service.wal_bytes_per_batch"] =
      st.wal_appends > 0 ? static_cast<double>(st.wal_bytes) / st.wal_appends
                         : 0;

  // In-process replays of the same lines: traced, then untraced.
  Tracer tracer(true);
  Tracer off(false);
  Replay traced, untraced;
  ReplayInProcess(args, script, &tracer, &traced, &error);
  ReplayInProcess(args, script, &off, &untraced, &error);
  if (!traced.ok || !untraced.ok) {
    ++report->failed;
    report->Fail("in-process replay failed " + error);
  }
  m["service.execute_ms.epoch-hit"] = Median(traced.by_kind["execute.epoch-hit"]);
  m["service.execute_ms.resumed"] = Median(traced.by_kind["execute.resumed"]);
  // A cold Execute is a prepare plus a first evaluation: the set-ups time
  // exactly those two calls for every query.
  std::vector<double> cold_ms;
  for (int q = 0; q < kQueryCount; ++q) {
    for (size_t k = 0; k < eval_ms[q].size(); ++k) {
      cold_ms.push_back(prepare_ms[q][k] + eval_ms[q][k]);
    }
  }
  m["service.execute_ms.cold"] = Median(cold_ms);
  m["service.catchup_ms.retract"] = Median(traced.by_kind["catchup.retract"]);
  m["service.ingest_ms"] = Median(traced.by_kind["ingest"]);
  m["service.retract_ms"] = Median(traced.by_kind["retract"]);
  double lines = static_cast<double>(std::max<long>(traced.lines, 1));
  m["service.resumed_iterations"] = traced.resumed_iterations / lines;
  m["service.retract_resumes"] = static_cast<double>(traced.retract_resumes);
  m["service.server_ms"] =
      Mean(o.all_ms) - traced.handle_line_total_ms / lines;
  std::map<std::string, double> self = tracer.SelfMsByName();
  m["ast.parse_ms"] = self["ast.parse"] / lines;
  AccumulateDecisions(traced.decisions, &m);
  FinishLayerMetrics(traced.lines, &m);
  m["bench.trace_overhead_pct"] =
      untraced.query_lines_ms > 0
          ? 100.0 * (traced.query_lines_ms - untraced.query_lines_ms) /
                untraced.query_lines_ms
          : 0;
  report->per_layer = m;
  (void)tracer.WriteTsv(args.workdir + "/spans-serve_mixed.tsv");
}

}  // namespace perfbench
