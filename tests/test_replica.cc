// Tests for WAL-shipped replication (src/service/replica.h): follower
// bootstrap via snapshot, live tailing of the primary's feed, retryable
// link faults (dropped fetches, torn records, crashes around apply),
// snapshot renegotiation across compaction, per-cut divergence quarantine,
// and PROMOTE failover draining the dead primary's WAL. The invariant under
// test is DESIGN.md §15's: a caught-up follower is byte-identical to its
// primary (RenderStateText — epoch, clock, facts, TTL deadlines), and a
// follower that cannot be identical is quarantined, never silently wrong.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "generated_flights.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/replica.h"
#include "service/server.h"
#include "service/wal.h"
#include "util/failpoint.h"

namespace cqlopt {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << path;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

std::string ProgramPath(const std::string& name) {
  return std::string(CQLOPT_PROGRAMS_DIR) + "/" + name;
}

/// mkdtemp'd WAL directory, removed with its known files on scope exit.
struct TempWalDir {
  std::string path;
  TempWalDir() {
    const char* base = std::getenv("TMPDIR");
    std::string tmpl = std::string(base != nullptr ? base : "/tmp") +
                       "/cqlopt-rep-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) != nullptr) path.assign(buf.data());
  }
  ~TempWalDir() {
    if (path.empty()) return;
    for (const char* name :
         {"/wal.log", "/snapshot.cql", "/snapshot.tmp", "/cqld.sock"}) {
      ::unlink((path + name).c_str());
    }
    ::rmdir(path.c_str());
  }
};

const char kFlightsQuery[] = "?- cheaporshort(msn, sea, Time, Cost).";

/// A flights primary with a WAL; the follower variant starts on an EMPTY
/// EDB — everything it knows must arrive by replication.
std::unique_ptr<QueryService> DurableFlights(const std::string& wal_dir,
                                             bool empty_edb = false) {
  ServiceOptions options;
  options.wal_dir = wal_dir;
  auto service = QueryService::FromText(
      ReadFile(ProgramPath("flights.cql")),
      empty_edb ? "" : ReadFile(ProgramPath("flights_edb.cql")), options);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(*service);
}

/// Steps until a fetch comes back level (0 records), tolerating retryable
/// injected faults exactly like the Replicator's own backoff loop.
Status CatchUp(Replicator& replicator, int max_steps = 64) {
  for (int i = 0; i < max_steps; ++i) {
    Result<int> stepped = replicator.Step();
    if (!stepped.ok()) {
      if (stepped.status().code() == StatusCode::kDataLoss) {
        return stepped.status();
      }
      continue;
    }
    if (*stepped == 0) return Status::OK();
  }
  return Status::DeadlineExceeded("no catch-up in max_steps");
}

TEST(ReplicatorTest, FollowerBootstrapsAndTailsThePrimary) {
  failpoint::DisarmAll();
  TempWalDir p_dir, f_dir;
  ASSERT_FALSE(p_dir.path.empty());
  ASSERT_FALSE(f_dir.path.empty());
  auto primary = DurableFlights(p_dir.path);
  ASSERT_TRUE(primary->Ingest("singleleg(msn, sea, 150, 80).\n").ok());

  auto follower = DurableFlights(f_dir.path, /*empty_edb=*/true);
  Replicator replicator(
      follower.get(), std::make_unique<LocalReplicationSource>(primary.get()));
  replicator.AttachHooks();
  EXPECT_EQ(follower->role(), NodeRole::kFollower);

  // Bootstrap: the mismatched coordinates (-1) renegotiate a full snapshot,
  // which lands the follower level with the cut in one step.
  ASSERT_TRUE(CatchUp(replicator).ok());
  EXPECT_EQ(replicator.Progress().snapshots_installed, 1);
  EXPECT_EQ(follower->RenderStateText(), primary->RenderStateText());

  // Live tail: every record kind ships as exact WAL payload bytes.
  ASSERT_TRUE(primary->Ingest("singleleg(sea, msn, 210, 140).\n").ok());
  ASSERT_TRUE(primary->Ingest("singleleg(den, jfk, 240, 160).\n", 100).ok());
  ASSERT_TRUE(primary->AdvanceClock(150).ok());  // expires the TTL batch
  ASSERT_TRUE(primary->Retract("singleleg(sea, msn, 210, 140).\n").ok());
  ASSERT_TRUE(CatchUp(replicator).ok());
  EXPECT_EQ(follower->RenderStateText(), primary->RenderStateText());
  ReplicatorProgress progress = replicator.Progress();
  EXPECT_EQ(progress.lag_records, 0);
  EXPECT_EQ(progress.records_applied, 4);
  EXPECT_GT(progress.divergence_checks, 0);
  EXPECT_FALSE(progress.quarantined);

  // The health augmenter reports replication through the follower's HEALTH.
  HealthInfo health = follower->Health();
  EXPECT_EQ(health.role, NodeRole::kFollower);
  EXPECT_EQ(health.lag_records, 0);
  EXPECT_EQ(health.primary_epoch, primary->epoch());
  EXPECT_FALSE(health.quarantined);
}

TEST(ReplicatorTest, AsOfReadsGateOnTheFollowerEpoch) {
  failpoint::DisarmAll();
  TempWalDir p_dir, f_dir;
  auto primary = DurableFlights(p_dir.path);
  auto follower = DurableFlights(f_dir.path, /*empty_edb=*/true);
  Replicator replicator(
      follower.get(), std::make_unique<LocalReplicationSource>(primary.get()));
  replicator.AttachHooks();
  ASSERT_TRUE(primary->Ingest("singleleg(msn, sea, 150, 80).\n").ok());
  ASSERT_TRUE(CatchUp(replicator).ok());

  auto at_head = follower->Execute(kFlightsQuery, "", primary->epoch());
  EXPECT_TRUE(at_head.ok()) << at_head.status().ToString();
  auto ahead = follower->Execute(kFlightsQuery, "", primary->epoch() + 1);
  ASSERT_FALSE(ahead.ok());
  EXPECT_EQ(ahead.status().code(), StatusCode::kUnavailable);
}

TEST(ReplicatorTest, DroppedFetchesAndTornRecordsAreRetryable) {
  failpoint::DisarmAll();
  TempWalDir p_dir, f_dir;
  auto primary = DurableFlights(p_dir.path);
  auto follower = DurableFlights(f_dir.path, /*empty_edb=*/true);
  Replicator replicator(
      follower.get(), std::make_unique<LocalReplicationSource>(primary.get()));
  replicator.AttachHooks();
  ASSERT_TRUE(CatchUp(replicator).ok());
  ASSERT_TRUE(primary->Ingest("singleleg(msn, sea, 150, 80).\n").ok());

  // A dropped fetch is typed UNAVAILABLE and leaves the coordinates alone.
  failpoint::Arm(failpoint::kReplicaFetch, /*skip=*/0, /*times=*/1);
  Result<int> dropped = replicator.Step();
  ASSERT_FALSE(dropped.ok());
  EXPECT_EQ(dropped.status().code(), StatusCode::kUnavailable);

  // A torn record rejects the whole batch the same way; the refetch then
  // applies it cleanly. Nothing is partially surfaced.
  failpoint::Arm(failpoint::kReplicaTornRecord, /*skip=*/0, /*times=*/1);
  Result<int> torn = replicator.Step();
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kUnavailable);
  failpoint::DisarmAll();

  ASSERT_TRUE(CatchUp(replicator).ok());
  EXPECT_EQ(follower->RenderStateText(), primary->RenderStateText());
  ReplicatorProgress progress = replicator.Progress();
  EXPECT_EQ(progress.fetch_failures, 2);
  EXPECT_FALSE(progress.quarantined);
}

TEST(ReplicatorTest, CompactionRenegotiatesTheSnapshot) {
  failpoint::DisarmAll();
  TempWalDir p_dir, f_dir;
  auto primary = DurableFlights(p_dir.path);
  auto follower = DurableFlights(f_dir.path, /*empty_edb=*/true);
  Replicator replicator(
      follower.get(), std::make_unique<LocalReplicationSource>(primary.get()));
  replicator.AttachHooks();
  ASSERT_TRUE(primary->Ingest("singleleg(msn, sea, 150, 80).\n").ok());
  ASSERT_TRUE(CatchUp(replicator).ok());
  ASSERT_EQ(replicator.Progress().snapshots_installed, 1);

  // Compaction starts a new feed generation: the follower's coordinates go
  // stale and the next fetch must renegotiate a snapshot, then tail the
  // records committed after it.
  ASSERT_TRUE(primary->Compact().ok());
  ASSERT_TRUE(primary->Ingest("singleleg(sea, msn, 210, 140).\n").ok());
  ASSERT_TRUE(CatchUp(replicator).ok());
  EXPECT_EQ(replicator.Progress().snapshots_installed, 2);
  EXPECT_EQ(follower->RenderStateText(), primary->RenderStateText());
}

TEST(ReplicatorTest, CrashedFollowerRecoversFromItsOwnWal) {
  failpoint::DisarmAll();
  TempWalDir p_dir, f_dir;
  auto primary = DurableFlights(p_dir.path);
  auto follower = DurableFlights(f_dir.path, /*empty_edb=*/true);
  auto replicator = std::make_unique<Replicator>(
      follower.get(), std::make_unique<LocalReplicationSource>(primary.get()));
  replicator->AttachHooks();
  ASSERT_TRUE(CatchUp(*replicator).ok());

  // Three pending records; the injected crash fires after the first one of
  // the batch commits — which by then is durable in the FOLLOWER's WAL.
  ASSERT_TRUE(primary->Ingest("singleleg(msn, sea, 150, 80).\n").ok());
  ASSERT_TRUE(primary->Ingest("singleleg(sea, msn, 210, 140).\n").ok());
  ASSERT_TRUE(primary->Ingest("singleleg(den, jfk, 240, 160).\n").ok());
  failpoint::Arm(failpoint::kReplicaCrashMidApply, /*skip=*/0, /*times=*/1);
  Result<int> crashed = replicator->Step();
  failpoint::DisarmAll();
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.status().code(), StatusCode::kInternal);

  // "Crash": drop the replicator and the service; only f_dir survives.
  ASSERT_GT(replicator->Progress().records_applied, 0);
  int64_t epoch_at_crash = follower->epoch();
  replicator.reset();
  follower.reset();

  follower = DurableFlights(f_dir.path, /*empty_edb=*/true);
  ASSERT_TRUE(follower->Recover().ok());
  // Everything applied before the crash recovered without the primary.
  EXPECT_EQ(follower->epoch(), epoch_at_crash);

  replicator = std::make_unique<Replicator>(
      follower.get(), std::make_unique<LocalReplicationSource>(primary.get()));
  replicator->AttachHooks();
  ASSERT_TRUE(CatchUp(*replicator).ok());
  EXPECT_EQ(follower->RenderStateText(), primary->RenderStateText());
}

TEST(ReplicatorTest, DivergenceQuarantinesTheFollower) {
  failpoint::DisarmAll();
  TempWalDir p_dir, f_dir;
  auto primary = DurableFlights(p_dir.path);
  auto follower = DurableFlights(f_dir.path, /*empty_edb=*/true);
  Replicator replicator(
      follower.get(), std::make_unique<LocalReplicationSource>(primary.get()));
  replicator.AttachHooks();
  ASSERT_TRUE(primary->Ingest("singleleg(msn, sea, 150, 80).\n").ok());
  ASSERT_TRUE(CatchUp(replicator).ok());

  // Tamper: a local clock tick the primary never saw. Epochs still match,
  // so only the state CRC at the cut can catch it.
  ASSERT_TRUE(follower->AdvanceClock(1).ok());
  Result<int> diverged = replicator.Step();
  ASSERT_FALSE(diverged.ok());
  EXPECT_EQ(diverged.status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(follower->quarantined());
  EXPECT_TRUE(replicator.Progress().quarantined);

  // Quarantine is load-bearing: reads refuse with typed DATA_LOSS,
  // promotion refuses, and the pull loop stays dead.
  auto read = follower->Execute(kFlightsQuery, "");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
  Status promote = follower->Promote("");
  ASSERT_FALSE(promote.ok());
  EXPECT_EQ(promote.code(), StatusCode::kFailedPrecondition);
  Result<int> pull = replicator.Step();
  ASSERT_FALSE(pull.ok());
  EXPECT_EQ(pull.status().code(), StatusCode::kDataLoss);

  // HEALTH carries the quarantine so operators see it without a log dive.
  HealthInfo health = follower->Health();
  EXPECT_TRUE(health.quarantined);
  EXPECT_FALSE(health.quarantine_reason.empty());
}

TEST(ReplicatorTest, PromoteDrainsTheDeadPrimarysWal) {
  failpoint::DisarmAll();
  TempWalDir p_dir, f_dir;
  auto primary = DurableFlights(p_dir.path);
  auto follower = DurableFlights(f_dir.path, /*empty_edb=*/true);
  Replicator replicator(
      follower.get(), std::make_unique<LocalReplicationSource>(primary.get()));
  replicator.AttachHooks();

  // History with an expired TTL batch: a naive promote that re-applied the
  // whole dead WAL would resurrect it with a fresh deadline computed from
  // the current clock — byte-identity below is the regression gate.
  ASSERT_TRUE(primary->Ingest("singleleg(msn, sea, 150, 80).\n").ok());
  ASSERT_TRUE(primary->Ingest("singleleg(den, jfk, 240, 160).\n", 100).ok());
  ASSERT_TRUE(primary->AdvanceClock(150).ok());
  ASSERT_TRUE(CatchUp(replicator).ok());

  // One more acknowledged write the follower never pulls, then the crash.
  // (A new destination, not a return leg: a singleleg cycle would make the
  // recursive flights program derive unboundedly growing itineraries.)
  ASSERT_TRUE(primary->Ingest("singleleg(sea, pdx, 210, 140).\n").ok());
  std::string dead_state = primary->RenderStateText();
  int64_t dead_epoch = primary->epoch();
  primary.reset();

  // PROMOTE through the service runs the replicator's handler first; its
  // drain replays exactly the unconsumed suffix of the dead WAL.
  ASSERT_TRUE(follower->Promote(p_dir.path).ok());
  EXPECT_EQ(follower->role(), NodeRole::kPrimary);
  EXPECT_EQ(follower->epoch(), dead_epoch);
  EXPECT_EQ(follower->RenderStateText(), dead_state);

  // Promotion of a primary is an idempotent no-op, and the promoted node
  // serves and accepts writes.
  EXPECT_TRUE(follower->Promote("").ok());
  EXPECT_TRUE(follower->Execute(kFlightsQuery, "").ok());
  EXPECT_TRUE(follower->Ingest("singleleg(jfk, den, 250, 170).\n").ok());
}

// The replication gate (DESIGN.md §15) on the generated flights workload: a
// WAL-backed primary with ten batches of history, an empty follower that
// bootstraps from a snapshot and then tails a ten-batch write burst in
// two-record fetches (stepping once per three commits, so real lag builds
// up), answers compared at the same epoch, and a failover write the
// follower never pulled that PROMOTE must recover from the dead WAL.
TEST(ReplicatorTest, GeneratedFlightsFollowerMatchesAndSurvivesFailover) {
  failpoint::DisarmAll();
  TempWalDir p_dir, f_dir;
  ASSERT_FALSE(p_dir.path.empty());
  ASSERT_FALSE(f_dir.path.empty());
  ServiceOptions p_opts;
  p_opts.wal_dir = p_dir.path;
  auto primary = GeneratedFlightsService(p_opts);
  constexpr int kHistoryBatches = 10;
  for (int i = 0; i < kHistoryBatches; ++i) {
    ASSERT_TRUE(primary->Ingest(GeneratedLegBatch(i)).ok());
  }

  ServiceOptions f_opts;
  f_opts.wal_dir = f_dir.path;
  auto follower = GeneratedFlightsService(f_opts, /*empty_edb=*/true);
  ReplicatorOptions rep_opts;
  rep_opts.max_records = 2;
  Replicator replicator(
      follower.get(), std::make_unique<LocalReplicationSource>(primary.get()),
      rep_opts);
  replicator.AttachHooks();
  auto drain = [&replicator] {
    for (;;) {
      Result<int> stepped = replicator.Step();
      EXPECT_TRUE(stepped.ok()) << stepped.status().ToString();
      if (!stepped.ok() || *stepped == 0) return;
    }
  };

  drain();  // bootstrap: renegotiates a snapshot cut at the primary's head
  constexpr int kBurstBatches = 10;
  for (int i = 0; i < kBurstBatches; ++i) {
    ASSERT_TRUE(
        primary->Ingest(GeneratedLegBatch(kHistoryBatches + i)).ok());
    if (i % 3 == 2) {
      ASSERT_TRUE(replicator.Step().ok());
    }
  }
  drain();
  ReplicatorProgress progress = replicator.Progress();
  EXPECT_GE(progress.records_applied, 1);
  EXPECT_GE(progress.snapshots_installed, 1);

  auto p_answers =
      primary->Execute(kGeneratedFlightsQuery, kGeneratedFlightsSteps);
  auto f_answers =
      follower->Execute(kGeneratedFlightsQuery, kGeneratedFlightsSteps);
  ASSERT_TRUE(p_answers.ok()) << p_answers.status().ToString();
  ASSERT_TRUE(f_answers.ok()) << f_answers.status().ToString();
  EXPECT_EQ(follower->epoch(), primary->epoch());
  EXPECT_EQ(f_answers->answers, p_answers->answers);

  const std::string failover_write =
      GeneratedLegBatch(kHistoryBatches + kBurstBatches);
  ASSERT_TRUE(primary->Ingest(failover_write).ok());
  std::string dead_state = primary->RenderStateText();
  primary.reset();
  ASSERT_TRUE(follower->Promote(p_dir.path).ok());
  EXPECT_EQ(follower->RenderStateText(), dead_state);
  // A healthy link never trips the divergence detector.
  EXPECT_FALSE(replicator.Progress().quarantined);
}

TEST(ReplicatorTest, PromoteWithoutADeadWalJustFlipsTheRole) {
  failpoint::DisarmAll();
  TempWalDir p_dir, f_dir;
  auto primary = DurableFlights(p_dir.path);
  auto follower = DurableFlights(f_dir.path, /*empty_edb=*/true);
  Replicator replicator(
      follower.get(), std::make_unique<LocalReplicationSource>(primary.get()));
  replicator.AttachHooks();
  ASSERT_TRUE(CatchUp(replicator).ok());
  std::string before = follower->RenderStateText();
  ASSERT_TRUE(follower->Promote("").ok());
  EXPECT_EQ(follower->role(), NodeRole::kPrimary);
  EXPECT_EQ(follower->RenderStateText(), before);
}

// ---------------------------------------------------------------------------
// The wire path: REPLICATE over a real socket through RemoteReplicationSource.

TEST(RemoteReplicationTest, ShipsSnapshotAndRecordsOverTheWire) {
  failpoint::DisarmAll();
  TempWalDir p_dir, f_dir;
  auto primary = DurableFlights(p_dir.path);
  ASSERT_TRUE(primary->Ingest("singleleg(msn, sea, 150, 80).\n").ok());

  ServerOptions options;
  options.socket_path = p_dir.path + "/cqld.sock";
  std::promise<ServerEndpoints> promise;
  std::future<ServerEndpoints> future = promise.get_future();
  options.on_ready = [&promise](const ServerEndpoints& endpoints) {
    promise.set_value(endpoints);
  };
  Status serve_status = Status::OK();
  std::thread server([&] { serve_status = ServeLoop(*primary, options); });
  ASSERT_EQ(future.wait_for(std::chrono::seconds(20)),
            std::future_status::ready);
  const std::string socket_path = future.get().socket_path;

  auto follower = DurableFlights(f_dir.path, /*empty_edb=*/true);
  auto source = std::make_unique<RemoteReplicationSource>(
      nullptr,
      [socket_path]() { return LineClient::ConnectUnix(socket_path, 2000); },
      /*io_timeout_ms=*/5000);
  Replicator replicator(follower.get(), std::move(source));
  replicator.AttachHooks();

  // Bootstrap (snapshot header + D/S lines) then a live tail (R lines),
  // every record CRC-verified client-side before it is applied.
  ASSERT_TRUE(CatchUp(replicator).ok());
  EXPECT_EQ(replicator.Progress().snapshots_installed, 1);
  EXPECT_EQ(follower->RenderStateText(), primary->RenderStateText());

  ASSERT_TRUE(primary->Ingest("singleleg(den, jfk, 240, 160).\n", 100).ok());
  ASSERT_TRUE(primary->AdvanceClock(150).ok());
  ASSERT_TRUE(CatchUp(replicator).ok());
  EXPECT_EQ(follower->RenderStateText(), primary->RenderStateText());

  auto shutdown = LineClient::ConnectUnix(socket_path, 2000);
  ASSERT_TRUE(shutdown.ok()) << shutdown.status().ToString();
  LineClient::Response bye;
  EXPECT_TRUE((*shutdown)->Exchange("SHUTDOWN", 5000, &bye).ok());
  server.join();
  EXPECT_TRUE(serve_status.ok()) << serve_status.ToString();
}

// ---------------------------------------------------------------------------
// REPLICATE reply frames. Record frames and snapshot images are checked by
// the WAL's own decoders; any damage is a typed, retryable UNAVAILABLE,
// never a silently installed, clamped or truncated value.

/// Fetches once through RemoteReplicationSource from a scripted primary
/// that answers the REPLICATE request with `frame` (its lines; `END` is
/// appended).
Status FetchFrame(const std::vector<std::string>& frame,
                  ReplicationBatch* batch) {
  TempWalDir dir;
  EXPECT_FALSE(dir.path.empty());
  const std::string path = dir.path + "/cqld.sock";
  int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  EXPECT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  EXPECT_EQ(::listen(listener, 1), 0);
  std::thread primary([listener, &frame] {
    int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) return;
    char c = 0;
    while (::read(conn, &c, 1) == 1 && c != '\n') {
    }
    std::string text;
    for (const std::string& line : frame) text += line + "\n";
    text += "END\n";
    EXPECT_EQ(::write(conn, text.data(), text.size()),
              static_cast<ssize_t>(text.size()));
    ::close(conn);
  });
  RemoteReplicationSource source(
      nullptr, [path]() { return LineClient::ConnectUnix(path, 2000); },
      /*io_timeout_ms=*/5000);
  Status fetched = source.Fetch(/*base_epoch=*/0, /*index=*/0,
                                /*max_records=*/16, batch);
  primary.join();
  ::close(listener);
  return fetched;
}

/// A renegotiation cut with one TTL deadline and the given state CRC.
ReplicationBatch SnapshotBatch(uint32_t state_crc = 0xabcd) {
  ReplicationBatch batch;
  batch.snapshot = true;
  batch.next_index = 3;
  batch.feed_size = 3;
  batch.primary_epoch = 7;
  batch.primary_clock_ms = 50;
  batch.state_crc = state_crc;
  batch.snap = {7, 50, {{100, "a(1)."}}, "a(1).\nb(2).\n"};
  return batch;
}

std::vector<std::string> Render(const ReplicationBatch& batch) {
  std::vector<std::string> lines;
  RenderReplicationReply(batch, &lines);
  return lines;
}

/// The bytes an `R`/`S` line carries, and the line carrying `bytes`.
std::string LineBytes(const std::string& line) {
  std::string bytes;
  EXPECT_TRUE(HexDecode(line.substr(2), &bytes)) << line;
  return bytes;
}
std::string BytesLine(char tag, const std::string& bytes) {
  return std::string(1, tag) + " " + HexEncode(bytes);
}

void ExpectUnavailable(const Status& status, const std::string& what) {
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
  EXPECT_NE(status.message().find(what), std::string::npos)
      << status.ToString();
}

TEST(ReplicationFrameTest, ReplyRoundTripsWithoutASocket) {
  ReplicationBatch records;
  records.base_epoch = 4;
  records.next_index = 7;
  records.feed_size = 9;
  records.primary_epoch = 12;
  records.primary_clock_ms = 250;
  records.state_crc = 0xdeadbeef;
  records.records = {"a(1).\n", std::string("\x02" "b(2).\n"), ""};
  std::vector<std::string> lines = Render(records);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0],
            "OK base=4 next=7 feed=9 epoch=12 clock_ms=250 crc=deadbeef");
  // Each R line is the hex of the record's WAL frame, byte for byte.
  EXPECT_EQ(lines[1], BytesLine('R', EncodeWalFrame("a(1).\n")));
  ReplicationBatch parsed;
  Status ok = ParseReplicationReply(lines, /*index=*/4, &parsed);
  ASSERT_TRUE(ok.ok()) << ok.ToString();
  EXPECT_FALSE(parsed.snapshot);
  EXPECT_EQ(parsed.base_epoch, 4);
  EXPECT_EQ(parsed.next_index, 7u);
  EXPECT_EQ(parsed.feed_size, 9u);
  EXPECT_EQ(parsed.primary_epoch, 12);
  EXPECT_EQ(parsed.primary_clock_ms, 250);
  EXPECT_EQ(parsed.state_crc, 0xdeadbeefu);
  EXPECT_EQ(parsed.records, records.records);

  const ReplicationBatch cut = SnapshotBatch();
  lines = Render(cut);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[1], BytesLine('S', EncodeSnapshotImage(cut.snap)));
  ok = ParseReplicationReply(lines, /*index=*/0, &parsed);
  ASSERT_TRUE(ok.ok()) << ok.ToString();
  EXPECT_TRUE(parsed.snapshot);
  EXPECT_TRUE(parsed.records.empty());
  EXPECT_EQ(parsed.next_index, 3u);
  EXPECT_EQ(parsed.snap.epoch, cut.snap.epoch);
  EXPECT_EQ(parsed.snap.now_ms, cut.snap.now_ms);
  EXPECT_EQ(parsed.snap.deadlines, cut.snap.deadlines);
  EXPECT_EQ(parsed.snap.statements, cut.snap.statements);
}

TEST(ReplicationFrameTest, WellFormedSnapshotFrameParses) {
  ReplicationBatch batch;
  Status fetched = FetchFrame(Render(SnapshotBatch()), &batch);
  ASSERT_TRUE(fetched.ok()) << fetched.ToString();
  EXPECT_TRUE(batch.snapshot);
  EXPECT_EQ(batch.snap.epoch, 7);
  ASSERT_EQ(batch.snap.deadlines.size(), 1u);
  EXPECT_EQ(batch.snap.deadlines[0].first, 100);
  EXPECT_EQ(batch.snap.deadlines[0].second, "a(1).");
  EXPECT_EQ(batch.state_crc, 0xabcdu);
}

TEST(ReplicationFrameTest, StateCrcOutsideEightHexDigitsIsUnavailable) {
  // Read leniently, -1 wrapped to ffffffff and 1ffffffff was truncated to
  // it: a CRC the follower cannot match, which quarantined it as diverged.
  for (const char* crc : {"-1", "1ffffffff", "", "0x1234"}) {
    SCOPED_TRACE(crc);
    std::vector<std::string> lines = Render(SnapshotBatch());
    const size_t at = lines[0].find("crc=0000abcd");
    ASSERT_NE(at, std::string::npos) << lines[0];
    lines[0].replace(at, 12, std::string("crc=") + crc);
    ReplicationBatch batch;
    ExpectUnavailable(FetchFrame(lines, &batch), "malformed REPLICATE header");
  }
}

TEST(ReplicationFrameTest, TornRecordFrameIsUnavailable) {
  ReplicationBatch one;
  one.next_index = 1;
  one.feed_size = 1;
  one.records = {"a(1)."};
  const std::vector<std::string> good = Render(one);
  ReplicationBatch batch;
  ASSERT_TRUE(FetchFrame(good, &batch).ok());
  ASSERT_EQ(batch.records, one.records);

  // The frame lost its last byte: the length check catches it.
  std::string frame = LineBytes(good[1]);
  ExpectUnavailable(
      FetchFrame({good[0], BytesLine('R', frame.substr(0, frame.size() - 1))},
                 &batch),
      "torn record payload");
  // A byte past the frame is not silently ignored.
  ExpectUnavailable(FetchFrame({good[0], BytesLine('R', frame + "x")}, &batch),
                    "after the frame");
  // A flipped payload byte fails the frame's CRC.
  frame.back() ^= 0x01;
  ExpectUnavailable(FetchFrame({good[0], BytesLine('R', frame)}, &batch),
                    "checksum mismatch");
  // A lost line: the header's next says one record, none arrived.
  ExpectUnavailable(FetchFrame({good[0]}, &batch), "record count mismatch");
}

/// A primary with one TTL fact pending, and its bootstrap reply: a
/// snapshot image with one deadline entry.
std::vector<std::string> TtlBootstrapReply(QueryService& primary) {
  EXPECT_TRUE(primary.Ingest("singleleg(den, jfk, 240, 160).\n", 100).ok());
  ReplicationBatch cut;
  EXPECT_TRUE(primary.FetchReplication(-1, 0, 64, &cut).ok());
  EXPECT_TRUE(cut.snapshot);
  EXPECT_EQ(cut.snap.deadlines.size(), 1u);
  return Render(cut);
}

/// `reply` with its snapshot image's deadline entry cut out (count kept),
/// or with one flipped byte inside that entry.
std::vector<std::string> DamageImage(std::vector<std::string> reply,
                                     bool drop_deadline) {
  std::string image = LineBytes(reply[1]);
  // magic(8) + frame header(8) + epoch(8) + clock(8) + count(4).
  constexpr size_t kEntry = 36;
  size_t stmt_len = 0;  // the entry's little-endian u32 statement length
  for (int i = 3; i >= 0; --i) {
    stmt_len = stmt_len << 8 |
               static_cast<unsigned char>(image[kEntry + 8 + i]);
  }
  if (drop_deadline) {
    image.erase(kEntry, 12 + stmt_len);
  } else {
    image[kEntry + 12 + stmt_len / 2] ^= 0x01;
  }
  reply[1] = BytesLine('S', image);
  return reply;
}

TEST(ReplicationFrameTest, DamagedSnapshotImageIsUnavailable) {
  // A snapshot that lost a deadline entry, or carries a flipped byte that
  // still decodes, used to install and then fail the state-CRC check — a
  // permanent quarantine from a transient wire fault.
  TempWalDir p_dir;
  auto primary = DurableFlights(p_dir.path);
  const std::vector<std::string> reply = TtlBootstrapReply(*primary);
  ReplicationBatch batch;
  ASSERT_TRUE(FetchFrame(reply, &batch).ok());
  ExpectUnavailable(FetchFrame(DamageImage(reply, true), &batch),
                    "damaged snapshot image");
  ExpectUnavailable(FetchFrame(DamageImage(reply, false), &batch),
                    "checksum mismatch");
}

/// Serves scripted REPLICATE replies in order, parsed as a remote follower
/// parses them.
class ScriptedSource : public ReplicationSource {
 public:
  explicit ScriptedSource(std::vector<std::vector<std::string>> replies)
      : replies_(std::move(replies)) {}
  Status Fetch(int64_t, uint64_t index, size_t,
               ReplicationBatch* out) override {
    if (next_ == replies_.size()) return Status::Unavailable("no reply left");
    return ParseReplicationReply(replies_[next_++], index, out);
  }

 private:
  std::vector<std::vector<std::string>> replies_;
  size_t next_ = 0;
};

TEST(ReplicatorTest, DamagedSnapshotFrameIsRefetchedNotQuarantined) {
  failpoint::DisarmAll();
  TempWalDir p_dir, f_dir;
  auto primary = DurableFlights(p_dir.path);
  const std::vector<std::string> reply = TtlBootstrapReply(*primary);
  for (bool drop_deadline : {true, false}) {
    SCOPED_TRACE(drop_deadline ? "lost deadline" : "flipped byte");
    TempWalDir dir;
    auto follower = DurableFlights(dir.path, /*empty_edb=*/true);
    Replicator replicator(
        follower.get(),
        std::make_unique<ScriptedSource>(std::vector<std::vector<std::string>>{
            DamageImage(reply, drop_deadline), reply}));
    replicator.AttachHooks();
    Result<int> damaged = replicator.Step();
    ASSERT_FALSE(damaged.ok());
    EXPECT_EQ(damaged.status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(replicator.Progress().snapshots_installed, 0);

    Result<int> good = replicator.Step();
    ASSERT_TRUE(good.ok()) << good.status().ToString();
    ReplicatorProgress progress = replicator.Progress();
    EXPECT_EQ(progress.snapshots_installed, 1);
    EXPECT_EQ(progress.divergence_checks, 1);
    EXPECT_FALSE(progress.quarantined);
    EXPECT_FALSE(follower->quarantined());
    EXPECT_EQ(follower->RenderStateText(), primary->RenderStateText());
  }
}

// ---------------------------------------------------------------------------
// LineClient deadlines: timeouts are typed client-side errors.

TEST(LineClientTest, ConnectToAMissingSocketIsUnavailable) {
  auto conn = LineClient::ConnectUnix("/nonexistent/cqld.sock", 500);
  ASSERT_FALSE(conn.ok());
  EXPECT_EQ(conn.status().code(), StatusCode::kUnavailable);
}

TEST(LineClientTest, SilentServerTimesOutWithDeadlineExceeded) {
  TempWalDir scratch;
  ASSERT_FALSE(scratch.path.empty());
  const std::string path = scratch.path + "/cqld.sock";
  // A listener that accepts but never answers: the read deadline, not the
  // transport, must end the exchange — typed DEADLINE_EXCEEDED, distinct
  // from both a server ERR response and a lost connection.
  int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);

  auto conn = LineClient::ConnectUnix(path, 1000);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  LineClient::Response response;
  Status timed_out = (*conn)->Exchange("STATS", 200, &response);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.code(), StatusCode::kDeadlineExceeded);
  ::close(listener);
}

TEST(LineClientTest, WriteToADeadPeerIsUnavailableNotSigpipe) {
  // A follower's pull connection outlives a killed primary. The next
  // REPLICATE write must fail typed; a SIGPIPE would kill the follower
  // before PROMOTE could reach it.
  TempWalDir scratch;
  ASSERT_FALSE(scratch.path.empty());
  const std::string path = scratch.path + "/cqld.sock";
  int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  auto conn = LineClient::ConnectUnix(path, 1000);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  ::close(::accept(listener, nullptr, nullptr));
  ::close(listener);

  LineClient::Response response;
  Status dead = (*conn)->Exchange("REPLICATE 0 0", 1000, &response);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.code(), StatusCode::kUnavailable) << dead.ToString();
}

}  // namespace
}  // namespace cqlopt
