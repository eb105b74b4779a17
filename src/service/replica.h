#ifndef CQLOPT_SERVICE_REPLICA_H_
#define CQLOPT_SERVICE_REPLICA_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "service/client.h"
#include "service/query_service.h"
#include "util/status.h"

namespace cqlopt {

/// Where a follower pulls its replication cuts from (DESIGN.md §15). The
/// two implementations see identical semantics — a batch of exact WAL
/// payload bytes plus the primary's state CRC at the cut — so the chaos
/// harness can drive the whole catch-up/divergence/failover state machine
/// in-process while cqld ships the same batches over TCP.
class ReplicationSource {
 public:
  virtual ~ReplicationSource() = default;

  /// Fills `out` with the cut at (base_epoch, index); see
  /// QueryService::FetchReplication for the coordinate contract. A torn or
  /// undeliverable batch is UNAVAILABLE — the puller backs off and refetches;
  /// nothing is ever partially surfaced.
  virtual Status Fetch(int64_t base_epoch, uint64_t index, size_t max_records,
                       ReplicationBatch* out) = 0;
};

/// In-process source: pulls straight from a primary QueryService and
/// round-trips every batch through the REPLICATE reply's render/parse pair
/// (protocol.h), so it decodes the same bytes RemoteReplicationSource does.
/// This is the deterministic path the replica_vs_primary property drives —
/// the "replica/torn-record" failpoint flips a byte of the rendered reply,
/// which the WAL decoders reject as UNAVAILABLE, and the puller refetches.
class LocalReplicationSource : public ReplicationSource {
 public:
  explicit LocalReplicationSource(QueryService* primary) : primary_(primary) {}
  Status Fetch(int64_t base_epoch, uint64_t index, size_t max_records,
               ReplicationBatch* out) override;

 private:
  QueryService* primary_;
};

/// Remote source: drives `REPLICATE` over a LineClient and decodes the reply
/// with ParseReplicationReply (protocol.h) — a record frame or snapshot
/// image that fails the WAL's length or CRC checks rejects the whole batch
/// as UNAVAILABLE so the puller refetches. Connection loss and timeouts
/// surface the same way; the Replicator's backoff owns retry.
class RemoteReplicationSource : public ReplicationSource {
 public:
  /// `client` may be null; the source (re)connects lazily via `reconnect`.
  RemoteReplicationSource(
      std::unique_ptr<LineClient> client,
      std::function<Result<std::unique_ptr<LineClient>>()> reconnect,
      int io_timeout_ms);

  Status Fetch(int64_t base_epoch, uint64_t index, size_t max_records,
               ReplicationBatch* out) override;

 private:
  std::unique_ptr<LineClient> client_;
  std::function<Result<std::unique_ptr<LineClient>>()> reconnect_;
  int io_timeout_ms_;
};

/// How a Replicator paces itself. All timings collapse to 0 in tests that
/// drive Step() directly.
struct ReplicatorOptions {
  size_t max_records = 64;        // per-fetch batch bound
  int idle_poll_ms = 50;          // sleep when fully caught up
  int backoff_initial_ms = 50;    // first retry after a failed fetch/apply
  int backoff_max_ms = 2000;      // exponential backoff ceiling
  uint64_t jitter_seed = 0x9e3779b97f4a7c15ull;  // deterministic jitter PRNG
};

/// A Replicator's observable progress, snapshotted under its lock.
struct ReplicatorProgress {
  int64_t base_epoch = -1;   // generation currently being consumed
  uint64_t next_index = 0;   // next feed record to pull
  int64_t primary_epoch = -1;  // primary head at the last good fetch
  long lag_records = -1;     // primary feed_size - next_index (-1: no fetch yet)
  long fetches = 0;
  long fetch_failures = 0;
  long records_applied = 0;
  long snapshots_installed = 0;
  long divergence_checks = 0;  // CRC comparisons actually performed
  bool quarantined = false;
  std::string quarantine_reason;
};

/// Pulls a primary's replication feed into a follower QueryService:
/// bootstrap via snapshot, tail via exact WAL records, per-cut state-CRC
/// divergence checks, and operator failover (DESIGN.md §15).
///
/// Single consumer: Step() — one fetch + apply round — is driven either
/// directly (deterministic tests) or by the background thread Start()
/// spawns, which retries failures under jittered exponential backoff.
/// Divergence quarantines the follower permanently (no further pulls, reads
/// refused with DATA_LOSS); crashes injected at the apply failpoints leave
/// ordinary retryable errors, because every applied record is already in
/// the follower's own WAL.
class Replicator {
 public:
  Replicator(QueryService* follower, std::unique_ptr<ReplicationSource> source,
             ReplicatorOptions options = ReplicatorOptions());
  ~Replicator();

  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  /// Marks `follower` a follower and registers this replicator as its
  /// HEALTH augmenter and PROMOTE handler. Call once before serving.
  void AttachHooks();

  /// One fetch + apply round. Returns the number of records applied (0 =
  /// caught up; a snapshot install counts as 0 records but does work).
  /// Fetch failures and injected crashes return their error; divergence
  /// returns DATA_LOSS after quarantining the follower.
  Result<int> Step();

  /// Spawns the pull loop. Idempotent.
  void Start();

  /// Stops the pull loop and joins it. Idempotent; called by ~Replicator.
  void Stop();

  /// Fails the follower over to primary: stops pulling, then — when
  /// `dead_primary_wal_dir` is non-empty — drains the dead primary's
  /// surviving WAL through ApplyReplicated so every acknowledged write
  /// survives. The feed coordinates pick out the exact unconsumed suffix
  /// (the log's records are its final feed generation), and a generation
  /// mismatch rebases onto the dead primary's snapshot first, so the
  /// promoted state is byte-identical to the dead primary's final durable
  /// state — epoch, clock, and TTL deadlines included. The caller
  /// (QueryService::Promote) flips the role on success.
  Status Promote(const std::string& dead_primary_wal_dir);

  ReplicatorProgress Progress() const;

 private:
  void RunLoop();

  QueryService* follower_;
  std::unique_ptr<ReplicationSource> source_;
  ReplicatorOptions options_;

  mutable std::mutex mutex_;          // guards progress_
  ReplicatorProgress progress_;

  std::atomic<bool> stop_{false};
  std::thread thread_;
  std::mutex thread_mutex_;           // guards Start/Stop races on thread_
};

}  // namespace cqlopt

#endif  // CQLOPT_SERVICE_REPLICA_H_
