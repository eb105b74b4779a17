#ifndef CQLOPT_SERVICE_QUERY_SERVICE_H_
#define CQLOPT_SERVICE_QUERY_SERVICE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/equivalence.h"
#include "eval/loader.h"
#include "eval/seminaive.h"
#include "service/prepared.h"
#include "service/wal.h"
#include "transform/pipeline.h"

namespace cqlopt {

/// Configuration of a QueryService.
struct ServiceOptions {
  /// Evaluation defaults for every served query. `strategy` is forced to
  /// kStratified for cold evaluations (the serving engine); resumes use
  /// the delta loop regardless (seminaive.h ResumeEvaluate).
  EvalOptions eval;
  /// Rewrite options shared by every prepared pipeline.
  PipelineOptions pipeline;
  /// Bound on distinct prepared programs kept resident.
  size_t prepared_capacity = 64;
  /// Directory of the write-ahead log (service/wal.h). Empty (the default)
  /// disables durability. When set, every write (insert, retract, expiry
  /// sweep, clock tick) is appended and fsynced *before* its epoch becomes
  /// visible, and Recover() replays the log on startup.
  std::string wal_dir;
  /// Auto-compaction threshold: after any logged commit — insert, TTL
  /// insert, retract, expiry sweep or pure tick — leaves wal.log larger
  /// than this many bytes, the head state is snapshotted and the log
  /// reset. 0 (the default) means compact only on explicit Compact() calls.
  long wal_compact_bytes = 0;
};

/// A node's replication role (DESIGN.md §15). Primaries accept writes and
/// ship their WAL; followers apply the shipped stream and serve reads only.
enum class NodeRole {
  kPrimary,
  kFollower,
};

const char* NodeRoleName(NodeRole role);

/// One cut of the primary's replication feed, the unit a follower pulls
/// with `REPLICATE <base_epoch> <index>` (QueryService::FetchReplication).
///
/// The feed's coordinate system is (base_epoch, index): `base_epoch` is the
/// epoch of the generation-starting snapshot — 0 for a virgin log — and
/// `index` counts records committed since it. Compaction starts a new
/// generation, so a follower holding pre-compaction coordinates gets a
/// snapshot renegotiation instead of records: install `snap`, then resume
/// pulling from (base_epoch, next_index).
struct ReplicationBatch {
  /// The primary's current feed identity.
  int64_t base_epoch = 0;
  /// Coordinate to pull next (index past the shipped records, or the feed
  /// position the renegotiation snapshot corresponds to).
  uint64_t next_index = 0;
  /// Feed length at the cut; next_index == feed_size means the batch (or
  /// snapshot) brings the follower level with this cut, so the state CRC is
  /// comparable after applying it.
  uint64_t feed_size = 0;
  /// Raw WAL payload bytes (exactly what Append logged), commit order.
  std::vector<std::string> records;
  /// True when the requested coordinates were unserveable (identity mismatch
  /// or out-of-range index): `snap` holds the primary's full state instead.
  bool snapshot = false;
  WalSnapshot snap;
  /// Head epoch and logical clock at the cut.
  int64_t primary_epoch = 0;
  int64_t primary_clock_ms = 0;
  /// CRC-32 (wal.h WalCrc32) of the primary's RenderStateText at the cut —
  /// the per-epoch integrity digest a caught-up follower must reproduce.
  uint32_t state_crc = 0;
};

/// What the HEALTH verb reports: the node's own role/epoch/clock, plus
/// replication-side fields a registered augmenter (the Replicator) fills.
struct HealthInfo {
  NodeRole role = NodeRole::kPrimary;
  int64_t epoch = 0;
  int64_t clock_ms = 0;
  bool quarantined = false;
  std::string quarantine_reason;
  /// Follower only (set by the Replicator augmenter): feed records fetched
  /// but not yet known-applied relative to the last primary cut, and the
  /// primary epoch of that cut. -1 when no replication is attached.
  long lag_records = -1;
  int64_t primary_epoch = -1;
  long records_applied = 0;
  long snapshots_installed = 0;
};

/// Which serving path answered a query.
enum class ServePath {
  /// Pipeline prepared and program evaluated from scratch this call.
  kCold,
  /// Pipeline came from the prepared cache; evaluation ran from scratch
  /// over the head EDB: the first evaluation of this prepared program, a
  /// base that was capped, or a catch-up across a retraction epoch.
  kPreparedEval,
  /// Answers served straight from the entry's materialized evaluation —
  /// the database epoch did not change since it was computed.
  kEpochHit,
  /// Materialized evaluation resumed with the facts of the insert epochs
  /// committed since it was computed (incremental ingestion), in one
  /// ResumeEvaluate call.
  kResumed,
};

const char* ServePathName(ServePath path);

/// Outcome of one served query.
struct QueryOutcome {
  /// Rendered answer facts (query constraints conjoined, unsat dropped).
  std::vector<std::string> answers;
  /// Epoch of the snapshot the answer was computed against.
  int64_t epoch = 0;
  ServePath path = ServePath::kCold;
  uint64_t fingerprint = 0;
  /// Whether the rewrite pipeline was served from the prepared cache.
  bool prepared_hit = false;
  /// Whether the evaluation reached its fixpoint (capped evaluations still
  /// serve their partial answers, flagged here).
  bool reached_fixpoint = false;
  /// Fixpoint iterations run by this call (0 for kEpochHit).
  int iterations_run = 0;
  /// Facts stored by this call's evaluation (0 for kEpochHit; the resumed
  /// path counts only the facts the resume itself inserted). The scheduler
  /// charges this to the client's fair-share account.
  long facts_stored = 0;
  /// (relation, position) indexes this call's evaluation built on demand
  /// (EvalStats::index_builds; 0 for kEpochHit). The head EDB arrives
  /// indexed, so a cold evaluation builds derived relations' positions
  /// only.
  long index_builds = 0;
};

/// Outcome of one committed ingest batch.
struct IngestOutcome {
  /// Facts accepted into the new epoch's EDB (structural duplicates of
  /// already-stored facts are dropped, like a from-scratch load).
  int accepted = 0;
  int duplicates = 0;
  /// The epoch the commit produced. Unchanged if the whole batch was
  /// duplicates (no epoch is burned on a no-op commit).
  int64_t epoch = 0;
};

/// Outcome of one committed retraction batch.
struct RetractOutcome {
  /// Base facts removed from the new epoch's EDB.
  int removed = 0;
  /// Batch entries that named no stored base fact (never inserted, already
  /// retracted or expired, or repeated within the batch) — counted, never
  /// an error, so retraction is idempotent.
  int missing = 0;
  /// The epoch the commit produced. Unchanged if nothing was removed (a
  /// no-op retraction burns no epoch).
  int64_t epoch = 0;
};

/// Outcome of one logical-clock advance (DESIGN.md §14: the service clock
/// only moves via TICK / AdvanceClock, so window expiry is deterministic
/// and replayable).
struct TickOutcome {
  /// Clock after the advance.
  int64_t now_ms = 0;
  /// TTL'd facts whose deadline elapsed and were retracted by this tick.
  int expired = 0;
  /// Head epoch after the tick (bumped only when something expired).
  int64_t epoch = 0;
};

/// What Recover() found and rebuilt (all zero when the WAL is disabled).
struct RecoverOutcome {
  /// Head epoch after replay.
  int64_t epoch = 0;
  /// WAL records replayed (after the snapshot, if any).
  int batches_replayed = 0;
  bool snapshot_loaded = false;
  /// Epoch the loaded snapshot captured (0 when none).
  int64_t snapshot_epoch = 0;
  /// Torn/corrupt tail bytes truncated from the log (0 on a clean log).
  long truncated_bytes = 0;
  /// Truncation warning for the operator's log; empty when clean.
  std::string warning;
};

/// Scheduler counters, merged into ServiceStats snapshots by an attached
/// Scheduler (service/scheduler.h) via QueryService::SetStatsAugmenter.
/// All zero when the service runs without one (stdio / embedded use).
struct SchedulerStats {
  bool attached = false;
  int workers = 0;
  long queue_limit = 0;  // configured admission-queue bound
  long queued = 0;       // tasks waiting right now
  long in_flight = 0;    // tasks executing right now
  long admitted = 0;
  long shed = 0;       // refused outright: queue full, no preemptable victim
  long preempted = 0;  // evicted from the queue by a higher priority class
  long completed = 0;
  /// Priority classes, scheduler.h PriorityClass order: interactive,
  /// normal, batch.
  static constexpr int kClasses = 3;
  struct PerClass {
    long submitted = 0;
    long shed = 0;  // refusals + preemptions charged to this class
    long completed = 0;
    /// Fair-share cost charged (1 per dequeue + derived facts, in units of
    /// scheduler.h kFactsPerCostUnit).
    long cost = 0;
    double wait_ms = 0;  // total submit -> dequeue time
    double run_ms = 0;   // total dequeue -> completion time
  } priority[kClasses];
};

/// Service counters (monotone; snapshot via Stats()).
struct ServiceStats {
  long queries = 0;
  long ingests = 0;
  long prepared_hits = 0;
  long prepared_misses = 0;
  long cold_evals = 0;
  long epoch_hits = 0;
  long resumes = 0;
  /// Fixpoint iterations spent in resumed evaluations (the incremental
  /// work; compare against cold_eval iterations to see the saving).
  long resumed_iterations = 0;
  /// Queries aborted by a governance limit (deadline / budget / cancel) —
  /// they returned a typed error without touching the served state.
  long governed_aborts = 0;
  int64_t epoch = 0;
  size_t prepared_entries = 0;
  // WAL counters (zero when durability is off).
  bool wal_enabled = false;
  long wal_appends = 0;
  long wal_bytes = 0;  // current wal.log size
  long wal_compactions = 0;
  /// Auto-compactions that failed after their triggering commit was
  /// already durable and visible (the ingest still succeeded; the log
  /// simply was not reset and stays replayable).
  long wal_compaction_failures = 0;
  long wal_replayed_batches = 0;
  // Retraction / streaming-window counters (DESIGN.md §14).
  long retracts = 0;          // committed retraction batches (incl. expiry)
  long retracted_facts = 0;   // base facts removed by them
  long retract_missing = 0;   // batch entries that named no stored base fact
  long ttl_ingests = 0;       // committed INGEST TTL batches
  long ticks = 0;             // clock advances (with or without expiry)
  long expired_facts = 0;     // facts retracted by deadline sweeps
  int64_t clock_ms = 0;       // current logical clock
  size_t ttl_pending = 0;     // deadlines not yet elapsed
  /// Catch-ups across a retraction: queries whose materialization was
  /// stale by at least one retraction epoch and were therefore evaluated
  /// from scratch over the head EDB (a subset of `cold_evals`).
  long retract_resumes = 0;
  // Replication counters (DESIGN.md §15; zero when nothing replicates).
  long replication_fetches = 0;    // REPLICATE cuts served
  long replication_records = 0;    // feed records shipped
  long replication_snapshots = 0;  // renegotiation snapshots shipped
  long replicated_applies = 0;     // shipped records applied on this node
  /// Admission/scheduling counters of the attached scheduler, if any.
  SchedulerStats scheduler;
};

/// The embeddable query service the `cqld` server wraps: a resident CQL
/// program plus a mutable extensional database, served to concurrent
/// sessions with three layers of reuse (DESIGN.md §8):
///
///  1. *Prepared programs.* ApplyPipeline outcomes are memoized in a
///     PreparedCache keyed by PipelineFingerprint(program, query, steps) —
///     repeated queries skip the fold/unfold and magic rewrites.
///  2. *Snapshot epochs.* The EDB lives in immutable epoch snapshots
///     published via shared_ptr; a reader evaluates against the snapshot
///     it captured while a writer commits the next epoch, so no query ever
///     observes a half-ingested batch.
///  3. *Incremental ingestion.* Each prepared entry materializes its
///     latest evaluation, epoch-tagged. A query at the same epoch is
///     answered from the materialization outright; after ingests, the
///     materialized fixpoint is resumed with the accumulated EDB deltas
///     (ResumeEvaluate) instead of recomputed. After a retraction it is
///     recomputed over the head EDB (DESIGN.md §14).
///
/// Writes enter through Ingest (optionally with a TTL), Retract and
/// AdvanceClock, all taking loader-syntax text or plain numbers. Each
/// computes its WAL record and successor state and hands them to one
/// private Commit, the only code that logs, publishes an epoch, feeds
/// replication and triggers auto-compaction — so every commit kind obeys
/// the same durable-before-visible order.
///
/// Thread-safety: all public methods may be called concurrently. Lock
/// order is entry mutex > symbols mutex (never the reverse); the head
/// epoch pointer has its own lock and is only held for pointer swaps.
/// Sessions hitting the *same* prepared entry serialize on its
/// materialization; distinct entries evaluate in parallel.
class QueryService {
 public:
  /// Builds a service from program text (inline `?- ...` statements are
  /// allowed and ignored) and optional EDB text in the loader syntax.
  static Result<std::unique_ptr<QueryService>> FromText(
      const std::string& program_text, const std::string& edb_text,
      ServiceOptions options = {});

  /// Builds a service from parsed parts — the bench/test entry point for
  /// generated workloads. `edb` becomes epoch 0.
  static Result<std::unique_ptr<QueryService>> FromParts(
      Program program, Database edb, ServiceOptions options = {});

  /// Memoizes the rewrite pipeline for (query_text, steps_spec) without
  /// evaluating. Returns the fingerprint; `was_cached` (optional) reports
  /// whether it was already resident.
  Result<uint64_t> Prepare(const std::string& query_text,
                           const std::string& steps_spec,
                           bool* was_cached = nullptr);

  /// Serves a query: prepare (or reuse), pick the cheapest evaluation path
  /// against the current epoch, extract and render the answers.
  ///
  /// `min_epoch` >= 0 is the `QUERY ... ASOF <epoch>` consistency token: the
  /// head must have reached at least that epoch, or the call fails with a
  /// typed UNAVAILABLE error (the replication-lag signal a client retries
  /// on). Serving happens at the head — the token is read-your-writes, not
  /// time travel; historical snapshots are not retained.
  Result<QueryOutcome> Execute(const std::string& query_text,
                               const std::string& steps_spec,
                               int64_t min_epoch = -1);

  /// Parses facts in the loader syntax and commits them as a new epoch.
  /// Readers holding older snapshots are unaffected. With a WAL configured,
  /// the batch text is appended and fsynced before the epoch is published —
  /// an error means the epoch did NOT become visible (though the record may
  /// sit in the log if the fault hit between fsync and commit; recovery
  /// then surfaces it, which is the durable-write contract). The logged
  /// text is exactly the text parsed here, so replay re-commits the same
  /// facts.
  ///
  /// With `ttl_ms` > 0 every accepted fact expires `ttl_ms` logical
  /// milliseconds from now: when AdvanceClock moves the clock past
  /// now + ttl_ms the fact is retracted exactly as by Retract. Duplicates
  /// of already-stored facts are dropped as usual and do NOT refresh any
  /// existing deadline (re-ingesting a fact never extends its life — the
  /// first deadline wins; documented sliding-window semantics). A negative
  /// `ttl_ms`, or one whose deadline would pass INT64_MAX, is
  /// InvalidArgument and commits nothing.
  Result<IngestOutcome> Ingest(const std::string& facts_text,
                               int64_t ttl_ms = 0);

  /// Parses facts in the loader syntax and retracts them from the EDB as a
  /// new epoch. Facts that are stored are removed; entries matching nothing
  /// count as `missing` (idempotent deletes). Readers holding older
  /// snapshots are unaffected; a materialized evaluation is re-evaluated
  /// from scratch over the head EDB on its next query. WAL semantics mirror
  /// Ingest (record kind 0x02, durable before visible).
  Result<RetractOutcome> Retract(const std::string& facts_text);

  /// Advances the logical clock by `delta_ms` (>= 0; 0 reads the clock
  /// without logging) and retracts every TTL'd fact whose deadline
  /// elapsed. The sweep is one retraction epoch (kind 0x03 in the WAL,
  /// carrying the new clock); a tick that expires nothing logs a clock
  /// record (kind 0x05) and burns no epoch. An advance that would carry
  /// the clock past INT64_MAX is InvalidArgument and commits nothing.
  Result<TickOutcome> AdvanceClock(int64_t delta_ms);

  /// Current logical clock (advanced only by AdvanceClock / recovery).
  int64_t now_ms() const;

  /// Replays the WAL directory into this freshly constructed service:
  /// loads the compaction snapshot (if present) as the base EDB at its
  /// epoch, then re-commits every intact log record in order, reproducing
  /// the pre-crash epoch sequence; a torn tail is truncated and reported
  /// via `out->warning`. Call once, before serving traffic (it is not
  /// synchronized against concurrent ingests); extra calls are no-ops that
  /// re-report the recovered epoch. No-op when the WAL is disabled.
  Status Recover(RecoverOutcome* out = nullptr);

  /// Compacts the WAL: snapshots the current EDB (atomic replace), then
  /// resets the log — bounded recovery time regardless of ingest history.
  /// Also runs automatically when ServiceOptions::wal_compact_bytes is set;
  /// an auto-compaction failure never fails the triggering ingest (its
  /// epoch is already durable) — it is counted in
  /// ServiceStats::wal_compaction_failures and retried on the next commit
  /// past the threshold.
  Status Compact();

  /// Renders the head state as `epoch=<id>` and `clock_ms=<n>` lines, every
  /// EDB fact in loader syntax (wal.h RenderDatabaseText), and one
  /// `# ttl <deadline_ms> <statement>` line per pending deadline — the
  /// oracle the crash-recovery and retract-vs-scratch properties compare.
  /// Two services with the same committed history render identically even
  /// when their raw symbol ids differ (recovery re-interns names in replay
  /// order).
  std::string RenderStateText() const;

  int64_t epoch() const;
  ServiceStats Stats() const;
  const Program& program() const { return program_; }

  // ---- Replication (DESIGN.md §15) -------------------------------------

  /// Serves one replication cut to a follower positioned at (base_epoch,
  /// index): up to `max_records` feed records, or — when the coordinates
  /// don't match this node's feed generation (compaction happened, or the
  /// follower is bootstrapping with base_epoch = -1) — a full state snapshot
  /// plus the coordinates to resume from. Requires a WAL (replication IS
  /// WAL shipping); honours the "replica/fetch" drop failpoint with a typed
  /// UNAVAILABLE error. Everything in the batch, state CRC included, is cut
  /// atomically under the commit lock.
  Status FetchReplication(int64_t base_epoch, uint64_t index,
                          size_t max_records, ReplicationBatch* out);

  /// Applies one shipped WAL payload through the normal commit paths — the
  /// follower side of WAL shipping. Unlike Recover's replay, the commit IS
  /// logged to this node's own WAL, so per-node crash recovery (and chained
  /// replication off this node's feed) keeps working.
  Status ApplyReplicated(const std::string& payload);

  /// Installs a replication snapshot as this node's entire state — epoch,
  /// clock, pending TTL deadlines, EDB — discarding what it had (the
  /// bootstrap / renegotiation path; the caller only installs snapshots at
  /// or ahead of its own epoch). Persisted to this node's own WAL
  /// (WriteSnapshot + Reset) when one is configured, so a follower restart
  /// recovers to the installed state without the primary.
  Status InstallSnapshot(const WalSnapshot& snapshot);

  NodeRole role() const;
  void SetRole(NodeRole role);

  /// Marks this node diverged: every subsequent Execute fails with a typed
  /// DATA_LOSS error carrying `reason` until the process is rebuilt from a
  /// fresh snapshot. Never serves wrong answers silently.
  void Quarantine(const std::string& reason);
  bool quarantined() const;

  /// Fills role/epoch/clock/quarantine and invokes the registered health
  /// augmenter (the Replicator's lag report) — the HEALTH verb's source.
  HealthInfo Health() const;
  void SetHealthAugmenter(std::function<void(HealthInfo*)> augmenter);

  /// Operator failover: flips this node to primary. On a primary it is an
  /// idempotent no-op; on a follower the registered promote handler (the
  /// Replicator's stop-pulling + final-catch-up-from-the-dead-primary's-WAL
  /// path) runs first and its failure aborts the promotion. `arg` is the
  /// handler's argument (the dead primary's WAL directory, possibly empty).
  /// Refused with FAILED_PRECONDITION on a quarantined node.
  Status Promote(const std::string& arg);
  void SetPromoteHandler(std::function<Status(const std::string&)> handler);

  /// Registers a hook that Stats() invokes on every snapshot (after the
  /// service counters are filled) — how an attached Scheduler injects its
  /// SchedulerStats without the service depending on the scheduler. Pass
  /// nullptr to detach. The hook must not call back into this service.
  void SetStatsAugmenter(std::function<void(ServiceStats*)> augmenter);

 private:
  /// Append-only chain of committed batches, newest first: walking `prev`
  /// from the head snapshot's node yields the deltas needed to resume a
  /// materialization from any older epoch. Nodes are immutable.
  struct EpochDelta {
    int64_t id = 0;
    /// True for a retraction epoch (Retract / expiry sweep): `facts` were
    /// removed from the EDB, not added, and a catch-up across this epoch
    /// evaluates the head EDB from scratch instead of resuming.
    bool retract = false;
    std::vector<Fact> facts;
    std::shared_ptr<const EpochDelta> prev;
  };

  /// An immutable published EDB snapshot.
  struct EpochSnapshot {
    int64_t id = 0;
    Database edb;
    std::shared_ptr<const EpochDelta> deltas;
  };

  QueryService(Program program, Database edb, ServiceOptions options);

  std::shared_ptr<const EpochSnapshot> Head() const;

  /// Parses + fingerprints + prepares (cache-first). Sets `prepared_hit`.
  Result<std::shared_ptr<PreparedEntry>> PrepareEntry(
      const std::string& query_text, const std::string& steps_spec,
      bool* prepared_hit);

  /// The facts of the epochs (from, head], oldest first, when every one of
  /// them is an insert epoch. Sets `*retracted` instead (leaving `out`
  /// empty) when one is a retraction epoch. False if the chain no longer
  /// reaches `from` (e.g. the materialization predates the snapshot a
  /// recovery rebased the chain on) — the query then evaluates cold.
  bool CollectDeltas(const EpochSnapshot& head, int64_t from,
                     std::vector<Fact>* out, bool* retracted) const;

  /// Counts a governed abort (deadline / budget / cancellation) in the
  /// stats and passes the error through — Execute's failure funnel.
  Status NoteEvalError(const Status& status);

  /// Parses loader-syntax `facts_text` into commit order: relations by
  /// PredId, facts in insertion order — deterministic, so a WAL replay that
  /// parses the same text re-commits the same sequence.
  Result<std::vector<Fact>> ParseFacts(const std::string& facts_text);

  /// The durable-commit protocol — the only code that logs or publishes a
  /// write. Every commit kind (insert, TTL insert, retract, expiry sweep,
  /// pure tick) computes its `record` and successor state under `lock`
  /// (head_mutex_) and hands them here, which in order: appends the record
  /// to the WAL (skipped while replaying), hits the crash-before-commit
  /// failpoint, publishes `edb` as the next epoch with `delta` as its chain
  /// node (an empty delta — a pure tick — keeps the head epoch), applies
  /// the record's clock and deadline effects, appends the payload to the
  /// replication feed, hits the crash-after-commit failpoint, releases the
  /// lock, updates the WAL stats, and auto-compacts past
  /// ServiceOptions::wal_compact_bytes. Returns the head epoch after the
  /// commit.
  Result<int64_t> Commit(const WalRecord& record, Database edb,
                         std::vector<Fact> delta,
                         std::unique_lock<std::mutex> lock);

  /// Indexes and seals every position of `edb` (Database::
  /// IndexEveryPosition) and publishes it as the head epoch `deltas->id`,
  /// so every evaluation's copy of it starts with its EDB indexed and
  /// builds no EDB index of its own (DESIGN.md §12).
  /// head_mutex_ must be held (or the service not yet shared, as in the
  /// constructor); `edb` is owned here until the pointer swap.
  void PublishHeadLocked(Database edb,
                         std::shared_ptr<const EpochDelta> deltas);

  /// Moves the clock to `target_now_ms` (monotone; no-op when not ahead)
  /// and commits the elapsed deadlines as one expiry epoch — the body of
  /// AdvanceClock, also used by replay (which re-derives the sweep from the
  /// reconstructed deadline table instead of trusting the logged text).
  Result<TickOutcome> AdvanceClockTo(int64_t target_now_ms);

  /// Applies one decoded WAL record through the normal commit paths —
  /// Recover's replay switch, shared with ApplyReplicated.
  Status ReplayRecord(const WalRecord& record);

  /// The head state (epoch, clock, EDB statements, pending deadlines) as a
  /// WalSnapshot — the body Compact() writes, the renegotiation payload
  /// FetchReplication ships, and the source of RenderStateText.
  /// head_mutex_ must be held (takes symbols_mutex_ inside — lock order
  /// head > symbols).
  WalSnapshot SnapshotLocked() const;

  /// Installs `snapshot` as this node's entire state — EDB at the
  /// snapshot's epoch (the delta chain bottoms out there), clock, pending
  /// deadlines — and starts a new replication feed generation at that
  /// epoch. With `persist` and a WAL, also writes the snapshot and resets
  /// the log under the same lock. `source` names the snapshot in load
  /// errors. Shared by Recover and InstallSnapshot.
  Status InstallState(const WalSnapshot& snapshot, const std::string& source,
                      bool persist);

  /// Appends one committed record's payload bytes to the in-memory
  /// replication feed. head_mutex_ must be held; called only from Commit
  /// (replay included — re-encoding a decoded record reproduces its bytes
  /// exactly, so recovery rebuilds the same feed).
  void FeedAppendLocked(std::string payload);

  Program program_;
  const ServiceOptions options_;

  /// Guards the shared SymbolTable: parsing (queries, ingest batches) and
  /// pipeline preparation intern names; answer rendering reads them.
  mutable std::mutex symbols_mutex_;

  mutable std::mutex head_mutex_;  // guards head_ swap + writer commits
  std::shared_ptr<const EpochSnapshot> head_;

  /// Logical clock in milliseconds; advanced only by AdvanceClock (TICK)
  /// and recovery — never by the wall clock, so expiry is deterministic.
  /// Guarded by head_mutex_ (it moves in lockstep with expiry commits).
  int64_t now_ms_ = 0;
  /// Pending TTL deadlines: absolute expiry time -> the fact to retract.
  /// Ordered (and, within one deadline, insertion-ordered) so sweeps and
  /// snapshots are deterministic. An entry whose fact was meanwhile
  /// retracted by hand is stale and skipped harmlessly at sweep time.
  /// Guarded by head_mutex_.
  std::multimap<int64_t, Fact> deadlines_;

  /// In-memory replication feed: the exact WAL payload bytes of every
  /// record committed since the feed's base snapshot, commit order.
  /// `feed_base_epoch_` is the epoch of the generation-starting snapshot (0
  /// for a virgin log) — the stable "log identity" REPLICATE coordinates
  /// are relative to, reconstructible across restarts because Recover
  /// derives it from the compaction snapshot. Compact() clears the feed and
  /// starts a new generation. Guarded by head_mutex_; only maintained when
  /// a WAL is configured (replication is WAL shipping).
  std::vector<std::string> feed_;
  int64_t feed_base_epoch_ = 0;

  /// Replication role + divergence quarantine, guarded by head_mutex_ (they
  /// gate commits and reads the same way the head does).
  NodeRole role_ = NodeRole::kPrimary;
  bool quarantined_ = false;
  std::string quarantine_reason_;

  /// Durability (null when ServiceOptions::wal_dir is empty). Appends
  /// happen under head_mutex_ — the WAL and the epoch chain advance in
  /// lockstep. Lock order when both are needed: head_mutex_ >
  /// symbols_mutex_ (Compact renders the EDB under both).
  std::unique_ptr<Wal> wal_;
  /// True while Recover() re-commits logged batches (suppresses re-logging
  /// them), and set once it finishes (makes later calls no-ops).
  bool replaying_ = false;
  bool recovered_ = false;

  PreparedCache prepared_;

  mutable std::mutex stats_mutex_;
  ServiceStats stats_;
  std::function<void(ServiceStats*)> stats_augmenter_;  // guarded by stats_mutex_
  /// Replication hooks, same pattern as the stats augmenter: the health
  /// augmenter injects the Replicator's lag into Health() snapshots; the
  /// promote handler runs the Replicator's failover path inside Promote().
  /// Both guarded by stats_mutex_ (cold paths; no reason for another lock).
  std::function<void(HealthInfo*)> health_augmenter_;
  std::function<Status(const std::string&)> promote_handler_;
};

}  // namespace cqlopt

#endif  // CQLOPT_SERVICE_QUERY_SERVICE_H_
