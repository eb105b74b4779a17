#include "service/query_service.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "ast/parser.h"
#include "util/failpoint.h"

namespace cqlopt {
namespace {

/// Flattens a staged Database into commit order: relations by PredId,
/// facts in insertion order — deterministic, so a WAL replay that parses
/// the same text re-commits the same sequence.
std::vector<Fact> FactsOf(const Database& staged) {
  std::vector<Fact> batch;
  for (const auto& [pred, rel] : staged.relations()) {
    for (size_t i = 0; i < rel.size(); ++i) {
      batch.push_back(rel.fact(i));
    }
  }
  return batch;
}

bool IsGovernedAbort(StatusCode code) {
  return code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kCancelled ||
         code == StatusCode::kResourceExhausted;
}

}  // namespace

const char* NodeRoleName(NodeRole role) {
  switch (role) {
    case NodeRole::kPrimary:
      return "primary";
    case NodeRole::kFollower:
      return "follower";
  }
  return "?";
}

const char* ServePathName(ServePath path) {
  switch (path) {
    case ServePath::kCold:
      return "cold";
    case ServePath::kPreparedEval:
      return "prepared";
    case ServePath::kEpochHit:
      return "epoch-hit";
    case ServePath::kResumed:
      return "resumed";
  }
  return "?";
}

QueryService::QueryService(Program program, Database edb,
                           ServiceOptions options)
    : program_(std::move(program)),
      options_(options),
      prepared_(options.prepared_capacity) {
  PublishHeadLocked(std::move(edb), std::make_shared<EpochDelta>());
}

Result<std::unique_ptr<QueryService>> QueryService::FromText(
    const std::string& program_text, const std::string& edb_text,
    ServiceOptions options) {
  CQLOPT_ASSIGN_OR_RETURN(ParseResult parsed, ParseProgram(program_text));
  Database edb;
  if (!edb_text.empty()) {
    CQLOPT_ASSIGN_OR_RETURN(
        int loaded,
        LoadDatabaseText(edb_text, parsed.program.symbols, &edb));
    (void)loaded;
  }
  return FromParts(std::move(parsed.program), std::move(edb), options);
}

Result<std::unique_ptr<QueryService>> QueryService::FromParts(
    Program program, Database edb, ServiceOptions options) {
  if (options.eval.max_iterations < 0 || options.eval.deadline_ms < 0 ||
      options.eval.max_derived_facts < 0) {
    return Status::InvalidArgument(
        "ServiceOptions::eval has a negative max_iterations, deadline_ms, "
        "or max_derived_facts");
  }
  // Traces are never served and rendering them would read the symbol table
  // from inside the (unlocked) evaluation. Abort stats can't be handed to
  // concurrent queries through one shared pointer either.
  options.eval.record_trace = false;
  options.eval.abort_stats = nullptr;
  std::unique_ptr<Wal> wal;
  if (!options.wal_dir.empty()) {
    CQLOPT_ASSIGN_OR_RETURN(wal, Wal::Open(options.wal_dir));
  }
  auto service = std::unique_ptr<QueryService>(new QueryService(
      std::move(program), std::move(edb), std::move(options)));
  service->wal_ = std::move(wal);
  return service;
}

std::shared_ptr<const QueryService::EpochSnapshot> QueryService::Head() const {
  std::lock_guard<std::mutex> lock(head_mutex_);
  return head_;
}

int64_t QueryService::epoch() const { return Head()->id; }

Result<std::shared_ptr<PreparedEntry>> QueryService::PrepareEntry(
    const std::string& query_text, const std::string& steps_spec,
    bool* prepared_hit) {
  CQLOPT_ASSIGN_OR_RETURN(std::vector<RewriteStep> steps,
                          ParseSteps(steps_spec));
  Query query;
  uint64_t fingerprint = 0;
  std::string canonical;
  {
    std::lock_guard<std::mutex> lock(symbols_mutex_);
    CQLOPT_ASSIGN_OR_RETURN(query, ParseQueryText(query_text, &program_));
    fingerprint = PipelineFingerprint(program_, query, steps, &canonical);
  }
  if (auto entry = prepared_.Find(fingerprint, canonical)) {
    *prepared_hit = true;
    return entry;
  }
  *prepared_hit = false;
  auto entry = std::make_shared<PreparedEntry>();
  entry->fingerprint = fingerprint;
  entry->canonical = std::move(canonical);
  // Insert under the same lock as the pipeline: of two sessions racing to
  // prepare one key, the first to run the pipeline got the unsuffixed fresh
  // predicate names, and its entry must win so that answers render the same
  // names however the race went.
  std::lock_guard<std::mutex> lock(symbols_mutex_);
  CQLOPT_ASSIGN_OR_RETURN(
      entry->prepared,
      ApplyPipeline(program_, query, steps, options_.pipeline));
  return prepared_.Insert(std::move(entry));
}

Result<uint64_t> QueryService::Prepare(const std::string& query_text,
                                       const std::string& steps_spec,
                                       bool* was_cached) {
  bool hit = false;
  CQLOPT_ASSIGN_OR_RETURN(std::shared_ptr<PreparedEntry> entry,
                          PrepareEntry(query_text, steps_spec, &hit));
  if (was_cached != nullptr) *was_cached = hit;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++(hit ? stats_.prepared_hits : stats_.prepared_misses);
  }
  return entry->fingerprint;
}

Status QueryService::NoteEvalError(const Status& status) {
  if (IsGovernedAbort(status.code())) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.governed_aborts;
  }
  return status;
}

bool QueryService::CollectDeltas(const EpochSnapshot& head, int64_t from,
                                 std::vector<Fact>* out,
                                 bool* retracted) const {
  const EpochDelta* node = head.deltas.get();
  std::vector<const EpochDelta*> newer;
  bool any_retract = false;
  while (node != nullptr && node->id > from) {
    newer.push_back(node);
    any_retract = any_retract || node->retract;
    node = node->prev.get();
  }
  if (node == nullptr || node->id != from) return false;
  *retracted = any_retract;
  if (any_retract) return true;
  // Chain is newest-first; one ResumeEvaluate takes the insert epochs'
  // facts oldest-first (commit order).
  for (auto it = newer.rbegin(); it != newer.rend(); ++it) {
    out->insert(out->end(), (*it)->facts.begin(), (*it)->facts.end());
  }
  return true;
}

Result<QueryOutcome> QueryService::Execute(const std::string& query_text,
                                           const std::string& steps_spec,
                                           int64_t min_epoch) {
  {
    std::lock_guard<std::mutex> lock(head_mutex_);
    if (quarantined_) {
      return Status::DataLoss("node quarantined after divergence: " +
                              quarantine_reason_);
    }
    if (min_epoch >= 0 && head_->id < min_epoch) {
      // The ASOF consistency token: the caller read/ingested at min_epoch on
      // the primary and this node has not replicated that far yet. Typed so
      // clients retry with backoff instead of reading stale state.
      return Status::Unavailable(
          "ASOF epoch " + std::to_string(min_epoch) +
          " not reached yet (head at " + std::to_string(head_->id) +
          "); replication lag — retry");
    }
  }
  bool prepared_hit = false;
  CQLOPT_ASSIGN_OR_RETURN(std::shared_ptr<PreparedEntry> entry,
                          PrepareEntry(query_text, steps_spec, &prepared_hit));
  std::shared_ptr<const EpochSnapshot> head = Head();

  QueryOutcome outcome;
  outcome.epoch = head->id;
  outcome.fingerprint = entry->fingerprint;
  outcome.prepared_hit = prepared_hit;

  std::shared_ptr<const EvalResult> eval;
  {
    std::lock_guard<std::mutex> lock(entry->mutex);
    if (entry->eval != nullptr && entry->eval_epoch == head->id) {
      outcome.path = ServePath::kEpochHit;
      eval = entry->eval;
    } else {
      std::vector<Fact> delta;
      bool retracted = false;
      bool caught_up = entry->eval != nullptr &&
                       entry->eval->stats.reached_fixpoint &&
                       entry->eval_epoch >= 0 &&
                       entry->eval_epoch < head->id &&
                       CollectDeltas(*head, entry->eval_epoch, &delta,
                                     &retracted);
      if (caught_up && !retracted) {
        int base_iterations = entry->eval->stats.iterations;
        long base_inserted = entry->eval->stats.inserted;
        long base_builds = entry->eval->stats.index_builds;
        // Readers copy `entry->eval` only under this mutex, so a use count
        // of 1 proves nobody else holds the materialization and the resume
        // can consume it in place of deep-copying the whole database. (The
        // pointee is never created const — see the make_shared below — so
        // shedding the const qualifier is sound.)
        EvalResult base =
            entry->eval.use_count() == 1
                ? std::move(*std::const_pointer_cast<EvalResult>(entry->eval))
                : EvalResult(*entry->eval);
        // On error the materialization stays cleared: the next query for
        // this entry simply goes cold — a deadline/budget abort never
        // poisons the entry or the service.
        entry->eval = nullptr;
        Result<EvalResult> resumed = ResumeEvaluate(
            entry->prepared.program, std::move(base), delta, options_.eval);
        if (!resumed.ok()) return NoteEvalError(resumed.status());
        outcome.path = ServePath::kResumed;
        outcome.iterations_run = resumed->stats.iterations - base_iterations;
        outcome.facts_stored = resumed->stats.inserted - base_inserted;
        outcome.index_builds = resumed->stats.index_builds - base_builds;
        eval = std::make_shared<EvalResult>(std::move(*resumed));
      } else {
        // A retraction removes base facts that the materialization's
        // derivations may rest on: re-evaluate the head EDB (DESIGN.md
        // §14), releasing the stale materialization first.
        if (retracted) entry->eval = nullptr;
        EvalOptions opts = options_.eval;
        opts.strategy = EvalStrategy::kStratified;
        Result<EvalResult> cold_result =
            Evaluate(entry->prepared.program, head->edb, opts);
        if (!cold_result.ok()) return NoteEvalError(cold_result.status());
        EvalResult cold = std::move(*cold_result);
        outcome.path =
            prepared_hit ? ServePath::kPreparedEval : ServePath::kCold;
        outcome.iterations_run = cold.stats.iterations;
        outcome.facts_stored = cold.stats.inserted;
        outcome.index_builds = cold.stats.index_builds;
        eval = std::make_shared<EvalResult>(std::move(cold));
        if (retracted) {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.retract_resumes;
        }
      }
      entry->eval = eval;
      entry->eval_epoch = head->id;
    }
  }

  outcome.reached_fixpoint = eval->stats.reached_fixpoint;
  Result<std::vector<Fact>> answers =
      QueryAnswers(*eval, entry->prepared.query);
  {
    // Release the materialization under the entry mutex. A later resume
    // that finds itself its only holder (use_count() == 1) consumes it in
    // place, and use_count() is a relaxed load: only this mutex orders the
    // reads above before that resume's writes.
    std::lock_guard<std::mutex> lock(entry->mutex);
    eval.reset();
  }
  if (!answers.ok()) return answers.status();
  {
    std::lock_guard<std::mutex> lock(symbols_mutex_);
    outcome.answers.reserve(answers->size());
    for (const Fact& fact : *answers) {
      outcome.answers.push_back(fact.ToString(*program_.symbols));
    }
  }
  std::sort(outcome.answers.begin(), outcome.answers.end());

  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.queries;
    ++(prepared_hit ? stats_.prepared_hits : stats_.prepared_misses);
    switch (outcome.path) {
      case ServePath::kCold:
      case ServePath::kPreparedEval:
        ++stats_.cold_evals;
        break;
      case ServePath::kEpochHit:
        ++stats_.epoch_hits;
        break;
      case ServePath::kResumed:
        ++stats_.resumes;
        stats_.resumed_iterations += outcome.iterations_run;
        break;
    }
  }
  return outcome;
}

Result<std::vector<Fact>> QueryService::ParseFacts(
    const std::string& facts_text) {
  Database staged;
  std::lock_guard<std::mutex> lock(symbols_mutex_);
  CQLOPT_ASSIGN_OR_RETURN(
      int loaded, LoadDatabaseText(facts_text, program_.symbols, &staged));
  (void)loaded;
  return FactsOf(staged);
}

Result<IngestOutcome> QueryService::Ingest(const std::string& facts_text,
                                           int64_t ttl_ms) {
  if (ttl_ms < 0) {
    return Status::InvalidArgument("TTL must be >= 0 ms, got " +
                                   std::to_string(ttl_ms));
  }
  CQLOPT_ASSIGN_OR_RETURN(std::vector<Fact> batch, ParseFacts(facts_text));
  IngestOutcome out;
  std::unique_lock<std::mutex> lock(head_mutex_);
  if (ttl_ms > std::numeric_limits<int64_t>::max() - now_ms_) {
    return Status::InvalidArgument(
        "TTL " + std::to_string(ttl_ms) + "ms from clock " +
        std::to_string(now_ms_) + "ms puts the deadline past INT64_MAX");
  }
  Database next = head_->edb;  // deep copy; readers keep the old snapshot
  std::vector<Fact> accepted;
  for (const Fact& fact : batch) {
    if (next.AddFact(fact) == InsertOutcome::kInserted) {
      accepted.push_back(fact);
    } else {
      ++out.duplicates;
    }
  }
  out.accepted = static_cast<int>(accepted.size());
  if (accepted.empty()) {
    out.epoch = head_->id;  // no-op commit burns no epoch (and no WAL I/O)
    return out;
  }
  // Plain inserts keep the legacy bare-text payload (byte-identical to
  // pre-§14 logs); TTL'd inserts carry the clock and TTL so replay
  // re-registers the same deadlines.
  WalRecord record{WalRecord::Kind::kInsert, 0, 0, facts_text};
  if (ttl_ms > 0) {
    record = {WalRecord::Kind::kInsertTtl, now_ms_, ttl_ms, facts_text};
  }
  CQLOPT_ASSIGN_OR_RETURN(out.epoch, Commit(record, std::move(next),
                                            std::move(accepted),
                                            std::move(lock)));
  std::lock_guard<std::mutex> stats_lock(stats_mutex_);
  ++stats_.ingests;
  if (ttl_ms > 0) ++stats_.ttl_ingests;
  return out;
}

namespace {

/// Marks `fact`'s row in `db` dead in `masks`, returning false when the fact
/// is not stored (or already marked). Masks are sized lazily per relation.
bool MarkDead(const Database& db, const Fact& fact,
              std::map<PredId, std::vector<uint8_t>>* masks) {
  const Relation* rel = db.Find(fact.pred);
  if (rel == nullptr) return false;
  std::optional<size_t> row = rel->RowOf(fact);
  if (!row.has_value()) return false;
  std::vector<uint8_t>& mask = (*masks)[fact.pred];
  if (mask.empty()) mask.resize(rel->size(), 0);
  if (mask[*row]) return false;
  mask[*row] = 1;
  return true;
}

/// The spliced successor EDB: relations with dead rows are rebuilt without
/// them; relations spliced down to nothing are dropped outright, so the
/// result is indistinguishable from an EDB that never held those facts
/// (scratch re-evaluation compares equal, relation set included).
Database SplicedEdb(const Database& base,
                    const std::map<PredId, std::vector<uint8_t>>& masks) {
  Database next;
  for (const auto& [pred, rel] : base.relations()) {
    auto it = masks.find(pred);
    if (it == masks.end()) {
      *next.FindMutable(pred) = rel;
      continue;
    }
    Relation spliced = rel.Spliced(it->second);
    if (spliced.size() > 0) *next.FindMutable(pred) = std::move(spliced);
  }
  return next;
}

}  // namespace

Result<RetractOutcome> QueryService::Retract(const std::string& facts_text) {
  CQLOPT_ASSIGN_OR_RETURN(std::vector<Fact> batch, ParseFacts(facts_text));
  RetractOutcome out;
  std::unique_lock<std::mutex> lock(head_mutex_);
  std::map<PredId, std::vector<uint8_t>> dead;
  std::vector<Fact> removed;
  for (const Fact& fact : batch) {
    if (MarkDead(head_->edb, fact, &dead)) {
      removed.push_back(fact);
    } else {
      ++out.missing;  // never inserted, already gone, or batch-duplicate
    }
  }
  out.removed = static_cast<int>(removed.size());
  if (removed.empty()) {
    out.epoch = head_->id;  // no-op retraction burns no epoch, no WAL I/O
    return out;
  }
  // Pending deadlines for the removed facts are left in place: the sweep
  // skips entries whose fact is no longer stored, so they age out as
  // harmless no-ops — cheaper than a multimap scan per retraction.
  CQLOPT_ASSIGN_OR_RETURN(
      out.epoch,
      Commit({WalRecord::Kind::kRetract, 0, 0, facts_text},
             SplicedEdb(head_->edb, dead), std::move(removed),
             std::move(lock)));
  std::lock_guard<std::mutex> stats_lock(stats_mutex_);
  ++stats_.retracts;
  stats_.retracted_facts += out.removed;
  stats_.retract_missing += out.missing;
  return out;
}

int64_t QueryService::now_ms() const {
  std::lock_guard<std::mutex> lock(head_mutex_);
  return now_ms_;
}

Result<TickOutcome> QueryService::AdvanceClock(int64_t delta_ms) {
  if (delta_ms < 0) {
    return Status::InvalidArgument("clock only moves forward; delta " +
                                   std::to_string(delta_ms) + "ms");
  }
  int64_t target = 0;
  {
    std::lock_guard<std::mutex> lock(head_mutex_);
    if (delta_ms == 0) {
      // Pure read: report the clock without logging a tick.
      return TickOutcome{now_ms_, 0, head_->id};
    }
    if (delta_ms > std::numeric_limits<int64_t>::max() - now_ms_) {
      return Status::InvalidArgument(
          "advancing clock " + std::to_string(now_ms_) + "ms by " +
          std::to_string(delta_ms) + "ms would pass INT64_MAX");
    }
    target = now_ms_ + delta_ms;
  }
  return AdvanceClockTo(target);
}

Result<TickOutcome> QueryService::AdvanceClockTo(int64_t target_now_ms) {
  std::unique_lock<std::mutex> lock(head_mutex_);
  if (target_now_ms <= now_ms_) {
    return TickOutcome{now_ms_, 0, head_->id};  // clock is monotone
  }
  // Sweep every deadline that the advance crosses. Entries whose fact is
  // no longer stored (retracted, or expired by an earlier overlapping
  // deadline) are stale — dropped without effect. Replay re-derives this
  // exact sweep from the reconstructed deadline table, so the kExpire
  // record needs only the target clock for determinism; it still carries
  // the expired statements so the log is self-describing. Commit erases
  // the swept range only at the commit point — an append failure must
  // leave the table (like every other piece of state) untouched.
  std::map<PredId, std::vector<uint8_t>> dead;
  std::vector<Fact> expired;
  const auto sweep_end = deadlines_.upper_bound(target_now_ms);
  for (auto it = deadlines_.begin(); it != sweep_end; ++it) {
    if (MarkDead(head_->edb, it->second, &dead)) {
      expired.push_back(it->second);
    }
  }
  TickOutcome out;
  out.now_ms = target_now_ms;
  out.expired = static_cast<int>(expired.size());
  // A sweep that expires nothing still logs a kTick record: the clock
  // itself is durable state, and without the record a recovered service
  // would run behind (RenderStateText, and thus the crash differential,
  // would diverge on clock_ms).
  WalRecord record{WalRecord::Kind::kTick, target_now_ms, 0, std::string()};
  Database next;
  if (!expired.empty()) {
    record.kind = WalRecord::Kind::kExpire;
    if (wal_ != nullptr) {
      // Lock order: head_mutex_ > symbols_mutex_.
      std::lock_guard<std::mutex> sym(symbols_mutex_);
      for (const Fact& fact : expired) {
        record.statements += RenderFactStatement(fact, *program_.symbols);
        record.statements += '\n';
      }
    }
    next = SplicedEdb(head_->edb, dead);
  }
  CQLOPT_ASSIGN_OR_RETURN(out.epoch, Commit(record, std::move(next),
                                            std::move(expired),
                                            std::move(lock)));
  std::lock_guard<std::mutex> stats_lock(stats_mutex_);
  ++stats_.ticks;
  stats_.expired_facts += out.expired;
  return out;
}

Result<int64_t> QueryService::Commit(const WalRecord& record, Database edb,
                                     std::vector<Fact> delta,
                                     std::unique_lock<std::mutex> lock) {
  const bool log_this = wal_ != nullptr && !replaying_;
  // The payload is computed whenever a WAL exists: replay skips the disk
  // append but still feeds the replication stream (re-encoding a decoded
  // record reproduces its bytes exactly).
  std::string payload;
  if (wal_ != nullptr) payload = EncodeWalRecord(record);
  if (log_this) {
    // Durability barrier: the record must be on disk before any reader
    // can observe the new epoch. An append failure (real or injected)
    // aborts the commit — the epoch never existed.
    CQLOPT_RETURN_IF_ERROR(wal_->Append(payload));
    if (failpoint::ShouldFail(failpoint::kWalCrashBeforeCommit)) {
      return Status::Internal(
          std::string("injected crash between WAL append and epoch "
                      "commit (failpoint ") +
          failpoint::kWalCrashBeforeCommit + ")");
    }
  }
  if (!delta.empty()) {
    auto node = std::make_shared<EpochDelta>();
    node->id = head_->id + 1;
    node->retract = record.kind == WalRecord::Kind::kRetract ||
                    record.kind == WalRecord::Kind::kExpire;
    node->prev = head_->deltas;
    if (record.kind == WalRecord::Kind::kInsertTtl) {
      // Deadlines register at the epoch commit, not the WAL append: an
      // aborted commit must not leave a live deadline behind. Duplicates
      // never reach here, so re-ingesting a stored fact does NOT refresh
      // its deadline (§14: first-write-wins window semantics).
      for (const Fact& fact : delta) {
        deadlines_.emplace(record.now_ms + record.ttl_ms, fact);
      }
    }
    node->facts = std::move(delta);
    PublishHeadLocked(std::move(edb), std::move(node));
  }
  if (record.kind == WalRecord::Kind::kExpire ||
      record.kind == WalRecord::Kind::kTick) {
    deadlines_.erase(deadlines_.begin(),
                     deadlines_.upper_bound(record.now_ms));
    now_ms_ = record.now_ms;
  }
  const int64_t epoch = head_->id;
  long wal_bytes = 0;
  if (wal_ != nullptr) FeedAppendLocked(std::move(payload));
  if (log_this) {
    wal_bytes = wal_->log_bytes();
    if (failpoint::ShouldFail(failpoint::kWalCrashAfterCommit)) {
      return Status::Internal(
          std::string("injected crash after epoch commit (failpoint ") +
          failpoint::kWalCrashAfterCommit + ")");
    }
  }
  lock.unlock();
  if (!log_this) return epoch;
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.wal_appends;
    stats_.wal_bytes = wal_bytes;
  }
  if (options_.wal_compact_bytes > 0 &&
      wal_bytes > options_.wal_compact_bytes) {
    // The epoch is already durable and visible; failing the write over a
    // compaction problem would make the caller retry a committed batch.
    // Count the failure instead — the un-reset log stays replayable.
    Status compacted = Compact();
    if (!compacted.ok()) {
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++stats_.wal_compaction_failures;
    }
  }
  return epoch;
}

void QueryService::PublishHeadLocked(Database edb,
                                     std::shared_ptr<const EpochDelta> deltas) {
  auto head = std::make_shared<EpochSnapshot>();
  head->id = deltas->id;
  head->edb = std::move(edb);
  head->edb.IndexEveryPosition();
  head->deltas = std::move(deltas);
  head_ = std::move(head);
}

Status QueryService::ReplayRecord(const WalRecord& record) {
  switch (record.kind) {
    case WalRecord::Kind::kInsert:
      return Ingest(record.statements).status();
    case WalRecord::Kind::kRetract:
      return Retract(record.statements).status();
    case WalRecord::Kind::kInsertTtl:
      // Restore the commit-time clock first so the re-registered deadlines
      // land at the original now_ms + ttl_ms.
      {
        std::lock_guard<std::mutex> lock(head_mutex_);
        if (record.now_ms > now_ms_) now_ms_ = record.now_ms;
      }
      return Ingest(record.statements, record.ttl_ms).status();
    case WalRecord::Kind::kExpire:
    case WalRecord::Kind::kTick:
      // Both replay as a clock advance: the sweep is re-derived from the
      // reconstructed deadline table, deterministically reproducing the
      // kExpire deletions (or nothing, for a tick).
      return AdvanceClockTo(record.now_ms).status();
  }
  return Status::Internal("unhandled WAL record kind");
}

Status QueryService::Recover(RecoverOutcome* out) {
  RecoverOutcome recovered;
  if (wal_ == nullptr || recovered_) {
    recovered.epoch = epoch();
    if (out != nullptr) *out = recovered;
    return Status::OK();
  }
  // 1. The compaction snapshot, if any, replaces the constructor-provided
  //    EDB outright: it captured that EDB plus every batch compacted away,
  //    along with the streaming state (clock + pending TTL deadlines) that
  //    the compacted records would otherwise have rebuilt.
  bool snapshot_found = false;
  WalSnapshot snapshot;
  CQLOPT_RETURN_IF_ERROR(wal_->ReadSnapshot(&snapshot_found, &snapshot));
  if (snapshot_found) {
    CQLOPT_RETURN_IF_ERROR(
        InstallState(snapshot, "WAL snapshot", /*persist=*/false));
    recovered.snapshot_loaded = true;
    recovered.snapshot_epoch = snapshot.epoch;
  }
  // 2. Replay the intact log records through the normal commit paths —
  //    identical parsing, dedup, epoch numbering, and expiry sweeps as the
  //    original run.
  CQLOPT_ASSIGN_OR_RETURN(WalReadOutcome read, wal_->ReadAll());
  recovered.truncated_bytes = read.truncated_bytes;
  recovered.warning = read.warning;
  replaying_ = true;
  for (const std::string& payload : read.payloads) {
    Result<WalRecord> record = DecodeWalRecord(payload);
    Status replayed =
        record.ok() ? ReplayRecord(*record) : record.status();
    if (!replayed.ok()) {
      replaying_ = false;
      return Status::Internal("WAL replay failed at record " +
                              std::to_string(recovered.batches_replayed) +
                              ": " + replayed.ToString());
    }
    ++recovered.batches_replayed;
  }
  replaying_ = false;
  recovered_ = true;
  recovered.epoch = epoch();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.wal_replayed_batches += recovered.batches_replayed;
    stats_.wal_bytes = wal_->log_bytes();
  }
  if (out != nullptr) *out = recovered;
  return Status::OK();
}

Status QueryService::Compact() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument("no WAL configured; nothing to compact");
  }
  long wal_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(head_mutex_);
    WalSnapshot snapshot = SnapshotLocked();
    CQLOPT_RETURN_IF_ERROR(wal_->WriteSnapshot(snapshot));
    // Only after the snapshot is durably in place do the records become
    // redundant; a crash between the two leaves snapshot + stale log, and
    // replaying the stale records is harmless (they dedup to no-ops).
    CQLOPT_RETURN_IF_ERROR(wal_->Reset());
    // New feed generation: followers holding pre-compaction coordinates
    // renegotiate via snapshot on their next fetch.
    feed_.clear();
    feed_base_epoch_ = snapshot.epoch;
    // Captured here because log_bytes_ is only stable under head_mutex_
    // (concurrent commits mutate it).
    wal_bytes = wal_->log_bytes();
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.wal_compactions;
    stats_.wal_bytes = wal_bytes;
  }
  return Status::OK();
}

WalSnapshot QueryService::SnapshotLocked() const {
  WalSnapshot snapshot;
  snapshot.epoch = head_->id;
  snapshot.now_ms = now_ms_;
  // Lock order: head_mutex_ > symbols_mutex_ (rendering reads names).
  std::lock_guard<std::mutex> sym(symbols_mutex_);
  snapshot.statements = RenderDatabaseText(head_->edb, *program_.symbols);
  for (const auto& [deadline_ms, fact] : deadlines_) {
    snapshot.deadlines.emplace_back(
        deadline_ms, RenderFactStatement(fact, *program_.symbols));
  }
  return snapshot;
}

namespace {

/// RenderStateText's format for a captured state: header lines, the EDB
/// statements, then one `# ttl` line per pending deadline.
std::string StateText(const WalSnapshot& state) {
  std::string text = "epoch=" + std::to_string(state.epoch) +
                     "\nclock_ms=" + std::to_string(state.now_ms) + "\n" +
                     state.statements;
  for (const auto& [deadline_ms, statement] : state.deadlines) {
    text += "# ttl " + std::to_string(deadline_ms) + " " + statement + "\n";
  }
  return text;
}

}  // namespace

std::string QueryService::RenderStateText() const {
  std::lock_guard<std::mutex> lock(head_mutex_);
  return StateText(SnapshotLocked());
}

void QueryService::FeedAppendLocked(std::string payload) {
  feed_.push_back(std::move(payload));
}

Status QueryService::FetchReplication(int64_t base_epoch, uint64_t index,
                                      size_t max_records,
                                      ReplicationBatch* out) {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition(
        "replication requires a WAL (start the primary with --wal-dir)");
  }
  if (failpoint::ShouldFail(failpoint::kReplicaFetch)) {
    return Status::Unavailable(
        std::string("injected replication fetch drop (failpoint ") +
        failpoint::kReplicaFetch + ")");
  }
  *out = ReplicationBatch();
  {
    std::lock_guard<std::mutex> lock(head_mutex_);
    WalSnapshot state = SnapshotLocked();
    out->base_epoch = feed_base_epoch_;
    out->feed_size = feed_.size();
    out->primary_epoch = state.epoch;
    out->primary_clock_ms = state.now_ms;
    // The CRC and the cut are atomic: a follower whose applied prefix
    // reaches feed_size must reproduce these exact bytes.
    out->state_crc = WalCrc32(StateText(state));
    if (base_epoch != feed_base_epoch_ || index > feed_.size()) {
      // Renegotiation: the follower's coordinates predate this generation
      // (compaction), come from another log, or are a bootstrap probe.
      // Ship the head state outright with the coordinates to resume from.
      out->snapshot = true;
      out->next_index = feed_.size();
      out->snap = std::move(state);
    } else {
      size_t end = std::min(feed_.size(), index + max_records);
      out->records.assign(feed_.begin() + index, feed_.begin() + end);
      out->next_index = end;
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.replication_fetches;
    stats_.replication_records += static_cast<long>(out->records.size());
    if (out->snapshot) ++stats_.replication_snapshots;
  }
  return Status::OK();
}

Status QueryService::ApplyReplicated(const std::string& payload) {
  {
    std::lock_guard<std::mutex> lock(head_mutex_);
    if (quarantined_) {
      return Status::DataLoss("node quarantined after divergence: " +
                              quarantine_reason_);
    }
  }
  CQLOPT_ASSIGN_OR_RETURN(WalRecord record, DecodeWalRecord(payload));
  CQLOPT_RETURN_IF_ERROR(ReplayRecord(record));
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.replicated_applies;
  }
  return Status::OK();
}

Status QueryService::InstallState(const WalSnapshot& snapshot,
                                  const std::string& source, bool persist) {
  Database edb;
  std::multimap<int64_t, Fact> deadlines;
  {
    std::lock_guard<std::mutex> lock(symbols_mutex_);
    Result<int> loaded =
        LoadDatabaseText(snapshot.statements, program_.symbols, &edb);
    if (!loaded.ok()) {
      return Status::Internal(source + " failed to load: " +
                              loaded.status().ToString());
    }
    for (const auto& [deadline_ms, statement] : snapshot.deadlines) {
      Database one;
      Result<int> fact_loaded =
          LoadDatabaseText(statement, program_.symbols, &one);
      if (!fact_loaded.ok() || one.TotalFacts() != 1) {
        return Status::Internal(source +
                                " deadline entry failed to load: " + statement);
      }
      for (const Fact& fact : FactsOf(one)) {
        deadlines.emplace(deadline_ms, fact);
      }
    }
  }
  long wal_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(head_mutex_);
    auto base = std::make_shared<EpochDelta>();
    base->id = snapshot.epoch;  // chain bottoms out at the snapshot
    PublishHeadLocked(std::move(edb), std::move(base));
    now_ms_ = snapshot.now_ms;
    deadlines_ = std::move(deadlines);
    // The snapshot starts a feed generation: replication coordinates are
    // stable across restarts because this base is re-derived, not counted,
    // and an installed snapshot mirrors what Compact() would produce, so
    // chained replication stays consistent.
    feed_.clear();
    feed_base_epoch_ = snapshot.epoch;
    if (!persist || wal_ == nullptr) return Status::OK();
    // Persist: a follower restart must recover to (at least) the
    // installed state from its own disk, without the primary.
    CQLOPT_RETURN_IF_ERROR(wal_->WriteSnapshot(snapshot));
    CQLOPT_RETURN_IF_ERROR(wal_->Reset());
    wal_bytes = wal_->log_bytes();
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.wal_bytes = wal_bytes;
  return Status::OK();
}

Status QueryService::InstallSnapshot(const WalSnapshot& snapshot) {
  return InstallState(snapshot, "replication snapshot", /*persist=*/true);
}

NodeRole QueryService::role() const {
  std::lock_guard<std::mutex> lock(head_mutex_);
  return role_;
}

void QueryService::SetRole(NodeRole role) {
  std::lock_guard<std::mutex> lock(head_mutex_);
  role_ = role;
}

void QueryService::Quarantine(const std::string& reason) {
  std::lock_guard<std::mutex> lock(head_mutex_);
  quarantined_ = true;
  quarantine_reason_ = reason;
}

bool QueryService::quarantined() const {
  std::lock_guard<std::mutex> lock(head_mutex_);
  return quarantined_;
}

HealthInfo QueryService::Health() const {
  HealthInfo info;
  {
    std::lock_guard<std::mutex> lock(head_mutex_);
    info.role = role_;
    info.epoch = head_->id;
    info.clock_ms = now_ms_;
    info.quarantined = quarantined_;
    info.quarantine_reason = quarantine_reason_;
  }
  std::function<void(HealthInfo*)> augmenter;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    augmenter = health_augmenter_;
  }
  // Invoked outside every service lock: the augmenter (a Replicator) takes
  // its own, and must not call back into this service.
  if (augmenter) augmenter(&info);
  return info;
}

void QueryService::SetHealthAugmenter(
    std::function<void(HealthInfo*)> augmenter) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  health_augmenter_ = std::move(augmenter);
}

Status QueryService::Promote(const std::string& arg) {
  {
    std::lock_guard<std::mutex> lock(head_mutex_);
    if (quarantined_) {
      return Status::FailedPrecondition(
          "refusing to promote a quarantined (diverged) follower: " +
          quarantine_reason_);
    }
    if (role_ == NodeRole::kPrimary) return Status::OK();  // idempotent
  }
  std::function<Status(const std::string&)> handler;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    handler = promote_handler_;
  }
  // The handler (the Replicator) stops pulling and runs the final
  // catch-up from the dead primary's surviving WAL — its failure aborts
  // the promotion so a half-caught-up node never starts taking writes.
  if (handler) CQLOPT_RETURN_IF_ERROR(handler(arg));
  SetRole(NodeRole::kPrimary);
  return Status::OK();
}

void QueryService::SetPromoteHandler(
    std::function<Status(const std::string&)> handler) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  promote_handler_ = std::move(handler);
}

ServiceStats QueryService::Stats() const {
  ServiceStats snapshot;
  std::function<void(ServiceStats*)> augmenter;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    snapshot = stats_;
    augmenter = stats_augmenter_;
  }
  snapshot.epoch = epoch();
  snapshot.wal_enabled = wal_ != nullptr;
  {
    std::lock_guard<std::mutex> lock(head_mutex_);
    snapshot.clock_ms = now_ms_;
    snapshot.ttl_pending = deadlines_.size();
  }
  snapshot.prepared_entries = prepared_.size();
  // Invoked outside stats_mutex_: the augmenter takes its own locks (the
  // scheduler's), and must not call back into this service.
  if (augmenter) augmenter(&snapshot);
  return snapshot;
}

void QueryService::SetStatsAugmenter(
    std::function<void(ServiceStats*)> augmenter) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_augmenter_ = std::move(augmenter);
}

}  // namespace cqlopt
