#include "service/replica.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "service/protocol.h"
#include "service/wal.h"
#include "util/failpoint.h"

namespace cqlopt {

namespace {

/// Maps a server `ERR <CODE> <msg>` line back to a typed Status. Codes we
/// don't specifically recognize become UNAVAILABLE — from the puller's
/// seat, an unserveable fetch is an unserveable fetch.
Status MapServerError(const std::string& line) {
  std::string body = line.rfind("ERR ", 0) == 0 ? line.substr(4) : line;
  if (body.rfind("DATA_LOSS", 0) == 0) return Status::DataLoss(body);
  if (body.rfind("FAILED_PRECONDITION", 0) == 0) {
    return Status::FailedPrecondition(body);
  }
  return Status::Unavailable("primary: " + body);
}

std::string CrcHex(uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

}  // namespace

Status LocalReplicationSource::Fetch(int64_t base_epoch, uint64_t index,
                                     size_t max_records,
                                     ReplicationBatch* out) {
  ReplicationBatch batch;
  CQLOPT_RETURN_IF_ERROR(
      primary_->FetchReplication(base_epoch, index, max_records, &batch));
  // Round-trip through the REPLICATE reply, so in-process replication
  // decodes exactly the bytes a remote follower would.
  std::vector<std::string> lines;
  RenderReplicationReply(batch, &lines);
  return ParseReplicationReply(lines, index, out);
}

RemoteReplicationSource::RemoteReplicationSource(
    std::unique_ptr<LineClient> client,
    std::function<Result<std::unique_ptr<LineClient>>()> reconnect,
    int io_timeout_ms)
    : client_(std::move(client)),
      reconnect_(std::move(reconnect)),
      io_timeout_ms_(io_timeout_ms) {}

Status RemoteReplicationSource::Fetch(int64_t base_epoch, uint64_t index,
                                      size_t max_records,
                                      ReplicationBatch* out) {
  if (client_ == nullptr) {
    if (!reconnect_) return Status::Unavailable("no connection to primary");
    Result<std::unique_ptr<LineClient>> conn = reconnect_();
    if (!conn.ok()) return conn.status();
    client_ = std::move(*conn);
  }
  std::string request = "REPLICATE " + std::to_string(base_epoch) + " " +
                        std::to_string(index) + " " +
                        std::to_string(max_records);
  LineClient::Response response;
  Status exchanged = client_->Exchange(request, io_timeout_ms_, &response);
  if (!exchanged.ok()) {
    // Connection state is unknown after a failed exchange — reconnect next
    // round rather than read someone else's leftovers.
    client_.reset();
    return exchanged;
  }
  if (response.lines.empty()) {
    client_.reset();
    return Status::Unavailable("empty REPLICATE response");
  }
  if (response.is_error) return MapServerError(response.lines[0]);
  return ParseReplicationReply(response.lines, index, out);
}

Replicator::Replicator(QueryService* follower,
                       std::unique_ptr<ReplicationSource> source,
                       ReplicatorOptions options)
    : follower_(follower),
      source_(std::move(source)),
      options_(options) {
  // Bootstrap coordinates: base_epoch -1 never matches a feed identity, so
  // the first fetch renegotiates a snapshot (or, for a virgin primary at
  // base 0... base -1 still mismatches and snapshots — a no-op install).
  progress_.base_epoch = -1;
  progress_.next_index = 0;
}

Replicator::~Replicator() {
  Stop();
  // Detach our hooks; the service may outlive us.
  follower_->SetHealthAugmenter(nullptr);
  follower_->SetPromoteHandler(nullptr);
}

void Replicator::AttachHooks() {
  follower_->SetRole(NodeRole::kFollower);
  follower_->SetHealthAugmenter([this](HealthInfo* health) {
    ReplicatorProgress progress = Progress();
    health->lag_records = progress.lag_records;
    health->primary_epoch = progress.primary_epoch;
    health->records_applied = progress.records_applied;
    health->snapshots_installed = progress.snapshots_installed;
  });
  follower_->SetPromoteHandler(
      [this](const std::string& arg) { return Promote(arg); });
}

Result<int> Replicator::Step() {
  int64_t base_epoch;
  uint64_t next_index;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (progress_.quarantined) {
      return Status::DataLoss("follower quarantined: " +
                              progress_.quarantine_reason);
    }
    base_epoch = progress_.base_epoch;
    next_index = progress_.next_index;
  }

  ReplicationBatch batch;
  Status fetched =
      source_->Fetch(base_epoch, next_index, options_.max_records, &batch);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++progress_.fetches;
    if (!fetched.ok()) ++progress_.fetch_failures;
  }
  if (!fetched.ok()) return fetched;

  int applied = 0;
  if (batch.snapshot) {
    if (failpoint::ShouldFail(failpoint::kReplicaCrashBeforeApply)) {
      return Status::Internal(
          "injected follower crash before snapshot install");
    }
    // Never move backwards: a renegotiation snapshot at or behind our own
    // epoch (possible when the primary compacted but we already hold newer
    // state, e.g. right after a bootstrap race) still resets coordinates
    // but must not roll our state back... it cannot be behind if we only
    // ever applied the primary's own commits, so treat it as install.
    CQLOPT_RETURN_IF_ERROR(follower_->InstallSnapshot(batch.snap));
    {
      std::lock_guard<std::mutex> lock(mutex_);
      progress_.base_epoch = batch.base_epoch;
      progress_.next_index = batch.next_index;
      ++progress_.snapshots_installed;
    }
    if (failpoint::ShouldFail(failpoint::kReplicaCrashAfterApply)) {
      return Status::Internal(
          "injected follower crash after snapshot install");
    }
  } else {
    if (!batch.records.empty() &&
        failpoint::ShouldFail(failpoint::kReplicaCrashBeforeApply)) {
      return Status::Internal("injected follower crash before apply");
    }
    for (const std::string& record : batch.records) {
      if (applied > 0 &&
          failpoint::ShouldFail(failpoint::kReplicaCrashMidApply)) {
        return Status::Internal(
            "injected follower crash mid-batch (" + std::to_string(applied) +
            " of " + std::to_string(batch.records.size()) +
            " records committed)");
      }
      CQLOPT_RETURN_IF_ERROR(follower_->ApplyReplicated(record));
      ++applied;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        progress_.next_index = next_index + static_cast<uint64_t>(applied);
        ++progress_.records_applied;
      }
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      progress_.base_epoch = batch.base_epoch;
    }
    if (applied > 0 &&
        failpoint::ShouldFail(failpoint::kReplicaCrashAfterApply)) {
      return Status::Internal("injected follower crash after apply");
    }
  }

  uint64_t consumed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    progress_.primary_epoch = batch.primary_epoch;
    consumed = progress_.next_index;
    progress_.lag_records =
        batch.feed_size >= consumed
            ? static_cast<long>(batch.feed_size - consumed)
            : 0;
  }

  // Divergence check: comparable only when we are exactly level with the
  // cut — the CRC was taken at feed_size, and ticks move state without
  // burning an epoch, so epoch equality alone would compare different cuts.
  if (consumed == batch.feed_size &&
      (batch.snapshot ||
       batch.base_epoch == base_epoch)) {
    int64_t follower_epoch = follower_->epoch();
    uint32_t follower_crc = WalCrc32(follower_->RenderStateText());
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++progress_.divergence_checks;
    }
    if (follower_epoch != batch.primary_epoch ||
        follower_crc != batch.state_crc) {
      std::string reason =
          "replica diverged from primary at feed (" +
          std::to_string(batch.base_epoch) + ", " +
          std::to_string(batch.feed_size) + "): follower epoch " +
          std::to_string(follower_epoch) + " crc " + CrcHex(follower_crc) +
          " vs primary epoch " + std::to_string(batch.primary_epoch) +
          " crc " + CrcHex(batch.state_crc);
      follower_->Quarantine(reason);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        progress_.quarantined = true;
        progress_.quarantine_reason = reason;
      }
      return Status::DataLoss(reason);
    }
  }
  return applied;
}

void Replicator::Start() {
  std::lock_guard<std::mutex> lock(thread_mutex_);
  if (thread_.joinable()) return;
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { RunLoop(); });
}

void Replicator::Stop() {
  std::lock_guard<std::mutex> lock(thread_mutex_);
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

void Replicator::RunLoop() {
  uint64_t rng = options_.jitter_seed | 1;
  int backoff_ms = options_.backoff_initial_ms;
  auto sleep_ms = [this](int total) {
    // Sleep in small slices so Stop() is prompt.
    while (total > 0 && !stop_.load(std::memory_order_relaxed)) {
      int slice = total < 10 ? total : 10;
      std::this_thread::sleep_for(std::chrono::milliseconds(slice));
      total -= slice;
    }
  };
  while (!stop_.load(std::memory_order_relaxed)) {
    Result<int> stepped = Step();
    if (!stepped.ok()) {
      if (stepped.status().code() == StatusCode::kDataLoss) return;
      // Jittered exponential backoff (deterministic xorshift64* — chaos
      // schedules replay identically under a fixed seed).
      rng ^= rng >> 12;
      rng ^= rng << 25;
      rng ^= rng >> 27;
      int jitter_span = backoff_ms / 2 + 1;
      int delay =
          backoff_ms / 2 + static_cast<int>((rng * 0x2545f4914f6cdd1dull) %
                                            static_cast<uint64_t>(jitter_span));
      sleep_ms(delay);
      backoff_ms = backoff_ms * 2;
      if (backoff_ms > options_.backoff_max_ms) {
        backoff_ms = options_.backoff_max_ms;
      }
      continue;
    }
    backoff_ms = options_.backoff_initial_ms;
    if (*stepped == 0) sleep_ms(options_.idle_poll_ms);
  }
}

Status Replicator::Promote(const std::string& dead_primary_wal_dir) {
  // Stop pulling first — after promotion this node IS the primary and the
  // old feed is dead history. Called either directly or as the service's
  // promote handler (QueryService::Promote flips the role afterwards).
  //
  // Stop() must not run from the pull thread itself (self-join); the
  // handler is only invoked from protocol/scheduler threads.
  Stop();
  if (dead_primary_wal_dir.empty()) return Status::OK();

  // Final catch-up: drain whatever the dead primary's WAL durably holds.
  // The log's records ARE its final feed generation (Compact resets the log
  // when it writes the snapshot), so the follower's feed coordinates say
  // exactly which prefix it already applied. Re-applying that prefix would
  // corrupt TTL state — an insert-ttl record whose facts have since expired
  // would resurrect them with deadlines recomputed from the *current*
  // clock, past every sweep already logged — so only the unseen suffix is
  // replayed. When the generations don't line up (the primary compacted
  // past this follower's last fetch, or a restarted follower lost its
  // coordinates), rebase onto the dead primary's snapshot and replay the
  // whole generation on top: exactly the recovery algorithm, so the result
  // is byte-identical to the dead primary's final durable state either way.
  CQLOPT_ASSIGN_OR_RETURN(std::unique_ptr<Wal> wal,
                          Wal::Open(dead_primary_wal_dir));
  bool found = false;
  WalSnapshot snapshot;
  CQLOPT_RETURN_IF_ERROR(wal->ReadSnapshot(&found, &snapshot));
  CQLOPT_ASSIGN_OR_RETURN(WalReadOutcome read, wal->ReadAll());
  int64_t base;
  uint64_t next;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    base = progress_.base_epoch;
    next = progress_.next_index;
  }
  const int64_t generation = found ? snapshot.epoch : 0;
  size_t skip = 0;
  if (base == generation) {
    skip = next < read.payloads.size() ? static_cast<size_t>(next)
                                       : read.payloads.size();
  } else if (found) {
    CQLOPT_RETURN_IF_ERROR(follower_->InstallSnapshot(snapshot));
    std::lock_guard<std::mutex> lock(mutex_);
    ++progress_.snapshots_installed;
  }
  // else: a virgin follower of a never-compacted primary — the generation
  // starts at the shared base EDB, which is what a follower that has never
  // fetched is still holding; replay everything.
  for (size_t i = skip; i < read.payloads.size(); ++i) {
    CQLOPT_RETURN_IF_ERROR(follower_->ApplyReplicated(read.payloads[i]));
    std::lock_guard<std::mutex> lock(mutex_);
    ++progress_.records_applied;
  }
  return Status::OK();
}

ReplicatorProgress Replicator::Progress() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return progress_;
}

}  // namespace cqlopt
