#include "service/protocol.h"

#include <charconv>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>

#include "service/wal.h"
#include "util/failpoint.h"

namespace cqlopt {

namespace {

std::string Trim(const std::string& s) {
  size_t begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  size_t end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

/// Splits "<word> <rest>"; rest is empty if the line is a bare word.
void SplitWord(const std::string& line, std::string* word, std::string* rest) {
  size_t space = line.find(' ');
  if (space == std::string::npos) {
    *word = line;
    rest->clear();
    return;
  }
  *word = line.substr(0, space);
  *rest = Trim(line.substr(space + 1));
}

void EmitError(const Status& status, std::vector<std::string>* out) {
  // Protocol responses are line-framed; a multi-line message would be
  // indistinguishable from payload, so newlines are flattened.
  std::string message = status.message();
  for (char& c : message) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  out->push_back(std::string("ERR ") + StatusCodeName(status.code()) + " " +
                 message);
}

/// `value` as `digits` lowercase hex digits, zero-padded.
std::string Hex(uint64_t value, int digits) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%0*llx", digits,
                static_cast<unsigned long long>(value));
  return buf;
}

std::string FormatMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

void EmitSchedulerStats(const SchedulerStats& sched,
                        std::vector<std::string>* out) {
  out->push_back("sched_workers=" + std::to_string(sched.workers));
  out->push_back("sched_queue_limit=" + std::to_string(sched.queue_limit));
  out->push_back("sched_queued=" + std::to_string(sched.queued));
  out->push_back("sched_in_flight=" + std::to_string(sched.in_flight));
  out->push_back("sched_admitted=" + std::to_string(sched.admitted));
  out->push_back("sched_shed=" + std::to_string(sched.shed));
  out->push_back("sched_preempted=" + std::to_string(sched.preempted));
  out->push_back("sched_completed=" + std::to_string(sched.completed));
  for (int c = 0; c < SchedulerStats::kClasses; ++c) {
    const std::string prefix =
        std::string("sched_") +
        PriorityClassName(static_cast<PriorityClass>(c)) + "_";
    const SchedulerStats::PerClass& pc = sched.priority[c];
    out->push_back(prefix + "submitted=" + std::to_string(pc.submitted));
    out->push_back(prefix + "shed=" + std::to_string(pc.shed));
    out->push_back(prefix + "completed=" + std::to_string(pc.completed));
    out->push_back(prefix + "cost=" + std::to_string(pc.cost));
    out->push_back(prefix + "wait_ms=" + FormatMs(pc.wait_ms));
    out->push_back(prefix + "run_ms=" + FormatMs(pc.run_ms));
  }
}

/// Client-originated mutations are refused on a follower at the protocol
/// boundary; the Replicator applies the shipped stream through direct
/// service calls, so replication itself is never gated. True when the line
/// was refused (response already emitted).
bool RejectFollowerWrite(QueryService& service, const std::string& verb,
                         std::vector<std::string>* out) {
  if (service.role() != NodeRole::kFollower) return false;
  EmitError(
      Status::FailedPrecondition(
          verb +
          " refused: this node is a read-only follower — send writes to "
          "the primary, or PROMOTE this node"),
      out);
  out->push_back("END");
  return true;
}

/// Splits a REPLICATE header's `key=value` words after the leading `OK`;
/// false when a word has no `=` or an empty value.
bool HeaderFields(const std::string& header,
                  std::map<std::string, std::string>* fields) {
  std::istringstream words(header);
  std::string word;
  if (!(words >> word) || word != "OK") return false;
  while (words >> word) {
    size_t eq = word.find('=');
    if (eq == std::string::npos || eq + 1 == word.size()) return false;
    (*fields)[word.substr(0, eq)] = word.substr(eq + 1);
  }
  return true;
}

/// Parses a CRC-32 as the primary writes it (eight hex digits): 1 to 8 hex
/// digits, nothing else (no sign, no prefix, no value past 32 bits).
bool ParseCrc(const std::string& word, uint32_t* out) {
  const char* end = word.data() + word.size();
  auto [stop, error] = std::from_chars(word.data(), end, *out, 16);
  return word.size() <= 8 && error == std::errc() && stop == end;
}

/// The bytes of an `R <hex>` / `S <hex>` line with tag `tag`, after the
/// torn-record failpoint has had its chance to damage them.
Status WireBytes(const std::string& line, char tag, std::string* bytes) {
  if (line.size() < 2 || line[0] != tag || line[1] != ' ' ||
      !HexDecode(line.substr(2), bytes)) {
    return Status::Unavailable("malformed REPLICATE line: " +
                               line.substr(0, 64));
  }
  if (!bytes->empty() && failpoint::ShouldFail(failpoint::kReplicaTornRecord)) {
    (*bytes)[bytes->size() / 2] ^= 0x40;
  }
  return Status::OK();
}

}  // namespace

void RenderReplicationReply(const ReplicationBatch& batch,
                            std::vector<std::string>* out) {
  out->push_back("OK base=" + std::to_string(batch.base_epoch) +
                 " next=" + std::to_string(batch.next_index) +
                 " feed=" + std::to_string(batch.feed_size) +
                 " epoch=" + std::to_string(batch.primary_epoch) +
                 " clock_ms=" + std::to_string(batch.primary_clock_ms) +
                 " crc=" + Hex(batch.state_crc, 8) +
                 (batch.snapshot ? " snapshot=1" : ""));
  if (batch.snapshot) {
    out->push_back("S " + HexEncode(EncodeSnapshotImage(batch.snap)));
    return;
  }
  for (const std::string& record : batch.records) {
    out->push_back("R " + HexEncode(EncodeWalFrame(record)));
  }
}

Status ParseReplicationReply(const std::vector<std::string>& lines,
                             uint64_t index, ReplicationBatch* out) {
  *out = ReplicationBatch();
  std::map<std::string, std::string> fields;
  auto number = [&fields](const char* key, int64_t* value) {
    auto it = fields.find(key);
    return it != fields.end() && ParseInt64(it->second, value);
  };
  int64_t next = 0;
  int64_t feed = 0;
  if (lines.empty() || !HeaderFields(lines[0], &fields) ||
      !number("base", &out->base_epoch) || !number("next", &next) ||
      next < 0 || !number("feed", &feed) || feed < 0 ||
      !number("epoch", &out->primary_epoch) ||
      !number("clock_ms", &out->primary_clock_ms) ||
      !ParseCrc(fields["crc"], &out->state_crc) ||
      !(fields["snapshot"].empty() || fields["snapshot"] == "1")) {
    return Status::Unavailable("malformed REPLICATE header: " +
                               (lines.empty() ? std::string() : lines[0]));
  }
  out->next_index = static_cast<uint64_t>(next);
  out->feed_size = static_cast<uint64_t>(feed);
  out->snapshot = fields["snapshot"] == "1";
  std::string bytes;
  if (out->snapshot) {
    if (lines.size() != 2) {
      return Status::Unavailable("snapshot reply without exactly one S line");
    }
    CQLOPT_RETURN_IF_ERROR(WireBytes(lines[1], 'S', &bytes));
    Result<WalSnapshot> snap = DecodeSnapshotImage(bytes);
    if (!snap.ok()) {
      return Status::Unavailable("damaged snapshot image: " +
                                 snap.status().message());
    }
    out->snap = std::move(*snap);
    return Status::OK();
  }
  if (out->next_index < index || out->next_index - index != lines.size() - 1) {
    return Status::Unavailable(
        "record count mismatch: next - index = " +
        std::to_string(out->next_index) + " - " + std::to_string(index) +
        ", got " + std::to_string(lines.size() - 1) + " record line(s)");
  }
  for (size_t i = 1; i < lines.size(); ++i) {
    CQLOPT_RETURN_IF_ERROR(WireBytes(lines[i], 'R', &bytes));
    size_t offset = 0;
    std::string_view payload;
    Status framed = DecodeWalFrame(bytes, &offset, &payload);
    if (framed.ok() && offset != bytes.size()) {
      framed = Status::DataLoss(std::to_string(bytes.size() - offset) +
                                " byte(s) after the frame");
    }
    if (!framed.ok()) {
      return Status::Unavailable("torn replication record " +
                                 std::to_string(i) + ": " + framed.message() +
                                 "; batch rejected");
    }
    out->records.emplace_back(payload);
  }
  return Status::OK();
}

bool ParseInt64(const std::string& word, int64_t* value) {
  if (word.empty()) return false;
  const bool negative = word[0] == '-';
  size_t i = negative ? 1 : 0;
  if (i == word.size()) return false;
  // Accumulate the magnitude unsigned, refusing any digit that would carry
  // it past the bound (INT64_MIN's magnitude is one more than INT64_MAX).
  const uint64_t limit =
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) +
      (negative ? 1 : 0);
  uint64_t magnitude = 0;
  for (; i < word.size(); ++i) {
    if (word[i] < '0' || word[i] > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(word[i] - '0');
    if (magnitude > (limit - digit) / 10) return false;
    magnitude = magnitude * 10 + digit;
  }
  *value = static_cast<int64_t>(negative ? 0 - magnitude : magnitude);
  return true;
}

ProtocolAction HandleLine(QueryService& service, const std::string& line,
                          std::vector<std::string>* out,
                          LineOutcome* outcome) {
  LineOutcome scratch;
  if (outcome == nullptr) outcome = &scratch;
  std::string command;
  std::string rest;
  SplitWord(Trim(line), &command, &rest);
  if (command.empty()) {
    // Blank lines are keep-alives: acknowledge without doing work.
    out->push_back("OK");
    out->push_back("END");
    return ProtocolAction::kContinue;
  }

  if (command == "PREPARE" || command == "QUERY") {
    std::string steps;
    std::string query;
    SplitWord(rest, &steps, &query);
    if (steps == "-") steps.clear();
    if (query.empty()) {
      EmitError(Status::InvalidArgument(command +
                                        " needs a steps spec ('-' for "
                                        "identity) and a query"),
                out);
      out->push_back("END");
      return ProtocolAction::kContinue;
    }
    // `QUERY <steps> <query> ASOF <epoch>` — epoch-consistent follower
    // read: the suffix is only stripped when its argument is a clean
    // non-negative integer, so query text containing the word ASOF is
    // never misparsed.
    int64_t min_epoch = -1;
    if (command == "QUERY") {
      size_t pos = query.rfind(" ASOF ");
      if (pos != std::string::npos) {
        int64_t parsed = -1;
        if (ParseInt64(Trim(query.substr(pos + 6)), &parsed) && parsed >= 0) {
          min_epoch = parsed;
          query = Trim(query.substr(0, pos));
        }
      }
    }
    if (command == "PREPARE") {
      bool cached = false;
      Result<uint64_t> fingerprint = service.Prepare(query, steps, &cached);
      if (!fingerprint.ok()) {
        EmitError(fingerprint.status(), out);
      } else {
        out->push_back("OK fingerprint=" + Hex(*fingerprint, 16) +
                       " cached=" + (cached ? "1" : "0"));
      }
    } else {
      Result<QueryOutcome> result = service.Execute(query, steps, min_epoch);
      if (!result.ok()) {
        EmitError(result.status(), out);
      } else {
        outcome->derived_facts = result->facts_stored;
        out->push_back(std::string("OK path=") + ServePathName(result->path) +
                       " epoch=" + std::to_string(result->epoch) +
                       " answers=" + std::to_string(result->answers.size()) +
                       " fixpoint=" + (result->reached_fixpoint ? "1" : "0"));
        for (const std::string& answer : result->answers) {
          out->push_back(answer);
        }
      }
    }
    out->push_back("END");
    return ProtocolAction::kContinue;
  }

  if (command == "INGEST") {
    if (RejectFollowerWrite(service, command, out)) {
      return ProtocolAction::kContinue;
    }
    // `INGEST TTL <ms> <facts>` commits facts that expire once the logical
    // clock (TICK) passes now + ms; bare `INGEST <facts>` is permanent.
    int64_t ttl_ms = 0;
    if (rest.compare(0, 4, "TTL ") == 0) {
      std::string ttl_word;
      std::string facts;
      SplitWord(Trim(rest.substr(4)), &ttl_word, &facts);
      if (!ParseInt64(ttl_word, &ttl_ms) || ttl_ms <= 0 || facts.empty()) {
        EmitError(Status::InvalidArgument(
                      "INGEST TTL needs a positive millisecond count and "
                      "`.`-terminated facts"),
                  out);
        out->push_back("END");
        return ProtocolAction::kContinue;
      }
      rest = facts;
    }
    if (rest.empty()) {
      EmitError(Status::InvalidArgument("INGEST needs `.`-terminated facts"),
                out);
      out->push_back("END");
      return ProtocolAction::kContinue;
    }
    Result<IngestOutcome> result = service.Ingest(rest, ttl_ms);
    if (!result.ok()) {
      EmitError(result.status(), out);
    } else {
      outcome->derived_facts = result->accepted;
      out->push_back("OK accepted=" + std::to_string(result->accepted) +
                     " duplicates=" + std::to_string(result->duplicates) +
                     " epoch=" + std::to_string(result->epoch));
    }
    out->push_back("END");
    return ProtocolAction::kContinue;
  }

  if (command == "RETRACT") {
    if (RejectFollowerWrite(service, command, out)) {
      return ProtocolAction::kContinue;
    }
    if (rest.empty()) {
      EmitError(Status::InvalidArgument("RETRACT needs `.`-terminated facts"),
                out);
      out->push_back("END");
      return ProtocolAction::kContinue;
    }
    Result<RetractOutcome> result = service.Retract(rest);
    if (!result.ok()) {
      EmitError(result.status(), out);
    } else {
      // Retraction work is charged like derivation: the removed facts are
      // what downstream maintenance must repair.
      outcome->derived_facts = result->removed;
      out->push_back("OK removed=" + std::to_string(result->removed) +
                     " missing=" + std::to_string(result->missing) +
                     " epoch=" + std::to_string(result->epoch));
    }
    out->push_back("END");
    return ProtocolAction::kContinue;
  }

  if (command == "TICK") {
    int64_t delta_ms = 0;
    if (!rest.empty() && (!ParseInt64(rest, &delta_ms) || delta_ms < 0)) {
      EmitError(Status::InvalidArgument(
                    "TICK needs a non-negative millisecond delta (bare TICK "
                    "reads the clock)"),
                out);
      out->push_back("END");
      return ProtocolAction::kContinue;
    }
    // A bare TICK (or TICK 0) reads the clock — allowed anywhere; only an
    // actual advance is a write.
    if (delta_ms > 0 && RejectFollowerWrite(service, command, out)) {
      return ProtocolAction::kContinue;
    }
    Result<TickOutcome> result = service.AdvanceClock(delta_ms);
    if (!result.ok()) {
      EmitError(result.status(), out);
    } else {
      outcome->derived_facts = result->expired;
      out->push_back("OK now_ms=" + std::to_string(result->now_ms) +
                     " expired=" + std::to_string(result->expired) +
                     " epoch=" + std::to_string(result->epoch));
    }
    out->push_back("END");
    return ProtocolAction::kContinue;
  }

  if (command == "PRIORITY") {
    PriorityClass priority;
    if (!ParsePriorityClass(rest, &priority)) {
      EmitError(Status::InvalidArgument(
                    "PRIORITY needs one of interactive, normal, batch"),
                out);
      out->push_back("END");
      return ProtocolAction::kContinue;
    }
    outcome->priority_changed = true;
    outcome->priority = priority;
    out->push_back(std::string("OK priority=") + PriorityClassName(priority));
    out->push_back("END");
    return ProtocolAction::kContinue;
  }

  if (command == "REPLICATE") {
    // REPLICATE <base_epoch> <index> [<max_records>] — one pull of the
    // primary's feed, shipped in the WAL's own checksummed encodings so a
    // torn wire record is detected and refetched, never applied.
    std::string base_word;
    std::string tail;
    SplitWord(rest, &base_word, &tail);
    std::string index_word;
    std::string max_word;
    SplitWord(tail, &index_word, &max_word);
    int64_t base_epoch = 0;
    int64_t index = 0;
    int64_t max_records = 64;
    if (!ParseInt64(base_word, &base_epoch) ||
        !ParseInt64(index_word, &index) || index < 0 ||
        (!max_word.empty() &&
         (!ParseInt64(max_word, &max_records) || max_records <= 0))) {
      EmitError(Status::InvalidArgument(
                    "REPLICATE needs <base_epoch> <index> [<max_records>] "
                    "(bootstrap with base_epoch -1, index 0)"),
                out);
      out->push_back("END");
      return ProtocolAction::kContinue;
    }
    ReplicationBatch batch;
    Status fetched = service.FetchReplication(
        base_epoch, static_cast<uint64_t>(index),
        static_cast<size_t>(max_records), &batch);
    if (!fetched.ok()) {
      EmitError(fetched, out);
      out->push_back("END");
      return ProtocolAction::kContinue;
    }
    RenderReplicationReply(batch, out);
    out->push_back("END");
    return ProtocolAction::kContinue;
  }

  if (command == "HEALTH") {
    HealthInfo health = service.Health();
    out->push_back(std::string("OK role=") + NodeRoleName(health.role) +
                   " epoch=" + std::to_string(health.epoch) +
                   " clock_ms=" + std::to_string(health.clock_ms) +
                   " quarantined=" + (health.quarantined ? "1" : "0") +
                   " lag=" + std::to_string(health.lag_records) +
                   " primary_epoch=" + std::to_string(health.primary_epoch) +
                   " applied=" + std::to_string(health.records_applied) +
                   " snapshots=" +
                   std::to_string(health.snapshots_installed));
    if (health.quarantined) {
      std::string reason = health.quarantine_reason;
      for (char& c : reason) {
        if (c == '\n' || c == '\r') c = ' ';
      }
      out->push_back("quarantine_reason=" + reason);
    }
    out->push_back("END");
    return ProtocolAction::kContinue;
  }

  if (command == "PROMOTE") {
    // PROMOTE [<dead-primary-wal-dir>] — operator failover. With a WAL
    // directory argument the registered handler replays the dead primary's
    // surviving records first, so no acknowledged write is lost.
    Status promoted = service.Promote(rest);
    if (!promoted.ok()) {
      EmitError(promoted, out);
    } else {
      out->push_back("OK role=primary epoch=" +
                     std::to_string(service.epoch()));
    }
    out->push_back("END");
    return ProtocolAction::kContinue;
  }

  if (command == "STATS") {
    ServiceStats stats = service.Stats();
    out->push_back("OK");
    out->push_back("queries=" + std::to_string(stats.queries));
    out->push_back("ingests=" + std::to_string(stats.ingests));
    out->push_back("prepared_hits=" + std::to_string(stats.prepared_hits));
    out->push_back("prepared_misses=" + std::to_string(stats.prepared_misses));
    out->push_back("cold_evals=" + std::to_string(stats.cold_evals));
    out->push_back("epoch_hits=" + std::to_string(stats.epoch_hits));
    out->push_back("resumes=" + std::to_string(stats.resumes));
    out->push_back("resumed_iterations=" +
                   std::to_string(stats.resumed_iterations));
    out->push_back("governed_aborts=" + std::to_string(stats.governed_aborts));
    out->push_back("retracts=" + std::to_string(stats.retracts));
    out->push_back("retracted_facts=" + std::to_string(stats.retracted_facts));
    out->push_back("retract_missing=" + std::to_string(stats.retract_missing));
    out->push_back("retract_resumes=" + std::to_string(stats.retract_resumes));
    out->push_back("ttl_ingests=" + std::to_string(stats.ttl_ingests));
    out->push_back("ttl_pending=" + std::to_string(stats.ttl_pending));
    out->push_back("ticks=" + std::to_string(stats.ticks));
    out->push_back("expired_facts=" + std::to_string(stats.expired_facts));
    out->push_back("clock_ms=" + std::to_string(stats.clock_ms));
    out->push_back("replication_fetches=" +
                   std::to_string(stats.replication_fetches));
    out->push_back("replication_records=" +
                   std::to_string(stats.replication_records));
    out->push_back("replication_snapshots=" +
                   std::to_string(stats.replication_snapshots));
    out->push_back("replicated_applies=" +
                   std::to_string(stats.replicated_applies));
    out->push_back("epoch=" + std::to_string(stats.epoch));
    out->push_back("prepared_entries=" +
                   std::to_string(stats.prepared_entries));
    if (stats.scheduler.attached) EmitSchedulerStats(stats.scheduler, out);
    out->push_back("END");
    return ProtocolAction::kContinue;
  }

  if (command == "SHUTDOWN") {
    out->push_back("OK bye");
    out->push_back("END");
    return ProtocolAction::kShutdown;
  }

  EmitError(Status::InvalidArgument("unknown command '" + command +
                                    "' (expected PREPARE, QUERY, INGEST, "
                                    "RETRACT, TICK, PRIORITY, STATS, "
                                    "REPLICATE, HEALTH, PROMOTE, or "
                                    "SHUTDOWN)"),
            out);
  out->push_back("END");
  return ProtocolAction::kContinue;
}

}  // namespace cqlopt
