#ifndef CQLOPT_SERVICE_WAL_H_
#define CQLOPT_SERVICE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "eval/database.h"
#include "util/status.h"

namespace cqlopt {

/// Renders `fact` as one loader-syntax statement (eval/loader.h), i.e. a
/// body-free rule whose constraints are the fact's positional constraints
/// converted to variables: `p(W1, W2) :- W1 = madison, W2 <= 3.`. Unlike
/// Fact::ToString (whose `$i` / `;` forms do not parse), the output is
/// accepted by LoadDatabaseText and re-parses to the same fact — the WAL
/// and snapshot files are made of exactly these statements.
std::string RenderFactStatement(const Fact& fact, const SymbolTable& symbols);

/// Renders every fact of `db` as one statement per line, relations in
/// PredId order and facts in insertion order — the deterministic snapshot
/// body Compact() writes.
std::string RenderDatabaseText(const Database& db, const SymbolTable& symbols);

/// The IEEE CRC-32 (reflected, as gzip/zlib) the WAL checksums records
/// with, exposed so replication can reuse the exact same polynomial for
/// per-epoch state digests (a follower's state CRC is comparable to the
/// primary's only because both sides hash identical bytes identically).
uint32_t WalCrc32(std::string_view data);

/// Lowercase hex of arbitrary bytes — how binary WAL payloads ride the
/// line-framed text protocol (REPLICATE responses).
std::string HexEncode(const std::string& bytes);

/// Inverse of HexEncode; false on odd length or a non-hex character.
bool HexDecode(const std::string& hex, std::string* out);

/// One decoded WAL record — the unit QueryService commits and replays.
///
/// On disk a record payload is either bare statement text (the pre-§14
/// insert-only format; its first byte is printable, so it can never clash
/// with a kind byte) or a batch-kind byte from the control range 0x01..0x08
/// followed by kind-specific fields. Writers only emit the kind byte when
/// they must (plain inserts keep the legacy encoding), so logs written by a
/// service that never retracts are byte-identical to pre-§14 logs.
struct WalRecord {
  enum class Kind {
    kInsert,     // legacy bare text: `statements`
    kRetract,    // 0x02 + statements
    kExpire,     // 0x03 + u64 now_ms + statements (TTL sweep deletions)
    kInsertTtl,  // 0x04 + u64 now_ms + u64 ttl_ms + statements
    kTick,       // 0x05 + u64 now_ms (clock advance with no expiry)
  };
  Kind kind = Kind::kInsert;
  /// Logical clock at commit (kExpire / kInsertTtl / kTick).
  int64_t now_ms = 0;
  /// Time-to-live of the batch's facts (kInsertTtl).
  int64_t ttl_ms = 0;
  /// Loader-syntax statements: the facts inserted, retracted, or expired.
  std::string statements;
};

/// Serializes `record` to the payload bytes Append() stores. kInsert
/// records encode as their bare statement text.
std::string EncodeWalRecord(const WalRecord& record);

/// Parses a payload produced by EncodeWalRecord (or by a pre-§14 writer).
/// An unknown batch-kind byte or a field truncated short of its fixed
/// header is an InvalidArgument naming the kind — NOT data to truncate:
/// the record passed its checksum, so the bytes are exactly what a (newer
/// or corrupted-at-write) writer committed, and dropping the batch would
/// silently fork the recovered state from the acknowledged one.
Result<WalRecord> DecodeWalRecord(const std::string& payload);

/// Everything a snapshot captures: the compacted EDB plus the streaming
/// state that must survive a restart — the logical clock and the not yet
/// expired TTL deadlines (deadline_ms + the fact's rendered statement).
/// Written as CQLSNAP2; ReadSnapshot also accepts pre-§14 CQLSNAP1 files
/// (clock 0, no deadlines).
struct WalSnapshot {
  int64_t epoch = 0;
  int64_t now_ms = 0;
  std::vector<std::pair<int64_t, std::string>> deadlines;
  std::string statements;
};

// The two codecs below are the only encodings of a record and of a
// snapshot, on disk and on the wire: wal.log holds record frames and
// snapshot.cql holds one CQLSNAP2 image, and a REPLICATE reply ships the
// same bytes hex-encoded (`R` lines carry record frames, an `S` line the
// image; service/protocol.h). A follower therefore checks what it receives
// with exactly the length and CRC checks recovery applies to its own files.

/// The record frame of `payload`: `[u32 len][u32 crc32][payload]`,
/// little-endian, CRC-32 over the payload.
std::string EncodeWalFrame(const std::string& payload);

/// Decodes the record frame starting at `bytes[*offset]` (`*offset` <=
/// `bytes.size()`): points `*payload` into `bytes` and advances `*offset`
/// past the frame. A torn header, a length past the record bound (1 GiB)
/// or past the end of `bytes`, or a checksum mismatch is a DataLoss whose
/// message names the damage; `*offset` is then unchanged.
Status DecodeWalFrame(std::string_view bytes, size_t* offset,
                      std::string_view* payload);

/// The CQLSNAP2 image of `snapshot`: the 8-byte magic `CQLSNAP2`, then one
/// record frame whose payload is u64 epoch, u64 now_ms, u32 deadline count,
/// per deadline u64 deadline_ms + u32 length + statement bytes, then the EDB
/// statements.
std::string EncodeSnapshotImage(const WalSnapshot& snapshot);

/// Decodes a CQLSNAP2 image. A wrong magic, a torn or overlong frame, a
/// checksum mismatch, or a deadline table running past the payload is a
/// DataLoss naming the damage. (Only Wal::ReadSnapshot reads CQLSNAP1.)
Result<WalSnapshot> DecodeSnapshotImage(std::string_view image);

/// What Wal::ReadAll found in the log.
struct WalReadOutcome {
  /// The payload of every intact record, append order.
  std::vector<std::string> payloads;
  /// Bytes of torn/corrupt tail dropped from the log file (0 on a clean
  /// shutdown). The file was truncated back to the last intact record.
  long truncated_bytes = 0;
  /// Human-readable description of the truncation; empty when clean.
  std::string warning;
};

/// The write-ahead log backing a QueryService's durability (DESIGN.md §10).
///
/// One directory holds two files:
///  - `wal.log`: an 8-byte magic header followed by one record frame
///    (EncodeWalFrame) per committed batch, the payload being the
///    EncodeWalRecord bytes. Append() fsyncs before returning — a batch is
///    never visible to readers unless it is durable first.
///  - `snapshot.cql`: the compacted state at some epoch as one CQLSNAP2
///    image (EncodeSnapshotImage). Written to a temp file, fsynced, then
///    atomically renamed, so a crash mid-compaction leaves the previous
///    snapshot intact.
///
/// Recovery (QueryService::Recover) loads the snapshot if present, then
/// replays the intact prefix of wal.log; a torn or corrupt tail record —
/// the signature of a crash mid-append — is truncated with a warning, never
/// treated as data.
///
/// Fault injection: Append() honours the "wal/short-write" (record cut off
/// mid-write) and "wal/fsync" (write completes, fsync fails) failpoints;
/// the crash-before/after-commit points live in the service commit path.
class Wal {
 public:
  /// Opens (creating if needed) the log in `dir`; creates `dir` itself if
  /// missing. Validates the magic header of an existing log.
  static Result<std::unique_ptr<Wal>> Open(const std::string& dir);
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appends one checksummed record and fsyncs the log. A real write or
  /// fsync failure (ENOSPC, EIO, ...) rolls the log back to the pre-append
  /// offset, so torn bytes can never precede later acknowledged records;
  /// if even the rollback fails, the handle is poisoned and every further
  /// Append is rejected until ReadAll()/Reset() restores a consistent log.
  /// Injected failures simulate a crash instead: the torn/undurable record
  /// stays on disk for recovery to judge, and the handle is poisoned.
  Status Append(const std::string& payload);

  /// Reads every intact record and truncates any torn/corrupt tail in
  /// place. Safe to call repeatedly. A checksum-valid record carrying an
  /// unknown batch-kind byte fails with an InvalidArgument naming the byte
  /// and its file offset — such a record was durably committed (likely by a
  /// newer cqld), so unlike a torn tail it must never be dropped.
  Result<WalReadOutcome> ReadAll();

  /// Atomically replaces the snapshot file with the CQLSNAP2 image of
  /// `snapshot`; an image past the record-frame bound (1 GiB) is refused.
  Status WriteSnapshot(const WalSnapshot& snapshot);

  /// Loads the snapshot. `*found` is false (and `*snapshot` untouched) when
  /// no snapshot exists; a corrupt snapshot is an error — unlike a torn log
  /// tail it cannot be safely dropped, because the log it compacted away is
  /// gone. Reads both CQLSNAP2 and pre-§14 CQLSNAP1 files.
  Status ReadSnapshot(bool* found, WalSnapshot* snapshot);

  /// Empties the log back to its magic header (after a successful
  /// compaction made the records redundant) and fsyncs.
  Status Reset();

  /// Current log file size in bytes (header included) — the compaction
  /// trigger.
  long log_bytes() const { return log_bytes_; }

  const std::string& dir() const { return dir_; }
  std::string log_path() const;
  std::string snapshot_path() const;

 private:
  Wal(std::string dir, int fd, long log_bytes)
      : dir_(std::move(dir)), fd_(fd), log_bytes_(log_bytes) {}

  /// Rolls the log back to `pre_offset` after a real append failure and
  /// returns `cause`; poisons the handle when the rollback itself fails.
  Status FailAppend(long pre_offset, Status cause);

  std::string dir_;
  int fd_ = -1;  // wal.log, O_RDWR, positioned at EOF for appends
  long log_bytes_ = 0;
  /// Non-OK once the log may hold torn bytes this handle cannot remove
  /// (failed rollback, or an injected crash). Append refuses while set;
  /// a successful ReadAll()/Reset() — which re-establish a consistent
  /// log — clears it.
  Status failed_;
};

}  // namespace cqlopt

#endif  // CQLOPT_SERVICE_WAL_H_
