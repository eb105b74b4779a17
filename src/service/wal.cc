#include "service/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "ast/arg_map.h"
#include "ast/printer.h"
#include "ast/rule.h"
#include "util/failpoint.h"

namespace cqlopt {
namespace {

// Both headers are 8 bytes so record parsing starts at the same offset.
constexpr char kLogMagic[8] = {'C', 'Q', 'L', 'W', 'A', 'L', '1', '\n'};
constexpr char kSnapMagic[8] = {'C', 'Q', 'L', 'S', 'N', 'A', 'P', '1'};
constexpr char kSnapMagic2[8] = {'C', 'Q', 'L', 'S', 'N', 'A', 'P', '2'};
constexpr size_t kMagicSize = sizeof(kLogMagic);

// Batch-kind bytes (WalRecord::Kind). Statement text always starts with a
// printable byte (a predicate name, '%' comment, or whitespace), so the
// C0 control range below is reserved for kind bytes: any payload whose
// first byte falls in [0x01, 0x08] is a kinded record, everything else is a
// legacy bare-text insert. 0x01 stays unassigned (too easy to confuse with
// an off-by-one); future kinds take 0x06..0x08.
constexpr char kKindRetract = 0x02;
constexpr char kKindExpire = 0x03;
constexpr char kKindInsertTtl = 0x04;
constexpr char kKindTick = 0x05;

bool IsKindByte(char c) { return c >= 0x01 && c <= 0x08; }

bool IsKnownKind(char c) {
  return c == kKindRetract || c == kKindExpire || c == kKindInsertTtl ||
         c == kKindTick;
}

/// Names an unassigned kind byte and the assigned ones, for errors.
std::string UnknownKind(char c) {
  const char* hex = "0123456789abcdef";
  const unsigned v = static_cast<unsigned char>(c);
  return std::string("unknown batch-kind byte 0x") + hex[v >> 4] +
         hex[v & 0xF] +
         " (known: insert text, retract 0x02, expire 0x03, insert-ttl 0x04, "
         "tick 0x05)";
}

constexpr size_t kRecordHeader = 8;  // u32 len + u32 crc32, little-endian
// A record longer than this is certainly a corrupt length field, not data.
constexpr uint32_t kMaxRecordBytes = 1u << 30;

void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

/// write(2) looping on EINTR and short writes.
Status WriteBytes(int fd, const char* data, size_t size, const char* what) {
  size_t sent = 0;
  while (sent < size) {
    ssize_t n = ::write(fd, data + sent, size - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno(what);
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<std::string> ReadWholeFile(int fd, const char* what) {
  std::string out;
  char chunk[1 << 16];
  off_t offset = 0;
  while (true) {
    ssize_t n = ::pread(fd, chunk, sizeof(chunk), offset);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno(what);
    }
    if (n == 0) return out;
    out.append(chunk, static_cast<size_t>(n));
    offset += n;
  }
}

Status FsyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("open dir " + dir);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc < 0) return Errno("fsync dir " + dir);
  return Status::OK();
}

}  // namespace

/// CRC-32 (IEEE 802.3, reflected), the checksum gzip/zlib use.
uint32_t WalCrc32(std::string_view data) {
  static const uint32_t* table = [] {
    static uint32_t entries[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      entries[i] = c;
    }
    return entries;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (char c : data) {
    crc = table[(crc ^ static_cast<unsigned char>(c)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string HexEncode(const std::string& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

bool HexDecode(const std::string& hex, std::string* out) {
  if (hex.size() % 2 != 0) return false;
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  out->clear();
  out->reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = nibble(hex[i]);
    int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out->push_back(static_cast<char>((hi << 4) | lo));
  }
  return true;
}

std::string RenderFactStatement(const Fact& fact, const SymbolTable& symbols) {
  // Rebuild the fact as the body-free rule the loader parses facts from:
  // fresh rule variables W1..Wk (ids above the 1..arity position range —
  // see rule.h), constraints converted position→variable via PTOL.
  Rule rule;
  std::vector<VarId> args;
  args.reserve(static_cast<size_t>(fact.arity));
  for (int i = 1; i <= fact.arity; ++i) {
    VarId var = 1024 + i;
    args.push_back(var);
    rule.var_names[var] = "W" + std::to_string(i);
  }
  rule.head = Literal(fact.pred, std::move(args));
  rule.constraints = PtolConjunction(rule.head, fact.constraint);
  return RenderRule(rule, symbols);
}

std::string RenderDatabaseText(const Database& db,
                               const SymbolTable& symbols) {
  std::string out;
  for (const auto& [pred, rel] : db.relations()) {
    for (size_t i = 0; i < rel.size(); ++i) {
      out += RenderFactStatement(rel.fact(i), symbols);
      out += '\n';
    }
  }
  return out;
}

std::string EncodeWalRecord(const WalRecord& record) {
  std::string out;
  switch (record.kind) {
    case WalRecord::Kind::kInsert:
      // Legacy bare-text encoding: a pre-§14 reader replays it unchanged,
      // and an insert-only log stays byte-identical to one a pre-§14 writer
      // would produce.
      return record.statements;
    case WalRecord::Kind::kRetract:
      out.push_back(kKindRetract);
      out += record.statements;
      return out;
    case WalRecord::Kind::kExpire:
      out.push_back(kKindExpire);
      PutU64(static_cast<uint64_t>(record.now_ms), &out);
      out += record.statements;
      return out;
    case WalRecord::Kind::kInsertTtl:
      out.push_back(kKindInsertTtl);
      PutU64(static_cast<uint64_t>(record.now_ms), &out);
      PutU64(static_cast<uint64_t>(record.ttl_ms), &out);
      out += record.statements;
      return out;
    case WalRecord::Kind::kTick:
      out.push_back(kKindTick);
      PutU64(static_cast<uint64_t>(record.now_ms), &out);
      return out;
  }
  return out;  // unreachable
}

Result<WalRecord> DecodeWalRecord(const std::string& payload) {
  WalRecord record;
  if (payload.empty() || !IsKindByte(payload[0])) {
    record.kind = WalRecord::Kind::kInsert;
    record.statements = payload;
    return record;
  }
  auto need = [&payload](size_t fixed, const char* kind) -> Status {
    if (payload.size() >= fixed) return Status::OK();
    return Status::InvalidArgument(
        std::string("WAL ") + kind + " record is " +
        std::to_string(payload.size()) + " byte(s), shorter than its " +
        std::to_string(fixed) + "-byte fixed header");
  };
  switch (payload[0]) {
    case kKindRetract:
      record.kind = WalRecord::Kind::kRetract;
      record.statements = payload.substr(1);
      return record;
    case kKindExpire:
      CQLOPT_RETURN_IF_ERROR(need(1 + 8, "expire"));
      record.kind = WalRecord::Kind::kExpire;
      record.now_ms = static_cast<int64_t>(GetU64(payload.data() + 1));
      record.statements = payload.substr(1 + 8);
      return record;
    case kKindInsertTtl:
      CQLOPT_RETURN_IF_ERROR(need(1 + 16, "insert-ttl"));
      record.kind = WalRecord::Kind::kInsertTtl;
      record.now_ms = static_cast<int64_t>(GetU64(payload.data() + 1));
      record.ttl_ms = static_cast<int64_t>(GetU64(payload.data() + 9));
      record.statements = payload.substr(1 + 16);
      return record;
    case kKindTick:
      CQLOPT_RETURN_IF_ERROR(need(1 + 8, "tick"));
      record.kind = WalRecord::Kind::kTick;
      record.now_ms = static_cast<int64_t>(GetU64(payload.data() + 1));
      return record;
    default:
      return Status::InvalidArgument("WAL record carries " +
                                     UnknownKind(payload[0]) +
                                     " — written by a newer cqld?");
  }
}

std::string EncodeWalFrame(const std::string& payload) {
  std::string frame;
  frame.reserve(kRecordHeader + payload.size());
  PutU32(static_cast<uint32_t>(payload.size()), &frame);
  PutU32(WalCrc32(payload), &frame);
  frame += payload;
  return frame;
}

Status DecodeWalFrame(std::string_view bytes, size_t* offset,
                      std::string_view* payload) {
  const size_t available = bytes.size() - *offset;
  if (available < kRecordHeader) {
    return Status::DataLoss("torn record header");
  }
  const uint32_t len = GetU32(bytes.data() + *offset);
  const uint32_t crc = GetU32(bytes.data() + *offset + 4);
  if (len > kMaxRecordBytes) {
    return Status::DataLoss("corrupt record length " + std::to_string(len));
  }
  if (available - kRecordHeader < len) {
    return Status::DataLoss("torn record payload (" +
                            std::to_string(available - kRecordHeader) +
                            " of " + std::to_string(len) + " bytes)");
  }
  const char* start = bytes.data() + *offset + kRecordHeader;
  if (WalCrc32(std::string_view(start, len)) != crc) {
    return Status::DataLoss("checksum mismatch");
  }
  *payload = std::string_view(start, len);
  *offset += kRecordHeader + len;
  return Status::OK();
}

namespace {

/// The payload of a snapshot image: `magic`, then exactly one record frame
/// whose payload is at least `min_len` bytes.
Result<std::string_view> SnapshotPayload(std::string_view image,
                                         const char* magic, size_t min_len) {
  if (image.substr(0, kMagicSize) != std::string_view(magic, kMagicSize)) {
    return Status::DataLoss("not a " + std::string(magic, kMagicSize) +
                            " image");
  }
  size_t offset = kMagicSize;
  std::string_view payload;
  CQLOPT_RETURN_IF_ERROR(DecodeWalFrame(image, &offset, &payload));
  if (offset != image.size() || payload.size() < min_len) {
    return Status::DataLoss("snapshot image is truncated or overlong");
  }
  return payload;
}

/// Reads a pre-§14 CQLSNAP1 image: u64 epoch, then the statements; clock
/// 0, no deadlines.
Result<WalSnapshot> DecodeSnapshotV1(std::string_view image) {
  CQLOPT_ASSIGN_OR_RETURN(std::string_view payload,
                          SnapshotPayload(image, kSnapMagic, 8));
  WalSnapshot snapshot;
  snapshot.epoch = static_cast<int64_t>(GetU64(payload.data()));
  snapshot.statements.assign(payload.substr(8));
  return snapshot;
}

}  // namespace

std::string EncodeSnapshotImage(const WalSnapshot& snapshot) {
  std::string payload;
  payload.reserve(20 + snapshot.statements.size());
  PutU64(static_cast<uint64_t>(snapshot.epoch), &payload);
  PutU64(static_cast<uint64_t>(snapshot.now_ms), &payload);
  PutU32(static_cast<uint32_t>(snapshot.deadlines.size()), &payload);
  for (const auto& [deadline_ms, statement] : snapshot.deadlines) {
    PutU64(static_cast<uint64_t>(deadline_ms), &payload);
    PutU32(static_cast<uint32_t>(statement.size()), &payload);
    payload += statement;
  }
  payload += snapshot.statements;
  return std::string(kSnapMagic2, kMagicSize) + EncodeWalFrame(payload);
}

Result<WalSnapshot> DecodeSnapshotImage(std::string_view image) {
  CQLOPT_ASSIGN_OR_RETURN(std::string_view payload,
                          SnapshotPayload(image, kSnapMagic2, 20));
  WalSnapshot snapshot;
  snapshot.epoch = static_cast<int64_t>(GetU64(payload.data()));
  snapshot.now_ms = static_cast<int64_t>(GetU64(payload.data() + 8));
  const uint32_t count = GetU32(payload.data() + 16);
  size_t pos = 20;
  // Each entry takes at least 12 bytes, which bounds the reservation by
  // the payload rather than by an untrusted count.
  snapshot.deadlines.reserve(std::min<size_t>(count, payload.size() / 12));
  for (uint32_t i = 0; i < count; ++i) {
    if (payload.size() - pos < 12) {
      return Status::DataLoss("snapshot deadline table is truncated");
    }
    const int64_t deadline_ms =
        static_cast<int64_t>(GetU64(payload.data() + pos));
    const uint32_t stmt_len = GetU32(payload.data() + pos + 8);
    pos += 12;
    if (payload.size() - pos < stmt_len) {
      return Status::DataLoss("snapshot deadline table is truncated");
    }
    snapshot.deadlines.emplace_back(deadline_ms,
                                    std::string(payload.substr(pos, stmt_len)));
    pos += stmt_len;
  }
  snapshot.statements.assign(payload.substr(pos));
  return snapshot;
}

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& dir) {
  if (dir.empty()) return Status::InvalidArgument("WAL directory is empty");
  if (::mkdir(dir.c_str(), 0755) < 0 && errno != EEXIST) {
    return Errno("mkdir " + dir);
  }
  std::string path = dir + "/wal.log";
  int fd = ::open(path.c_str(), O_RDWR | O_APPEND | O_CREAT, 0644);
  if (fd < 0) return Errno("open " + path);
  struct stat st;
  if (::fstat(fd, &st) < 0) {
    ::close(fd);
    return Errno("fstat " + path);
  }
  if (st.st_size < static_cast<off_t>(kMagicSize)) {
    // 1-7 bytes means a crash mid-way through writing the initial header;
    // no record can exist yet, so restart the file as empty instead of
    // bricking every future Open with a bad-magic error.
    if (st.st_size > 0 && ::ftruncate(fd, 0) < 0) {
      ::close(fd);
      return Errno("ftruncate " + path);
    }
    Status wrote = WriteBytes(fd, kLogMagic, kMagicSize, "write WAL header");
    if (!wrote.ok() || ::fsync(fd) < 0) {
      ::close(fd);
      return wrote.ok() ? Errno("fsync " + path) : wrote;
    }
    st.st_size = static_cast<off_t>(kMagicSize);
  } else {
    char magic[kMagicSize];
    ssize_t n = ::pread(fd, magic, kMagicSize, 0);
    if (n != static_cast<ssize_t>(kMagicSize) ||
        std::memcmp(magic, kLogMagic, kMagicSize) != 0) {
      ::close(fd);
      return Status::Internal(path + " is not a CQLWAL1 log");
    }
  }
  return std::unique_ptr<Wal>(new Wal(dir, fd, static_cast<long>(st.st_size)));
}

Wal::~Wal() {
  if (fd_ >= 0) ::close(fd_);
}

std::string Wal::log_path() const { return dir_ + "/wal.log"; }
std::string Wal::snapshot_path() const { return dir_ + "/snapshot.cql"; }

Status Wal::Append(const std::string& payload) {
  if (!failed_.ok()) {
    return Status::Internal(
        "WAL rejects appends after an earlier failure (recover first): " +
        failed_.message());
  }
  if (payload.size() > kMaxRecordBytes) {
    return Status::InvalidArgument("WAL record too large: " +
                                   std::to_string(payload.size()) + " bytes");
  }
  const std::string record = EncodeWalFrame(payload);
  const long pre_offset = log_bytes_;

  if (failpoint::ShouldFail(failpoint::kWalShortWrite)) {
    // Simulated crash mid-append: a prefix of the record reaches the file,
    // then the process "dies" — the torn bytes must stay for recovery to
    // drop, so no rollback here, but the handle is dead: an append after a
    // torn record would be acknowledged yet lost (ReadAll stops at the
    // first corrupt record).
    size_t torn = record.size() / 2;
    if (torn == 0) torn = 1;
    Status wrote = WriteBytes(fd_, record.data(), torn, "torn WAL append");
    log_bytes_ += static_cast<long>(torn);
    failed_ = wrote.ok()
                  ? Status::Internal(
                        "injected torn write: " + std::to_string(torn) +
                        " of " + std::to_string(record.size()) +
                        " record bytes reached the log (failpoint " +
                        failpoint::kWalShortWrite + ")")
                  : wrote;
    return failed_;
  }
  Status wrote = WriteBytes(fd_, record.data(), record.size(), "WAL append");
  if (!wrote.ok()) return FailAppend(pre_offset, std::move(wrote));
  log_bytes_ += static_cast<long>(record.size());
  if (failpoint::ShouldFail(failpoint::kWalFsync)) {
    // Simulated crash between write and fsync: the intact-but-undurable
    // record stays (recovery may legitimately surface it), the handle dies.
    failed_ = Status::Internal(
        std::string("injected fsync failure after WAL append (failpoint ") +
        failpoint::kWalFsync + ")");
    return failed_;
  }
  if (::fsync(fd_) < 0) {
    return FailAppend(pre_offset, Errno("fsync " + log_path()));
  }
  return Status::OK();
}

Status Wal::FailAppend(long pre_offset, Status cause) {
  // A real mid-append failure left an unknown prefix of the record in the
  // file. Acknowledged commits must never land after torn bytes (ReadAll
  // truncates at the first corrupt record, silently discarding them), so
  // roll back to the pre-append offset; if that fails too, poison the
  // handle and reject every further append.
  if (::ftruncate(fd_, static_cast<off_t>(pre_offset)) == 0 &&
      ::fsync(fd_) == 0) {
    log_bytes_ = pre_offset;
    return cause;
  }
  failed_ = Status::Internal(cause.message() + "; rollback to offset " +
                             std::to_string(pre_offset) +
                             " failed: " + std::strerror(errno));
  return failed_;
}

Result<WalReadOutcome> Wal::ReadAll() {
  CQLOPT_ASSIGN_OR_RETURN(std::string contents,
                          ReadWholeFile(fd_, "read WAL"));
  if (contents.size() < kMagicSize ||
      std::memcmp(contents.data(), kLogMagic, kMagicSize) != 0) {
    return Status::Internal(log_path() + " is not a CQLWAL1 log");
  }
  WalReadOutcome out;
  size_t offset = kMagicSize;
  Status problem;
  while (offset < contents.size()) {
    const size_t record_offset = offset;
    std::string_view payload;
    problem = DecodeWalFrame(contents, &offset, &payload);
    if (!problem.ok()) break;
    if (!payload.empty() && IsKindByte(payload[0]) &&
        !IsKnownKind(payload[0])) {
      // Checksum-valid but unintelligible: a committed batch this build
      // cannot replay (a newer writer's kind, most likely). Truncating it
      // like a torn tail would silently drop an acknowledged batch and
      // every record after it — refuse to recover instead.
      return Status::InvalidArgument(
          "WAL " + log_path() + ": record at offset " +
          std::to_string(record_offset) + " carries " +
          UnknownKind(payload[0]) +
          "; refusing to drop a committed record — recover with a build "
          "that understands it");
    }
    out.payloads.emplace_back(payload);
  }
  if (offset < contents.size()) {
    // Torn/corrupt tail — the signature of a crash mid-append. Dropping it
    // is safe: the batch was never committed (commits wait for fsync).
    out.truncated_bytes = static_cast<long>(contents.size() - offset);
    out.warning = "WAL " + log_path() + ": dropped " +
                  std::to_string(out.truncated_bytes) +
                  " trailing byte(s) at offset " + std::to_string(offset) +
                  " (" + problem.message() + "); recovered " +
                  std::to_string(out.payloads.size()) + " intact record(s)";
    if (::ftruncate(fd_, static_cast<off_t>(offset)) < 0) {
      failed_ = Errno("ftruncate " + log_path());
      return failed_;
    }
    if (::fsync(fd_) < 0) {
      failed_ = Errno("fsync " + log_path());
      return failed_;
    }
    log_bytes_ = static_cast<long>(offset);
  }
  // Every record is intact and any torn tail is gone — the log is
  // consistent again, so appending may resume.
  failed_ = Status::OK();
  return out;
}

Status Wal::WriteSnapshot(const WalSnapshot& snapshot) {
  const std::string file = EncodeSnapshotImage(snapshot);
  if (file.size() > kMagicSize + kRecordHeader + kMaxRecordBytes) {
    return Status::InvalidArgument("snapshot too large: " +
                                   std::to_string(file.size()) + " bytes");
  }

  // Classic atomic replace: temp file, fsync, rename, fsync directory. A
  // crash at any point leaves either the old snapshot or the new one.
  std::string tmp = dir_ + "/snapshot.tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("open " + tmp);
  Status wrote = WriteBytes(fd, file.data(), file.size(), "write snapshot");
  if (wrote.ok() && ::fsync(fd) < 0) wrote = Errno("fsync " + tmp);
  ::close(fd);
  CQLOPT_RETURN_IF_ERROR(wrote);
  if (::rename(tmp.c_str(), snapshot_path().c_str()) < 0) {
    return Errno("rename " + tmp);
  }
  return FsyncDir(dir_);
}

Status Wal::ReadSnapshot(bool* found, WalSnapshot* snapshot) {
  *found = false;
  int fd = ::open(snapshot_path().c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::OK();
    return Errno("open " + snapshot_path());
  }
  Result<std::string> contents = ReadWholeFile(fd, "read snapshot");
  ::close(fd);
  CQLOPT_RETURN_IF_ERROR(contents.status());
  // A damaged snapshot is not recoverable by truncation: the WAL records it
  // compacted away are gone, so surface it loudly instead of serving a
  // silently incomplete database.
  Result<WalSnapshot> decoded =
      contents->compare(0, kMagicSize, kSnapMagic, kMagicSize) == 0
          ? DecodeSnapshotV1(*contents)
          : DecodeSnapshotImage(*contents);
  if (!decoded.ok()) {
    return Status::Internal(snapshot_path() + ": " +
                            decoded.status().message());
  }
  *snapshot = std::move(*decoded);
  *found = true;
  return Status::OK();
}

Status Wal::Reset() {
  if (::ftruncate(fd_, static_cast<off_t>(kMagicSize)) < 0) {
    return Errno("ftruncate " + log_path());
  }
  if (::fsync(fd_) < 0) return Errno("fsync " + log_path());
  log_bytes_ = static_cast<long>(kMagicSize);
  failed_ = Status::OK();  // an empty log is trivially consistent
  return Status::OK();
}

}  // namespace cqlopt
