#ifndef CQLOPT_SERVICE_PROTOCOL_H_
#define CQLOPT_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "service/query_service.h"
#include "service/scheduler.h"

namespace cqlopt {

/// The cqld line protocol. One request per line; every response is one or
/// more lines terminated by a bare `END` line, so clients can stream
/// without framing. Successful responses start with `OK`, failures with
/// `ERR <CODE> <message>` (the Status code name); the connection survives
/// errors. Requests:
///
///   PREPARE <steps> <query>     memoize the rewrite pipeline
///   QUERY <steps> <query>       serve a query; answers follow, one per line
///   QUERY <steps> <query> ASOF <epoch>
///                               epoch-consistent read: fails with a typed
///                               ERR UNAVAILABLE until this node's head has
///                               reached <epoch> (replication lag — retry)
///   INGEST <facts>              commit `.`-terminated facts as a new epoch
///   INGEST TTL <ms> <facts>     commit facts that expire once the logical
///                               clock passes now + <ms>
///   RETRACT <facts>             delete stored base facts (DESIGN.md §14);
///                               naming absent facts is counted, not an error
///   TICK <delta_ms>             advance the logical clock, expiring due
///                               TTL facts; bare TICK reads the clock
///   PRIORITY <class>            set this connection's scheduling class
///                               (interactive | normal | batch)
///   STATS                       one `key=value` line per service counter
///   REPLICATE <base> <idx> [<max>]
///                               pull one replication cut (DESIGN.md §15):
///                               `R <hex>` lines, each a WAL record frame,
///                               or — on a coordinate mismatch — one
///                               `S <hex>` line holding a CQLSNAP2 image
///   HEALTH                      role / epoch / clock / quarantine /
///                               replication lag, one line
///   PROMOTE [<wal-dir>]         fail this node over to primary, first
///                               replaying the dead primary's surviving WAL
///                               when a directory is given
///   SHUTDOWN                    acknowledge and stop the server
///
/// On a follower, INGEST / RETRACT / TICK <delta> are refused with
/// `ERR FAILED_PRECONDITION` (reads, HEALTH, and bare TICK stay open); a
/// quarantined (diverged) node refuses QUERY with `ERR DATA_LOSS` rather
/// than serve possibly-wrong answers.
///
/// Under overload the server refuses work instead of stalling: a request
/// past the admission bound is answered `ERR RESOURCE_EXHAUSTED ...` +
/// `END` without being executed (service/scheduler.h).
///
/// `<steps>` is the comma-separated rewrite spec with no spaces
/// (`pred,qrp,mg`), or `-` for the identity pipeline; `<query>` is CQL
/// surface syntax (`?- cheaporshort(msn, sea, T, C).`). Example exchange:
///
///   > QUERY pred,qrp,mg ?- cheaporshort(msn, sea, T, C).
///   < OK path=cold epoch=0 answers=2 fixpoint=1
///   < cheaporshort(msn, sea, 240, 209)
///   < cheaporshort(msn, sea, 235, 219)
///   < END
enum class ProtocolAction {
  kContinue,
  kShutdown,
};

/// Side channel from one handled line back to the transport driving it —
/// facts for the scheduler's fair-share charge, and PRIORITY changes for
/// the connection to apply. The stdio loop ignores it.
struct LineOutcome {
  /// Facts stored by the evaluation this line triggered (QUERY), accepted
  /// into the new epoch (INGEST), or removed from it (RETRACT / TICK
  /// expiry — shrink work is charged like growth); 0 otherwise.
  long derived_facts = 0;
  /// True when the line was a successful PRIORITY verb; `priority` then
  /// holds the class the connection should switch to.
  bool priority_changed = false;
  PriorityClass priority = PriorityClass::kNormal;
};

/// Parses a whole base-10 signed integer — protocol arguments and the
/// cqld/cqlc numeric flags. False on junk, a bare sign, trailing
/// characters (arguments are exact, not prefixes), or a value outside
/// int64_t.
bool ParseInt64(const std::string& word, int64_t* value);

/// The REPLICATE reply for `batch`, without the trailing `END`: a header
/// `OK base=<b> next=<n> feed=<f> epoch=<e> clock_ms=<c> crc=<8 hex>`
/// (plus ` snapshot=1` for a renegotiation), then one `R <hex>` line per
/// record holding its WAL record frame (wal.h EncodeWalFrame), or a single
/// `S <hex>` line holding the CQLSNAP2 image of `batch.snap`.
void RenderReplicationReply(const ReplicationBatch& batch,
                            std::vector<std::string>* out);

/// Inverse of RenderReplicationReply for a request at feed `index`, checking
/// every record frame and snapshot image with the WAL's own decoders. A
/// malformed header, a line that is not hex, a frame or image that fails
/// its length or CRC check, or a record count other than next - `index` is
/// UNAVAILABLE, so the puller refetches; nothing is partially surfaced. The
/// "replica/torn-record" failpoint flips one byte of a decoded frame or
/// image before its check, modelling damage on the wire.
Status ParseReplicationReply(const std::vector<std::string>& lines,
                             uint64_t index, ReplicationBatch* out);

/// Handles one request line against `service`, appending the response lines
/// (including the trailing `END`) to `out`. Pure request/response logic —
/// no I/O — so the protocol is unit-testable without sockets; the server
/// and the stdio loop both drive it. `outcome`, when non-null, reports
/// transport-relevant side effects of the line.
ProtocolAction HandleLine(QueryService& service, const std::string& line,
                          std::vector<std::string>* out,
                          LineOutcome* outcome = nullptr);

}  // namespace cqlopt

#endif  // CQLOPT_SERVICE_PROTOCOL_H_
