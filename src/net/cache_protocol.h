// The nnr_cached request/response vocabulary, shared verbatim by the daemon
// (sched/cache_server.h) and the client (sched/remote_cache_backend.h).
// Framing and integrity live in net/frame.h; this header pins down the
// opcodes and body layouts. All integers are little-endian; keys are the
// 128-bit content-addressed CellKey (hi, lo).
//
//   op          request body                  response body (after Status)
//   ----------  ----------------------------  --------------------------------
//   kPing       (empty)                       u8 server wire version
//   kGet        u64 hi | u64 lo               kFound: u64 n | entry bytes[n]
//                                             kMiss:  (empty)
//   kPut        u64 hi | u64 lo               kOk | kError
//               | u64 n | entry bytes[n]
//   kTryClaim   u64 hi | u64 lo | u32 ttl_ms  kGranted: u64 lease_id
//                                                       | u32 granted_ttl_ms
//                                             kBusy:    (empty)
//               (granted_ttl_ms is the server-clamped TTL actually armed;
//               clients must pace heartbeats against IT, not the request)
//   kRelease    u64 hi | u64 lo | u64 lease   kOk | kGone
//   kHeartbeat  u64 hi | u64 lo | u64 lease   kOk | kGone
//   kGc         (empty)                       kOk: i64 removed_tmp
//                                             | i64 removed_locks | i64 evicted
//                                             | i64 evicted_bytes | i64 entries
//                                             | i64 bytes
//   kSubmit     u32 count, then count x:      kOk: u64 enqueued | u64 dups
//               u64 hi | u64 lo                    | u64 already_done
//               | u32 study_len               kBusy: u32 retry_after_ms
//               | study bytes[study_len]      (the daemon is draining for
//               | u32 cell | u32 replicate    shutdown: nothing was
//                                             enqueued — resubmit after the
//                                             hint, to the restarted daemon)
//   kFetch      u32 ttl_ms                    kGranted: u64 lease_id
//                                               | u32 granted_ttl_ms
//                                               | u64 hi | u64 lo
//                                               | u32 study_len
//                                               | study bytes[study_len]
//                                               | u32 cell | u32 replicate
//                                             kMiss: u64 outstanding
//                                               | u64 total
//               (outstanding = pending + leased; 0 with total > 0 means
//               the queue has drained — a worker may exit. A kMiss with
//               outstanding > 0 means every pending key is momentarily
//               unavailable: sleep and re-FETCH)
//   kReport     u64 hi | u64 lo | u64 lease   kOk: u64 done | u64 total
//               | u8 outcome                  kGone: (empty)
//               (outcome: 0 = trained, 1 = served from cache, 2 = failed.
//               kGone = lease unknown/expired; nothing changed)
//   kQueueStat  (empty)                       kOk: u64 total | u64 pending
//                                             | u64 leased | u64 done
//                                             | u64 trained | u64 served
//                                             | u64 failed
//   kGoAway     (server -> client only)       u8 status (kBusy)
//                                             | u32 retry_after_ms
//               (unsolicited: sent once on an over-capacity accept, then
//               the server closes the connection. A client that receives
//               it anywhere treats the connection as gone and backs off
//               at least retry_after_ms before reconnecting)
//   kShardInfo  (empty)                       kOk: u64 instance_id
//                                             | u64 dir_uid | u64 boot_epoch
//               (shard identity, for the sharded client's dir-disjointness
//               check: instance_id is random per daemon process, dir_uid is
//               persisted inside the cache directory at first start and
//               survives restarts, boot_epoch increments per daemon start
//               on that directory. Two shard slots reporting one dir_uid
//               means two daemons share a directory — a misconfigured shard
//               map. Old daemons answer kError: feature absent)
//
// The daemon serves every well-formed request on an admitted connection,
// in order, even when a client pipelines several. Nothing asks a client to
// slow down: the only retry hints are the kGoAway at the connection cap
// and a kSubmit refused during the final drain, each a u32 retry_after_ms
// after a kBusy status.
//
// kSubmit/kFetch/kReport/kQueueStat are the fleet work queue (the daemon-
// side cell queue; lifecycle diagram in ARCHITECTURE.md). They were added
// within wire version 1 under the new-opcode rule: an older server answers
// them with kError and a client treats that as "feature absent".
//
// "entry bytes" are exactly the on-disk RunResult file format
// (serialize/run_result.h) — magic, body, checksum trailer — so the daemon
// stores PUT bodies verbatim and serves GETs straight from disk, and every
// client re-validates what it receives. A response always echoes the
// request's opcode. An unknown opcode in a valid frame is answered kError
// ("feature absent") and the connection stays up; a malformed body costs
// the sender its connection (claims held by that connection are released).
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace nnr::net {

enum class Op : std::uint8_t {
  kPing = 1,
  kGet = 2,
  kPut = 3,
  kTryClaim = 4,
  kRelease = 5,
  kHeartbeat = 6,
  // 7 is retired (a stats opcode no client sent) and stays reserved: a
  // server answers it kError like any unknown opcode.
  kGc = 8,
  // Fleet work queue (added within version 1; old servers answer kError).
  kSubmit = 9,
  kFetch = 10,
  kReport = 11,
  kQueueStat = 12,
  /// Server -> client only: "I am over capacity, go away" (new-opcode
  /// rule: an old client fails to match it to a request and degrades).
  kGoAway = 13,
  /// Shard identity for the sharded cache tier's dir-disjointness check
  /// (added within version 1; old servers answer kError).
  kShardInfo = 14,
};

/// REPORT's one-byte outcome field.
enum class ReportOutcome : std::uint8_t {
  kTrained = 0,  // worker trained the cell and stored the entry
  kServed = 1,   // the entry was already in the cache (served, not trained)
  kFailed = 2,   // training failed; the daemon requeues (bounded attempts)
};

/// First byte of every response body.
enum class Status : std::uint8_t {
  kOk = 0,
  kFound = 1,
  kMiss = 2,
  kGranted = 3,
  kBusy = 4,    // claim held by another lease (or, in kGoAway, a server
                // at its connection cap)
  kGone = 5,    // lease unknown or already expired
  kError = 6,   // request understood but refused (e.g. invalid PUT payload)
  // 7 is retired (a rate-limit refusal no deployment enabled) and stays
  // reserved: a client treats it like any unexpected status (a miss, a
  // dropped store, a busy claim) and stays correct.
};

/// Thrown by BodyReader on a short or overlong body. Both endpoints treat
/// it as a protocol violation: drop the connection (server) or degrade to
/// recompute (client). Distinct from serialize::CheckpointError so a
/// corrupt cache *entry* (data problem, per-key) is never conflated with a
/// corrupt *message* (connection problem).
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends fixed-width little-endian fields to a body string. Bodies ride
/// inside a frame whose checksum covers them, so no extra trailer here.
class BodyWriter {
 public:
  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    buf_.append(reinterpret_cast<const char*>(&v), sizeof(T));
  }

  void put_bytes(std::string_view bytes) { buf_.append(bytes); }

  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Reads the fields back; throws ProtocolError on underrun.
class BodyReader {
 public:
  explicit BodyReader(std::string_view body) : body_(body) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    need(sizeof(T));
    T v;
    std::memcpy(&v, body_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  [[nodiscard]] std::string_view get_bytes(std::size_t n) {
    need(n);
    const std::string_view view = body_.substr(pos_, n);
    pos_ += n;
    return view;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return body_.size() - pos_;
  }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > body_.size()) {
      throw ProtocolError("truncated message body");
    }
  }

  std::string_view body_;
  std::size_t pos_ = 0;
};

}  // namespace nnr::net
