// The nnr_cached daemon core: a single-threaded epoll TCP server that owns
// an FsCacheBackend and speaks the length-prefixed binary protocol of
// net/cache_protocol.h. tools/nnr_cached.cc is a thin main() around this
// class; tests run it in-process on an ephemeral port.
//
// Concurrency model: one thread, one epoll loop, nonblocking sockets with
// per-connection read/write buffers. Training runs take seconds to hours
// while cache messages take microseconds, so a single thread serves many
// nnr_run fleets without breaking a sweat — and it makes the lease table
// race-free by construction.
//
// Leases (the remote claim): CLAIM grants (lease_id, TTL); HEARTBEAT
// re-arms the TTL; RELEASE frees the key. A lease dies in three ways:
//   - released explicitly,
//   - its connection closes (client exit or SIGKILL — the kernel sends
//     FIN either way), releasing all of that connection's leases at once,
//   - its TTL passes without a heartbeat (network partition, frozen
//     client) — checked on every loop iteration, so a dead client's key
//     becomes claimable again within one TTL at the latest.
// Each lease also holds the key's flock (sched/file_lock.h) inside the
// daemon process, so the fs backend's eviction in-flight rule applies and
// local FsCacheBackend users sharing the same directory see remote claims
// as held keys.
//
// Trust: entry bytes are opaque to the daemon except for validation — a
// PUT body must be a checksum-valid RunResult stamped with the key it is
// stored under (serialize/run_result.h), so no client can poison an entry
// a peer would later trust. GETs serve raw file bytes; the receiving
// client re-validates.
//
// Fleet work queue (SUBMIT/FETCH/REPORT/QUEUE_STAT): the daemon also owns
// a durable cell queue (sched/fleet_queue.h) that coordinators fill and
// stateless workers drain. A FETCH grants a lease exactly like TRY_CLAIM —
// same table, same TTL, same flock — flagged as a queue lease so that when
// it dies unreported (expiry, disconnect, release) the daemon requeues the
// item. The queue persists itself inside the cache directory, so a daemon
// restart preserves the pending set (in-flight leases revert to pending).
//
// Self-protection: a max-connection cap (excess accepts are answered with
// one kGoAway frame carrying kBusy + a retry hint, then closed), a
// per-connection idle deadline (a slow-loris client that connects and
// sends nothing is evicted instead of holding an fd forever), and the
// frame size cap of net/frame.h. Every well-formed request on an admitted
// connection is served, in order. CacheServerConfig{} holds the values
// nnr_cached deploys, so an in-process daemon defends itself exactly like
// the deployed one. Shutdown via stop() is graceful: pending response
// bytes are flushed (bounded by drain_timeout_ms), every lease is released
// (queue leases requeue), and the fleet queue snapshot is persisted so a
// restarted daemon resumes the wave.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "net/cache_protocol.h"
#include "net/socket.h"
#include "sched/fleet_queue.h"
#include "sched/fs_cache_backend.h"

namespace nnr::sched {

struct CacheServerConfig {
  std::string dir;             // cache directory (required)
  std::int64_t budget = 0;     // byte budget; 0 = unlimited
  std::string bind_addr = "127.0.0.1";
  std::uint16_t port = 0;      // 0 = ephemeral (read back via port())
  /// TTL bounds: a claim's requested TTL is clamped into
  /// [CacheServer::kMinTtlMs, max_ttl_ms]; a request of 0 takes
  /// default_ttl_ms.
  std::uint32_t max_ttl_ms = 60'000;
  std::uint32_t default_ttl_ms = 10'000;

  // ---- Overload protection (0 disables each).
  /// Registered connections beyond this are answered with one kGoAway
  /// (kBusy + CacheServer::kBusyRetryMs) and closed without ever reaching
  /// epoll.
  std::size_t max_conns = 256;
  /// A connection that delivers no bytes for this long is evicted —
  /// the slow-loris defense. Healthy idle clients reconnect transparently.
  std::int64_t idle_timeout_ms = 60'000;
  /// Graceful-stop bound on flushing already-queued response bytes.
  std::int64_t drain_timeout_ms = 2'000;
};

class CacheServer {
 public:
  /// Throws std::invalid_argument when config.dir is empty.
  explicit CacheServer(CacheServerConfig config);
  ~CacheServer();
  CacheServer(const CacheServer&) = delete;
  CacheServer& operator=(const CacheServer&) = delete;

  /// Floor of every granted lease TTL.
  static constexpr std::uint32_t kMinTtlMs = 100;
  /// Retry hint of a kBusy refusal: the kGoAway at the connection cap and
  /// a kSubmit read during the final drain.
  static constexpr std::uint32_t kBusyRetryMs = 1'000;

  /// Binds and listens (and arms the wakeup pipe). False on failure —
  /// inspect errno / logs. Must be called before run().
  [[nodiscard]] bool start();

  /// The bound port (after start(); meaningful with config.port == 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Serves until stop(). Call from exactly one thread.
  void run();

  /// Thread- and signal-safe shutdown request (writes one byte to the
  /// wakeup pipe; async-signal-safe by construction). run() then drains
  /// gracefully: see drain_and_shutdown().
  void stop() noexcept;

  /// Overload-protection tallies (readable from any thread; tests).
  struct OverloadCounters {
    std::int64_t rejected_busy = 0;  // accepts refused at max_conns
    std::int64_t idle_evicted = 0;   // connections closed by idle deadline
  };
  [[nodiscard]] OverloadCounters overload_counters() const noexcept {
    return {rejected_busy_.load(std::memory_order_relaxed),
            idle_evicted_.load(std::memory_order_relaxed)};
  }

 private:
  struct Conn {
    net::Socket sock;
    std::uint64_t id = 0;
    std::string in;   // unparsed request bytes
    std::string out;  // unsent response bytes
    /// Last time bytes arrived (idle eviction clock).
    std::chrono::steady_clock::time_point last_activity;
  };

  struct Lease {
    std::uint64_t lease_id = 0;
    std::uint64_t conn_id = 0;
    std::uint32_t ttl_ms = 0;
    std::chrono::steady_clock::time_point expiry;
    /// The key's flock, held for the lease's lifetime (engaged once
    /// granted; optional only because FileLock has no empty state).
    std::optional<FileLock> lock;
    /// Granted by FETCH (vs TRY_CLAIM): if this lease dies before its
    /// item is done, the item returns to the queue.
    bool from_queue = false;
  };
  using LeaseTable = std::unordered_map<CellKey, Lease, CellKeyHash>;

  void accept_new_conns();
  /// Reads (or creates) `<dir>/shard_id.nnr`: dir_uid_ persists across
  /// restarts, boot_epoch_ increments per start, instance_id_ is random
  /// per process. Together these answer kShardInfo so a sharded client can
  /// prove its shard map is dir-disjoint.
  void load_or_create_shard_identity();
  /// Reads what's available; parses and handles complete frames. False
  /// when the connection should be closed.
  bool service_readable(Conn& conn);
  /// Flushes conn.out. False when the connection should be closed.
  bool flush_writable(Conn& conn);
  void update_epoll_interest(Conn& conn);
  void close_conn(int fd);
  void handle_frame(Conn& conn, std::uint8_t opcode, const std::string& body);
  void expire_leases();
  void release_conn_leases(std::uint64_t conn_id);
  /// Closes connections whose idle deadline passed (run-loop tick).
  void evict_idle_conns();
  /// Graceful stop: bounded flush of queued responses, release every
  /// lease (queue leases requeue), persist the fleet queue snapshot.
  void drain_and_shutdown();

  /// Leases `key` to `conn` under the key's already-taken flock (kTryClaim
  /// and kFetch): clamps the requested TTL, records the lease, and returns
  /// the granted reply's prefix — kGranted, lease_id, and the TTL actually
  /// armed.
  net::BodyWriter grant_lease(const Conn& conn, const CellKey& key,
                              std::uint32_t requested_ttl_ms, FileLock lock,
                              bool from_queue);
  /// Erases the lease (returning the next iterator); a queue lease whose
  /// item is not yet done sends the item back to pending first.
  LeaseTable::iterator drop_lease(LeaseTable::iterator it);

  CacheServerConfig config_;
  FsCacheBackend backend_;
  FleetQueue queue_;
  net::Listener listener_;
  std::uint16_t port_ = 0;
  int epoll_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  bool stop_requested_ = false;
  /// True inside drain_and_shutdown(): a kSubmit read during the final
  /// drain pass is answered kBusy + retry hint instead of enqueued into a
  /// queue about to be persisted-and-closed.
  bool draining_ = false;
  // Shard identity (kShardInfo): see load_or_create_shard_identity().
  std::uint64_t instance_id_ = 0;
  std::uint64_t dir_uid_ = 0;
  std::uint64_t boot_epoch_ = 0;
  std::uint64_t next_conn_id_ = 1;
  std::uint64_t next_lease_id_ = 1;
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;  // by fd
  LeaseTable leases_;
  std::atomic<std::int64_t> rejected_busy_{0};
  std::atomic<std::int64_t> idle_evicted_{0};
};

}  // namespace nnr::sched
