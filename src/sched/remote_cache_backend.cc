#include "sched/remote_cache_backend.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/frame.h"
#include "runtime/parse_int.h"
#include "serialize/run_result.h"

namespace nnr::sched {

namespace {

using net::BodyReader;
using net::BodyWriter;
using net::Op;
using net::Status;

/// A claim granted while the daemon is unreachable: holds nothing, blocks
/// nobody. The scheduler trains under it and its store quietly fails —
/// degrade-to-recompute, not deadlock.
struct NoopClaimImpl final : CacheClaim::Impl {};

std::string key_body(const CellKey& key) {
  BodyWriter w;
  w.put(key.hi);
  w.put(key.lo);
  return w.take();
}

}  // namespace

/// A granted remote lease. Destruction releases it (best-effort RPC) and
/// removes it from the heartbeat set; if the release never reaches the
/// daemon, the lease simply expires after its TTL.
struct RemoteClaimImpl final : CacheClaim::Impl {
  RemoteClaimImpl(RemoteCacheBackend* b, CellKey k, std::uint64_t id)
      : backend(b), key(k), lease_id(id) {}
  ~RemoteClaimImpl() override { backend->release_lease(key, lease_id); }

  RemoteCacheBackend* backend;
  CellKey key;
  std::uint64_t lease_id;
};

bool RemoteCacheBackend::parse_url(const std::string& url, std::string* host,
                                   std::uint16_t* port) {
  constexpr std::string_view kScheme = "tcp://";
  if (url.size() <= kScheme.size() ||
      url.compare(0, kScheme.size(), kScheme) != 0) {
    return false;
  }
  const std::string rest = url.substr(kScheme.size());
  const auto colon = rest.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= rest.size()) {
    return false;
  }
  const auto parsed = runtime::parse_int_strict(rest.c_str() + colon + 1);
  if (!parsed.has_value() || *parsed <= 0 || *parsed > 65535) return false;
  *host = rest.substr(0, colon);
  *port = static_cast<std::uint16_t>(*parsed);
  return true;
}

RemoteCacheBackend::RemoteCacheBackend(const std::string& url,
                                       RemoteCacheOptions options)
    : url_(url),
      options_(options),
      reconnect_backoff_(options.reconnect_backoff_ms,
                         options.reconnect_backoff_max_ms,
                         options.jitter_seed != 0
                             ? options.jitter_seed
                             : net::default_jitter_seed()) {
  if (!parse_url(url, &host_, &port_)) {
    throw std::invalid_argument(
        "cache url must be tcp://host:port, got '" + url + "'");
  }
  if (options_.heartbeat) {
    hb_thread_ = std::thread([this] { heartbeat_loop(); });
  }
}

RemoteCacheBackend::~RemoteCacheBackend() {
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
    stopping_ = true;
  }
  hb_cv_.notify_all();
  if (hb_thread_.joinable()) hb_thread_.join();
  // Any leases still registered here belong to claims the caller leaked
  // past the backend's life — the daemon expires them by TTL.
}

bool RemoteCacheBackend::ensure_connected_locked() {
  if (sock_.valid()) return true;
  const auto now = std::chrono::steady_clock::now();
  if (ever_connected_ || last_connect_attempt_.time_since_epoch().count() != 0) {
    // Degraded: fail fast inside the backoff window so a down daemon costs
    // a study one timeout, not one per replicate. The window doubles with
    // every consecutive failure (jittered) so a long outage is probed ever
    // more gently — and by every client at a different moment.
    if (now - last_connect_attempt_ <
        std::chrono::milliseconds(current_window_ms_)) {
      return false;
    }
  }
  ++connect_attempts_;
  sock_ = net::connect_tcp(host_, port_, options_.connect_timeout_ms,
                           options_.io_timeout_ms);
  // Stamp AFTER the attempt completes. A connect to a down daemon can
  // itself take up to connect_timeout_ms; stamping before it would let the
  // backoff window elapse DURING the attempt whenever connect_timeout_ms >
  // reconnect_backoff_ms — every subsequent operation would then pay a full
  // connect attempt, exactly what the backoff exists to prevent.
  last_connect_attempt_ = std::chrono::steady_clock::now();
  if (sock_.valid()) {
    ever_connected_ = true;
    reconnect_backoff_.reset();
    current_window_ms_ = 0;
  } else {
    current_window_ms_ = reconnect_backoff_.next_ms();
  }
  return sock_.valid();
}

std::int64_t RemoteCacheBackend::connect_attempts_for_test() const {
  std::lock_guard<std::mutex> lock(io_mu_);
  return connect_attempts_;
}

void RemoteCacheBackend::drop_connection_locked() { sock_.close(); }

void RemoteCacheBackend::drop_connection_for_test() {
  std::lock_guard<std::mutex> lock(io_mu_);
  drop_connection_locked();
  // Force the next operation to reconnect immediately, not after backoff.
  last_connect_attempt_ = {};
  reconnect_backoff_.reset();
  current_window_ms_ = 0;
}

bool RemoteCacheBackend::connected() const {
  std::lock_guard<std::mutex> lock(io_mu_);
  return sock_.valid();
}

std::uint64_t RemoteCacheBackend::connection_id() const {
  std::lock_guard<std::mutex> lock(io_mu_);
  // No attempt is made while connected, so the attempt count names the
  // attempt that opened the current connection.
  return sock_.valid() ? static_cast<std::uint64_t>(connect_attempts_) : 0;
}

void RemoteCacheBackend::note_go_away_locked(std::uint32_t retry_after_ms) {
  drop_connection_locked();
  // Arm at least the server's hint: reconnecting sooner would only be
  // turned away again and burn one of the server's accept slots.
  last_connect_attempt_ = std::chrono::steady_clock::now();
  current_window_ms_ = std::max<std::int64_t>(reconnect_backoff_.next_ms(),
                                              retry_after_ms);
}

std::optional<RemoteCacheBackend::Rpc> RemoteCacheBackend::rpc(
    Op op, std::string_view body) {
  std::lock_guard<std::mutex> lock(io_mu_);
  if (!ensure_connected_locked()) return std::nullopt;
  try {
    if (!net::send_frame(sock_, static_cast<std::uint8_t>(op), body)) {
      drop_connection_locked();
      return std::nullopt;
    }
    // A clean boundary timeout (nothing consumed) means the daemon is
    // slow, not gone — re-await the response instead of tearing the
    // connection down and re-entering the reconnect backoff with every
    // lease lost.
    net::RecvFrameResult received;
    for (int attempt = 0;; ++attempt) {
      received = net::recv_frame_ex(sock_);
      if (received.status != net::RecvStatus::kTimeout ||
          attempt >= options_.io_timeout_retries) {
        break;
      }
    }
    if (received.status != net::RecvStatus::kFrame) {
      drop_connection_locked();
      return std::nullopt;
    }
    if (received.frame.opcode == static_cast<std::uint8_t>(Op::kGoAway)) {
      // Unsolicited "over capacity": honor the retry hint as a backoff
      // floor and degrade this operation.
      std::uint32_t retry_after_ms = options_.reconnect_backoff_ms > 0
          ? static_cast<std::uint32_t>(options_.reconnect_backoff_ms)
          : 500;
      if (received.frame.body.size() >= 1 + sizeof(std::uint32_t)) {
        std::memcpy(&retry_after_ms, received.frame.body.data() + 1,
                    sizeof(retry_after_ms));
      }
      note_go_away_locked(retry_after_ms);
      return std::nullopt;
    }
    if (received.frame.opcode != static_cast<std::uint8_t>(op) ||
        received.frame.body.empty()) {
      drop_connection_locked();
      return std::nullopt;
    }
    Rpc result;
    result.status = static_cast<Status>(received.frame.body[0]);
    result.body = received.frame.body.substr(1);
    return result;
  } catch (const serialize::CheckpointError&) {
    // Malformed frame: protocol violation, not data — drop the connection.
    drop_connection_locked();
    return std::nullopt;
  }
}

std::optional<core::RunResult> RemoteCacheBackend::load(const CellKey& key,
                                                        CacheStats* run,
                                                        bool count_miss) {
  auto reply = rpc(Op::kGet, key_body(key));
  if (reply.has_value() && reply->status == Status::kFound) {
    try {
      BodyReader r(reply->body);
      const auto n = r.get<std::uint64_t>();
      const std::string_view bytes = r.get_bytes(static_cast<std::size_t>(n));
      core::RunResult result =
          serialize::decode_run_result(bytes, key.hi, key.lo, url_);
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.hits;
      stats_.bytes_read += static_cast<std::int64_t>(bytes.size());
      if (run != nullptr) {
        ++run->hits;
        run->bytes_read += static_cast<std::int64_t>(bytes.size());
      }
      return result;
    } catch (const serialize::CheckpointError&) {
      // The daemon served bytes that fail checksum/key validation — same
      // contract as a corrupt local file: count and recompute.
      if (!count_miss) return std::nullopt;
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.misses;
      ++stats_.corrupt;
      if (run != nullptr) {
        ++run->misses;
        ++run->corrupt;
      }
      return std::nullopt;
    } catch (const net::ProtocolError&) {
      // fall through to the miss path below
    }
  }
  // kMiss, degraded, or a malformed FOUND body.
  if (!count_miss) return std::nullopt;
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.misses;
  if (run != nullptr) ++run->misses;
  return std::nullopt;
}

bool RemoteCacheBackend::store(const CellKey& key,
                               const core::RunResult& result,
                               CacheStats* run) {
  const std::string bytes = serialize::encode_run_result(result, key.hi,
                                                         key.lo);
  // An entry too large for one frame must fail as a dropped store, not by
  // sending a frame the server rejects — that would cost this client its
  // connection and, with it, every lease it is training under.
  if (bytes.size() > net::kMaxEntryBytes) return false;
  BodyWriter w;
  w.put(key.hi);
  w.put(key.lo);
  w.put(static_cast<std::uint64_t>(bytes.size()));
  w.put_bytes(bytes);
  auto reply = rpc(Op::kPut, w.take());
  if (!reply.has_value() || reply->status != Status::kOk) return false;
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.stores;
  stats_.bytes_written += static_cast<std::int64_t>(bytes.size());
  if (run != nullptr) {
    ++run->stores;
    run->bytes_written += static_cast<std::int64_t>(bytes.size());
  }
  return true;
}

CacheClaim RemoteCacheBackend::make_noop_claim() {
  return CacheClaim(std::make_unique<NoopClaimImpl>());
}

std::optional<CacheClaim> RemoteCacheBackend::try_claim(const CellKey& key) {
  BodyWriter w;
  w.put(key.hi);
  w.put(key.lo);
  w.put(options_.lease_ttl_ms);
  auto reply = rpc(Op::kTryClaim, w.take());
  if (!reply.has_value()) return make_noop_claim();  // degraded: train local
  if (reply->status != Status::kGranted) return std::nullopt;  // busy
  std::uint64_t lease_id = 0;
  std::uint32_t granted_ttl_ms = 0;
  try {
    BodyReader r(reply->body);
    lease_id = r.get<std::uint64_t>();
    granted_ttl_ms = r.get<std::uint32_t>();
  } catch (const net::ProtocolError&) {
    return make_noop_claim();
  }
  {
    std::lock_guard<std::mutex> lock(lease_mu_);
    leases_.emplace(lease_id, HeldLease{key, granted_ttl_ms});
  }
  // Wake the heartbeat thread: it may be mid-sleep on an interval computed
  // before this lease existed (possibly much longer than this grant's TTL).
  hb_cv_.notify_all();
  return CacheClaim(std::make_unique<RemoteClaimImpl>(this, key, lease_id));
}

std::optional<CacheClaim> RemoteCacheBackend::claim(const CellKey& key) {
  // No server-side wait queue: poll. The holder's lease expires by TTL if
  // it dies, so this loop always terminates.
  for (;;) {
    auto claim = try_claim(key);
    if (claim.has_value()) return claim;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::max(options_.claim_poll_ms, 1)));
  }
}

void RemoteCacheBackend::release_lease(const CellKey& key,
                                       std::uint64_t lease_id) {
  {
    std::lock_guard<std::mutex> lock(lease_mu_);
    leases_.erase(lease_id);
  }
  BodyWriter w;
  w.put(key.hi);
  w.put(key.lo);
  w.put(lease_id);
  (void)rpc(Op::kRelease, w.take());  // best-effort; TTL is the backstop
}

void RemoteCacheBackend::heartbeat_loop() {
  std::unique_lock<std::mutex> lock(hb_mu_);
  while (!stopping_) {
    // Pace against the tightest GRANTED TTL among held leases (the server
    // may have clamped our request), renewing at ~TTL/3.
    std::uint32_t tightest_ttl = options_.lease_ttl_ms;
    {
      std::lock_guard<std::mutex> lease_lock(lease_mu_);
      for (const auto& [lease_id, lease] : leases_) {
        if (lease.granted_ttl_ms > 0) {
          tightest_ttl = std::min(tightest_ttl, lease.granted_ttl_ms);
        }
      }
    }
    const auto interval =
        std::chrono::milliseconds(std::max<std::uint32_t>(tightest_ttl / 3,
                                                          50));
    hb_cv_.wait_for(lock, interval);
    if (stopping_) break;
    std::vector<std::pair<std::uint64_t, HeldLease>> held;
    {
      std::lock_guard<std::mutex> lease_lock(lease_mu_);
      held.assign(leases_.begin(), leases_.end());
    }
    lock.unlock();
    for (const auto& [lease_id, lease] : held) {
      BodyWriter w;
      w.put(lease.key.hi);
      w.put(lease.key.lo);
      w.put(lease_id);
      // kGone or a degraded connection both mean the lease is out of our
      // hands; the training continues and the store decides the outcome.
      (void)rpc(Op::kHeartbeat, w.take());
    }
    lock.lock();
  }
}

GcStats RemoteCacheBackend::gc() {
  GcStats stats;
  auto reply = rpc(Op::kGc, {});
  if (!reply.has_value() || reply->status != Status::kOk) return stats;
  try {
    BodyReader r(reply->body);
    stats.removed_tmp = r.get<std::int64_t>();
    stats.removed_locks = r.get<std::int64_t>();
    stats.evicted = r.get<std::int64_t>();
    stats.evicted_bytes = r.get<std::int64_t>();
    stats.entries = r.get<std::int64_t>();
    stats.bytes = r.get<std::int64_t>();
  } catch (const net::ProtocolError&) {
    return GcStats{};
  }
  return stats;
}

CacheStats RemoteCacheBackend::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

bool RemoteCacheBackend::ping() {
  auto reply = rpc(Op::kPing, {});
  return reply.has_value() && reply->status == Status::kOk;
}

std::optional<RemoteCacheBackend::ShardInfo> RemoteCacheBackend::shard_info() {
  auto reply = rpc(Op::kShardInfo, {});
  if (!reply.has_value() || reply->status != Status::kOk) return std::nullopt;
  try {
    BodyReader r(reply->body);
    ShardInfo info;
    info.instance_id = r.get<std::uint64_t>();
    info.dir_uid = r.get<std::uint64_t>();
    info.boot_epoch = r.get<std::uint64_t>();
    return info;
  } catch (const net::ProtocolError&) {
    return std::nullopt;
  }
}

std::optional<RemoteCacheBackend::FleetSubmitAck>
RemoteCacheBackend::fleet_submit(const std::vector<FleetWorkItem>& items) {
  BodyWriter w;
  w.put(static_cast<std::uint32_t>(items.size()));
  for (const FleetWorkItem& item : items) {
    w.put(item.key.hi);
    w.put(item.key.lo);
    w.put(static_cast<std::uint32_t>(item.study.size()));
    w.put_bytes(item.study);
    w.put(item.cell);
    w.put(item.replicate);
  }
  auto reply = rpc(Op::kSubmit, w.take());
  if (!reply.has_value() || reply->status != Status::kOk) return std::nullopt;
  try {
    BodyReader r(reply->body);
    FleetSubmitAck ack;
    ack.enqueued = r.get<std::uint64_t>();
    ack.duplicates = r.get<std::uint64_t>();
    ack.already_done = r.get<std::uint64_t>();
    return ack;
  } catch (const net::ProtocolError&) {
    return std::nullopt;
  }
}

std::optional<RemoteCacheBackend::FleetFetchResult>
RemoteCacheBackend::fleet_fetch() {
  BodyWriter w;
  w.put(options_.lease_ttl_ms);
  auto reply = rpc(Op::kFetch, w.take());
  if (!reply.has_value()) return std::nullopt;
  try {
    if (reply->status == Status::kGranted) {
      BodyReader r(reply->body);
      FleetFetchResult result;
      result.granted = true;
      result.lease_id = r.get<std::uint64_t>();
      const auto granted_ttl_ms = r.get<std::uint32_t>();
      result.item.key.hi = r.get<std::uint64_t>();
      result.item.key.lo = r.get<std::uint64_t>();
      const auto study_len = r.get<std::uint32_t>();
      result.item.study = std::string(r.get_bytes(study_len));
      result.item.cell = r.get<std::uint32_t>();
      result.item.replicate = r.get<std::uint32_t>();
      {
        // Register the lease for heartbeat renewal, exactly like a claim:
        // a fetched cell can train for hours.
        std::lock_guard<std::mutex> lock(lease_mu_);
        leases_.emplace(result.lease_id,
                        HeldLease{result.item.key, granted_ttl_ms});
      }
      hb_cv_.notify_all();
      result.claim = CacheClaim(std::make_unique<RemoteClaimImpl>(
          this, result.item.key, result.lease_id));
      return result;
    }
    if (reply->status == Status::kMiss) {
      BodyReader r(reply->body);
      FleetFetchResult result;
      result.outstanding = r.get<std::uint64_t>();
      result.total = r.get<std::uint64_t>();
      return result;
    }
  } catch (const net::ProtocolError&) {
  }
  return std::nullopt;  // kError: old daemon without queue support
}

std::optional<RemoteCacheBackend::FleetReportAck>
RemoteCacheBackend::fleet_report(const CellKey& key, std::uint64_t lease_id,
                                 net::ReportOutcome outcome) {
  BodyWriter w;
  w.put(key.hi);
  w.put(key.lo);
  w.put(lease_id);
  w.put(static_cast<std::uint8_t>(outcome));
  auto reply = rpc(Op::kReport, w.take());
  if (!reply.has_value() || reply->status != Status::kOk) return std::nullopt;
  try {
    BodyReader r(reply->body);
    FleetReportAck ack;
    ack.done = r.get<std::uint64_t>();
    ack.total = r.get<std::uint64_t>();
    return ack;
  } catch (const net::ProtocolError&) {
    return std::nullopt;
  }
}

std::optional<FleetQueue::Stats> RemoteCacheBackend::fleet_queue_stat() {
  auto reply = rpc(Op::kQueueStat, {});
  if (!reply.has_value() || reply->status != Status::kOk) return std::nullopt;
  try {
    BodyReader r(reply->body);
    FleetQueue::Stats stats;
    stats.total = r.get<std::uint64_t>();
    stats.pending = r.get<std::uint64_t>();
    stats.leased = r.get<std::uint64_t>();
    stats.done = r.get<std::uint64_t>();
    stats.trained = r.get<std::uint64_t>();
    stats.served = r.get<std::uint64_t>();
    stats.failed = r.get<std::uint64_t>();
    return stats;
  } catch (const net::ProtocolError&) {
    return std::nullopt;
  }
}

}  // namespace nnr::sched
