#include "sched/cache_server.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <system_error>
#include <thread>
#include <vector>

#include "net/cache_protocol.h"
#include "net/fault_injector.h"
#include "net/frame.h"
#include "serialize/atomic_file.h"
#include "serialize/run_result.h"

namespace nnr::sched {

namespace {

using net::BodyReader;
using net::BodyWriter;
using net::Op;
using net::Status;

constexpr std::size_t kReadChunk = 64 * 1024;

std::string status_only(Status status) {
  BodyWriter w;
  w.put(static_cast<std::uint8_t>(status));
  return w.take();
}

CellKey read_key(BodyReader& r) {
  CellKey key;
  key.hi = r.get<std::uint64_t>();
  key.lo = r.get<std::uint64_t>();
  return key;
}

std::uint64_t random_identity() {
  std::random_device rd;
  std::uint64_t v = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  if (v == 0) v = 1;  // 0 is the "unset" sentinel
  return v;
}

}  // namespace

CacheServer::CacheServer(CacheServerConfig config)
    : config_(std::move(config)),
      backend_(config_.dir, config_.budget),
      queue_((std::filesystem::path(config_.dir) / "fleet_queue.nnrq")
                 .string()) {}

CacheServer::~CacheServer() {
  conns_.clear();   // Socket destructors close the fds
  leases_.clear();  // FileLock destructors drop the flocks
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

bool CacheServer::start() {
  // Resolve NNR_FAULT_SPEC now rather than lazily at the first I/O call:
  // the "[fault] injector armed" line must precede "listening on" so chaos
  // scripts can verify the daemon is actually under the storm they think
  // it is.
  (void)net::FaultInjector::active();
  // The daemon owns the directory: make sure it exists up front, because
  // lease grants take the key's flock directly (an unreachable lockfile
  // would read as "busy" and starve every claim).
  std::error_code ec;
  std::filesystem::create_directories(config_.dir, ec);
  if (ec) return false;
  // Restore the fleet queue a previous daemon left behind: pending cells
  // survive a restart, in-flight leases revert to pending.
  queue_.load();
  load_or_create_shard_identity();
  if (!listener_.listen_on(config_.bind_addr, config_.port)) return false;
  port_ = listener_.port();
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC | O_NONBLOCK) != 0) return false;
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return false;
  struct epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listener_.fd();
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &ev) != 0) {
    return false;
  }
  ev.data.fd = wake_read_fd_;
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_read_fd_, &ev) == 0;
}

void CacheServer::load_or_create_shard_identity() {
  instance_id_ = random_identity();
  const std::filesystem::path path =
      std::filesystem::path(config_.dir) / "shard_id.nnr";
  std::uint64_t uid = 0;
  std::uint64_t epoch = 0;
  {
    std::ifstream in(path);
    std::string tag;
    if (in >> tag >> uid && tag == "uid" && in >> tag >> epoch &&
        tag == "epoch" && uid != 0) {
      // parsed an existing identity
    } else {
      uid = 0;  // absent or unparseable: mint a fresh identity below
    }
  }
  if (uid == 0) {
    uid = random_identity();
    epoch = 0;
  }
  dir_uid_ = uid;
  boot_epoch_ = epoch + 1;
  if (!serialize::write_file_atomic(
          path.string(), "uid " + std::to_string(dir_uid_) + "\nepoch " +
                             std::to_string(boot_epoch_) + "\n")) {
    std::fprintf(stderr,
                 "[nnr_cached] cannot persist %s: the next start mints a new "
                 "directory uid\n",
                 path.c_str());
  }
}

void CacheServer::stop() noexcept {
  if (wake_write_fd_ >= 0) {
    const char byte = 'q';
    // Async-signal-safe: one write(2), nothing else.
    (void)!::write(wake_write_fd_, &byte, 1);
  }
}

void CacheServer::run() {
  std::vector<struct epoll_event> events(64);
  while (!stop_requested_) {
    // Wake at the earliest lease expiry so a dead client's key frees
    // within its TTL even on an otherwise idle server.
    int timeout_ms = 250;
    if (!leases_.empty()) {
      const auto now = std::chrono::steady_clock::now();
      auto earliest = std::chrono::steady_clock::time_point::max();
      for (const auto& [key, lease] : leases_) {
        earliest = std::min(earliest, lease.expiry);
      }
      const auto until = std::chrono::duration_cast<std::chrono::milliseconds>(
                             earliest - now)
                             .count();
      timeout_ms = static_cast<int>(std::clamp<long long>(until, 0, 250));
    }
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    expire_leases();
    evict_idle_conns();
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t mask = events[i].events;
      if (fd == wake_read_fd_) {
        char drain[16];
        while (::read(wake_read_fd_, drain, sizeof(drain)) > 0) {
        }
        stop_requested_ = true;
        continue;
      }
      if (fd == listener_.fd()) {
        accept_new_conns();
        continue;
      }
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Conn& conn = *it->second;
      bool alive = true;
      if ((mask & (EPOLLHUP | EPOLLERR)) != 0) alive = false;
      if (alive && (mask & EPOLLIN) != 0) alive = service_readable(conn);
      if (alive && (mask & EPOLLOUT) != 0) alive = flush_writable(conn);
      if (alive) {
        update_epoll_interest(conn);
      } else {
        close_conn(fd);
      }
    }
  }
  drain_and_shutdown();
}

void CacheServer::accept_new_conns() {
  for (;;) {
    net::Socket sock = listener_.accept_conn();
    if (!sock.valid()) return;
    if (config_.max_conns > 0 && conns_.size() >= config_.max_conns) {
      // Over capacity: one best-effort kGoAway (the socket is still
      // blocking and the frame is ~20 bytes, so this cannot wedge the
      // loop), then the Socket destructor closes the connection.
      rejected_busy_.fetch_add(1, std::memory_order_relaxed);
      BodyWriter w;
      w.put(static_cast<std::uint8_t>(Status::kBusy));
      w.put(kBusyRetryMs);
      const std::string frame =
          net::encode_frame(static_cast<std::uint8_t>(Op::kGoAway), w.take());
      (void)::send(sock.fd(), frame.data(), frame.size(), MSG_NOSIGNAL);
      continue;
    }
    (void)sock.set_nonblocking();
    auto conn = std::make_unique<Conn>();
    conn->id = next_conn_id_++;
    conn->sock = std::move(sock);
    conn->last_activity = std::chrono::steady_clock::now();
    const int fd = conn->sock.fd();
    struct epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) continue;
    conns_.emplace(fd, std::move(conn));
  }
}

void CacheServer::evict_idle_conns() {
  if (config_.idle_timeout_ms <= 0 || conns_.empty()) return;
  const auto deadline = std::chrono::steady_clock::now() -
                        std::chrono::milliseconds(config_.idle_timeout_ms);
  std::vector<int> idle;
  for (const auto& [fd, conn] : conns_) {
    if (conn->last_activity < deadline) idle.push_back(fd);
  }
  for (const int fd : idle) {
    idle_evicted_.fetch_add(1, std::memory_order_relaxed);
    close_conn(fd);
  }
}

bool CacheServer::service_readable(Conn& conn) {
  char chunk[kReadChunk];
  for (;;) {
    // recv_avail rather than raw recv(2): the fault-injection seam lives
    // in Socket, and the chaos suites must be able to disturb the
    // server's reads exactly like the client's.
    const std::ptrdiff_t n = conn.sock.recv_avail(chunk, sizeof(chunk));
    if (n > 0) {
      conn.in.append(chunk, static_cast<std::size_t>(n));
      conn.last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (n == -1) break;    // would block: buffer drained
    return false;          // peer closed (0) or error/reset (-2)
  }
  // Parse every complete frame in the buffer.
  std::size_t off = 0;
  while (conn.in.size() - off >= sizeof(std::uint32_t)) {
    std::uint32_t len = 0;
    std::memcpy(&len, conn.in.data() + off, sizeof(len));
    if (!net::valid_payload_length(len)) {
      return false;  // garbage length: drop the connection
    }
    if (conn.in.size() - off - sizeof(len) < len) break;  // incomplete
    try {
      const net::Frame frame = net::decode_frame(
          std::string_view(conn.in.data() + off + sizeof(len), len));
      handle_frame(conn, frame.opcode, frame.body);
    } catch (const serialize::CheckpointError&) {
      return false;  // malformed payload: protocol violation
    } catch (const net::ProtocolError&) {
      return false;  // truncated body fields
    }
    off += sizeof(len) + len;
  }
  if (off > 0) conn.in.erase(0, off);
  return flush_writable(conn);
}

bool CacheServer::flush_writable(Conn& conn) {
  while (!conn.out.empty()) {
    const std::ptrdiff_t n =
        conn.sock.send_avail(conn.out.data(), conn.out.size());
    if (n > 0) {
      conn.out.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n == -1) break;  // would block: epoll re-arms EPOLLOUT
    return false;
  }
  return true;
}

void CacheServer::update_epoll_interest(Conn& conn) {
  struct epoll_event ev{};
  ev.events = EPOLLIN | (conn.out.empty() ? 0u : EPOLLOUT);
  ev.data.fd = conn.sock.fd();
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.sock.fd(), &ev);
}

void CacheServer::close_conn(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  const std::uint64_t conn_id = it->second->id;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  conns_.erase(it);  // Socket destructor closes the fd
  // The remote analogue of flock's release-on-death: a closed connection
  // (clean exit and SIGKILL both end in FIN) frees every key it claimed.
  release_conn_leases(conn_id);
}

BodyWriter CacheServer::grant_lease(const Conn& conn, const CellKey& key,
                                    std::uint32_t requested_ttl_ms,
                                    FileLock lock, bool from_queue) {
  const std::uint32_t ttl_ms =
      std::clamp(requested_ttl_ms == 0 ? config_.default_ttl_ms
                                       : requested_ttl_ms,
                 kMinTtlMs, config_.max_ttl_ms);
  Lease lease;
  lease.lease_id = next_lease_id_++;
  lease.conn_id = conn.id;
  lease.ttl_ms = ttl_ms;
  lease.expiry =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ttl_ms);
  lease.lock.emplace(std::move(lock));
  lease.from_queue = from_queue;
  BodyWriter w;
  w.put(static_cast<std::uint8_t>(Status::kGranted));
  w.put(lease.lease_id);
  // The TTL actually armed (post-clamp): the client paces its heartbeats
  // against this, never against what it asked for.
  w.put(ttl_ms);
  leases_.emplace(key, std::move(lease));
  return w;
}

CacheServer::LeaseTable::iterator CacheServer::drop_lease(
    LeaseTable::iterator it) {
  // A queue lease dying unreported sends its item back to pending.
  if (it->second.from_queue) queue_.release_to_pending(it->first);
  return leases_.erase(it);  // FileLock destructor drops the flock
}

void CacheServer::release_conn_leases(std::uint64_t conn_id) {
  for (auto it = leases_.begin(); it != leases_.end();) {
    if (it->second.conn_id == conn_id) {
      it = drop_lease(it);
    } else {
      ++it;
    }
  }
}

void CacheServer::drain_and_shutdown() {
  draining_ = true;
  // 0. One final read pass: a request that raced the shutdown (bytes
  //    already in a kernel buffer, or a connection accepted in the same
  //    epoll batch as the stop wakeup) is answered rather than silently
  //    dropped. With draining_ set, a kSubmit read here gets kBusy + retry
  //    hint instead of landing in the queue being closed.
  {
    std::vector<int> dead;
    for (auto& [fd, conn] : conns_) {
      if (!service_readable(*conn)) dead.push_back(fd);
    }
    for (const int fd : dead) close_conn(fd);
  }
  // 1. Flush responses already queued (a worker mid-RPC should get its
  //    answer, not a cut wire) — bounded, because a stalled peer must not
  //    be able to hold SIGTERM hostage.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(
                            std::max<std::int64_t>(config_.drain_timeout_ms, 0));
  for (;;) {
    bool pending = false;
    std::vector<int> dead;
    for (auto& [fd, conn] : conns_) {
      if (conn->out.empty()) continue;
      if (!flush_writable(*conn)) {
        dead.push_back(fd);
      } else if (!conn->out.empty()) {
        pending = true;
      }
    }
    for (const int fd : dead) close_conn(fd);
    if (!pending || std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // 2. Release every lease. Queue leases requeue their items (already
  //    recorded as pending on disk — leases are volatile by design), and
  //    the flocks drop so local fs clients unblock immediately.
  while (!leases_.empty()) drop_lease(leases_.begin());
  // 3. Belt-and-braces snapshot: the queue persists on every durable
  //    transition anyway, but shutting down is the one moment it is worth
  //    an unconditional fsync-cheap rewrite.
  queue_.save();
  const std::size_t drained = conns_.size();
  conns_.clear();
  std::fprintf(stderr,
               "[nnr_cached] graceful stop: flushed %zu connection(s), "
               "leases released, queue persisted\n",
               drained);
}

void CacheServer::expire_leases() {
  const auto now = std::chrono::steady_clock::now();
  for (auto it = leases_.begin(); it != leases_.end();) {
    if (it->second.expiry <= now) {
      it = drop_lease(it);
    } else {
      ++it;
    }
  }
}

void CacheServer::handle_frame(Conn& conn, std::uint8_t opcode,
                               const std::string& body) {
  BodyReader r(body);
  std::string resp;
  switch (static_cast<Op>(opcode)) {
    case Op::kPing: {
      BodyWriter w;
      w.put(static_cast<std::uint8_t>(Status::kOk));
      w.put(net::kWireVersion);
      resp = w.take();
      break;
    }
    case Op::kGet: {
      const CellKey key = read_key(r);
      const auto bytes = backend_.load_bytes(key);
      // An entry too large for one frame (possible only if it was written
      // by a local fs client — remote PUTs are size-checked) is served as
      // a miss: the requester retrains, nobody's connection drops.
      if (bytes.has_value() && bytes->size() <= net::kMaxEntryBytes) {
        BodyWriter w;
        w.put(static_cast<std::uint8_t>(Status::kFound));
        w.put(static_cast<std::uint64_t>(bytes->size()));
        w.put_bytes(*bytes);
        resp = w.take();
      } else {
        resp = status_only(Status::kMiss);
      }
      break;
    }
    case Op::kPut: {
      const CellKey key = read_key(r);
      const auto n = r.get<std::uint64_t>();
      const std::string_view bytes = r.get_bytes(static_cast<std::size_t>(n));
      // Refuse anything that is not a checksum-valid entry for this exact
      // key — a poisoned store would otherwise be served to peers as
      // truth until one of them decodes it.
      if (!serialize::validate_run_result_bytes(bytes, key.hi, key.lo) ||
          !backend_.store_bytes(key, bytes)) {
        resp = status_only(Status::kError);
      } else {
        resp = status_only(Status::kOk);
      }
      break;
    }
    case Op::kTryClaim: {
      const CellKey key = read_key(r);
      const auto ttl_ms = r.get<std::uint32_t>();
      expire_leases();
      if (leases_.count(key) != 0) {
        resp = status_only(Status::kBusy);
        break;
      }
      // Take the key's flock too, so local fs clients sharing this dir
      // observe the claim and eviction skips the in-flight entry.
      auto lock = FileLock::try_acquire(backend_.lock_path_for(key));
      if (!lock.has_value()) {
        resp = status_only(Status::kBusy);  // a local process holds it
        break;
      }
      resp = grant_lease(conn, key, ttl_ms, std::move(*lock),
                         /*from_queue=*/false)
                 .take();
      break;
    }
    case Op::kRelease: {
      const CellKey key = read_key(r);
      const auto lease_id = r.get<std::uint64_t>();
      const auto it = leases_.find(key);
      if (it != leases_.end() && it->second.lease_id == lease_id) {
        drop_lease(it);
        resp = status_only(Status::kOk);
      } else {
        resp = status_only(Status::kGone);  // expired or never ours
      }
      break;
    }
    case Op::kHeartbeat: {
      const CellKey key = read_key(r);
      const auto lease_id = r.get<std::uint64_t>();
      const auto it = leases_.find(key);
      if (it != leases_.end() && it->second.lease_id == lease_id) {
        it->second.expiry = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(it->second.ttl_ms);
        resp = status_only(Status::kOk);
      } else {
        resp = status_only(Status::kGone);
      }
      break;
    }
    case Op::kGc: {
      expire_leases();
      const GcStats gc = backend_.gc();
      BodyWriter w;
      w.put(static_cast<std::uint8_t>(Status::kOk));
      w.put(gc.removed_tmp);
      w.put(gc.removed_locks);
      w.put(gc.evicted);
      w.put(gc.evicted_bytes);
      w.put(gc.entries);
      w.put(gc.bytes);
      resp = w.take();
      break;
    }
    case Op::kSubmit: {
      if (draining_) {
        // The queue is about to be persisted-and-closed: accepting new
        // items now would strand them in a snapshot nobody re-reads until
        // restart, with the submitter believing they were accepted live.
        // Refuse with a retry hint — the resubmit lands on the restarted
        // daemon.
        BodyWriter w;
        w.put(static_cast<std::uint8_t>(Status::kBusy));
        w.put(kBusyRetryMs);
        resp = w.take();
        break;
      }
      const auto count = r.get<std::uint32_t>();
      std::vector<FleetWorkItem> items;
      // No blind reserve(count): the count is client-supplied; truncated
      // bodies throw ProtocolError mid-loop and cost the connection.
      for (std::uint32_t i = 0; i < count; ++i) {
        FleetWorkItem item;
        item.key = read_key(r);
        const auto study_len = r.get<std::uint32_t>();
        item.study = std::string(r.get_bytes(study_len));
        item.cell = r.get<std::uint32_t>();
        item.replicate = r.get<std::uint32_t>();
        items.push_back(std::move(item));
      }
      const FleetQueue::SubmitStats stats = queue_.submit(
          items, [this](const CellKey& key) { return backend_.has_entry(key); });
      BodyWriter w;
      w.put(static_cast<std::uint8_t>(Status::kOk));
      w.put(stats.enqueued);
      w.put(stats.duplicates);
      w.put(stats.already_done);
      resp = w.take();
      break;
    }
    case Op::kFetch: {
      const auto ttl_ms = r.get<std::uint32_t>();
      expire_leases();
      // A pending key is available when nothing holds it: no lease in the
      // table and the flock is free (a local fs client could be training
      // it directly against the shared directory).
      std::optional<FileLock> lock;
      const auto item = queue_.fetch_next([&](const CellKey& key) {
        if (leases_.count(key) != 0) return false;
        lock = FileLock::try_acquire(backend_.lock_path_for(key));
        return lock.has_value();
      });
      if (!item.has_value()) {
        const FleetQueue::Stats qs = queue_.stats();
        BodyWriter w;
        w.put(static_cast<std::uint8_t>(Status::kMiss));
        w.put(static_cast<std::uint64_t>(qs.pending + qs.leased));
        w.put(qs.total);
        resp = w.take();
        break;
      }
      BodyWriter w = grant_lease(conn, item->key, ttl_ms, std::move(*lock),
                                 /*from_queue=*/true);
      w.put(item->key.hi);
      w.put(item->key.lo);
      w.put(static_cast<std::uint32_t>(item->study.size()));
      w.put_bytes(item->study);
      w.put(item->cell);
      w.put(item->replicate);
      resp = w.take();
      break;
    }
    case Op::kReport: {
      const CellKey key = read_key(r);
      const auto lease_id = r.get<std::uint64_t>();
      const auto outcome_raw = r.get<std::uint8_t>();
      if (outcome_raw >
          static_cast<std::uint8_t>(net::ReportOutcome::kFailed)) {
        resp = status_only(Status::kError);
        break;
      }
      const auto it = leases_.find(key);
      if (it == leases_.end() || it->second.lease_id != lease_id ||
          !it->second.from_queue) {
        // Unknown lease (expired, requeued, or never granted): nothing
        // changes — the queue's own state is the truth.
        resp = status_only(Status::kGone);
        break;
      }
      (void)queue_.report(key,
                          static_cast<FleetQueue::Outcome>(outcome_raw));
      // The item is settled (done or requeued-by-failure): the lease has
      // served its purpose. Erase directly — drop_lease would requeue,
      // but report() already decided the item's fate.
      leases_.erase(it);
      const FleetQueue::Stats qs = queue_.stats();
      BodyWriter w;
      w.put(static_cast<std::uint8_t>(Status::kOk));
      w.put(qs.done);
      w.put(qs.total);
      resp = w.take();
      break;
    }
    case Op::kShardInfo: {
      BodyWriter w;
      w.put(static_cast<std::uint8_t>(Status::kOk));
      w.put(instance_id_);
      w.put(dir_uid_);
      w.put(boot_epoch_);
      resp = w.take();
      break;
    }
    case Op::kQueueStat: {
      expire_leases();
      const FleetQueue::Stats qs = queue_.stats();
      BodyWriter w;
      w.put(static_cast<std::uint8_t>(Status::kOk));
      w.put(qs.total);
      w.put(qs.pending);
      w.put(qs.leased);
      w.put(qs.done);
      w.put(qs.trained);
      w.put(qs.served);
      w.put(qs.failed);
      resp = w.take();
      break;
    }
    default:
      // Unknown opcode within a valid frame: answer kError (forward
      // compatibility hook — an old server talking to a newer client).
      resp = status_only(Status::kError);
      break;
  }
  conn.out += net::encode_frame(opcode, resp);
}

}  // namespace nnr::sched
