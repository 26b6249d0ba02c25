// Backend-conformance suite: the SAME fixture runs against FsCacheBackend
// (a temp directory), RemoteCacheBackend (an in-process CacheServer on an
// ephemeral loopback port), and ShardedCacheBackend (two and three
// in-process daemons, each with its own directory), so the CacheBackend
// contract — load/store/claim semantics, per-run stats deltas, and the
// corrupt-payload-degrades-to-recompute policy — cannot drift between the
// local, the remote, and the sharded implementation.
//
// Remote-only behavior gets its own fixture below: lease TTL expiry
// without heartbeats, heartbeat keepalive, release-on-disconnect (both the
// clean close and a genuine SIGKILLed child process), degrade-to-recompute
// when the daemon is down, reconnect after a daemon restart, and the
// daemon's PUT validation.
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "net/cache_protocol.h"
#include "net/frame.h"
#include "sched/cache_backend.h"
#include "sched/cache_server.h"
#include "sched/fs_cache_backend.h"
#include "sched/remote_cache_backend.h"
#include "sched/sharded_cache_backend.h"
#include "daemon_fixture.h"
#include "test_util.h"

namespace nnr::sched {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

core::RunResult sample_result() {
  core::RunResult r;
  r.test_predictions = {0, 3, 1, 2};
  r.test_confidences = {0.25F, 0.5F, 0.125F, 1.0F};
  r.final_weights = {-1.5F, 0.0F, 2.25F};
  r.test_accuracy = 0.75;
  r.final_train_loss = 1.25;
  return r;
}

void expect_bitwise_equal(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.test_predictions, b.test_predictions);
  EXPECT_EQ(a.test_confidences, b.test_confidences);
  EXPECT_EQ(a.final_weights, b.final_weights);
  EXPECT_EQ(a.test_accuracy, b.test_accuracy);
  EXPECT_EQ(a.final_train_loss, b.final_train_loss);
}

using testutil::fast_options;
using testutil::ServerHandle;

enum class BackendKind { kFs, kRemote, kSharded2, kSharded3 };

/// Number of shard daemons a parameter stands up (0 = not sharded).
int shards_for(BackendKind kind) {
  switch (kind) {
    case BackendKind::kSharded2: return 2;
    case BackendKind::kSharded3: return 3;
    default: return 0;
  }
}

class CacheBackendConformance
    : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    if (GetParam() == BackendKind::kRemote) {
      ASSERT_TRUE(server_.start(dir_.string()));
    }
    for (int i = 0; i < shards_for(GetParam()); ++i) {
      auto shard = std::make_unique<ServerHandle>();
      ASSERT_TRUE(shard->start(shard_dir(i).string()));
      shard_servers_.push_back(std::move(shard));
    }
    backend_ = make_client();
    ASSERT_NE(backend_, nullptr);
  }

  [[nodiscard]] fs::path shard_dir(int index) const {
    return dir_ / ("shard" + std::to_string(index));
  }

  [[nodiscard]] std::vector<std::string> shard_urls() const {
    std::vector<std::string> urls;
    urls.reserve(shard_servers_.size());
    for (const auto& shard : shard_servers_) urls.push_back(shard->url());
    return urls;
  }

  /// A backend instance, as one client/process would hold it. Call twice
  /// to model two independent clients of the same cache.
  std::unique_ptr<CacheBackend> make_client() {
    if (GetParam() == BackendKind::kFs) {
      return std::make_unique<FsCacheBackend>(dir_.string());
    }
    if (GetParam() == BackendKind::kRemote) {
      return std::make_unique<RemoteCacheBackend>(server_.url(),
                                                  fast_options());
    }
    RemoteCacheOptions options = fast_options();
    options.jitter_seed = 0x5EED;  // pinned: reproducible backoff schedule
    return std::make_unique<ShardedCacheBackend>(shard_urls(), options);
  }

  /// On-disk entry path (all backends ultimately share the directory
  /// format; for remote/sharded, the owning daemon holds the directory).
  /// Sharded resolves the key's owner shard first — the same rendezvous
  /// routing the backend uses — so byte-poking tests hit the right dir.
  std::string entry_path(const CellKey& key) {
    if (shard_servers_.empty()) {
      return FsCacheBackend(dir_.string()).path_for(key);
    }
    std::vector<std::uint64_t> tags;
    for (const std::string& url : shard_urls()) {
      tags.push_back(shard_tag(url));
    }
    const std::size_t owner = pick_shard(key, tags);
    return FsCacheBackend(shard_dir(static_cast<int>(owner)).string())
        .path_for(key);
  }

  testutil::TempDir tmp_;
  const fs::path dir_ = tmp_.path() / "cache";
  ServerHandle server_;
  std::vector<std::unique_ptr<ServerHandle>> shard_servers_;
  std::unique_ptr<CacheBackend> backend_;
};

TEST_P(CacheBackendConformance, MissOnEmptyCache) {
  CacheStats run;
  EXPECT_FALSE(backend_->load({1, 2}, &run).has_value());
  EXPECT_EQ(run.misses, 1);
  EXPECT_EQ(run.hits, 0);
  EXPECT_EQ(backend_->stats().misses, 1);
}

TEST_P(CacheBackendConformance, StoreThenLoadRoundTripsBitwise) {
  const CellKey key{0xAB, 0xCD};
  ASSERT_TRUE(backend_->store(key, sample_result()));
  const auto loaded = backend_->load(key);
  ASSERT_TRUE(loaded.has_value());
  expect_bitwise_equal(*loaded, sample_result());
  const CacheStats stats = backend_->stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.stores, 1);
  EXPECT_GT(stats.bytes_written, 0);
  EXPECT_EQ(stats.bytes_read, stats.bytes_written);
}

TEST_P(CacheBackendConformance, StoresAreVisibleToAPeerClient) {
  const CellKey key{7, 7};
  ASSERT_TRUE(backend_->store(key, sample_result()));
  auto peer = make_client();
  const auto loaded = peer->load(key);
  ASSERT_TRUE(loaded.has_value());
  expect_bitwise_equal(*loaded, sample_result());
}

TEST_P(CacheBackendConformance, PerRunStatsReceiveTheSameDeltas) {
  CacheStats run;
  const CellKey key{21, 22};
  EXPECT_FALSE(backend_->load(key, &run).has_value());
  EXPECT_EQ(run.misses, 1);
  ASSERT_TRUE(backend_->store(key, sample_result(), &run));
  EXPECT_EQ(run.stores, 1);
  ASSERT_TRUE(backend_->load(key, &run).has_value());
  EXPECT_EQ(run.hits, 1);
  EXPECT_EQ(run.bytes_read, run.bytes_written);
  const CacheStats total = backend_->stats();
  EXPECT_EQ(total.hits, run.hits);
  EXPECT_EQ(total.misses, run.misses);
  EXPECT_EQ(total.stores, run.stores);
}

TEST_P(CacheBackendConformance, CountMissFalseSuppressesMissCounting) {
  CacheStats run;
  EXPECT_FALSE(backend_->load({5, 6}, &run, /*count_miss=*/false).has_value());
  EXPECT_EQ(run.misses, 0);
  EXPECT_EQ(backend_->stats().misses, 0);
}

TEST_P(CacheBackendConformance, CorruptPayloadDegradesToRecompute) {
  const CellKey key{7, 9};
  ASSERT_TRUE(backend_->store(key, sample_result()));
  {
    // Flip one payload byte past the header, behind the backend's back.
    std::fstream f(entry_path(key),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(32);
    char c = 0;
    f.read(&c, 1);
    f.seekp(32);
    c = static_cast<char>(c ^ 0x5A);
    f.write(&c, 1);
  }
  CacheStats run;
  EXPECT_FALSE(backend_->load(key, &run).has_value())
      << "a corrupt entry must read as a miss";
  EXPECT_EQ(run.corrupt, 1);
  EXPECT_EQ(run.misses, 1);
  // "Recompute" = store a good entry again; it must then serve normally.
  ASSERT_TRUE(backend_->store(key, sample_result(), &run));
  const auto recovered = backend_->load(key, &run);
  ASSERT_TRUE(recovered.has_value());
  expect_bitwise_equal(*recovered, sample_result());
}

TEST_P(CacheBackendConformance, ForeignEntryUnderWrongKeyIsRejected) {
  const CellKey key_a{100, 1};
  const CellKey key_b{100, 2};
  ASSERT_TRUE(backend_->store(key_a, sample_result()));
  fs::copy_file(entry_path(key_a), entry_path(key_b));
  CacheStats run;
  EXPECT_FALSE(backend_->load(key_b, &run).has_value())
      << "the embedded key must be verified on load";
  EXPECT_EQ(run.corrupt, 1);
  EXPECT_TRUE(backend_->load(key_a, &run).has_value());
}

TEST_P(CacheBackendConformance, ClaimIsExclusiveAcrossClients) {
  const CellKey key{31, 32};
  auto claim = backend_->try_claim(key);
  ASSERT_TRUE(claim.has_value());
  EXPECT_TRUE(claim->held());
  auto peer = make_client();
  EXPECT_FALSE(peer->try_claim(key).has_value())
      << "a held key must refuse a second claimant";
  EXPECT_TRUE(peer->try_claim(CellKey{31, 33}).has_value())
      << "claims are per-key, not cache-wide";
  claim.reset();  // release
  // Remote release is an RPC; give it one poll interval of slack.
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  std::optional<CacheClaim> reclaimed;
  while (!reclaimed.has_value() && Clock::now() < deadline) {
    reclaimed = peer->try_claim(key);
    if (!reclaimed.has_value()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(reclaimed.has_value()) << "released key must be claimable";
}

TEST_P(CacheBackendConformance, BlockingClaimWaitsForRelease) {
  const CellKey key{41, 42};
  auto claim = backend_->try_claim(key);
  ASSERT_TRUE(claim.has_value());
  auto peer = make_client();
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    auto blocked = peer->claim(key);
    acquired.store(blocked.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(acquired.load()) << "claim() must block while the key is held";
  claim.reset();
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

TEST_P(CacheBackendConformance, GcReportsRemainingEntries) {
  ASSERT_TRUE(backend_->store({1, 1}, sample_result()));
  ASSERT_TRUE(backend_->store({2, 2}, sample_result()));
  const GcStats gc = backend_->gc();
  EXPECT_EQ(gc.entries, 2);
  EXPECT_GT(gc.bytes, 0);
  EXPECT_EQ(gc.evicted, 0);
}

INSTANTIATE_TEST_SUITE_P(Backends, CacheBackendConformance,
                         ::testing::Values(BackendKind::kFs,
                                           BackendKind::kRemote,
                                           BackendKind::kSharded2,
                                           BackendKind::kSharded3),
                         [](const auto& info) {
                           switch (info.param) {
                             case BackendKind::kFs: return "Fs";
                             case BackendKind::kRemote: return "Remote";
                             case BackendKind::kSharded2: return "Sharded2";
                             case BackendKind::kSharded3: return "Sharded3";
                           }
                           return "Unknown";
                         });

// ---------------------------------------------------------------------------
// Remote-only semantics: leases, heartbeats, death, degradation.
// ---------------------------------------------------------------------------

class RemoteCacheTest : public ::testing::Test {
 protected:
  std::unique_ptr<RemoteCacheBackend> client(RemoteCacheOptions options) {
    return std::make_unique<RemoteCacheBackend>(server_.url(), options);
  }

  testutil::TempDir tmp_;
  const fs::path dir_ = tmp_.path() / "cache";
  ServerHandle server_;
};

TEST(RemoteUrlTest, ParseUrlAcceptsOnlyTcpHostPort) {
  std::string host;
  std::uint16_t port = 0;
  EXPECT_TRUE(RemoteCacheBackend::parse_url("tcp://localhost:9776", &host,
                                            &port));
  EXPECT_EQ(host, "localhost");
  EXPECT_EQ(port, 9776);
  EXPECT_TRUE(RemoteCacheBackend::parse_url("tcp://10.0.0.7:80", &host,
                                            &port));
  EXPECT_FALSE(RemoteCacheBackend::parse_url("localhost:9776", &host, &port));
  EXPECT_FALSE(RemoteCacheBackend::parse_url("tcp://localhost", &host, &port));
  EXPECT_FALSE(RemoteCacheBackend::parse_url("tcp://:9776", &host, &port));
  EXPECT_FALSE(
      RemoteCacheBackend::parse_url("tcp://host:notaport", &host, &port));
  EXPECT_FALSE(RemoteCacheBackend::parse_url("tcp://host:0", &host, &port));
  EXPECT_THROW(RemoteCacheBackend("http://x:1"), std::invalid_argument);
}

TEST_F(RemoteCacheTest, LeaseExpiresWithoutHeartbeat) {
  ASSERT_TRUE(server_.start(dir_.string()));
  RemoteCacheOptions no_heartbeat = fast_options();
  no_heartbeat.heartbeat = false;
  no_heartbeat.lease_ttl_ms = 300;
  auto holder = client(no_heartbeat);
  auto peer = client(fast_options());

  const CellKey key{9, 9};
  auto claim = holder->try_claim(key);
  ASSERT_TRUE(claim.has_value());
  EXPECT_FALSE(peer->try_claim(key).has_value()) << "lease must be exclusive";

  // The holder's connection stays open but never heartbeats: the lease
  // must expire within its TTL and the key become claimable again.
  const auto start = Clock::now();
  std::optional<CacheClaim> reclaimed;
  while (!reclaimed.has_value() &&
         Clock::now() - start < std::chrono::seconds(5)) {
    reclaimed = peer->try_claim(key);
    if (!reclaimed.has_value()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  ASSERT_TRUE(reclaimed.has_value()) << "expired lease must free the key";
  EXPECT_LT(Clock::now() - start, std::chrono::milliseconds(2000));
  claim.reset();  // stale release: daemon answers kGone, harmlessly
}

TEST_F(RemoteCacheTest, HeartbeatKeepsLeaseAliveBeyondTtl) {
  ASSERT_TRUE(server_.start(dir_.string()));
  RemoteCacheOptions short_ttl = fast_options();
  short_ttl.lease_ttl_ms = 300;  // heartbeats every ~100ms
  auto holder = client(short_ttl);
  auto peer = client(fast_options());

  const CellKey key{10, 10};
  auto claim = holder->try_claim(key);
  ASSERT_TRUE(claim.has_value());
  std::this_thread::sleep_for(std::chrono::milliseconds(900));
  EXPECT_FALSE(peer->try_claim(key).has_value())
      << "a heartbeating client's lease must outlive several TTLs";
  claim.reset();
}

TEST_F(RemoteCacheTest, HeartbeatPacesAgainstTheGrantedTtlNotTheRequest) {
  // Server clamps every lease to 300ms; the client asks for 60s. If the
  // client paced heartbeats off its request (20s), the lease would expire
  // silently mid-claim — it must pace off the granted TTL instead.
  CacheServerConfig config;
  config.dir = dir_.string();
  config.max_ttl_ms = 300;
  ASSERT_TRUE(server_.start(std::move(config)));
  RemoteCacheOptions greedy = fast_options();
  greedy.lease_ttl_ms = 60'000;
  auto holder = client(greedy);
  auto peer = client(fast_options());

  const CellKey key{13, 13};
  auto claim = holder->try_claim(key);
  ASSERT_TRUE(claim.has_value());
  std::this_thread::sleep_for(std::chrono::milliseconds(900));
  EXPECT_FALSE(peer->try_claim(key).has_value())
      << "lease must survive several clamped TTLs under heartbeats";
  claim.reset();
}

TEST_F(RemoteCacheTest, DisconnectReleasesLeases) {
  ASSERT_TRUE(server_.start(dir_.string()));
  auto holder = client(fast_options());
  auto peer = client(fast_options());

  const CellKey key{11, 11};
  auto claim = holder->try_claim(key);
  ASSERT_TRUE(claim.has_value());
  EXPECT_FALSE(peer->try_claim(key).has_value());

  // Simulate a vanished client: the TCP connection drops with the lease
  // unreleased. The daemon must free it on the disconnect, long before
  // the TTL.
  holder->drop_connection_for_test();
  const auto start = Clock::now();
  std::optional<CacheClaim> reclaimed;
  while (!reclaimed.has_value() &&
         Clock::now() - start < std::chrono::seconds(5)) {
    reclaimed = peer->try_claim(key);
    if (!reclaimed.has_value()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(reclaimed.has_value())
      << "a dropped connection must release its leases";
  claim.reset();
}

TEST_F(RemoteCacheTest, SigkilledClientsClaimBecomesClaimable) {
  ASSERT_TRUE(server_.start(dir_.string()));
  const CellKey key{12, 12};

  // Pre-build everything the child needs so it runs on raw syscalls only
  // (fork() from a threaded test binary must not touch malloc or locks).
  net::BodyWriter body;
  body.put(key.hi);
  body.put(key.lo);
  body.put(std::uint32_t{30'000});  // long TTL: disconnect must free it,
                                    // not expiry
  const std::string frame = net::encode_frame(
      static_cast<std::uint8_t>(net::Op::kTryClaim), body.take());
  struct sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: claim the key over a raw socket (retrying while the parent's
    // own busy-probes transiently hold it), then hang until SIGKILL.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) ::_exit(1);
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::_exit(2);
    }
    for (;;) {
      if (::write(fd, frame.data(), frame.size()) < 0) ::_exit(3);
      char resp[64];
      const ssize_t n = ::read(fd, resp, sizeof(resp));
      if (n <= 0) ::_exit(4);
      // Response payload: len(4) | magic(4) | ver | op | status; GRANTED=3.
      if (n >= 11 && resp[10] == 3) break;
      struct timespec delay{0, 20 * 1000 * 1000};
      ::nanosleep(&delay, nullptr);
    }
    for (;;) ::pause();
  }

  auto peer = client(fast_options());
  // Wait until the child's claim is visible (each probe that succeeds is
  // released immediately, giving the child its window).
  const auto start = Clock::now();
  bool busy_seen = false;
  while (!busy_seen && Clock::now() - start < std::chrono::seconds(10)) {
    auto probe = peer->try_claim(key);
    if (!probe.has_value()) {
      busy_seen = true;
    } else {
      probe.reset();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  // Kill the child unconditionally BEFORE asserting — a leaked child would
  // hold the test harness's output pipe open forever.
  ::kill(child, SIGKILL);
  int status = 0;
  ::waitpid(child, &status, 0);
  ASSERT_TRUE(busy_seen) << "child never established its claim";

  const auto kill_time = Clock::now();
  std::optional<CacheClaim> reclaimed;
  while (!reclaimed.has_value() &&
         Clock::now() - kill_time < std::chrono::seconds(5)) {
    reclaimed = peer->try_claim(key);
    if (!reclaimed.has_value()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(reclaimed.has_value())
      << "a SIGKILLed client's claim must become claimable again";
}

TEST_F(RemoteCacheTest, UnreachableDaemonDegradesToRecompute) {
  // Obtain a loopback port with nothing listening on it.
  std::uint16_t dead_port = 0;
  {
    net::Listener listener;
    ASSERT_TRUE(listener.listen_on("127.0.0.1", 0));
    dead_port = listener.port();
  }
  RemoteCacheOptions options = fast_options();
  RemoteCacheBackend backend("tcp://127.0.0.1:" + std::to_string(dead_port),
                             options);
  CacheStats run;
  EXPECT_FALSE(backend.load({1, 1}, &run).has_value());
  EXPECT_EQ(run.misses, 1);
  EXPECT_FALSE(backend.store({1, 1}, sample_result(), &run));
  EXPECT_EQ(run.stores, 0);
  auto claim = backend.try_claim({1, 1});
  ASSERT_TRUE(claim.has_value())
      << "degraded try_claim must grant a local no-op claim (train, don't "
         "defer forever)";
  auto blocking = backend.claim({2, 2});
  EXPECT_TRUE(blocking.has_value());
  const GcStats gc = backend.gc();
  EXPECT_EQ(gc.entries, 0);
  EXPECT_FALSE(backend.ping());
}

TEST_F(RemoteCacheTest, ReconnectsAfterDaemonRestart) {
  ASSERT_TRUE(server_.start(dir_.string()));
  const std::uint16_t port = server_.port();
  auto backend = client(fast_options());
  const CellKey key{3, 3};
  ASSERT_TRUE(backend->store(key, sample_result()));
  ASSERT_TRUE(backend->load(key).has_value());

  server_.stop();
  EXPECT_FALSE(backend->load(key).has_value())
      << "down daemon must degrade to a miss";

  // Same directory, same port: the restarted daemon still has the entry.
  ServerHandle restarted;
  ASSERT_TRUE(restarted.start(dir_.string(), port));
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  std::optional<core::RunResult> loaded;
  while (!loaded.has_value() && Clock::now() < deadline) {
    loaded = backend->load(key, nullptr, /*count_miss=*/false);
    if (!loaded.has_value()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  ASSERT_TRUE(loaded.has_value()) << "client must reconnect to a restarted "
                                     "daemon";
  expect_bitwise_equal(*loaded, sample_result());
}

TEST_F(RemoteCacheTest, DaemonRejectsInvalidPutPayload) {
  ASSERT_TRUE(server_.start(dir_.string()));
  net::Socket sock =
      net::connect_tcp("127.0.0.1", server_.port(), 1000, 2000);
  ASSERT_TRUE(sock.valid());
  const CellKey key{77, 77};
  net::BodyWriter w;
  w.put(key.hi);
  w.put(key.lo);
  const std::string garbage = "definitely not a run result";
  w.put(static_cast<std::uint64_t>(garbage.size()));
  w.put_bytes(garbage);
  ASSERT_TRUE(net::send_frame(sock, static_cast<std::uint8_t>(net::Op::kPut),
                              w.take()));
  auto reply = net::recv_frame(sock);
  ASSERT_TRUE(reply.has_value());
  ASSERT_FALSE(reply->body.empty());
  EXPECT_EQ(static_cast<net::Status>(reply->body[0]), net::Status::kError)
      << "the daemon must refuse a payload that fails validation";
  EXPECT_FALSE(fs::exists(FsCacheBackend(dir_.string()).path_for(key)))
      << "a refused PUT must not touch the cache dir";
}

TEST_F(RemoteCacheTest, RemoteGcSweepsOrphansInTheDaemonDir) {
  ASSERT_TRUE(server_.start(dir_.string()));
  auto backend = client(fast_options());
  ASSERT_TRUE(backend->store({5, 5}, sample_result()));
  const fs::path orphan =
      dir_ / "0123456789abcdef0123456789abcdef.rr.tmp99999999.1";
  std::ofstream(orphan).put('x');
  const GcStats gc = backend->gc();
  EXPECT_EQ(gc.removed_tmp, 1);
  EXPECT_EQ(gc.entries, 1);
  EXPECT_FALSE(fs::exists(orphan));
}

}  // namespace
}  // namespace nnr::sched
