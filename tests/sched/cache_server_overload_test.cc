// Daemon self-protection: the connection cap (excess accepts answered with
// one kGoAway carrying kBusy + a retry hint, then closed), the idle
// deadline (a slow-loris client is evicted while a chatty one is not),
// pipelined requests on one connection (all served, in order, with no
// protection tripped), and graceful shutdown (leases released, fleet queue
// persisted, a restarted daemon resumes the wave).
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/cache_protocol.h"
#include "net/frame.h"
#include "sched/cache_server.h"
#include "sched/fleet_queue.h"
#include "sched/remote_cache_backend.h"
#include "daemon_fixture.h"
#include "test_util.h"

namespace nnr::sched {
namespace {

using Clock = std::chrono::steady_clock;

/// In-process daemon with an arbitrary overload config.
class OverloadServerTest : public ::testing::Test {
 protected:
  void start(CacheServerConfig config) {
    config.dir = tmp_.path().string();
    ASSERT_TRUE(daemon_.start(std::move(config)));
  }

  std::unique_ptr<RemoteCacheBackend> client() {
    return std::make_unique<RemoteCacheBackend>(daemon_.url(),
                                                testutil::fast_options());
  }

  net::Socket raw_conn(int io_timeout_ms = 2000) {
    net::Socket sock =
        net::connect_tcp("127.0.0.1", daemon_.port(), 1000, io_timeout_ms);
    EXPECT_TRUE(sock.valid());
    return sock;
  }

  testutil::TempDir tmp_;
  testutil::ServerHandle daemon_;
};

std::vector<FleetWorkItem> grid(std::uint64_t count) {
  std::vector<FleetWorkItem> out;
  for (std::uint64_t n = 1; n <= count; ++n) {
    FleetWorkItem item;
    item.key = CellKey{0xF00D + n, n};
    item.study = "fig2";
    item.cell = static_cast<std::uint32_t>(n);
    item.replicate = 0;
    out.push_back(std::move(item));
  }
  return out;
}

TEST_F(OverloadServerTest, ConnectionCapAnswersGoAwayBusyThenCloses) {
  CacheServerConfig config;
  config.max_conns = 2;
  start(std::move(config));

  // Fill the cap. Raw conns register with the daemon at accept; a ping
  // round-trip proves each is fully in the epoll set.
  net::Socket first = raw_conn();
  net::Socket second = raw_conn();
  for (net::Socket* sock : {&first, &second}) {
    ASSERT_TRUE(net::send_frame(
        *sock, static_cast<std::uint8_t>(net::Op::kPing), ""));
    ASSERT_EQ(net::recv_frame_ex(*sock).status, net::RecvStatus::kFrame);
  }

  // The third is over capacity: exactly one kGoAway frame, then EOF.
  net::Socket excess = raw_conn();
  const net::RecvFrameResult refusal = net::recv_frame_ex(excess);
  ASSERT_EQ(refusal.status, net::RecvStatus::kFrame)
      << "the refusal must be explicit, not a silent close the client "
         "misreads";
  EXPECT_EQ(refusal.frame.opcode, static_cast<std::uint8_t>(net::Op::kGoAway));
  net::BodyReader r(refusal.frame.body);
  EXPECT_EQ(static_cast<net::Status>(r.get<std::uint8_t>()),
            net::Status::kBusy);
  EXPECT_GT(r.get<std::uint32_t>(), 0u) << "retry hint must be usable";
  char byte = 0;
  EXPECT_EQ(excess.recv_exact(&byte, 1), net::IoStatus::kClosed);
  EXPECT_GE(daemon_.server().overload_counters().rejected_busy, 1);

  // Capacity is by live connections, not a lifetime count: close one and
  // the next accept succeeds.
  first.close();
  const auto deadline = Clock::now() + std::chrono::seconds(3);
  bool admitted = false;
  while (Clock::now() < deadline && !admitted) {
    net::Socket retry = raw_conn();
    if (net::send_frame(retry, static_cast<std::uint8_t>(net::Op::kPing),
                        "")) {
      const net::RecvFrameResult reply = net::recv_frame_ex(retry);
      // A kGoAway here means the daemon hasn't noticed the close yet —
      // keep retrying; only an echoed ping proves admission.
      admitted = reply.status == net::RecvStatus::kFrame &&
                 reply.frame.opcode ==
                     static_cast<std::uint8_t>(net::Op::kPing);
    }
    if (!admitted) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(admitted) << "freed capacity must be reusable";
}

TEST_F(OverloadServerTest, SlowLorisIsEvictedWhileChattyClientsSurvive) {
  CacheServerConfig config;
  config.idle_timeout_ms = 200;
  start(std::move(config));

  // The loris: connects and never sends a byte. Nonblocking so the probe
  // below polls instead of stalling on its receive timeout.
  net::Socket loris = raw_conn(/*io_timeout_ms=*/3000);
  ASSERT_TRUE(loris.set_nonblocking());
  // The healthy client keeps talking well inside the idle window while
  // the loris ages out.
  auto healthy = client();
  const auto start_time = Clock::now();
  bool evicted = false;
  while (Clock::now() - start_time < std::chrono::seconds(3) && !evicted) {
    EXPECT_TRUE(healthy->ping()) << "an active client must never be evicted";
    char byte = 0;
    // A closed loris shows up as EOF on a nonblocking-ish probe; use the
    // socket's own receive with a short timeout slice via ping cadence.
    const auto n = loris.recv_avail(&byte, 1);
    if (n == 0 || n == -2) evicted = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(evicted) << "a silent connection must be evicted by the "
                          "idle deadline";
  EXPECT_GE(daemon_.server().overload_counters().idle_evicted, 1);
  EXPECT_TRUE(healthy->ping());
}

TEST_F(OverloadServerTest, PipelinedRequestsAreAllServedInOrder) {
  start(CacheServerConfig{});

  // One write carrying 256 frames, alternating PING and a GET for a key
  // nobody stored: the daemon must answer every one, in request order.
  constexpr int kFrames = 256;
  net::BodyWriter get_body;
  get_body.put(std::uint64_t{0xAB5E});
  get_body.put(std::uint64_t{0x0E17});
  const std::string absent_get = get_body.take();
  std::string batch;
  for (int i = 0; i < kFrames; ++i) {
    batch += i % 2 == 0
                 ? net::encode_frame(static_cast<std::uint8_t>(net::Op::kPing),
                                     "")
                 : net::encode_frame(static_cast<std::uint8_t>(net::Op::kGet),
                                     absent_get);
  }
  net::Socket sock = raw_conn();
  ASSERT_EQ(sock.send_all(batch.data(), batch.size()), net::IoStatus::kOk);

  for (int i = 0; i < kFrames; ++i) {
    const bool ping = i % 2 == 0;
    const net::RecvFrameResult reply = net::recv_frame_ex(sock);
    ASSERT_EQ(reply.status, net::RecvStatus::kFrame)
        << "answer " << i << " never came";
    ASSERT_EQ(reply.frame.opcode,
              static_cast<std::uint8_t>(ping ? net::Op::kPing : net::Op::kGet))
        << "answer " << i << " is out of order";
    ASSERT_FALSE(reply.frame.body.empty());
    EXPECT_EQ(static_cast<net::Status>(reply.frame.body[0]),
              ping ? net::Status::kOk : net::Status::kMiss)
        << "answer " << i;
  }

  EXPECT_TRUE(client()->ping()) << "the daemon must still serve a new client";
  const auto counters = daemon_.server().overload_counters();
  EXPECT_EQ(counters.rejected_busy, 0);
  EXPECT_EQ(counters.idle_evicted, 0);
}

TEST_F(OverloadServerTest, GracefulStopPersistsQueueAndRestartResumesWave) {
  start(CacheServerConfig{});
  const std::uint16_t port = daemon_.port();

  auto backend = client();
  ASSERT_TRUE(backend->fleet_submit(grid(3)).has_value());
  auto fetch = backend->fleet_fetch();  // one cell in flight at stop time
  ASSERT_TRUE(fetch.has_value());
  ASSERT_TRUE(fetch->granted);

  // stop() is the SIGTERM path: drain, release leases (the in-flight cell
  // requeues), persist the snapshot.
  daemon_.stop();

  CacheServerConfig again;
  again.port = port;
  start(std::move(again));
  auto peer = client();
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  std::optional<FleetQueue::Stats> stat;
  while (Clock::now() < deadline) {
    stat = peer->fleet_queue_stat();
    if (stat.has_value()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(stat.has_value());
  EXPECT_EQ(stat->total, 3u);
  EXPECT_EQ(stat->pending, 3u)
      << "the leased cell must revert to pending across a graceful stop";
  EXPECT_EQ(stat->leased, 0u);
  const auto refetch = peer->fleet_fetch();
  ASSERT_TRUE(refetch.has_value());
  EXPECT_TRUE(refetch->granted) << "the restarted daemon must resume the wave";
}

}  // namespace
}  // namespace nnr::sched
