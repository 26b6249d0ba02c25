// Fleet work queue at the wire level: SUBMIT/FETCH/REPORT/QUEUE_STAT
// against an in-process CacheServer — the drain signal on an empty queue,
// kGone for reports nobody leased, the malformation matrix for the three
// new opcodes (truncated bodies cost the connection, never the daemon;
// out-of-range enum values and unknown or retired opcodes answer kError),
// lease-death requeue paths
// (including a worker lost between its PUT and its REPORT, whose cell the
// next worker settles as served), and queue durability across a daemon
// restart.
#include <chrono>
#include <filesystem>
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

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

core::RunResult sample_result() {
  core::RunResult r;
  r.test_predictions = {1, 2, 3};
  r.test_confidences = {0.5F, 0.25F, 1.0F};
  r.final_weights = {0.5F, -1.0F};
  r.test_accuracy = 0.5;
  r.final_train_loss = 2.0;
  return r;
}

using testutil::fast_options;
using testutil::ServerHandle;

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

class FleetServerTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(server_.start(dir_.string())); }

  std::unique_ptr<RemoteCacheBackend> client(
      RemoteCacheOptions options = fast_options()) {
    return std::make_unique<RemoteCacheBackend>(server_.url(), options);
  }

  net::Socket raw_conn() {
    net::Socket sock = net::connect_tcp("127.0.0.1", server_.port(), 1000,
                                        /*io_timeout_ms=*/2000);
    EXPECT_TRUE(sock.valid());
    return sock;
  }

  testutil::TempDir tmp_;
  const fs::path dir_ = tmp_.path() / "cache";
  ServerHandle server_;
};

TEST_F(FleetServerTest, FetchOnEmptyQueueReportsNothingOutstanding) {
  auto backend = client();
  const auto fetch = backend->fleet_fetch();
  ASSERT_TRUE(fetch.has_value());
  EXPECT_FALSE(fetch->granted);
  EXPECT_EQ(fetch->outstanding, 0u);
  EXPECT_EQ(fetch->total, 0u)
      << "total == 0 tells a worker to wait for a submit, not exit";
}

TEST_F(FleetServerTest, SubmitFetchReportRoundTrip) {
  auto backend = client();
  const auto ack = backend->fleet_submit(grid(2));
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->enqueued, 2u);

  auto fetch = backend->fleet_fetch();
  ASSERT_TRUE(fetch.has_value());
  ASSERT_TRUE(fetch->granted);
  EXPECT_EQ(fetch->item.study, "fig2");
  EXPECT_EQ(fetch->item.key, grid(2)[0].key) << "FIFO: submit order";
  ASSERT_TRUE(fetch->claim.has_value());
  EXPECT_TRUE(fetch->claim->held());

  auto stat = backend->fleet_queue_stat();
  ASSERT_TRUE(stat.has_value());
  EXPECT_EQ(stat->leased, 1u);
  EXPECT_EQ(stat->pending, 1u);

  const auto report = backend->fleet_report(fetch->item.key, fetch->lease_id,
                                            net::ReportOutcome::kTrained);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->done, 1u);
  EXPECT_EQ(report->total, 2u);

  stat = backend->fleet_queue_stat();
  ASSERT_TRUE(stat.has_value());
  EXPECT_EQ(stat->trained, 1u);
  EXPECT_EQ(stat->leased, 0u);
}

TEST_F(FleetServerTest, SubmitShortCircuitsKeysAlreadyInTheCache) {
  auto backend = client();
  auto items = grid(3);
  ASSERT_TRUE(backend->store(items[1].key, sample_result()));
  const auto ack = backend->fleet_submit(items);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->enqueued, 2u);
  EXPECT_EQ(ack->already_done, 1u);
  const auto stat = backend->fleet_queue_stat();
  ASSERT_TRUE(stat.has_value());
  EXPECT_EQ(stat->served, 1u);
  EXPECT_EQ(stat->done, 1u);
}

TEST_F(FleetServerTest, ReportForUnclaimedCellAnswersGone) {
  net::Socket sock = raw_conn();
  net::BodyWriter w;
  w.put(std::uint64_t{0xDEAD});  // key.hi — nothing ever leased this
  w.put(std::uint64_t{0xBEEF});  // key.lo
  w.put(std::uint64_t{42});      // lease_id
  w.put(static_cast<std::uint8_t>(net::ReportOutcome::kTrained));
  ASSERT_TRUE(net::send_frame(
      sock, static_cast<std::uint8_t>(net::Op::kReport), w.take()));
  const net::RecvFrameResult reply = net::recv_frame_ex(sock);
  ASSERT_EQ(reply.status, net::RecvStatus::kFrame);
  ASSERT_FALSE(reply.frame.body.empty());
  EXPECT_EQ(static_cast<net::Status>(reply.frame.body[0]), net::Status::kGone);
}

TEST_F(FleetServerTest, ReportWithInvalidOutcomeByteAnswersError) {
  net::Socket sock = raw_conn();
  net::BodyWriter w;
  w.put(std::uint64_t{1});
  w.put(std::uint64_t{2});
  w.put(std::uint64_t{3});
  w.put(std::uint8_t{7});  // not a ReportOutcome
  ASSERT_TRUE(net::send_frame(
      sock, static_cast<std::uint8_t>(net::Op::kReport), w.take()));
  const net::RecvFrameResult reply = net::recv_frame_ex(sock);
  ASSERT_EQ(reply.status, net::RecvStatus::kFrame);
  ASSERT_FALSE(reply.frame.body.empty());
  EXPECT_EQ(static_cast<net::Status>(reply.frame.body[0]), net::Status::kError);
}

TEST_F(FleetServerTest, UnknownAndRetiredOpcodesAnswerErrorOnALiveConnection) {
  // The new-opcode rule: an opcode this daemon does not serve — the
  // retired 7, or one from a newer client — is answered kError with the
  // opcode echoed ("feature absent"), and the connection stays usable.
  net::Socket sock = raw_conn();
  for (const std::uint8_t opcode : {std::uint8_t{7}, std::uint8_t{200}}) {
    ASSERT_TRUE(net::send_frame(sock, opcode, ""));
    const net::RecvFrameResult reply = net::recv_frame_ex(sock);
    ASSERT_EQ(reply.status, net::RecvStatus::kFrame)
        << "opcode " << int{opcode};
    EXPECT_EQ(reply.frame.opcode, opcode);
    ASSERT_FALSE(reply.frame.body.empty());
    EXPECT_EQ(static_cast<net::Status>(reply.frame.body[0]),
              net::Status::kError)
        << "opcode " << int{opcode};
  }
  const auto ping = static_cast<std::uint8_t>(net::Op::kPing);
  ASSERT_TRUE(net::send_frame(sock, ping, ""));
  const net::RecvFrameResult reply = net::recv_frame_ex(sock);
  ASSERT_EQ(reply.status, net::RecvStatus::kFrame)
      << "the connection must survive";
  EXPECT_EQ(reply.frame.opcode, ping);
  ASSERT_FALSE(reply.frame.body.empty());
  EXPECT_EQ(static_cast<net::Status>(reply.frame.body[0]), net::Status::kOk);
}

TEST_F(FleetServerTest, MalformedFleetBodiesCostTheConnectionNotTheDaemon) {
  struct Case {
    net::Op op;
    std::string body;
    const char* what;
  };
  net::BodyWriter lying_submit;
  lying_submit.put(std::uint32_t{5});  // promises 5 items, carries none
  net::BodyWriter truncated_report;
  truncated_report.put(std::uint64_t{1});  // key.hi only
  const Case cases[] = {
      {net::Op::kSubmit, lying_submit.take(), "SUBMIT count > items"},
      {net::Op::kSubmit, std::string("\x01", 1), "SUBMIT truncated count"},
      {net::Op::kFetch, "", "FETCH missing ttl"},
      {net::Op::kReport, truncated_report.take(), "REPORT truncated body"},
  };
  for (const Case& c : cases) {
    net::Socket sock = raw_conn();
    ASSERT_TRUE(
        net::send_frame(sock, static_cast<std::uint8_t>(c.op), c.body))
        << c.what;
    EXPECT_NE(net::recv_frame_ex(sock).status, net::RecvStatus::kFrame)
        << c.what << ": a malformed body is a protocol violation — the "
        << "daemon must drop the connection, not answer";
    // The daemon itself must shrug it off: a fresh connection works.
    auto probe = client();
    EXPECT_TRUE(probe->ping()) << c.what << " must not kill the daemon";
  }
}

TEST_F(FleetServerTest, MalformedBodySweepDropsOffenderNotHealthyClients) {
  // Every opcode that requires a body, fed a 1-byte body: the daemon must
  // drop exactly the offending connection — and a healthy client working
  // concurrently must never notice.
  const net::Op body_ops[] = {
      net::Op::kGet,     net::Op::kPut,    net::Op::kTryClaim,
      net::Op::kRelease, net::Op::kHeartbeat, net::Op::kSubmit,
      net::Op::kFetch,   net::Op::kReport,
  };
  auto healthy = client();
  for (const net::Op op : body_ops) {
    net::Socket sock = raw_conn();
    ASSERT_TRUE(net::send_frame(sock, static_cast<std::uint8_t>(op),
                                std::string("\x01", 1)))
        << "op " << static_cast<int>(op);
    EXPECT_NE(net::recv_frame_ex(sock).status, net::RecvStatus::kFrame)
        << "op " << static_cast<int>(op)
        << ": a truncated body must cost the connection, never get an answer";
    EXPECT_TRUE(healthy->ping())
        << "op " << static_cast<int>(op)
        << ": the healthy client must survive the offender";
  }
}

TEST_F(FleetServerTest, GarbageLengthPrefixesDropTheConnection) {
  // Below the frame layer: raw length prefixes the daemon must refuse to
  // allocate for. Oversized says "I will send 64MB+1" (a memory bomb);
  // tiny says "3 bytes" (can't even hold the magic). Either way: drop.
  struct Case {
    std::uint32_t len;
    const char* what;
  };
  const Case cases[] = {
      {net::kMaxFrameBytes + 1, "oversized length (allocation bomb)"},
      {3, "length below the minimum payload"},
      {0, "zero length"},
      {0xFFFF'FFFFu, "UINT32_MAX length"},
  };
  auto healthy = client();
  for (const Case& c : cases) {
    net::Socket sock = raw_conn();
    ASSERT_EQ(sock.send_all(&c.len, sizeof(c.len)), net::IoStatus::kOk)
        << c.what;
    // The daemon must close without ever answering…
    char byte = 0;
    EXPECT_EQ(sock.recv_exact(&byte, 1), net::IoStatus::kClosed) << c.what;
    // …and without reserving 4GB or dying.
    EXPECT_TRUE(healthy->ping()) << c.what << " must not kill the daemon";
  }
}

TEST_F(FleetServerTest, DroppedWorkerConnectionRequeuesItsCell) {
  auto backend = client();
  ASSERT_TRUE(backend->fleet_submit(grid(1)).has_value());
  auto fetch = backend->fleet_fetch();
  ASSERT_TRUE(fetch.has_value());
  ASSERT_TRUE(fetch->granted);
  // Defuse the claim's destructor-release (the connection is about to die
  // anyway, mirroring a SIGKILLed worker).
  backend->drop_connection_for_test();

  auto peer = client();
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  std::optional<FleetQueue::Stats> stat;
  while (Clock::now() < deadline) {
    stat = peer->fleet_queue_stat();
    if (stat.has_value() && stat->pending == 1 && stat->leased == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(stat.has_value());
  EXPECT_EQ(stat->pending, 1u)
      << "a dead worker's cell must return to the queue";
  const auto refetch = peer->fleet_fetch();
  ASSERT_TRUE(refetch.has_value());
  EXPECT_TRUE(refetch->granted);
  EXPECT_EQ(refetch->item.key, grid(1)[0].key);
}

TEST_F(FleetServerTest, LeaseExpiryWithoutHeartbeatRequeuesTheCell) {
  RemoteCacheOptions no_heartbeat = fast_options();
  no_heartbeat.heartbeat = false;
  no_heartbeat.lease_ttl_ms = 300;
  auto worker = client(no_heartbeat);
  ASSERT_TRUE(worker->fleet_submit(grid(1)).has_value());
  auto fetch = worker->fleet_fetch();
  ASSERT_TRUE(fetch.has_value());
  ASSERT_TRUE(fetch->granted);

  auto peer = client();
  const auto start = Clock::now();
  std::optional<RemoteCacheBackend::FleetFetchResult> refetch;
  while (Clock::now() - start < std::chrono::seconds(5)) {
    refetch = peer->fleet_fetch();
    if (refetch.has_value() && refetch->granted) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(refetch.has_value());
  ASSERT_TRUE(refetch->granted)
      << "an expired lease must hand the cell to the next worker";
  EXPECT_EQ(refetch->item.key, grid(1)[0].key);
}

TEST_F(FleetServerTest, UnreportedPutRequeuesTheCellForAPeerToServe) {
  auto worker = client();
  ASSERT_TRUE(worker->fleet_submit(grid(1)).has_value());
  auto fetch = worker->fleet_fetch();
  ASSERT_TRUE(fetch.has_value());
  ASSERT_TRUE(fetch->granted);
  // The worker PUTs its result and vanishes before REPORT: the dropped
  // connection releases its lease, and the PUT alone settles nothing.
  ASSERT_TRUE(worker->store(fetch->item.key, sample_result()));
  worker->drop_connection_for_test();

  auto peer = client();
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  std::optional<FleetQueue::Stats> stat;
  while (Clock::now() < deadline) {
    stat = peer->fleet_queue_stat();
    if (stat.has_value() && stat->pending == 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(stat.has_value());
  EXPECT_EQ(stat->pending, 1u)
      << "the unreported cell must return to the queue";
  EXPECT_EQ(stat->done, 0u) << "a PUT must not settle the item";

  // The next worker finds the stored result and settles the cell as served.
  auto refetch = peer->fleet_fetch();
  ASSERT_TRUE(refetch.has_value());
  ASSERT_TRUE(refetch->granted);
  EXPECT_EQ(refetch->item.key, fetch->item.key);
  ASSERT_TRUE(peer->load(refetch->item.key).has_value());
  const auto report = peer->fleet_report(
      refetch->item.key, refetch->lease_id, net::ReportOutcome::kServed);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->done, 1u);
  stat = peer->fleet_queue_stat();
  ASSERT_TRUE(stat.has_value());
  EXPECT_EQ(stat->trained, 0u);
  EXPECT_EQ(stat->served, 1u);
  EXPECT_EQ(stat->done, 1u);
}

TEST_F(FleetServerTest, DaemonRestartPreservesThePendingQueue) {
  const std::uint16_t port = server_.port();
  auto backend = client();
  ASSERT_TRUE(backend->fleet_submit(grid(3)).has_value());
  auto fetch = backend->fleet_fetch();  // one leased at crash time
  ASSERT_TRUE(fetch.has_value());
  ASSERT_TRUE(fetch->granted);

  server_.stop();
  ServerHandle restarted;
  ASSERT_TRUE(restarted.start(dir_.string(), port));

  auto peer = std::make_unique<RemoteCacheBackend>(
      "tcp://127.0.0.1:" + std::to_string(port), fast_options());
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  std::optional<FleetQueue::Stats> stat;
  while (Clock::now() < deadline) {
    stat = peer->fleet_queue_stat();
    if (stat.has_value()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(stat.has_value()) << "restarted daemon must serve the queue";
  EXPECT_EQ(stat->total, 3u) << "the queue snapshot must survive a restart";
  EXPECT_EQ(stat->pending, 3u)
      << "the crashed daemon's lease reverts to pending";
  EXPECT_EQ(stat->leased, 0u);
  // And the work is actually fetchable again.
  const auto refetch = peer->fleet_fetch();
  ASSERT_TRUE(refetch.has_value());
  EXPECT_TRUE(refetch->granted);
}

TEST_F(FleetServerTest, SubmitDuringDrainIsRefusedWithBusyNotEnqueued) {
  // A SUBMIT that races the graceful shutdown must be REFUSED (kBusy +
  // retry hint), never half-enqueued into the queue snapshot being saved:
  // the coordinator retries against the restarted daemon, which then owns
  // the items end to end. Drive a dedicated server's run loop on this
  // thread so the submit bytes are already pending when the drain read
  // pass runs.
  server_.stop();  // the fixture's own daemon is not the one under test
  CacheServerConfig config;
  config.dir = dir_.string();
  config.port = 0;
  CacheServer server(std::move(config));
  ASSERT_TRUE(server.start());

  net::Socket sock = net::connect_tcp("127.0.0.1", server.port(), 1000, 2000);
  ASSERT_TRUE(sock.valid());
  net::BodyWriter w;
  w.put(std::uint32_t{1});
  w.put(std::uint64_t{0xD1});  // key.hi
  w.put(std::uint64_t{0xD2});  // key.lo
  const std::string study = "fig2";
  w.put(static_cast<std::uint32_t>(study.size()));
  w.put_bytes(study);
  w.put(std::uint32_t{0});  // cell
  w.put(std::uint32_t{0});  // replicate
  ASSERT_TRUE(net::send_frame(
      sock, static_cast<std::uint8_t>(net::Op::kSubmit), w.take()));
  // Let the bytes reach the daemon's kernel buffer, then request the stop
  // BEFORE running the loop: run() meets the accept and the stop wakeup in
  // its first epoll batch, exits, and finds the pending SUBMIT only in
  // drain_and_shutdown's final read pass — with draining_ set.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.stop();
  server.run();

  const net::RecvFrameResult reply = net::recv_frame_ex(sock);
  ASSERT_EQ(reply.status, net::RecvStatus::kFrame)
      << "the drain pass must answer, not drop";
  EXPECT_EQ(static_cast<net::Op>(reply.frame.opcode), net::Op::kSubmit);
  net::BodyReader r(reply.frame.body);
  EXPECT_EQ(static_cast<net::Status>(r.get<std::uint8_t>()),
            net::Status::kBusy);
  EXPECT_EQ(r.get<std::uint32_t>(), CacheServer::kBusyRetryMs);

  // Nothing was enqueued: the queue snapshot a restarted daemon loads from
  // the same directory is empty.
  ASSERT_TRUE(server_.start(dir_.string()));
  auto backend = client();
  const auto stats = backend->fleet_queue_stat();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->total, 0u);
  EXPECT_EQ(stats->pending, 0u);
}

TEST_F(FleetServerTest, ReconnectBackoffCostsOneAttemptPerWindow) {
  // Regression: a failed reconnect used to stamp the backoff clock BEFORE
  // the connect attempt, so when the attempt itself outlasted the window
  // (connect_timeout > backoff) every operation retried the connect. A
  // down daemon must cost one attempt per window, not one per operation.
  const std::uint16_t dead_port = server_.port();
  server_.stop();
  RemoteCacheOptions options = fast_options();
  options.reconnect_backoff_ms = 60'000;  // one window spans the whole test
  auto backend = std::make_unique<RemoteCacheBackend>(
      "tcp://127.0.0.1:" + std::to_string(dead_port), options);
  for (int i = 0; i < 5; ++i) {
    (void)backend->fleet_queue_stat();
    (void)backend->load(CellKey{1, 1});
  }
  EXPECT_EQ(backend->connect_attempts_for_test(), 1)
      << "10 operations inside one backoff window must share one connect "
         "attempt";
}

TEST_F(FleetServerTest, ReconnectWindowsGrowExponentiallyWithBoundedAttempts) {
  // The down-daemon probe schedule: windows double (base, 2x, 4x, capped)
  // and each window costs exactly one attempt no matter how many
  // operations land inside it. Over ~1.2s with base=100 cap=800 the
  // attempt count is bounded by the schedule, not by the operation rate.
  const std::uint16_t dead_port = server_.port();
  server_.stop();
  RemoteCacheOptions options = fast_options();
  options.reconnect_backoff_ms = 100;
  options.reconnect_backoff_max_ms = 800;
  options.jitter_seed = 7;  // pinned: the schedule is reproducible
  auto backend = std::make_unique<RemoteCacheBackend>(
      "tcp://127.0.0.1:" + std::to_string(dead_port), options);
  const auto deadline = Clock::now() + std::chrono::milliseconds(1200);
  int operations = 0;
  while (Clock::now() < deadline) {
    (void)backend->fleet_queue_stat();
    ++operations;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // Worst case with jitter 0.5x: windows 50, 100, 200, 400, 400... — at
  // most ~7 attempts fit in 1.2s; far fewer than the ~100 operations.
  EXPECT_GE(operations, 20);
  EXPECT_GE(backend->connect_attempts_for_test(), 2)
      << "growth must still probe more than once over 1.2s";
  EXPECT_LE(backend->connect_attempts_for_test(), 8)
      << "every operation must NOT retry the connect";
  // A pinned seed replays the exact same schedule.
  auto replay = std::make_unique<RemoteCacheBackend>(
      "tcp://127.0.0.1:" + std::to_string(dead_port), options);
  (void)replay->fleet_queue_stat();
  EXPECT_EQ(replay->connect_attempts_for_test(), 1);
}

}  // namespace
}  // namespace nnr::sched
