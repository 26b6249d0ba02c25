// Chaos conformance: the full coordinator + 2-worker fleet drain and a
// mixed-ops backend workout, re-run under a matrix of seeded fault plans
// (drop / delay / corrupt / reset on every socket of client AND daemon).
// The invariants that must hold under ANY fault schedule:
//
//   - the study completes: every submitted cell settles exactly once,
//     none parked as failed — the daemon's tally reads trained + served ==
//     cells with at least one trained (a REPORT lost to a fault requeues
//     its already-stored cell, which a peer then settles as served),
//   - results are byte-identical to a fault-free run (faults cost
//     retries and time, never bytes),
//   - the daemon neither crashes nor wedges — it answers a clean ping
//     after the storm.
//
// Determinism makes failures here regression tests, not anecdotes: each
// plan is a spec string with a pinned seed, so a red run reproduces with
// the exact same fault sequence (see fault_injector_test.cc for the
// replay contract itself).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/trainer.h"
#include "net/fault_injector.h"
#include "sched/fleet_client.h"
#include "sched/fleet_queue.h"
#include "sched/remote_cache_backend.h"
#include "daemon_fixture.h"
#include "test_util.h"

namespace nnr::sched {
namespace {

using Clock = std::chrono::steady_clock;

/// The fault-plan matrix. Probabilities are modest on purpose: the goal is
/// a storm the retry paths must absorb, not a partition nothing survives.
const char* const kFaultPlans[] = {
    "drop=0.05,seed=7",
    "delay_ms=3:0.10,corrupt=0.04,seed=11",
    "drop=0.03,delay_ms=2:0.05,corrupt=0.03,reset=0.02,seed=42",
};

constexpr std::uint64_t kCells = 12;

/// Deterministic synthetic "training" output for a cell: what a worker
/// stores is a pure function of the key, exactly like real training under
/// a fixed seed — so fault-free and chaotic runs must produce identical
/// bytes.
core::RunResult result_for(const CellKey& key) {
  core::RunResult r;
  const auto base = static_cast<std::int32_t>(key.lo % 97);
  r.test_predictions = {base, base + 1, base + 2};
  r.test_confidences = {0.25F + 0.01F * static_cast<float>(key.lo % 10),
                        0.5F, 0.75F};
  r.final_weights = {static_cast<float>(key.hi % 13) * 0.1F, -1.0F};
  r.test_accuracy = 0.25 + static_cast<double>(key.lo % 50) / 100.0;
  r.final_train_loss = 2.0 - static_cast<double>(key.lo % 10) / 10.0;
  return r;
}

void expect_identical(const core::RunResult& got, const core::RunResult& want,
                      const CellKey& key) {
  EXPECT_EQ(got.test_predictions, want.test_predictions) << key.hex();
  EXPECT_EQ(got.test_confidences, want.test_confidences) << key.hex();
  EXPECT_EQ(got.final_weights, want.final_weights) << key.hex();
  EXPECT_EQ(got.test_accuracy, want.test_accuracy) << key.hex();
  EXPECT_EQ(got.final_train_loss, want.final_train_loss) << key.hex();
}

std::vector<FleetWorkItem> grid() {
  std::vector<FleetWorkItem> out;
  for (std::uint64_t n = 1; n <= kCells; ++n) {
    FleetWorkItem item;
    item.key = CellKey{0xC0FFEE + n, n};
    item.study = "fig2";
    item.cell = static_cast<std::uint32_t>(n);
    item.replicate = 0;
    out.push_back(std::move(item));
  }
  return out;
}

/// Client options tuned for chaos: short timeouts so injected faults cost
/// tens of milliseconds, pinned jitter seeds so schedules replay.
RemoteCacheOptions chaos_options(std::uint64_t jitter_seed) {
  RemoteCacheOptions options;
  options.lease_ttl_ms = 3000;
  options.io_timeout_ms = 300;
  options.io_timeout_retries = 1;
  options.connect_timeout_ms = 500;
  options.reconnect_backoff_ms = 30;
  options.reconnect_backoff_max_ms = 200;
  options.jitter_seed = jitter_seed;
  options.claim_poll_ms = 10;
  return options;
}

class ChaosFleetTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override { ASSERT_TRUE(daemon_.start(tmp_.path().string())); }

  std::unique_ptr<RemoteCacheBackend> client(std::uint64_t jitter_seed) {
    return std::make_unique<RemoteCacheBackend>(daemon_.url(),
                                                chaos_options(jitter_seed));
  }

  testutil::TempDir tmp_;
  testutil::ServerHandle daemon_;
};

TEST_P(ChaosFleetTest, FleetDrainsExactlyOnceWithIdenticalBytes) {
  const auto spec = net::FaultSpec::parse(GetParam());
  ASSERT_TRUE(spec.has_value()) << GetParam();
  net::FaultInjector injector(*spec);

  const std::vector<FleetWorkItem> items = grid();
  std::atomic<bool> stop{false};
  const auto deadline = Clock::now() + std::chrono::seconds(90);
  {
    net::FaultInjector::ScopedInstall chaos(&injector);

    // The submit RPC itself rides the faulty wire, so it retries like the
    // production coordinator's: within one lease TTL.
    auto coordinator = client(/*jitter_seed=*/101);
    ASSERT_TRUE(retry_within_lease(*coordinator, [&] {
      return coordinator->fleet_submit(items).has_value();
    })) << "submit must get through within one lease TTL";

    // Two workers, each with its own backend/connection/jitter stream.
    auto worker_loop = [&](std::uint64_t jitter_seed) {
      auto backend = client(jitter_seed);
      while (!stop.load(std::memory_order_relaxed) &&
             Clock::now() < deadline) {
        auto fetch = backend->fleet_fetch();
        if (!fetch.has_value()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(15));
          continue;
        }
        if (!fetch->granted) {
          if (fetch->total > 0 && fetch->outstanding == 0) break;  // drained
          std::this_thread::sleep_for(std::chrono::milliseconds(15));
          continue;
        }
        const CellKey key = fetch->item.key;
        if (backend->load(key).has_value()) {
          (void)backend->fleet_report(key, fetch->lease_id,
                                      net::ReportOutcome::kServed);
          continue;
        }
        const core::RunResult result = result_for(key);
        // A worker never gives a trained cell up over a transient fault:
        // fleet_run_worker's rule re-sends an undelivered PUT for up to
        // one lease TTL, and a daemon answer is final.
        bool stored = false;
        (void)retry_until_answered(*backend, [&] {
          stored = backend->store(key, result);
          return stored || stop.load(std::memory_order_relaxed);
        });
        if (!stored && stop.load(std::memory_order_relaxed)) {
          // The wave completed while we retried: a reset fault released
          // our lease mid-retry and the peer redid the cell (to identical
          // bytes, by determinism). Our copy is moot, not lost.
          continue;
        }
        EXPECT_TRUE(stored) << "a PUT must get through within one lease TTL";
        // The report may be lost: the lease then dies, the item requeues,
        // and whoever fetches it next finds the entry and reports served.
        (void)backend->fleet_report(key, fetch->lease_id,
                                    net::ReportOutcome::kTrained);
      }
    };
    std::thread w1(worker_loop, 201);
    std::thread w2(worker_loop, 202);

    // Coordinator-side wait: poll the tally until every cell is done.
    bool drained = false;
    while (!drained && Clock::now() < deadline) {
      const auto stat = coordinator->fleet_queue_stat();
      drained = stat.has_value() && stat->done == kCells;
      if (!drained) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    }
    stop.store(true, std::memory_order_relaxed);
    w1.join();
    w2.join();
    EXPECT_TRUE(drained) << "the wave must complete under plan "
                         << GetParam();
  }  // chaos off — verification runs on a clean wire

  // Exactly-once tally: every cell settled once, none failed, none lost.
  auto verifier = client(/*jitter_seed=*/303);
  const auto stat = verifier->fleet_queue_stat();
  ASSERT_TRUE(stat.has_value()) << "daemon must be healthy after the storm";
  EXPECT_EQ(stat->total, kCells);
  EXPECT_EQ(stat->done, kCells);
  EXPECT_EQ(stat->trained + stat->served, kCells)
      << "REPORT settles each item exactly once: no double counts, no losses";
  EXPECT_GE(stat->trained, 1u) << "the wave must have trained something";
  EXPECT_EQ(stat->failed, 0u);

  // Byte-identical results: what survived the chaotic wire must equal the
  // fault-free computation.
  for (const FleetWorkItem& item : items) {
    const auto loaded = verifier->load(item.key);
    ASSERT_TRUE(loaded.has_value()) << item.key.hex();
    expect_identical(*loaded, result_for(item.key), item.key);
  }
  EXPECT_TRUE(verifier->ping());
}

TEST_P(ChaosFleetTest, MixedOpsNeverCorruptWhatTheyAcknowledge) {
  // Backend-conformance under fire: a single client hammers store / load /
  // claim cycles while every socket misbehaves. The contract is weaker
  // than success — ops may fail — but asymmetric: an acknowledged store
  // must be durable and byte-exact, a load may miss but never lie, and a
  // granted claim is real (the daemon holds the lease).
  const auto spec = net::FaultSpec::parse(GetParam());
  ASSERT_TRUE(spec.has_value()) << GetParam();
  net::FaultInjector injector(*spec);

  std::vector<CellKey> acknowledged;
  {
    net::FaultInjector::ScopedInstall chaos(&injector);
    auto backend = client(/*jitter_seed=*/404);
    for (std::uint64_t i = 0; i < 60; ++i) {
      const CellKey key{0xABBA + i, i + 1};
      if (auto claim = backend->try_claim(key);
          claim.has_value() && claim->held()) {
        if (backend->store(key, result_for(key))) {
          acknowledged.push_back(key);
        }
      }
      // Loads during chaos may miss (degraded) — they must never throw or
      // return wrong bytes (checksums catch corrupted GET payloads).
      if (const auto loaded = backend->load(key); loaded.has_value()) {
        expect_identical(*loaded, result_for(key), key);
      }
    }
  }

  // Every acknowledged store must now be served intact.
  auto verifier = client(/*jitter_seed=*/505);
  EXPECT_TRUE(verifier->ping()) << "daemon must survive the mixed-ops storm";
  EXPECT_FALSE(acknowledged.empty())
      << "some stores must succeed under these fault rates, or the test "
         "proved nothing";
  for (const CellKey& key : acknowledged) {
    const auto loaded = verifier->load(key);
    ASSERT_TRUE(loaded.has_value())
        << key.hex() << ": an acknowledged store must be durable";
    expect_identical(*loaded, result_for(key), key);
  }
}

INSTANTIATE_TEST_SUITE_P(FaultPlans, ChaosFleetTest,
                         ::testing::ValuesIn(kFaultPlans),
                         [](const auto& info) {
                           return "plan" + std::to_string(info.index);
                         });

}  // namespace
}  // namespace nnr::sched
