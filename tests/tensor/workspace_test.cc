// Workspace storage contract: slots keep their storage across element-count
// changes within capacity, and a destroyed Workspace's storage passes to the
// next Workspace on the same thread, never to another thread's.
#include "tensor/workspace.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>

namespace nnr::tensor {
namespace {

// Runs `fn` on a new thread, whose spare list starts empty.
template <typename Fn>
void on_fresh_thread(Fn fn) {
  std::thread(fn).join();
}

TEST(Workspace, ReusesStorageForEqualElementCounts) {
  Workspace ws;
  const int owner = 0;
  Tensor& t1 = ws.scratch(&owner, 0, Shape{4, 8});
  t1.fill(7.0F);
  const float* data1 = t1.raw();
  // Same element count, different shape: storage (and contents) persist.
  Tensor& t2 = ws.scratch(&owner, 0, Shape{8, 4});
  EXPECT_EQ(t2.raw(), data1);
  EXPECT_EQ(t2.at(0), 7.0F);
  EXPECT_EQ(t2.shape(), (Shape{8, 4}));
  // A different element count within capacity: resized in place, shrinking
  // or growing back.
  Tensor& t3 = ws.scratch(&owner, 0, Shape{3, 3});
  EXPECT_EQ(t3.numel(), 9);
  EXPECT_EQ(t3.raw(), data1);
  EXPECT_EQ(ws.scratch(&owner, 0, Shape{2, 16}).raw(), data1);
  // Distinct slots are distinct tensors.
  Tensor& other = ws.scratch(&owner, 1, Shape{3, 3});
  EXPECT_NE(other.raw(), data1);
  EXPECT_EQ(ws.slot_count(), 2U);
}

TEST(Workspace, NextWorkspaceTakesADestroyedOnesStorage) {
  on_fresh_thread([] {
    const int owner = 0;
    const float* spare = nullptr;
    {
      Workspace ws;
      spare = ws.scratch(&owner, 0, Shape{64, 64}).raw();
    }
    // Any owner, slot or shape of the same element count takes it.
    Workspace next;
    EXPECT_EQ(next.scratch(&next, 5, Shape{4096}).raw(), spare);
  });
}

TEST(Workspace, TakesTheSmallestSpareThatFits) {
  on_fresh_thread([] {
    const int owner = 0;
    const float* raw[3] = {};
    {
      Workspace ws;
      raw[0] = ws.scratch(&owner, 0, Shape{100}).raw();
      raw[1] = ws.scratch(&owner, 1, Shape{200}).raw();
      raw[2] = ws.scratch(&owner, 2, Shape{400}).raw();
    }
    Workspace ws;
    EXPECT_EQ(ws.scratch(&owner, 0, Shape{150}).raw(), raw[1]);
    EXPECT_EQ(ws.scratch(&owner, 1, Shape{400}).raw(), raw[2]);
    EXPECT_EQ(ws.scratch(&owner, 2, Shape{50}).raw(), raw[0]);
  });
}

TEST(Workspace, AnotherThreadDoesNotTakeTheSpare) {
  on_fresh_thread([] {
    const int owner = 0;
    const float* spare = nullptr;
    {
      Workspace ws;
      spare = ws.scratch(&owner, 0, Shape{64, 64}).raw();
    }
    // `spare` stays allocated in this thread's list, so a distinct address
    // means the other thread allocated its own.
    on_fresh_thread([&] {
      Workspace ws;
      EXPECT_NE(ws.scratch(&owner, 0, Shape{64, 64}).raw(), spare);
    });
    Workspace ws;
    EXPECT_EQ(ws.scratch(&owner, 0, Shape{64, 64}).raw(), spare);
  });
}

TEST(Workspace, CyclesOfOneShapeReuseOneBuffer) {
  on_fresh_thread([] {
    const int owner = 0;
    std::set<const float*> seen;
    for (int cycle = 0; cycle < 100; ++cycle) {
      Workspace ws;
      seen.insert(ws.scratch(&owner, 0, Shape{32, 16, 3, 3}).raw());
      seen.insert(ws.scratch(&owner, 1, Shape{32, 27}).raw());
    }
    EXPECT_EQ(seen.size(), 2U);
  });
}

TEST(Workspace, ThreadLocalWorkspaceOutlivingTheSpareListIsSafe) {
  // `ws` is built before its first scratch() call builds the thread's spare
  // list, so thread exit destroys the list first; ws must then free its own
  // storage instead of touching the list (ASan reports a use of the
  // destroyed list as a heap-use-after-free).
  on_fresh_thread([] {
    thread_local Workspace ws;
    const int owner = 0;
    ws.scratch(&owner, 0, Shape{64, 64}).fill(1.0F);
    Workspace spare_maker;
    (void)spare_maker.scratch(&owner, 0, Shape{16});
  });
}

}  // namespace
}  // namespace nnr::tensor
