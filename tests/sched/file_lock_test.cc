// FileLock: exclusive across open file descriptions (which is what makes
// one primitive serialize both pool workers and separate processes), release
// on destruction, and safe lockfile removal (unlink-under-lock + inode
// verification on acquire).
#include "sched/file_lock.h"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include <gtest/gtest.h>

#include "test_util.h"

namespace nnr::sched {
namespace {

namespace fs = std::filesystem;

class FileLockTest : public ::testing::Test {
 protected:
  testutil::TempDir tmp_;
  const fs::path dir_ = tmp_.path();
  const std::string path_ = (dir_ / "key.lock").string();
};

TEST_F(FileLockTest, SecondAcquisitionConflictsUntilRelease) {
  auto first = FileLock::try_acquire(path_);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->held());
  // A second open file description must conflict even within one process —
  // this is the property the scheduler relies on for worker-level claims.
  EXPECT_FALSE(FileLock::try_acquire(path_).has_value());
  first.reset();  // destructor releases
  EXPECT_TRUE(FileLock::try_acquire(path_).has_value());
}

TEST_F(FileLockTest, BlockingAcquireWaitsForTheHolder) {
  auto holder = FileLock::try_acquire(path_);
  ASSERT_TRUE(holder.has_value());
  std::atomic<bool> released{false};
  std::thread waiter([&] {
    auto lock = FileLock::acquire(path_);
    ASSERT_TRUE(lock.has_value());
    // The blocking acquire must not return before the holder released.
    EXPECT_TRUE(released.load());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  released.store(true);
  holder.reset();
  waiter.join();
}

TEST_F(FileLockTest, UnlinkAndReleaseRemovesTheFileAndAllowsReclaim) {
  auto lock = FileLock::try_acquire(path_);
  ASSERT_TRUE(lock.has_value());
  lock->unlink_and_release();
  EXPECT_FALSE(lock->held());
  EXPECT_FALSE(fs::exists(path_));
  // A later claimant re-creates the file and holds a live lock.
  auto next = FileLock::try_acquire(path_);
  ASSERT_TRUE(next.has_value());
  EXPECT_TRUE(fs::exists(path_));
}

TEST_F(FileLockTest, AcquireSurvivesConcurrentUnlink) {
  // GC unlinking a lockfile must never leave a claimant holding a lock on
  // a dead inode: hammer acquire/unlink from two threads and require that
  // at every point exactly the verified-inode holder wins.
  std::atomic<bool> stop{false};
  std::atomic<int> acquisitions{0};
  std::thread gc([&] {
    while (!stop.load()) {
      if (auto lock = FileLock::try_acquire(path_)) {
        lock->unlink_and_release();
      }
    }
  });
  for (int i = 0; i < 200; ++i) {
    auto lock = FileLock::acquire(path_);
    ASSERT_TRUE(lock.has_value());
    // Verified acquisition: the locked inode is the one at the path.
    EXPECT_TRUE(fs::exists(path_));
    ++acquisitions;
  }
  stop.store(true);
  gc.join();
  EXPECT_EQ(acquisitions.load(), 200);
}

TEST_F(FileLockTest, MoveTransfersOwnership) {
  auto lock = FileLock::try_acquire(path_);
  ASSERT_TRUE(lock.has_value());
  FileLock moved = std::move(*lock);
  EXPECT_TRUE(moved.held());
  EXPECT_FALSE(lock->held());
  EXPECT_FALSE(FileLock::try_acquire(path_).has_value());
}

}  // namespace
}  // namespace nnr::sched
