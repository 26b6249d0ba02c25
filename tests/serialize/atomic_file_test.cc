// write_file_atomic: whole-file replacement, no trace left by a failed
// write, and a temp name that carries the writer's pid (what cache GC reads
// to spare a live writer's file).
#include "serialize/atomic_file.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "test_util.h"

namespace nnr::serialize {
namespace {

namespace fs = std::filesystem;

class AtomicFileTest : public ::testing::Test {
 protected:
  testutil::TempDir tmp_;
  const fs::path dir_ = tmp_.path();
};

std::string read_all(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST_F(AtomicFileTest, ReplacesTheWholeFile) {
  const std::string path = (dir_ / "f").string();
  ASSERT_TRUE(write_file_atomic(path, "a longer first version"));
  ASSERT_TRUE(write_file_atomic(path, std::string("short\0x", 7)));
  EXPECT_EQ(read_all(path), std::string("short\0x", 7));
}

TEST_F(AtomicFileTest, FailedWriteLeavesTheTargetAndNoTemp) {
  // A directory at the target path: the temp file writes, the rename cannot.
  const fs::path target = dir_ / "occupied";
  fs::create_directories(target);
  EXPECT_FALSE(write_file_atomic(target.string(), "bytes"));
  EXPECT_TRUE(fs::is_directory(target));
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path(), target) << "leftover: " << entry.path();
  }
}

TEST_F(AtomicFileTest, ReadFileReturnsTheWholeFileOrNothing) {
  // 74 KiB, the size of one smallcnn_bn cache entry, with every byte value.
  std::string bytes(74 * 1024, '\0');
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(i * 131 % 256);
  }
  const std::string path = (dir_ / "entry").string();
  ASSERT_TRUE(write_file_atomic(path, bytes));
  const std::optional<std::string> read = read_file(path);
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(*read == bytes) << "read back " << read->size() << " bytes";

  const std::string empty = (dir_ / "empty").string();
  ASSERT_TRUE(write_file_atomic(empty, ""));
  const std::optional<std::string> read_empty = read_file(empty);
  ASSERT_TRUE(read_empty.has_value());
  EXPECT_EQ(*read_empty, "");

  EXPECT_FALSE(read_file((dir_ / "missing").string()).has_value());
  EXPECT_FALSE(read_file(dir_.string()).has_value())
      << "a directory is not a file";
}

TEST_F(AtomicFileTest, TempNameCarriesThePid) {
  const std::string path = (dir_ / "f").string();
  const std::string prefix = path + ".tmp" + std::to_string(::getpid()) + ".";
  EXPECT_EQ(temp_path_for(path).rfind(prefix, 0), 0u) << temp_path_for(path);
}

}  // namespace
}  // namespace nnr::serialize
