// RunResult (de)serialization: bitwise round-trip, key verification, and
// corruption detection — the persistence half of the cache-validity
// contract. File fixtures are written the way the cache writes entries:
// encode_run_result's bytes through write_file_atomic.
#include "serialize/run_result.h"

#include <cstring>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "serialize/atomic_file.h"
#include "test_util.h"

namespace nnr::serialize {
namespace {

namespace fs = std::filesystem;

core::RunResult sample_result() {
  core::RunResult r;
  r.test_predictions = {1, 0, 2, 2, 9};
  // Values chosen to exercise exact float bits, including a denormal-ish
  // small value and a negative zero.
  r.test_confidences = {0.1F, 1.0F, -0.0F, 1e-38F, 0.9999999F};
  r.final_weights = {3.14159265F, -2.71828182F};
  r.test_accuracy = 0.123456789012345;
  r.final_train_loss = 9.87654321e-3;
  return r;
}

class RunResultTest : public ::testing::Test {
 protected:
  void save(const core::RunResult& result, std::uint64_t key_hi,
            std::uint64_t key_lo) {
    ASSERT_TRUE(
        write_file_atomic(path_, encode_run_result(result, key_hi, key_lo)));
  }

  testutil::TempDir tmp_;
  const std::string path_ = (tmp_.path() / "entry.rr").string();
};

TEST_F(RunResultTest, RoundTripIsBitwiseLossless) {
  const core::RunResult original = sample_result();
  save(original, 0x1234, 0x5678);
  const core::RunResult loaded = load_run_result(path_, 0x1234, 0x5678);
  EXPECT_EQ(loaded.test_predictions, original.test_predictions);
  // Vector equality on floats is bitwise-adjacent but -0.0 == 0.0; compare
  // the raw bit patterns to enforce the stronger contract.
  ASSERT_EQ(loaded.test_confidences.size(), original.test_confidences.size());
  for (std::size_t i = 0; i < original.test_confidences.size(); ++i) {
    EXPECT_EQ(std::memcmp(&loaded.test_confidences[i],
                          &original.test_confidences[i], sizeof(float)),
              0)
        << "confidence " << i << " changed bits";
  }
  EXPECT_EQ(loaded.final_weights, original.final_weights);
  EXPECT_EQ(loaded.test_accuracy, original.test_accuracy);
  EXPECT_EQ(loaded.final_train_loss, original.final_train_loss);
}

TEST_F(RunResultTest, EmptyVectorsRoundTrip) {
  const core::RunResult empty;
  save(empty, 1, 2);
  const core::RunResult loaded = load_run_result(path_, 1, 2);
  EXPECT_TRUE(loaded.test_predictions.empty());
  EXPECT_TRUE(loaded.final_weights.empty());
}

TEST_F(RunResultTest, KeyMismatchThrows) {
  save(sample_result(), 0x1234, 0x5678);
  EXPECT_THROW(load_run_result(path_, 0x1234, 0x9999), CheckpointError);
  EXPECT_THROW(load_run_result(path_, 0x9999, 0x5678), CheckpointError);
}

TEST_F(RunResultTest, MissingFileThrows) {
  EXPECT_THROW(load_run_result(path_, 1, 2), CheckpointError);
}

TEST_F(RunResultTest, TruncationThrows) {
  save(sample_result(), 1, 2);
  fs::resize_file(path_, fs::file_size(path_) / 2);
  EXPECT_THROW(load_run_result(path_, 1, 2), CheckpointError);
}

TEST_F(RunResultTest, BitFlipThrows) {
  save(sample_result(), 1, 2);
  std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(40);
  char c = 0;
  f.read(&c, 1);
  f.seekp(40);
  c = static_cast<char>(c ^ 1);
  f.write(&c, 1);
  f.close();
  EXPECT_THROW(load_run_result(path_, 1, 2), CheckpointError);
}

TEST_F(RunResultTest, WrongMagicThrows) {
  std::ofstream(path_, std::ios::binary) << "NOTANNRFILE_PADDING_PADDING";
  EXPECT_THROW(load_run_result(path_, 1, 2), CheckpointError);
}

// The wire/file duality the remote cache relies on: encode_run_result's
// bytes ARE the file format, byte for byte, and decode accepts either.
TEST_F(RunResultTest, EncodedBytesMatchTheFileExactly) {
  const core::RunResult original = sample_result();
  save(original, 0x1234, 0x5678);
  std::ifstream in(path_, std::ios::binary);
  const std::string file_bytes((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
  const std::string encoded = encode_run_result(original, 0x1234, 0x5678);
  EXPECT_EQ(encoded, file_bytes)
      << "a PUT body must be storable verbatim as a cache file";
}

TEST_F(RunResultTest, DecodeRoundTripsInMemory) {
  const core::RunResult original = sample_result();
  const std::string bytes = encode_run_result(original, 7, 8);
  const core::RunResult decoded = decode_run_result(bytes, 7, 8, "<test>");
  EXPECT_EQ(decoded.test_predictions, original.test_predictions);
  EXPECT_EQ(decoded.final_weights, original.final_weights);
  EXPECT_EQ(decoded.test_accuracy, original.test_accuracy);
  EXPECT_THROW((void)decode_run_result(bytes, 7, 9, "<test>"),
               CheckpointError);
}

TEST_F(RunResultTest, ValidateRunResultBytesChecksEverything) {
  const std::string bytes = encode_run_result(sample_result(), 7, 8);
  EXPECT_TRUE(validate_run_result_bytes(bytes, 7, 8));
  EXPECT_FALSE(validate_run_result_bytes(bytes, 7, 9)) << "wrong key";
  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] ^= 0x10;
  EXPECT_FALSE(validate_run_result_bytes(corrupt, 7, 8)) << "bit flip";
  EXPECT_FALSE(validate_run_result_bytes(bytes.substr(0, bytes.size() - 4),
                                         7, 8))
      << "truncation";
  EXPECT_FALSE(validate_run_result_bytes("junk", 7, 8));
}

}  // namespace
}  // namespace nnr::serialize
