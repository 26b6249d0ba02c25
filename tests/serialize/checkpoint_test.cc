// Checkpoint round-trip: bitwise fidelity, structure validation, corruption
// detection, atomic replacement (a failed save keeps the previous file), and
// the resume-determinism property (save -> load -> continue == uninterrupted
// run under deterministic execution).
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "nn/loss.h"
#include "nn/zoo.h"
#include "opt/sgd.h"
#include "serialize/atomic_file.h"
#include "serialize/checkpoint.h"
#include "test_util.h"

namespace nnr::serialize {
namespace {

using nn::Model;
using nn::RunContext;
using tensor::Shape;
using tensor::Tensor;
using testutil::deterministic_context;
using testutil::fill_random;

/// A file name inside a private temp directory that is removed, with
/// everything the test wrote next to the file, on destruction.
class ScopedFile {
 public:
  explicit ScopedFile(const std::string& name)
      : path_((dir_.path() / name).string()) {}
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  testutil::TempDir dir_;
  std::string path_;
};

TEST(Checkpoint, RoundTripIsBitwiseLossless) {
  ScopedFile file("ckpt_roundtrip.nnr");
  Model m = nn::small_cnn(10, /*with_batchnorm=*/true);
  rng::Generator init(3);
  m.init_weights(init);
  const std::vector<float> before = m.flat_weights();

  save_model(file.path(), m);

  Model m2 = nn::small_cnn(10, true);
  rng::Generator other_init(999);  // different init: load must overwrite it
  m2.init_weights(other_init);
  load_model(file.path(), m2);

  const std::vector<float> after = m2.flat_weights();
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]) << "weight " << i;
  }
}

TEST(Checkpoint, RestoresBatchNormRunningStatistics) {
  ScopedFile file("ckpt_bnstats.nnr");
  Model m = nn::small_cnn(10, true);
  rng::Generator init(5);
  m.init_weights(init);

  // Run a training step so the running stats move off their defaults.
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  Tensor x(Shape{4, 3, 16, 16});
  fill_random(x, 7);
  (void)m.forward(x, ctx);

  std::vector<float> stats_before;
  for (const nn::NamedBuffer& b : m.buffers()) {
    stats_before.insert(stats_before.end(), b.value->data().begin(),
                        b.value->data().end());
  }
  ASSERT_FALSE(stats_before.empty());

  save_model(file.path(), m);
  Model m2 = nn::small_cnn(10, true);
  load_model(file.path(), m2);

  std::vector<float> stats_after;
  for (const nn::NamedBuffer& b : m2.buffers()) {
    stats_after.insert(stats_after.end(), b.value->data().begin(),
                       b.value->data().end());
  }
  ASSERT_EQ(stats_before.size(), stats_after.size());
  for (std::size_t i = 0; i < stats_before.size(); ++i) {
    EXPECT_EQ(stats_before[i], stats_after[i]) << "buffer element " << i;
  }
}

TEST(Checkpoint, ResNetWithProjectionsRoundTrips) {
  ScopedFile file("ckpt_resnet.nnr");
  Model m = nn::resnet18s(10);
  rng::Generator init(11);
  m.init_weights(init);
  const std::vector<float> before = m.flat_weights();

  save_model(file.path(), m);
  Model m2 = nn::resnet18s(10);
  load_model(file.path(), m2);

  const std::vector<float> after = m2.flat_weights();
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]);
  }
}

TEST(Checkpoint, RejectsStructureMismatch) {
  ScopedFile file("ckpt_mismatch.nnr");
  Model m = nn::small_cnn(10, true);
  rng::Generator init(13);
  m.init_weights(init);
  save_model(file.path(), m);

  Model different = nn::small_cnn(100, true);  // head width differs
  EXPECT_THROW(load_model(file.path(), different), CheckpointError);

  Model no_bn = nn::small_cnn(10, false);  // entry count differs
  EXPECT_THROW(load_model(file.path(), no_bn), CheckpointError);
}

TEST(Checkpoint, DetectsBitFlipCorruption) {
  ScopedFile file("ckpt_corrupt.nnr");
  Model m = nn::small_cnn(10, false);
  rng::Generator init(17);
  m.init_weights(init);
  save_model(file.path(), m);

  // Flip one byte in the middle of the payload.
  std::fstream f(file.path(),
                 std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::int64_t>(f.tellg());
  f.seekp(size / 2);
  char byte = 0;
  f.seekg(size / 2);
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(size / 2);
  f.write(&byte, 1);
  f.close();

  Model m2 = nn::small_cnn(10, false);
  EXPECT_THROW(load_model(file.path(), m2), CheckpointError);
}

TEST(Checkpoint, RejectsNonCheckpointFile) {
  ScopedFile file("ckpt_garbage.nnr");
  std::ofstream(file.path()) << "definitely not a checkpoint";
  Model m = nn::small_cnn(10, false);
  EXPECT_THROW(load_model(file.path(), m), CheckpointError);
}

TEST(Checkpoint, MissingFileThrows) {
  Model m = nn::small_cnn(10, false);
  const ScopedFile missing("ckpt_does_not_exist.nnr");
  EXPECT_THROW(load_model(missing.path(), m), CheckpointError);
}

TEST(Checkpoint, FailedSaveKeepsThePreviousCheckpoint) {
  ScopedFile file("ckpt_failed_save.nnr");
  Model a = nn::small_cnn(10, false);
  rng::Generator init_a(19);
  a.init_weights(init_a);
  save_model(file.path(), a);

  // A directory where the writer stages its temp file makes the next save
  // fail after the model is serialized but before anything is replaced.
  const std::filesystem::path blocker = temp_path_for(file.path());
  std::filesystem::create_directory(blocker);
  Model b = nn::small_cnn(10, false);
  rng::Generator init_b(23);
  b.init_weights(init_b);
  EXPECT_THROW(save_model(file.path(), b), CheckpointError);
  std::filesystem::remove(blocker);

  Model loaded = nn::small_cnn(10, false);
  load_model(file.path(), loaded);
  EXPECT_EQ(loaded.flat_weights(), a.flat_weights())
      << "a failed save must leave the previous checkpoint intact";
}

TEST(Checkpoint, ResumeEqualsUninterruptedTraining) {
  // Train 4 steps straight vs train 2, checkpoint, reload, train 2 more —
  // bitwise identical weights under deterministic execution.
  ScopedFile file("ckpt_resume.nnr");
  Tensor x(Shape{4, 3, 16, 16});
  fill_random(x, 23);
  const std::vector<std::int32_t> labels = {0, 1, 2, 3};

  auto train_steps = [&](Model& m, int steps) {
    auto hw = deterministic_context();
    RunContext ctx{.hw = &hw, .training = true};
    opt::Sgd sgd(m.params(), 0.9F);
    for (int s = 0; s < steps; ++s) {
      m.zero_grads();
      const Tensor logits = m.forward(x, ctx);
      const nn::LossResult loss = nn::softmax_cross_entropy(logits, labels, ctx);
      (void)m.backward(loss.grad_logits, ctx);
      sgd.step(0.01F);
    }
  };

  Model first_half = nn::small_cnn(10, true);
  rng::Generator init_b(29);
  first_half.init_weights(init_b);
  train_steps(first_half, 2);
  save_model(file.path(), first_half);

  Model resumed = nn::small_cnn(10, true);
  load_model(file.path(), resumed);
  train_steps(resumed, 2);

  // The uninterrupted arm restarts its optimizer at the same point so both
  // arms see identical momentum histories (the checkpoint stores model
  // state, not optimizer state — matching TF's model-only checkpoints).
  Model straight = nn::small_cnn(10, true);
  rng::Generator init_c(29);
  straight.init_weights(init_c);
  train_steps(straight, 2);
  train_steps(straight, 2);

  const std::vector<float> b = resumed.flat_weights();
  const std::vector<float> c = straight.flat_weights();
  ASSERT_EQ(c.size(), b.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c[i], b[i]) << "weight " << i;
  }
}

}  // namespace
}  // namespace nnr::serialize
