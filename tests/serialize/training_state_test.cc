// Training-state checkpoints: with optimizer state captured, resume is
// bitwise identical to uninterrupted training WITHOUT restarting momentum.
#include <string>

#include <gtest/gtest.h>

#include "nn/loss.h"
#include "nn/zoo.h"
#include "opt/adam.h"
#include "opt/rmsprop.h"
#include "opt/sgd.h"
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

void train_steps(Model& model, opt::Optimizer& optimizer, const Tensor& x,
                 const std::vector<std::int32_t>& labels, int steps) {
  auto hw = deterministic_context();
  RunContext ctx{.hw = &hw, .training = true};
  for (int s = 0; s < steps; ++s) {
    model.zero_grads();
    const Tensor logits = model.forward(x, ctx);
    const nn::LossResult loss = nn::softmax_cross_entropy(logits, labels, ctx);
    (void)model.backward(loss.grad_logits, ctx);
    optimizer.step(0.02F);
  }
}

TEST(TrainingState, ResumeWithMomentumIsBitwiseIdentical) {
  ScopedFile file("trns_sgd.nnr");
  Tensor x(Shape{4, 3, 16, 16});
  fill_random(x, 3);
  const std::vector<std::int32_t> labels = {0, 1, 2, 3};

  // Uninterrupted: 6 steps with one momentum optimizer.
  Model straight = nn::small_cnn(10, true);
  rng::Generator init_a(7);
  straight.init_weights(init_a);
  opt::Sgd opt_straight(straight.params(), 0.9F);
  train_steps(straight, opt_straight, x, labels, 6);

  // Interrupted at step 3, full training state saved.
  Model half = nn::small_cnn(10, true);
  rng::Generator init_b(7);
  half.init_weights(init_b);
  opt::Sgd opt_half(half.params(), 0.9F);
  train_steps(half, opt_half, x, labels, 3);
  save_training_state(file.path(), half, opt_half);

  Model resumed = nn::small_cnn(10, true);
  opt::Sgd opt_resumed(resumed.params(), 0.9F);
  load_training_state(file.path(), resumed, opt_resumed);
  EXPECT_EQ(opt_resumed.steps_taken(), 3);
  train_steps(resumed, opt_resumed, x, labels, 3);

  const std::vector<float> a = straight.flat_weights();
  const std::vector<float> b = resumed.flat_weights();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "weight " << i;
  }
}

TEST(TrainingState, AdamResumeRestoresMomentsAndBiasCorrection) {
  // Adam's updates depend on the step count through bias correction; a
  // resume that reset steps_taken would visibly diverge.
  ScopedFile file("trns_adam.nnr");
  Tensor x(Shape{2, 3, 16, 16});
  fill_random(x, 11);
  const std::vector<std::int32_t> labels = {1, 4};

  Model straight = nn::small_cnn(10, false);
  rng::Generator init_a(13);
  straight.init_weights(init_a);
  opt::Adam opt_straight(straight.params());
  train_steps(straight, opt_straight, x, labels, 8);

  Model half = nn::small_cnn(10, false);
  rng::Generator init_b(13);
  half.init_weights(init_b);
  opt::Adam opt_half(half.params());
  train_steps(half, opt_half, x, labels, 5);
  save_training_state(file.path(), half, opt_half);

  Model resumed = nn::small_cnn(10, false);
  opt::Adam opt_resumed(resumed.params());
  load_training_state(file.path(), resumed, opt_resumed);
  EXPECT_EQ(opt_resumed.steps_taken(), 5);
  train_steps(resumed, opt_resumed, x, labels, 3);

  EXPECT_EQ(straight.flat_weights(), resumed.flat_weights());
}

TEST(TrainingState, RmsPropResumeIsBitwiseIdentical) {
  ScopedFile file("trns_rms.nnr");
  Tensor x(Shape{2, 3, 16, 16});
  fill_random(x, 17);
  const std::vector<std::int32_t> labels = {2, 7};

  Model straight = nn::small_cnn(10, false);
  rng::Generator init_a(19);
  straight.init_weights(init_a);
  opt::RmsPropConfig cfg;
  cfg.momentum = 0.9F;
  opt::RmsProp opt_straight(straight.params(), cfg);
  train_steps(straight, opt_straight, x, labels, 6);

  Model half = nn::small_cnn(10, false);
  rng::Generator init_b(19);
  half.init_weights(init_b);
  opt::RmsProp opt_half(half.params(), cfg);
  train_steps(half, opt_half, x, labels, 2);
  save_training_state(file.path(), half, opt_half);

  Model resumed = nn::small_cnn(10, false);
  opt::RmsProp opt_resumed(resumed.params(), cfg);
  load_training_state(file.path(), resumed, opt_resumed);
  train_steps(resumed, opt_resumed, x, labels, 4);

  EXPECT_EQ(straight.flat_weights(), resumed.flat_weights());
}

TEST(TrainingState, RejectsOptimizerTypeMismatch) {
  ScopedFile file("trns_mismatch.nnr");
  Model m = nn::small_cnn(10, false);
  rng::Generator init(23);
  m.init_weights(init);
  opt::Sgd sgd(m.params(), 0.9F);
  save_training_state(file.path(), m, sgd);

  Model m2 = nn::small_cnn(10, false);
  opt::Adam adam(m2.params());  // Adam has 2 slots per param, SGD has 1
  EXPECT_THROW(load_training_state(file.path(), m2, adam), CheckpointError);
}

TEST(TrainingState, ModelOnlyLoaderRejectsTrainingStateFile) {
  // The two formats carry different magics so a model-only consumer cannot
  // silently misread a training-state file (and vice versa).
  ScopedFile file("trns_magic.nnr");
  Model m = nn::small_cnn(10, false);
  rng::Generator init(29);
  m.init_weights(init);
  opt::Sgd sgd(m.params());
  save_training_state(file.path(), m, sgd);

  Model m2 = nn::small_cnn(10, false);
  EXPECT_THROW(load_model(file.path(), m2), CheckpointError);

  ScopedFile model_file("ckpt_magic.nnr");
  save_model(model_file.path(), m);
  opt::Sgd sgd2(m2.params());
  EXPECT_THROW(load_training_state(model_file.path(), m2, sgd2),
               CheckpointError);
}

}  // namespace
}  // namespace nnr::serialize
