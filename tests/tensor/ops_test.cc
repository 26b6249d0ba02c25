#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <vector>

namespace nnr::tensor {
namespace {

TEST(Ops, Axpy) {
  std::vector<float> x = {1, 2, 3};
  std::vector<float> y = {10, 20, 30};
  axpy(2.0F, x, y);
  EXPECT_FLOAT_EQ(y[0], 12.0F);
  EXPECT_FLOAT_EQ(y[2], 36.0F);
}

TEST(Ops, ArgmaxFirstOccurrence) {
  std::vector<float> x = {1, 5, 5, 2};
  EXPECT_EQ(argmax(x), 1);
}

TEST(Ops, ArgmaxNegativeValues) {
  std::vector<float> x = {-3, -1, -2};
  EXPECT_EQ(argmax(x), 1);
}

TEST(Ops, ArgmaxSingle) {
  std::vector<float> x = {7};
  EXPECT_EQ(argmax(x), 0);
}

}  // namespace
}  // namespace nnr::tensor
