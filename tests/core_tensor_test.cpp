#include "core/tensor.hpp"

#include <gtest/gtest.h>

namespace icsc::core {
namespace {

TEST(Tensor, ShapeNumel) {
  EXPECT_EQ(shape_numel({}), 1u);
  EXPECT_EQ(shape_numel({5}), 5u);
  EXPECT_EQ(shape_numel({2, 3, 4}), 24u);
  EXPECT_EQ(shape_numel({2, 0, 4}), 0u);
}

TEST(Tensor, ShapeToString) {
  EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]");
  EXPECT_EQ(shape_to_string({}), "[]");
}

TEST(Tensor, ConstructAndFill) {
  TensorF t({2, 3}, 1.5F);
  EXPECT_EQ(t.numel(), 6u);
  EXPECT_EQ(t.rank(), 2u);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_FLOAT_EQ(t[i], 1.5F);
}

TEST(Tensor, RowMajorIndexing) {
  TensorF t({2, 3});
  float v = 0.0F;
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) t(r, c) = v++;
  }
  EXPECT_FLOAT_EQ(t[0], 0.0F);
  EXPECT_FLOAT_EQ(t[3], 3.0F);  // start of row 1
  EXPECT_FLOAT_EQ(t(1, 2), 5.0F);
}

TEST(Tensor, ThreeDimensionalStrides) {
  TensorI32 t({2, 3, 4});
  t(1, 2, 3) = 42;
  EXPECT_EQ(t[1 * 12 + 2 * 4 + 3], 42);
}

TEST(Tensor, DataSizeMismatchThrows) {
  EXPECT_THROW(TensorF({2, 2}, std::vector<float>{1, 2, 3}), core::Error);
}

TEST(Tensor, Reshape) {
  TensorF t({2, 6}, 2.0F);
  const auto r = t.reshaped({3, 4});
  EXPECT_EQ(r.dim(0), 3u);
  EXPECT_EQ(r.dim(1), 4u);
  EXPECT_THROW(t.reshaped({5, 5}), core::Error);
}

TEST(Tensor, ElementwiseArithmetic) {
  TensorF a({2, 2}, 1.0F);
  TensorF b({2, 2}, 2.0F);
  const auto c = a + b;
  EXPECT_FLOAT_EQ(c[0], 3.0F);
  const auto d = b - a;
  EXPECT_FLOAT_EQ(d[3], 1.0F);
  a *= 4.0F;
  EXPECT_FLOAT_EQ(a[1], 4.0F);
}

TEST(Tensor, MapChangesType) {
  TensorF a({3}, 1.25F);
  const auto b = a.map([](float x) { return static_cast<int>(x * 4); });
  EXPECT_EQ(b[0], 5);
}

TEST(Tensor, TransformInPlace) {
  TensorF a({3}, 2.0F);
  a.transform([](float x) { return x * x; });
  EXPECT_FLOAT_EQ(a[2], 4.0F);
}

TEST(Tensor, MatvecMatchesManual) {
  TensorF a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  const std::vector<float> x{1, 0, -1};
  const auto y = matvec(a, std::span<const float>(x));
  ASSERT_EQ(y.size(), 2u);
  EXPECT_FLOAT_EQ(y[0], -2.0F);
  EXPECT_FLOAT_EQ(y[1], -2.0F);
}

TEST(Tensor, EqualityIncludesShape) {
  TensorF a({2, 3}, 1.0F);
  TensorF b({3, 2}, 1.0F);
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace icsc::core
