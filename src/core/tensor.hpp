// Minimal row-major N-dimensional tensor used throughout the framework.
//
// This is deliberately a small, value-semantic container (Core Guidelines
// C.10) rather than a full linear-algebra library: the accelerator models
// need shapes, element access, and a handful of elementwise helpers.
//
// Error contract: constructors, reshaped(), the elementwise operators, and
// the matvec helper throw icsc::core::Error (with the offending
// shapes in the message) on shape or size mismatches; they never assert or
// silently read out of bounds. Multi-index operator() stays debug-assert
// only -- it is the hot path.
#pragma once

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "core/aligned.hpp"
#include "core/error.hpp"

namespace icsc::core {

/// Shape of a tensor: extent per dimension.
using Shape = std::vector<std::size_t>;

/// Number of elements implied by a shape (1 for rank-0).
std::size_t shape_numel(const Shape& shape);

/// Human-readable "[2, 3, 4]" rendering for error messages.
std::string shape_to_string(const Shape& shape);

/// Dense row-major tensor of arithmetic element type T. Storage is
/// 64-byte aligned (core/aligned.hpp) so the SIMD kernels can stream it
/// without split loads.
template <typename T>
class Tensor {
public:
  Tensor() = default;

  explicit Tensor(Shape shape, T fill = T{})
      : shape_(std::move(shape)), data_(shape_numel(shape_), fill) {
    compute_strides();
  }

  Tensor(Shape shape, std::vector<T> data)
      : shape_(std::move(shape)), data_(data.begin(), data.end()) {
    if (data_.size() != shape_numel(shape_)) {
      throw Error("core::Tensor", "data size does not match shape",
                  std::to_string(data_.size()) + " elements vs " +
                      shape_to_string(shape_));
    }
    compute_strides();
  }

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }

  static Tensor full(Shape shape, T value) {
    return Tensor(std::move(shape), value);
  }

  const Shape& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t numel() const { return data_.size(); }
  std::size_t dim(std::size_t axis) const { return shape_.at(axis); }

  std::span<T> data() { return data_; }
  std::span<const T> data() const { return data_; }

  T& operator[](std::size_t flat) { return data_[flat]; }
  const T& operator[](std::size_t flat) const { return data_[flat]; }

  /// Multi-index access; bounds-checked in debug builds only.
  template <typename... Ix>
  T& operator()(Ix... ix) {
    return data_[flatten(ix...)];
  }
  template <typename... Ix>
  const T& operator()(Ix... ix) const {
    return data_[flatten(ix...)];
  }

  /// Reinterprets the tensor with a new shape of equal element count.
  Tensor reshaped(Shape new_shape) const {
    if (shape_numel(new_shape) != numel()) {
      throw Error("core::Tensor::reshaped", "numel mismatch",
                  shape_to_string(shape_) + " -> " +
                      shape_to_string(new_shape));
    }
    Tensor out;
    out.shape_ = std::move(new_shape);
    out.data_ = data_;
    out.compute_strides();
    return out;
  }

  /// Applies fn to every element in place.
  template <typename Fn>
  Tensor& transform(Fn&& fn) {
    for (auto& v : data_) v = fn(v);
    return *this;
  }

  /// Returns a tensor with fn applied elementwise (possibly changing type).
  template <typename Fn>
  auto map(Fn&& fn) const {
    using U = decltype(fn(std::declval<T>()));
    Tensor<U> out(shape_);
    for (std::size_t i = 0; i < data_.size(); ++i) out[i] = fn(data_[i]);
    return out;
  }

  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

  Tensor& operator+=(const Tensor& rhs) {
    if (!same_shape(rhs)) {
      throw Error("core::Tensor::operator+=", "shape mismatch",
                  shape_to_string(shape_) + " vs " +
                      shape_to_string(rhs.shape_));
    }
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
    return *this;
  }
  Tensor& operator-=(const Tensor& rhs) {
    if (!same_shape(rhs)) {
      throw Error("core::Tensor::operator-=", "shape mismatch",
                  shape_to_string(shape_) + " vs " +
                      shape_to_string(rhs.shape_));
    }
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
    return *this;
  }
  Tensor& operator*=(T scalar) {
    for (auto& v : data_) v *= scalar;
    return *this;
  }

  friend Tensor operator+(Tensor lhs, const Tensor& rhs) { return lhs += rhs; }
  friend Tensor operator-(Tensor lhs, const Tensor& rhs) { return lhs -= rhs; }

  friend bool operator==(const Tensor& a, const Tensor& b) {
    return a.shape_ == b.shape_ && a.data_ == b.data_;
  }

private:
  template <typename... Ix>
  std::size_t flatten(Ix... ix) const {
    assert(sizeof...(Ix) == shape_.size());
    const std::size_t indices[] = {static_cast<std::size_t>(ix)...};
    std::size_t flat = 0;
    for (std::size_t axis = 0; axis < sizeof...(Ix); ++axis) {
      assert(indices[axis] < shape_[axis]);
      flat += indices[axis] * strides_[axis];
    }
    return flat;
  }

  void compute_strides() {
    strides_.assign(shape_.size(), 1);
    for (std::size_t axis = shape_.size(); axis-- > 1;) {
      strides_[axis - 1] = strides_[axis] * shape_[axis];
    }
    assert(data_.empty() || is_aligned(data_.data()));
  }

  Shape shape_;
  std::vector<std::size_t> strides_;
  aligned_vector<T> data_;
};

/// 2-D matrix-vector product: y = A x, A is [m, n], x has n elements.
template <typename T>
std::vector<T> matvec(const Tensor<T>& a, std::span<const T> x) {
  if (a.rank() != 2) {
    throw Error("core::matvec", "matrix must be rank-2",
                "got shape " + shape_to_string(a.shape()));
  }
  if (a.dim(1) != x.size()) {
    throw Error("core::matvec", "vector length mismatch",
                "matrix " + shape_to_string(a.shape()) + " vs vector of " +
                    std::to_string(x.size()));
  }
  std::vector<T> y(a.dim(0), T{});
  for (std::size_t i = 0; i < a.dim(0); ++i) {
    T acc{};
    for (std::size_t j = 0; j < a.dim(1); ++j) acc += a(i, j) * x[j];
    y[i] = acc;
  }
  return y;
}

using TensorF = Tensor<float>;
using TensorD = Tensor<double>;
using TensorI32 = Tensor<std::int32_t>;

}  // namespace icsc::core
