// Dense row-major k-dimensional array (k <= 4), the in-memory form of every
// scientific field handled by the library.
//
// NdArray<T> owns its buffer; NdView<T> is a non-owning shape+pointer pair
// used by compressors so they can operate on sub-fields without copies.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <numeric>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/error.h"

namespace eblcio {

// Maximum dimensionality supported anywhere in the library. The paper's data
// sets span 1D (HACC) to 4D (S3D).
inline constexpr int kMaxDims = 4;

// Element count of an array with extents `dims`, or nullopt when an
// extent is zero or the count times `elem_bytes` does not fit in size_t.
// Every shape read from untrusted bytes passes this before anything is
// sized from it.
inline std::optional<std::size_t> checked_num_elements(
    std::span<const std::size_t> dims, std::size_t elem_bytes = 1) {
  std::size_t bytes = elem_bytes;
  for (std::size_t d : dims) {
    if (d == 0 || bytes > std::numeric_limits<std::size_t>::max() / d)
      return std::nullopt;
    bytes *= d;
  }
  return bytes / elem_bytes;
}

// Shape of a k-d array. Dimensions are stored slowest-varying first
// (row-major), matching SDRBench conventions (e.g. CESM is 26x1800x3600).
// A shape's element count always fits in size_t, in bytes of the widest
// element type (double).
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<std::size_t> dims)
      : Shape(std::span<const std::size_t>(dims.begin(), dims.size())) {}
  explicit Shape(std::span<const std::size_t> dims) {
    EBLCIO_CHECK_ARG(dims.size() >= 1 && dims.size() <= kMaxDims,
                     "shape must have 1..4 dimensions");
    EBLCIO_CHECK_ARG(checked_num_elements(dims, sizeof(double)).has_value(),
                     "shape dimensions must be positive and their product "
                     "must fit in memory");
    ndims_ = static_cast<int>(dims.size());
    for (int i = 0; i < ndims_; ++i) dims_[i] = dims[i];
  }

  int ndims() const { return ndims_; }
  std::size_t dim(int i) const {
    EBLCIO_CHECK_ARG(i >= 0 && i < ndims_, "dimension index out of range");
    return dims_[i];
  }
  std::size_t operator[](int i) const { return dim(i); }

  std::size_t num_elements() const {
    std::size_t n = 1;
    for (int i = 0; i < ndims_; ++i) n *= dims_[i];
    return n;
  }

  // Row-major strides in elements.
  std::array<std::size_t, kMaxDims> strides() const {
    std::array<std::size_t, kMaxDims> s{};
    std::size_t acc = 1;
    for (int i = ndims_ - 1; i >= 0; --i) {
      s[i] = acc;
      acc *= dims_[i];
    }
    return s;
  }

  std::vector<std::size_t> dims_vector() const {
    return std::vector<std::size_t>(dims_.begin(), dims_.begin() + ndims_);
  }

  friend bool operator==(const Shape& a, const Shape& b) {
    if (a.ndims_ != b.ndims_) return false;
    for (int i = 0; i < a.ndims_; ++i)
      if (a.dims_[i] != b.dims_[i]) return false;
    return true;
  }

 private:
  int ndims_ = 0;
  std::array<std::size_t, kMaxDims> dims_{};
};

// Non-owning typed view over a dense row-major buffer.
template <typename T>
class NdView {
 public:
  NdView(T* data, Shape shape) : data_(data), shape_(shape) {
    EBLCIO_CHECK_ARG(data != nullptr, "NdView over null buffer");
  }

  const Shape& shape() const { return shape_; }
  int ndims() const { return shape_.ndims(); }
  std::size_t num_elements() const { return shape_.num_elements(); }

  T* data() const { return data_; }
  std::span<T> span() const { return {data_, num_elements()}; }

  T& operator[](std::size_t linear) const { return data_[linear]; }

  // Multi-index access; unused trailing indices must be 0.
  T& at(std::size_t i0, std::size_t i1 = 0, std::size_t i2 = 0,
        std::size_t i3 = 0) const {
    const auto s = shape_.strides();
    return data_[i0 * s[0] + (shape_.ndims() > 1 ? i1 * s[1] : 0) +
                 (shape_.ndims() > 2 ? i2 * s[2] : 0) +
                 (shape_.ndims() > 3 ? i3 * s[3] : 0)];
  }

 private:
  T* data_;
  Shape shape_;
};

// Tag of NdArray's unfilled constructor: the elements start indeterminate,
// so the owner writes every one before anything reads it. A decoder that
// does so skips the zero-fill pass, and the pages of a large buffer are
// first touched by the writes themselves.
struct Unfilled {
  explicit Unfilled() = default;
};
inline constexpr Unfilled kUnfilled{};

// NdArray's allocator: a vector sized without a value default-initializes
// its elements (for float and double: leaves them unwritten).
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

// Owning dense row-major array.
template <typename T>
class NdArray {
 public:
  NdArray() = default;
  // Zero-filled.
  explicit NdArray(Shape shape)
      : shape_(shape), data_(shape.num_elements(), T{}) {}
  NdArray(Shape shape, Unfilled)
      : shape_(shape), data_(shape.num_elements()) {}
  NdArray(Shape shape, const std::vector<T>& data)
      : shape_(shape), data_(data.begin(), data.end()) {
    EBLCIO_CHECK_ARG(data_.size() == shape_.num_elements(),
                     "buffer size does not match shape");
  }

  const Shape& shape() const { return shape_; }
  int ndims() const { return shape_.ndims(); }
  std::size_t num_elements() const { return data_.size(); }
  std::size_t size_bytes() const { return data_.size() * sizeof(T); }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  std::span<T> span() { return {data_.data(), data_.size()}; }
  std::span<const T> span() const { return {data_.data(), data_.size()}; }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

  NdView<T> view() { return NdView<T>(data_.data(), shape_); }
  NdView<const T> view() const { return NdView<const T>(data_.data(), shape_); }

  T& at(std::size_t i0, std::size_t i1 = 0, std::size_t i2 = 0,
        std::size_t i3 = 0) {
    return view().at(i0, i1, i2, i3);
  }
  const T& at(std::size_t i0, std::size_t i1 = 0, std::size_t i2 = 0,
              std::size_t i3 = 0) const {
    return view().at(i0, i1, i2, i3);
  }

 private:
  Shape shape_;
  std::vector<T, DefaultInitAllocator<T>> data_;
};

}  // namespace eblcio
