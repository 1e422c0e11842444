#include "common/field.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <type_traits>

namespace eblcio {

const Shape& Field::shape() const {
  return visit([](const auto& arr) -> const Shape& { return arr.shape(); });
}

std::span<const std::byte> Field::bytes() const {
  return visit([](const auto& arr) {
    return std::span<const std::byte>(
        reinterpret_cast<const std::byte*>(arr.data()), arr.size_bytes());
  });
}

Field field_from_bytes(std::string name, DType dtype,
                       std::span<const std::size_t> dims,
                       std::span<const std::byte> raw) {
  const auto n = checked_num_elements(dims, dtype_size(dtype));
  EBLCIO_CHECK_STREAM(dims.size() >= 1 && dims.size() <= kMaxDims && n &&
                          *n * dtype_size(dtype) == raw.size(),
                      "field bytes do not match their shape");
  Field f = unfilled_field(std::move(name), dtype, Shape{dims});
  copy_into(raw, f, 0);
  return f;
}

Field unfilled_field(std::string name, DType dtype, const Shape& shape) {
  return dtype == DType::kFloat32
             ? Field(std::move(name), NdArray<float>(shape, kUnfilled))
             : Field(std::move(name), NdArray<double>(shape, kUnfilled));
}

void copy_into(std::span<const std::byte> raw, Field& dst,
               std::size_t offset) {
  const std::size_t esize = dtype_size(dst.dtype());
  EBLCIO_CHECK_STREAM(raw.size() % esize == 0 &&
                          offset <= dst.num_elements() &&
                          raw.size() / esize <= dst.num_elements() - offset,
                      "copied bytes do not fit their destination");
  dst.visit([&](auto& arr) {
    std::memcpy(arr.data() + offset, raw.data(), raw.size());
  });
}

Field centered_sample(const Field& field, std::size_t max_edge) {
  return field.visit([&](const auto& arr) {
    using T = std::remove_cvref_t<decltype(*arr.data())>;
    const Shape& s = arr.shape();
    const int nd = s.ndims();
    std::array<std::size_t, kMaxDims> dims{}, start{};
    for (int d = 0; d < nd; ++d) {
      dims[d] = std::min(s.dim(d), max_edge);
      start[d] = (s.dim(d) - dims[d]) / 2;
    }
    NdArray<T> out(Shape{std::span<const std::size_t>(dims.data(), nd)});
    const auto strides = s.strides();
    const std::size_t row = dims[nd - 1];
    T* dst = out.data();
    // One last-axis row per step; the leading axes' index of row r is r in
    // mixed radix over dims[0..nd-2].
    for (std::size_t r = 0; r < out.num_elements() / row; ++r, dst += row) {
      std::size_t rem = r;
      std::size_t src = start[nd - 1];
      for (int d = nd - 2; d >= 0; --d) {
        src += (start[d] + rem % dims[d]) * strides[d];
        rem /= dims[d];
      }
      std::copy_n(arr.data() + src, row, dst);
    }
    return Field(field.name(), std::move(out));
  });
}

Field::Range Field::value_range() const {
  // Eight accumulator lanes: element i goes to lane i mod 8, the lanes fold
  // in order, then the tail. The lanes are 16-byte GCC vectors (two for
  // f32, four for f64) because GCC compiles a std::array of lanes to
  // scalar minss/maxss. The strict-compare select `v < lo ? v : lo` is
  // exactly minps/maxps, so no fast-math is needed. min/max are
  // associative and commutative, so lane-splitting reorders the
  // evaluation without changing the result; a NaN element never replaces
  // an accumulator (strict compare is false), and a NaN first element
  // poisons every lane just as it poisoned a scalar accumulator.
  return visit([](const auto& arr) {
    Field::Range r;
    const std::size_t n = arr.num_elements();
    if (n == 0) return r;
    const auto* p = arr.data();
    using T = std::remove_cvref_t<decltype(p[0])>;
    typedef T V __attribute__((vector_size(16)));
    constexpr std::size_t kLanes = 8;
    constexpr std::size_t kPerVec = sizeof(V) / sizeof(T);
    constexpr std::size_t kVecs = kLanes / kPerVec;
    V first{};
    // Element-wise, not p[0] + V{}: adding +0 would turn a -0 into +0.
    for (std::size_t e = 0; e < kPerVec; ++e) first[e] = p[0];
    V lo_v[kVecs], hi_v[kVecs];
    for (std::size_t k = 0; k < kVecs; ++k) lo_v[k] = hi_v[k] = first;
    std::size_t i = 0;
    // Unrolled so the four f64 vectors stay in registers, not on the stack.
    for (; i + kLanes <= n; i += kLanes)
#pragma GCC unroll 4
      for (std::size_t k = 0; k < kVecs; ++k) {
        V v{};
        std::memcpy(&v, p + i + k * kPerVec, sizeof(V));
        lo_v[k] = v < lo_v[k] ? v : lo_v[k];
        hi_v[k] = v > hi_v[k] ? v : hi_v[k];
      }
    T lo = lo_v[0][0], hi = hi_v[0][0];
    for (std::size_t j = 1; j < kLanes; ++j) {
      const T l = lo_v[j / kPerVec][j % kPerVec];
      const T h = hi_v[j / kPerVec][j % kPerVec];
      lo = l < lo ? l : lo;
      hi = h > hi ? h : hi;
    }
    for (; i < n; ++i) {
      const T v = p[i];
      lo = v < lo ? v : lo;
      hi = v > hi ? v : hi;
    }
    r.min = static_cast<double>(lo);
    r.max = static_cast<double>(hi);
    return r;
  });
}

}  // namespace eblcio
