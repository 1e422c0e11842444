// Shared fixtures/helpers for the eblcio test suite.
#pragma once

#include <cmath>
#include <vector>

#include "common/field.h"
#include "common/region.h"
#include "common/rng.h"
#include "compressors/compressor.h"

namespace eblcio::test {

// Small smooth 3D field (sum of sines + mild noise): friendly to every
// predictor, good for ratio sanity checks.
inline Field smooth_field_3d(std::size_t n = 32, std::uint64_t seed = 7) {
  NdArray<float> arr(Shape{n, n, n});
  Rng rng(seed);
  for (std::size_t z = 0; z < n; ++z)
    for (std::size_t y = 0; y < n; ++y)
      for (std::size_t x = 0; x < n; ++x)
        arr.at(z, y, x) = static_cast<float>(
            std::sin(0.21 * z) * std::cos(0.13 * y) + 0.5 * std::sin(0.08 * x) +
            0.01 * rng.normal());
  return Field("smooth3d", std::move(arr));
}

inline Field smooth_field_2d(std::size_t n = 64, std::uint64_t seed = 7) {
  NdArray<float> arr(Shape{n, n});
  Rng rng(seed);
  for (std::size_t y = 0; y < n; ++y)
    for (std::size_t x = 0; x < n; ++x)
      arr.at(y, x) = static_cast<float>(std::sin(0.17 * y) * std::cos(0.11 * x) +
                                        0.01 * rng.normal());
  return Field("smooth2d", std::move(arr));
}

inline Field noisy_field_1d(std::size_t n = 4096, std::uint64_t seed = 11) {
  NdArray<float> arr(Shape{n});
  Rng rng(seed);
  double v = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    v = 0.95 * v + rng.normal();
    arr[i] = static_cast<float>(v);
  }
  return Field("noisy1d", std::move(arr));
}

inline Field double_field_4d(std::size_t s = 6, std::size_t n = 16,
                             std::uint64_t seed = 3) {
  NdArray<double> arr(Shape{s, n, n, n});
  Rng rng(seed);
  for (std::size_t w = 0; w < s; ++w)
    for (std::size_t z = 0; z < n; ++z)
      for (std::size_t y = 0; y < n; ++y)
        for (std::size_t x = 0; x < n; ++x)
          arr.at(w, z, y, x) =
              std::tanh(0.2 * (static_cast<double>(z) - 8.0) + 0.05 * w) +
              0.02 * std::sin(0.3 * x + 0.2 * y) + 0.001 * rng.normal();
  return Field("double4d", std::move(arr));
}

inline Field constant_field(std::size_t n = 1000, float value = 42.5f) {
  NdArray<float> arr(Shape{n});
  for (std::size_t i = 0; i < n; ++i) arr[i] = value;
  return Field("constant", std::move(arr));
}

// Field with extreme dynamic range (exercise value-range bounds).
inline Field spiky_field(std::size_t n = 2048, std::uint64_t seed = 5) {
  NdArray<float> arr(Shape{n});
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i)
    arr[i] = static_cast<float>(std::exp(6.0 * rng.next_double()) - 1.0);
  return Field("spiky", std::move(arr));
}

// The windowed decode through the one decoder: `box` of the blob, written
// by decompress_into_any into an unfilled field of the box's own shape.
// `reconstructed`, when non-null, receives the elements the codec
// reconstructed.
inline Field decode_box(std::span<const std::byte> blob, const Region& box,
                        int threads = 1,
                        std::size_t* reconstructed = nullptr) {
  const BlobHeader header = peek_header(blob);
  Field out = unfilled_field(header.codec, header.dtype,
                             Shape{std::span<const std::size_t>(box.shape)});
  const std::size_t n = decompress_into_any(blob, out, 0, box, threads);
  if (reconstructed) *reconstructed = n;
  return out;
}

}  // namespace eblcio::test
