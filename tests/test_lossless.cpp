// Lossless baseline tests (zstd-class, C-Blosc2, fpzip, FPC): exact
// round-trips on every field type, plus the Fig. 1 ratio ordering
// (float-aware codecs beat byte-level LZ on float data).
#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "compressors/compressor.h"
#include "data/dataset.h"
#include "test_util.h"

namespace eblcio {
namespace {

using test::double_field_4d;
using test::noisy_field_1d;
using test::smooth_field_2d;
using test::smooth_field_3d;

CompressOptions lossless_opt() {
  CompressOptions o;
  o.mode = BoundMode::kLossless;
  return o;
}

template <typename T>
void expect_bit_exact(const Field& a, const Field& b) {
  ASSERT_EQ(a.shape(), b.shape());
  const auto& x = a.as<T>();
  const auto& y = b.as<T>();
  for (std::size_t i = 0; i < x.num_elements(); ++i) {
    T xv = x[i], yv = y[i];
    EXPECT_EQ(std::memcmp(&xv, &yv, sizeof(T)), 0) << "index " << i;
  }
}

class LosslessRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(LosslessRoundTrip, BitExact) {
  const auto [codec, which] = GetParam();
  Field f;
  if (which == "1d") f = noisy_field_1d();
  else if (which == "2d") f = smooth_field_2d();
  else if (which == "3d") f = smooth_field_3d();
  else f = double_field_4d();

  Compressor& c = compressor(codec);
  EXPECT_TRUE(c.caps().lossless);
  const Bytes blob = c.compress(f, lossless_opt());
  const Field r = c.decompress(blob, 1);
  if (f.dtype() == DType::kFloat32)
    expect_bit_exact<float>(f, r);
  else
    expect_bit_exact<double>(f, r);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecsAllShapes, LosslessRoundTrip,
    ::testing::Combine(::testing::Values("zstd", "C-Blosc2", "fpzip", "FPC"),
                       ::testing::Values("1d", "2d", "3d", "4d")));

TEST(Lossless, SpecialFloatValuesSurvive) {
  NdArray<float> arr(Shape{8});
  arr[0] = 0.0f;
  arr[1] = -0.0f;
  arr[2] = std::numeric_limits<float>::infinity();
  arr[3] = -std::numeric_limits<float>::infinity();
  arr[4] = std::numeric_limits<float>::denorm_min();
  arr[5] = std::numeric_limits<float>::max();
  arr[6] = -std::numeric_limits<float>::min();
  arr[7] = 1.5f;
  const Field f("special", std::move(arr));
  for (const std::string& codec : lossless_names()) {
    Compressor& c = compressor(codec);
    const Field r = c.decompress(c.compress(f, lossless_opt()), 1);
    expect_bit_exact<float>(f, r);
  }
}

TEST(Lossless, FloatAwareCodecsBeatByteLevelLzOnSmoothFloats) {
  // Fig. 1's message: general lossless (zstd-class) achieves little on
  // floating-point fields; float-aware predictors (fpzip) do better.
  const Field f = generate_dataset_dims("CESM", {4, 64, 128}, 21);
  const auto zl = compressor("zstd").compress(f, lossless_opt()).size();
  const auto fp = compressor("fpzip").compress(f, lossless_opt()).size();
  EXPECT_LT(fp, zl);
}

TEST(Lossless, RatiosAreModestComparedToEblc) {
  // The headline Fig. 1 contrast: every lossless ratio is far below what
  // SZ2 reaches at even a tight bound on the same data.
  const Field f = generate_dataset_dims("CESM", {4, 64, 128}, 22);
  CompressOptions eblc;
  eblc.mode = BoundMode::kValueRangeRel;
  eblc.error_bound = 1e-4;
  const double sz2_ratio =
      static_cast<double>(f.size_bytes()) /
      compressor("SZ2").compress(f, eblc).size();
  for (const std::string& codec : lossless_names()) {
    const double ratio =
        static_cast<double>(f.size_bytes()) /
        compressor(codec).compress(f, lossless_opt()).size();
    EXPECT_LT(ratio, sz2_ratio) << codec;
    EXPECT_GE(ratio, 0.5) << codec;  // never catastrophically inflate
  }
}

TEST(Lossless, FpcHandlesOddByteLengths) {
  // FPC processes 8-byte words; a float field with odd element count
  // exercises the tail-padding path.
  NdArray<float> arr(Shape{1001});
  Rng rng(9);
  for (std::size_t i = 0; i < arr.num_elements(); ++i)
    arr[i] = static_cast<float>(rng.normal());
  const Field f("odd", std::move(arr));
  Compressor& c = compressor("FPC");
  const Field r = c.decompress(c.compress(f, lossless_opt()), 1);
  expect_bit_exact<float>(f, r);
}

TEST(Lossless, FpcForgedRawSizeFailsBeforeTheWordsAreSized) {
  // The payload opens with FPC's u64 raw byte count. It must equal the
  // header's: 2^33 zero-filled an 8 GB word buffer, and 2^64-1 overflowed
  // its size into std::length_error.
  Compressor& c = compressor("FPC");
  const Bytes blob = c.compress(smooth_field_2d(), lossless_opt());
  Bytes header;
  peek_header(blob).encode(header);
  std::uint64_t raw_size = 0;
  std::memcpy(&raw_size, blob.data() + header.size(), sizeof(raw_size));
  for (const std::uint64_t forged :
       {std::uint64_t{1} << 33, ~std::uint64_t{0}, raw_size - 1,
        raw_size + 8}) {
    Bytes bad = blob;
    std::memcpy(bad.data() + header.size(), &forged, sizeof(forged));
    EXPECT_THROW(c.decompress(bad, 1), CorruptStream) << forged;
  }
}

TEST(Lossless, EblcModeOnLosslessCodecStillExact) {
  // Passing an error bound to a lossless codec must not make it lossy.
  const Field f = smooth_field_2d();
  CompressOptions o;
  o.mode = BoundMode::kValueRangeRel;
  o.error_bound = 1e-1;
  Compressor& c = compressor("zstd");
  const Field r = c.decompress(c.compress(f, o), 1);
  expect_bit_exact<float>(f, r);
}

}  // namespace
}  // namespace eblcio
