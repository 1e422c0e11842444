// SZ2 compressor tests: Lorenzo/regression block prediction, bound
// guarantees, the paper's documented OpenMP restrictions.
#include <gtest/gtest.h>

#include <cstring>

#include "compressors/compressor.h"
#include "metrics/error_stats.h"
#include "test_util.h"

namespace eblcio {
namespace {

using test::constant_field;
using test::double_field_4d;
using test::noisy_field_1d;
using test::smooth_field_2d;
using test::smooth_field_3d;

CompressOptions rel(double eb, int threads = 1) {
  CompressOptions o;
  o.mode = BoundMode::kValueRangeRel;
  o.error_bound = eb;
  o.threads = threads;
  return o;
}

class Sz2Bound
    : public ::testing::TestWithParam<std::tuple<double, std::string>> {};

TEST_P(Sz2Bound, GuaranteesValueRangeBound) {
  const auto [eb, which] = GetParam();
  Field f;
  if (which == "1d") f = noisy_field_1d();
  else if (which == "2d") f = smooth_field_2d();
  else if (which == "3d") f = smooth_field_3d();
  else f = double_field_4d();

  Compressor& c = compressor("SZ2");
  const Field r = c.decompress(c.compress(f, rel(eb)), 1);
  EXPECT_TRUE(check_value_range_bound(f, r, eb)) << which << " eb=" << eb;
}

INSTANTIATE_TEST_SUITE_P(
    BoundSweep, Sz2Bound,
    ::testing::Combine(::testing::Values(1e-1, 1e-2, 1e-3, 1e-4, 1e-5),
                       ::testing::Values("1d", "2d", "3d", "4d")));

TEST(Sz2, RegressionHelpsOnLinearRamp) {
  // A plane ramp is exactly a regression plane: SZ2 should compress it
  // dramatically (all residuals ~0 under the regression predictor).
  NdArray<float> arr(Shape{64, 64});
  for (std::size_t y = 0; y < 64; ++y)
    for (std::size_t x = 0; x < 64; ++x)
      arr.at(y, x) = 3.0f * y - 2.0f * x + 10.0f;
  const Field f("ramp", std::move(arr));
  Compressor& c = compressor("SZ2");
  const Bytes blob = c.compress(f, rel(1e-4));
  EXPECT_GT(compression_ratio(f.size_bytes(), blob.size()), 15.0);
  EXPECT_TRUE(check_value_range_bound(f, c.decompress(blob, 1), 1e-4));
}

TEST(Sz2, OpenMpRejects1dAnd4d) {
  // Paper Sec. IV-C: "the OpenMP version of SZ2 is not capable of
  // compressing 1D or 4D data."
  Compressor& c = compressor("SZ2");
  EXPECT_THROW(c.compress(noisy_field_1d(), rel(1e-3, 4)), Unsupported);
  EXPECT_THROW(c.compress(double_field_4d(), rel(1e-3, 4)), Unsupported);
  // Serial mode handles both fine.
  EXPECT_NO_THROW(c.compress(noisy_field_1d(), rel(1e-3, 1)));
}

TEST(Sz2, OpenMpWorksFor2dAnd3d) {
  Compressor& c = compressor("SZ2");
  for (int threads : {2, 4}) {
    const Field f2 = smooth_field_2d();
    EXPECT_TRUE(check_value_range_bound(
        f2, c.decompress(c.compress(f2, rel(1e-3, threads)), threads), 1e-3));
    const Field f3 = smooth_field_3d();
    EXPECT_TRUE(check_value_range_bound(
        f3, c.decompress(c.compress(f3, rel(1e-3, threads)), threads), 1e-3));
  }
}

TEST(Sz2, ConstantField) {
  Compressor& c = compressor("SZ2");
  const Field f = constant_field(50000);
  const Bytes blob = c.compress(f, rel(1e-3));
  EXPECT_LT(blob.size(), f.size_bytes() / 100);
  EXPECT_TRUE(check_value_range_bound(f, c.decompress(blob, 1), 1e-3));
}

TEST(Sz2, RatioDecreasesWithTighterBound) {
  Compressor& c = compressor("SZ2");
  const Field f = smooth_field_3d(48);
  std::size_t prev = 0;
  for (double eb : {1e-1, 1e-3, 1e-5}) {
    const std::size_t size = c.compress(f, rel(eb)).size();
    EXPECT_GE(size, prev);
    prev = size;
  }
}

TEST(Sz2, NonBlockAlignedDims) {
  NdArray<float> arr(Shape{7, 19, 11});
  for (std::size_t i = 0; i < arr.num_elements(); ++i)
    arr[i] = 0.01f * static_cast<float>((i * 37) % 101);
  const Field f("odd", std::move(arr));
  Compressor& c = compressor("SZ2");
  const Field r = c.decompress(c.compress(f, rel(1e-3)), 1);
  EXPECT_TRUE(check_value_range_bound(f, r, 1e-3));
  EXPECT_EQ(r.shape(), f.shape());
}

TEST(Sz2, DecompressIsDeterministic) {
  Compressor& c = compressor("SZ2");
  const Field f = smooth_field_3d();
  const Bytes blob = c.compress(f, rel(1e-3));
  const Field a = c.decompress(blob, 1);
  const Field b = c.decompress(blob, 1);
  for (std::size_t i = 0; i < a.num_elements(); ++i)
    EXPECT_EQ(a.as<float>()[i], b.as<float>()[i]);
}

TEST(Sz2, TruncatedBlobThrows) {
  Compressor& c = compressor("SZ2");
  Bytes blob = c.compress(smooth_field_2d(), rel(1e-3));
  blob.resize(blob.size() / 2);
  EXPECT_THROW(c.decompress(blob, 1), CorruptStream);
}

TEST(Sz2, ForgedSlabCountFailsBeforeTheTableIsSized) {
  // The u32 slab count follows the header. A count of 0, one past the
  // rows, or 2^32-1 (which sized a 32 GB table) is refused before any
  // table is sized from it, by the full and the windowed decode alike.
  Compressor& c = compressor("SZ2");
  const Field f = smooth_field_3d(16);
  const Bytes blob = c.compress(f, rel(1e-3, 4));
  Bytes header;
  peek_header(blob).encode(header);
  for (const std::uint32_t forged : {0u, 17u, 0xFFFFFFFFu}) {
    Bytes bad = blob;
    std::memcpy(bad.data() + header.size(), &forged, sizeof(forged));
    EXPECT_THROW(c.decompress(bad, 1), CorruptStream) << forged;
    EXPECT_THROW(test::decode_box(bad, {{0, 0, 0}, {4, 4, 4}}),
                 CorruptStream)
        << forged;
  }
}

}  // namespace
}  // namespace eblcio
