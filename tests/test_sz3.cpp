// SZ3 compressor tests: interpolation predictor correctness, bound
// guarantees across dimensionalities, ratio behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "compressors/compressor.h"
#include "compressors/interp_core.h"
#include "data/dataset.h"
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

class Sz3Bound
    : public ::testing::TestWithParam<std::tuple<double, std::string>> {};

TEST_P(Sz3Bound, GuaranteesValueRangeBound) {
  const auto [eb, which] = GetParam();
  Field f;
  if (which == "1d") f = noisy_field_1d();
  else if (which == "2d") f = smooth_field_2d();
  else if (which == "3d") f = smooth_field_3d();
  else f = double_field_4d();

  Compressor& c = compressor("SZ3");
  const Bytes blob = c.compress(f, rel(eb));
  const Field r = c.decompress(blob, 1);
  EXPECT_TRUE(check_value_range_bound(f, r, eb))
      << which << " eb=" << eb;
  EXPECT_EQ(r.shape(), f.shape());
}

INSTANTIATE_TEST_SUITE_P(
    BoundSweep, Sz3Bound,
    ::testing::Combine(::testing::Values(1e-1, 1e-2, 1e-3, 1e-4, 1e-5),
                       ::testing::Values("1d", "2d", "3d", "4d")));

TEST(Sz3, SmoothDataHighRatioAtLooseBound) {
  Compressor& c = compressor("SZ3");
  const Field f = smooth_field_3d(48);
  const Bytes blob = c.compress(f, rel(1e-2));
  const double cr = compression_ratio(f.size_bytes(), blob.size());
  EXPECT_GT(cr, 20.0);  // interpolation should crush smooth fields
}

TEST(Sz3, BeatsSzxOnSmoothData) {
  // The paper's trade-off: SZ3 gets higher ratios than SZx (at higher
  // compute cost). Verify the ratio ordering on a smooth field.
  const Field f = smooth_field_3d(48);
  const auto sz3 = compressor("SZ3").compress(f, rel(1e-3)).size();
  const auto szx = compressor("SZx").compress(f, rel(1e-3)).size();
  EXPECT_LT(sz3, szx);
}

TEST(Sz3, RatioDecreasesWithTighterBound) {
  Compressor& c = compressor("SZ3");
  const Field f = smooth_field_3d(48);
  std::size_t prev = 0;
  for (double eb : {1e-1, 1e-3, 1e-5}) {
    const std::size_t size = c.compress(f, rel(eb)).size();
    EXPECT_GE(size, prev);
    prev = size;
  }
}

TEST(Sz3, ConstantField) {
  Compressor& c = compressor("SZ3");
  const Field f = constant_field(65536);
  const Bytes blob = c.compress(f, rel(1e-3));
  const Field r = c.decompress(blob, 1);
  EXPECT_TRUE(check_value_range_bound(f, r, 1e-3));
  EXPECT_LT(blob.size(), f.size_bytes() / 100);
}

TEST(Sz3, NonPowerOfTwoDims) {
  NdArray<float> arr(Shape{13, 29, 7});
  for (std::size_t i = 0; i < arr.num_elements(); ++i)
    arr[i] = static_cast<float>(i % 97) * 0.1f;
  const Field f("odd", std::move(arr));
  Compressor& c = compressor("SZ3");
  const Field r = c.decompress(c.compress(f, rel(1e-3)), 1);
  EXPECT_TRUE(check_value_range_bound(f, r, 1e-3));
}

TEST(Sz3, TinyField) {
  NdArray<float> arr(Shape{2, 2});
  arr[0] = 1;
  arr[1] = 2;
  arr[2] = 3;
  arr[3] = 4;
  const Field f("tiny", std::move(arr));
  Compressor& c = compressor("SZ3");
  const Field r = c.decompress(c.compress(f, rel(1e-2)), 1);
  EXPECT_TRUE(check_value_range_bound(f, r, 1e-2));
}

TEST(Sz3, ParallelSlabsPreserveBound) {
  Compressor& c = compressor("SZ3");
  const Field f = smooth_field_3d(40);
  for (int threads : {2, 4, 8}) {
    const Bytes blob = c.compress(f, rel(1e-3, threads));
    const Field r = c.decompress(blob, threads);
    EXPECT_TRUE(check_value_range_bound(f, r, 1e-3)) << threads;
  }
}

TEST(Sz3, ParallelCostsSomeRatio) {
  // Chunked entropy tables cost a little ratio vs. serial — but not much.
  Compressor& c = compressor("SZ3");
  const Field f = smooth_field_3d(48);
  const auto serial = c.compress(f, rel(1e-3, 1)).size();
  const auto parallel = c.compress(f, rel(1e-3, 8)).size();
  EXPECT_GE(parallel, serial);
  EXPECT_LT(parallel, serial * 2);
}

TEST(Sz3, RealisticDatasetBounds) {
  Compressor& c = compressor("SZ3");
  for (const char* name : {"NYX", "CESM"}) {
    const Field f = generate_dataset_dims(
        name, name == std::string("CESM")
                  ? std::vector<std::size_t>{4, 64, 128}
                  : std::vector<std::size_t>{48, 48, 48},
        11);
    const Field r = c.decompress(c.compress(f, rel(1e-3)), 1);
    EXPECT_TRUE(check_value_range_bound(f, r, 1e-3)) << name;
  }
}

TEST(Sz3, TruncatedBlobThrows) {
  Compressor& c = compressor("SZ3");
  Bytes blob = c.compress(smooth_field_2d(), rel(1e-3));
  blob.resize(blob.size() * 2 / 3);
  EXPECT_THROW(c.decompress(blob, 1), CorruptStream);
}

// Decode reconstructs into its output, so a code span that ends early or
// runs long must still be caught before a field is returned.
TEST(Sz3, InterpDecodeRejectsCodeSpanOfWrongLength) {
  for (const Field& f : {smooth_field_3d(24), double_field_4d()}) {
    const BlobHeader header = lossy_header("SZ3", f, rel(1e-3));
    const InterpConfig config;
    const InterpEncoding enc =
        interp_compress(f, header.abs_error_bound, config);
    ASSERT_GT(enc.codes.size(), 1u);
    const std::span<const std::uint32_t> codes(enc.codes);
    EXPECT_EQ(interp_decompress(header, config, codes, enc.anchors,
                                enc.unpred)
                  .shape(),
              f.shape());
    EXPECT_THROW(interp_decompress(header, config,
                                   codes.first(codes.size() - 1),
                                   enc.anchors, enc.unpred),
                 CorruptStream);
    std::vector<std::uint32_t> extended = enc.codes;
    extended.push_back(32768);  // a zero-residual code
    EXPECT_THROW(interp_decompress(header, config, extended, enc.anchors,
                                   enc.unpred),
                 CorruptStream);
  }
}

// A non-power-of-two anchor stride would leave grid points unwritten and
// predict from them, so a payload carrying one is refused.
TEST(Sz3, InterpDecodeRejectsNonPowerOfTwoAnchorStride) {
  const Field f = smooth_field_3d(24);
  const BlobHeader header = lossy_header("SZ3", f, rel(1e-3));
  InterpConfig config;
  config.anchor_stride = 8;
  const InterpEncoding enc = interp_compress(f, header.abs_error_bound, config);
  config.anchor_stride = 6;
  try {
    (void)interp_decompress(header, config, enc.codes, enc.anchors,
                            enc.unpred);
    ADD_FAILURE() << "a stride-6 payload decoded";
  } catch (const CorruptStream& e) {
    // Refused by the stride check, not by a stream running out later.
    EXPECT_NE(std::string(e.what()).find("anchor stride"), std::string::npos)
        << e.what();
  }
}

// A smooth field of the given dims, optionally with isolated spikes (one
// element in 97 raised by 1e4) that no prediction at a tight bound can
// quantize, so their codes are 0 and their values go to the unpredictable
// stream.
template <typename T>
Field wavy_field(const std::vector<std::size_t>& dims, bool spikes) {
  NdArray<T> arr(Shape{std::span<const std::size_t>(dims)});
  for (std::size_t i = 0; i < arr.num_elements(); ++i) {
    const double t = static_cast<double>(i);
    double x = std::sin(0.013 * t) + 0.3 * std::cos(0.0071 * t);
    if (spikes && i % 97 == 41) x += 1e4;
    arr[i] = static_cast<T>(x);
  }
  return Field("wavy", std::move(arr));
}

// The QoZ tuner scores its trials on interp_compress's reconstruction
// instead of decoding them, which holds only if that buffer is exactly
// what the decoder rebuilds from the encoding.
TEST(Interp, CompressReconstructionEqualsDecodeByteForByte) {
  std::vector<InterpConfig> configs(1);  // SZ3: auto anchor, gamma 1
  for (double gamma : {1.0, 0.7, 0.5}) {  // QoZ: dense anchors, tuned gamma
    InterpConfig qoz;
    qoz.anchor_stride = 64;
    qoz.level_gamma = gamma;
    configs.push_back(qoz);
  }
  const std::vector<std::vector<std::size_t>> shapes = {
      {3001}, {45, 70}, {19, 13, 40}, {3, 9, 10, 21}};
  std::size_t unpredictable = 0;
  for (const auto& dims : shapes)
    for (DType dtype : {DType::kFloat32, DType::kFloat64})
      for (bool spikes : {false, true}) {
        const Field f = dtype == DType::kFloat32
                            ? wavy_field<float>(dims, spikes)
                            : wavy_field<double>(dims, spikes);
        // Spiky fields get an absolute bound far inside the spikes.
        const double abs_eb =
            spikes ? 1e-5 : 1e-3 * f.value_range().span();
        BlobHeader header;
        header.codec = "SZ3";
        header.dtype = dtype;
        header.dims = dims;
        header.abs_error_bound = abs_eb;
        for (const InterpConfig& config : configs) {
          Field recon;
          const InterpEncoding enc = interp_compress(f, abs_eb, config, &recon);
          unpredictable += enc.unpred.size();
          EXPECT_EQ(interp_compress(f, abs_eb, config).codes, enc.codes);
          const Field decoded = interp_decompress(header, config, enc.codes,
                                                  enc.anchors, enc.unpred);
          const std::string what = std::to_string(dims.size()) + "D " +
                                   dtype_name(dtype) +
                                   (spikes ? " spiky" : "") + " stride " +
                                   std::to_string(config.anchor_stride) +
                                   " gamma " +
                                   std::to_string(config.level_gamma);
          ASSERT_EQ(recon.dtype(), dtype) << what;
          ASSERT_EQ(recon.shape(), f.shape()) << what;
          EXPECT_TRUE(std::ranges::equal(recon.bytes(), decoded.bytes()))
              << what;
        }
      }
  EXPECT_GT(unpredictable, 0u);  // the code-0 path ran
}

// Compressor::compress's reconstruction slot: `recon` must be byte for
// byte what decompress() gives, and the blob what the two-argument
// compress gives. Returns whether the codec filled the slot.
bool expect_recon_is_decode(const std::string& codec, const Field& f,
                            const CompressOptions& opt) {
  Compressor& comp = compressor(codec);
  Field recon;
  const Bytes blob = comp.compress(f, opt, &recon);
  EXPECT_EQ(blob, comp.compress(f, opt));
  if (recon.ndims() == 0) return false;
  const Field decoded = comp.decompress(blob);
  EXPECT_EQ(recon.dtype(), f.dtype());
  EXPECT_EQ(recon.shape(), f.shape());
  EXPECT_TRUE(std::ranges::equal(recon.bytes(), decoded.bytes()));
  return true;
}

// The advisor scores SZ2, SZ3 and QoZ trials on that slot instead of a
// decode. Covered: its five bounds on NYX 64^3; f32/f64 fields in 1D-4D,
// with isolated spikes under an absolute bound so the code-0 path runs; a
// constant field of +0.0 and -0.0 under a relative bound (eb = 0, where the
// quantizers report the decoder's +0.0). Codecs and layouts without a
// whole-field reconstruction leave the slot empty.
TEST(Compressor, ReconstructionEqualsDecodeByteForByte) {
  const std::vector<std::string> codecs = {"SZ2", "SZ3", "QoZ"};
  const Field nyx = generate_dataset_dims("NYX", {64, 64, 64}, 7);
  for (const std::string& codec : codecs)
    for (const double eb : {1e-1, 1e-2, 1e-3, 1e-4, 1e-5}) {
      SCOPED_TRACE(codec + " NYX eb " + std::to_string(eb));
      EXPECT_TRUE(expect_recon_is_decode(codec, nyx, rel(eb)));
    }

  const std::vector<std::vector<std::size_t>> shapes = {
      {3001}, {45, 70}, {19, 13, 40}, {3, 9, 10, 21}};
  for (const auto& dims : shapes)
    for (DType dtype : {DType::kFloat32, DType::kFloat64})
      for (bool spikes : {false, true}) {
        const Field f = dtype == DType::kFloat32
                            ? wavy_field<float>(dims, spikes)
                            : wavy_field<double>(dims, spikes);
        CompressOptions opt = rel(1e-3);
        if (spikes) {
          opt.mode = BoundMode::kAbsolute;
          opt.error_bound = 1e-5;
        }
        for (const std::string& codec : codecs) {
          if (!compressor(codec).supports(f, opt)) continue;
          SCOPED_TRACE(codec + " " + std::to_string(dims.size()) + "D " +
                       dtype_name(dtype) + (spikes ? " spiky" : ""));
          EXPECT_TRUE(expect_recon_is_decode(codec, f, opt));
        }
      }

  for (DType dtype : {DType::kFloat32, DType::kFloat64}) {
    const std::vector<std::size_t> dims = {7, 9, 11};
    Field zeros = unfilled_field("zeros", dtype,
                                 Shape{std::span<const std::size_t>(dims)});
    zeros.visit([](auto& arr) {
      for (std::size_t i = 0; i < arr.num_elements(); ++i)
        arr[i] = i % 3 == 1 ? -0.0 : 0.0;
    });
    for (const std::string& codec : codecs) {
      SCOPED_TRACE(codec + " signed zeros " + dtype_name(dtype));
      EXPECT_TRUE(expect_recon_is_decode(codec, zeros, rel(1e-3)));
    }
  }

  const Field f3 = smooth_field_3d(24);
  EXPECT_FALSE(expect_recon_is_decode("ZFP", f3, rel(1e-3)));
  EXPECT_FALSE(expect_recon_is_decode("SZx", f3, rel(1e-3)));
  CompressOptions lossless;
  lossless.mode = BoundMode::kLossless;
  EXPECT_FALSE(expect_recon_is_decode("zstd", f3, lossless));
  for (const std::string& codec : codecs) {
    SCOPED_TRACE(codec + " threads 4");
    EXPECT_FALSE(expect_recon_is_decode(codec, f3, rel(1e-3, 4)));
  }
}

// The decoder checks the code stream once per row piece and reads the
// unpredictable stream as it scatters a piece, so streams cut inside a
// row, inside a piece or between pieces of a long 1D row must still throw
// CorruptStream from both decode entry points.
TEST(Interp, DecodeRejectsStreamsCutMidRow) {
  const std::vector<std::vector<std::size_t>> shapes = {{3001}, {19, 13, 40}};
  for (const auto& dims : shapes)
    for (DType dtype : {DType::kFloat32, DType::kFloat64}) {
      const Field f = dtype == DType::kFloat32 ? wavy_field<float>(dims, true)
                                               : wavy_field<double>(dims, true);
      BlobHeader header;
      header.codec = "SZ3";
      header.dtype = dtype;
      header.dims = dims;
      header.abs_error_bound = 1e-5;
      const InterpConfig config;
      const InterpEncoding enc = interp_compress(f, 1e-5, config);
      const std::size_t value = dtype_size(dtype);
      ASSERT_GT(enc.codes.size(), 300u);
      ASSERT_GE(enc.unpred.size(), 4 * value);
      const std::string what = std::to_string(dims.size()) + "D " +
                               dtype_name(dtype);
      const auto expect_corrupt = [&](std::span<const std::uint32_t> codes,
                                      std::span<const std::byte> unpred,
                                      const std::string& cut) {
        EXPECT_THROW(
            (void)interp_decompress(header, config, codes, enc.anchors,
                                    unpred),
            CorruptStream)
            << what << ' ' << cut;
        Field out = unfilled_field("out", dtype, f.shape());
        EXPECT_THROW(interp_decompress_into(header, config, codes,
                                            enc.anchors, unpred, out, 0),
                     CorruptStream)
            << what << ' ' << cut;
      };
      const std::span<const std::uint32_t> codes(enc.codes);
      const std::span<const std::byte> unpred(enc.unpred);
      for (const std::size_t cut : {std::size_t{1}, std::size_t{7},
                                    std::size_t{100}, std::size_t{259}})
        expect_corrupt(codes.first(codes.size() - cut), unpred,
                       "codes - " + std::to_string(cut));
      for (const std::size_t cut : {std::size_t{1}, value, 3 * value})
        expect_corrupt(codes, unpred.first(unpred.size() - cut),
                       "unpred - " + std::to_string(cut) + " bytes");
    }
}

}  // namespace
}  // namespace eblcio
