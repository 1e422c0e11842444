// Tests for the extension modules: Z-checker-class quality reports,
// zPerf-class ratio estimation, and the ADIOS-class I/O tool.
#include <gtest/gtest.h>

#include <cmath>

#include "compressors/compressor.h"
#include "core/estimator.h"
#include "data/dataset.h"
#include "io/io_tool.h"
#include "metrics/quality_report.h"
#include "test_util.h"

namespace eblcio {
namespace {

using test::smooth_field_2d;
using test::smooth_field_3d;

// --- quality_report --------------------------------------------------------

TEST(QualityReport, PerfectReconstruction) {
  const Field f = smooth_field_3d(16);
  const auto rep = assess_quality(f, f);
  EXPECT_DOUBLE_EQ(rep.nrmse, 0.0);
  EXPECT_NEAR(rep.pearson_r, 1.0, 1e-12);
  EXPECT_NEAR(rep.ssim, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(rep.gradient_rmse_ratio, 0.0);
  EXPECT_DOUBLE_EQ(rep.mean_error, 0.0);
  EXPECT_TRUE(rep.unbiased());
}

TEST(QualityReport, DetectsBias) {
  const Field f = smooth_field_2d(32);
  NdArray<float> shifted = f.as<float>();
  for (std::size_t i = 0; i < shifted.num_elements(); ++i)
    shifted[i] += 0.5f;
  const Field g("shifted", std::move(shifted));
  const auto rep = assess_quality(f, g);
  EXPECT_NEAR(rep.mean_error, -0.5, 1e-5);
  EXPECT_FALSE(rep.unbiased());
  // A pure shift preserves structure: correlation stays perfect and
  // gradients are untouched.
  EXPECT_NEAR(rep.pearson_r, 1.0, 1e-9);
  EXPECT_NEAR(rep.gradient_rmse_ratio, 0.0, 1e-6);
}

TEST(QualityReport, SsimDropsWithNoise) {
  const Field f = smooth_field_2d(64);
  Rng rng(3);
  NdArray<float> noisy = f.as<float>();
  for (std::size_t i = 0; i < noisy.num_elements(); ++i)
    noisy[i] += 0.3f * static_cast<float>(rng.normal());
  const Field g("noisy", std::move(noisy));
  const auto rep = assess_quality(f, g);
  EXPECT_LT(rep.ssim, 0.98);
  EXPECT_LT(rep.pearson_r, 0.999);
  EXPECT_GT(rep.gradient_rmse_ratio, 0.5);  // noise shreds gradients
}

TEST(QualityReport, TracksCompressorQualityOrdering) {
  // Tighter bounds must produce a monotonically better battery.
  const Field f = smooth_field_3d(32);
  Compressor& c = compressor("SZ3");
  QualityReport prev;
  bool first = true;
  for (double eb : {1e-1, 1e-3, 1e-5}) {
    CompressOptions o;
    o.error_bound = eb;
    const auto rep = assess_quality(f, c.decompress(c.compress(f, o), 1));
    if (!first) {
      EXPECT_GE(rep.basic.psnr_db, prev.basic.psnr_db);
      EXPECT_LE(rep.nrmse, prev.nrmse);
      EXPECT_GE(rep.ssim, prev.ssim - 1e-9);
    }
    prev = rep;
    first = false;
  }
}

TEST(QualityReport, FormatsAllFields) {
  const Field f = smooth_field_2d(16);
  const std::string text = format_quality_report(assess_quality(f, f));
  for (const char* needle : {"PSNR", "NRMSE", "SSIM", "pearson", "gradient"})
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
}

// --- estimator --------------------------------------------------------------

class EstimatorAccuracy
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(EstimatorAccuracy, WithinFactorOfActual) {
  const auto [codec, eb] = GetParam();
  const Field f = generate_dataset_dims("NYX", {64, 64, 64}, 5);
  const RatioEstimate est = estimate_ratio(f, codec, eb);

  CompressOptions o;
  o.error_bound = eb;
  const Bytes blob = compressor(codec).compress(f, o);
  const double actual =
      static_cast<double>(f.size_bytes()) / static_cast<double>(blob.size());

  EXPECT_GT(est.predicted_ratio, 0.9);
  // Gray-box estimation: within ~4x of the truth, per the zPerf-class
  // accuracy regime, and on the same side of "compressible vs not".
  EXPECT_LT(est.predicted_ratio / actual, 4.0)
      << codec << " predicted " << est.predicted_ratio << " actual "
      << actual;
  EXPECT_GT(est.predicted_ratio / actual, 0.25)
      << codec << " predicted " << est.predicted_ratio << " actual "
      << actual;
}

INSTANTIATE_TEST_SUITE_P(
    CodecsBounds, EstimatorAccuracy,
    ::testing::Combine(::testing::Values("SZ3", "SZx", "ZFP"),
                       ::testing::Values(1e-2, 1e-3, 1e-4)));

TEST(Estimator, OrdersBoundsCorrectly) {
  const Field f = generate_dataset_dims("NYX", {48, 48, 48}, 6);
  double prev = 1e18;
  for (double eb : {1e-1, 1e-2, 1e-3, 1e-4, 1e-5}) {
    const double r = estimate_ratio(f, "SZ3", eb).predicted_ratio;
    EXPECT_LE(r, prev * 1.01);
    prev = r;
  }
}

TEST(Estimator, RejectsUnknownCodecAndBadBound) {
  const Field f = smooth_field_2d(16);
  EXPECT_THROW(estimate_ratio(f, "zstd", 1e-3), InvalidArgument);
  EXPECT_THROW(estimate_ratio(f, "SZ3", 0.0), InvalidArgument);
}

TEST(Estimator, IsCheap) {
  // The whole point: estimation must not scale with field size.
  const Field f = generate_dataset_dims("NYX", {128, 128, 128}, 7);
  const RatioEstimate est = estimate_ratio(f, "SZ3", 1e-3);
  EXPECT_LE(est.sampled_values, 262144u + 128u);
}

// --- ADIOS -------------------------------------------------------------------
//
// The ADIOS row's round trips and damaged-file cases run with HDF5's and
// NetCDF's in test_io_containers (ContainerRoundTrip, ForgedFile).

TEST(AdiosTool, CheapestWritePathOfTheThree) {
  // BP's append + single footer sync should undercut both HDF5 (chunk
  // tables) and NetCDF (staging + header rewrites).
  PfsSimulator pfs;
  const Field f = smooth_field_3d(64);
  const IoCost bp = io_tool("ADIOS").write_field(pfs, "/w/bp", f);
  const IoCost h5 = io_tool("HDF5").write_field(pfs, "/w/h5", f);
  const IoCost nc = io_tool("NetCDF").write_field(pfs, "/w/nc", f);
  EXPECT_LE(bp.total_seconds(), h5.total_seconds());
  EXPECT_LT(h5.total_seconds(), nc.total_seconds());
}

TEST(AdiosTool, EndToEndCompressedCheckpoint) {
  PfsSimulator pfs;
  const Field f = generate_dataset_dims("ISABEL", {8, 48, 48}, 4);
  CompressOptions o;
  o.error_bound = 1e-3;
  const Bytes blob = compressor("SZ3").compress(f, o);
  io_tool("ADIOS").write_blob(pfs, "/ckpt/bp", f.name(), blob);
  const Field back =
      decompress_any(io_tool("ADIOS").read_blob(pfs, "/ckpt/bp", f.name()));
  EXPECT_TRUE(check_value_range_bound(f, back, 1e-3));
}

}  // namespace
}  // namespace eblcio
