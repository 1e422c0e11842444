// Tests for the extension modules: zPerf-class ratio estimation and the
// ADIOS-class I/O tool.
#include <gtest/gtest.h>

#include "compressors/compressor.h"
#include "core/estimator.h"
#include "data/dataset.h"
#include "io/io_tool.h"
#include "metrics/error_stats.h"
#include "test_util.h"

namespace eblcio {
namespace {

using test::smooth_field_2d;
using test::smooth_field_3d;

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
