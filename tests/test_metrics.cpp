// Quality metric tests: MSE/PSNR known values, bound checking,
// autocorrelation behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.h"
#include "common/rng.h"
#include "metrics/error_stats.h"
#include "test_util.h"

namespace eblcio {
namespace {

Field make_f32(std::vector<float> v) {
  const std::size_t n = v.size();
  NdArray<float> arr(Shape{n}, std::move(v));
  return Field("t", std::move(arr));
}

TEST(Metrics, IdenticalFieldsInfinitePsnr) {
  const Field a = make_f32({1, 2, 3, 4});
  const auto st = compute_error_stats(a, a);
  EXPECT_DOUBLE_EQ(st.mse, 0.0);
  EXPECT_TRUE(std::isinf(st.psnr_db));
  EXPECT_DOUBLE_EQ(st.max_abs_error, 0.0);
}

TEST(Metrics, KnownMseAndPsnr) {
  // Original [0, 10], recon off by 0.1 everywhere: MSE = 0.01,
  // PSNR = 20*log10(10 / 0.1) = 40 dB (Eq. 2 with peak = max(D) = 10).
  const Field a = make_f32({0, 10});
  const Field b = make_f32({0.1f, 9.9f});
  const auto st = compute_error_stats(a, b);
  EXPECT_NEAR(st.mse, 0.01, 1e-6);       // float(0.1) is not exact
  EXPECT_NEAR(st.psnr_db, 40.0, 1e-3);
  EXPECT_NEAR(st.max_abs_error, 0.1, 1e-6);
  EXPECT_NEAR(st.max_rel_error, 0.01, 1e-6);
}

TEST(Metrics, ValueRangeBoundCheck) {
  const Field a = make_f32({0, 100});
  const Field good = make_f32({0.5f, 99.5f});
  const Field bad = make_f32({2.0f, 98.0f});
  EXPECT_TRUE(check_value_range_bound(a, good, 0.01));   // 0.5 <= 1.0
  EXPECT_FALSE(check_value_range_bound(a, bad, 0.01));   // 2.0 > 1.0
}

TEST(Metrics, MismatchedShapesThrow) {
  const Field a = make_f32({1, 2, 3});
  const Field b = make_f32({1, 2});
  EXPECT_THROW(compute_error_stats(a, b), InvalidArgument);
}

TEST(Metrics, MismatchedTypesThrow) {
  const Field a = make_f32({1, 2});
  NdArray<double> d(Shape{2});
  const Field b("t", std::move(d));
  EXPECT_THROW(compute_error_stats(a, b), InvalidArgument);
}

TEST(Metrics, AutocorrelationDetectsStructuredError) {
  // Error = constant offset: perfectly correlated (lag-1 autocorr ~ 1 would
  // need variance; constant error has zero variance => 0). Use a slow sine
  // error instead, which is strongly lag-1 correlated.
  const std::size_t n = 4096;
  NdArray<float> a(Shape{n}), b(Shape{n});
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = static_cast<float>(i % 17);
    b[i] = a[i] + 0.01f * static_cast<float>(std::sin(0.01 * i));
  }
  const Field fa("a", std::move(a)), fb("b", std::move(b));
  const auto st = compute_error_stats(fa, fb);
  EXPECT_GT(st.error_autocorr_lag1, 0.9);
}

TEST(Metrics, AutocorrelationNearZeroForWhiteError) {
  Rng rng(5);
  const std::size_t n = 8192;
  NdArray<float> a(Shape{n}), b(Shape{n});
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = static_cast<float>(i % 13);
    b[i] = a[i] + 0.01f * static_cast<float>(rng.normal());
  }
  const Field fa("a", std::move(a)), fb("b", std::move(b));
  const auto st = compute_error_stats(fa, fb);
  EXPECT_LT(std::fabs(st.error_autocorr_lag1), 0.1);
}

TEST(Metrics, CompressionRatioHelper) {
  EXPECT_DOUBLE_EQ(compression_ratio(1000, 10), 100.0);
  EXPECT_DOUBLE_EQ(compression_ratio(1000, 0), 0.0);
}

TEST(Metrics, DoublePrecisionFields) {
  NdArray<double> a(Shape{3}), b(Shape{3});
  for (int i = 0; i < 3; ++i) {
    a[i] = i;
    b[i] = i + 1e-12;
  }
  const Field fa("a", std::move(a)), fb("b", std::move(b));
  const auto st = compute_error_stats(fa, fb);
  EXPECT_NEAR(st.max_abs_error, 1e-12, 1e-15);
}

// The three-pass formulation compute_error_stats replaced, kept as the
// referee: pass one for MSE and range, pass two for the mean error, pass
// three for the lag-1 autocorrelation.
template <typename T>
ErrorStats three_pass_stats(const NdArray<T>& a, const NdArray<T>& b) {
  const std::size_t n = a.num_elements();
  ErrorStats st;
  double lo = a[0], hi = a[0];
  double sum_sq = 0.0;
  double max_abs = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = a[i];
    lo = std::min(lo, x);
    hi = std::max(hi, x);
    const double e = x - static_cast<double>(b[i]);
    sum_sq += e * e;
    max_abs = std::max(max_abs, std::abs(e));
  }
  st.mse = sum_sq / static_cast<double>(n);
  st.max_abs_error = max_abs;
  st.value_range = hi - lo;
  st.max_rel_error =
      st.value_range > 0 ? max_abs / st.value_range
                         : (max_abs > 0 ? std::numeric_limits<double>::infinity()
                                        : 0.0);
  st.psnr_db = st.mse > 0
                   ? 20.0 * std::log10(std::abs(hi) / std::sqrt(st.mse))
                   : std::numeric_limits<double>::infinity();
  if (n > 1) {
    double mean_e = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      mean_e += (static_cast<double>(a[i]) - b[i]);
    mean_e /= static_cast<double>(n);
    double num = 0.0, den = 0.0;
    double prev = (static_cast<double>(a[0]) - b[0]) - mean_e;
    den += prev * prev;
    for (std::size_t i = 1; i < n; ++i) {
      const double cur = (static_cast<double>(a[i]) - b[i]) - mean_e;
      num += prev * cur;
      den += cur * cur;
      prev = cur;
    }
    st.error_autocorr_lag1 = den > 0 ? num / den : 0.0;
  }
  return st;
}

template <typename T>
void expect_matches_three_pass(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  NdArray<T> a(Shape{n}), b(Shape{n});
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = static_cast<T>(std::sin(0.003 * i) * 50.0 + rng.normal());
    // A biased, correlated error, so the mean error is far from zero.
    b[i] = static_cast<T>(a[i] + 0.01 + 0.02 * std::sin(0.1 * i) +
                          0.005 * rng.normal());
  }
  const ErrorStats want = three_pass_stats(a, b);
  const Field fa("a", std::move(a)), fb("b", std::move(b));
  const ErrorStats got = compute_error_stats(fa, fb);
  SCOPED_TRACE(::testing::Message() << "n=" << n << " bytes=" << sizeof(T));
  EXPECT_EQ(std::memcmp(&got.mse, &want.mse, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&got.psnr_db, &want.psnr_db, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&got.max_abs_error, &want.max_abs_error,
                        sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&got.max_rel_error, &want.max_rel_error,
                        sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&got.value_range, &want.value_range,
                        sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&got.error_autocorr_lag1, &want.error_autocorr_lag1,
                        sizeof(double)), 0);
}

TEST(Metrics, TwoPassStatsMatchThreePassReferee) {
  for (std::size_t n : {1u, 2u, 3u, 17u, 4096u, 262144u}) {
    expect_matches_three_pass<float>(n, 100 + n);
    expect_matches_three_pass<double>(n, 200 + n);
  }
}

}  // namespace
}  // namespace eblcio
