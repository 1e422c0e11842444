#include "metrics/error_stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"

namespace eblcio {
namespace {

template <typename T>
ErrorStats stats_impl(const NdArray<T>& a, const NdArray<T>& b) {
  EBLCIO_CHECK_ARG(a.shape() == b.shape(), "field shape mismatch");
  const std::size_t n = a.num_elements();
  ErrorStats st;
  if (n == 0) return st;

  double lo = a[0], hi = a[0];
  double sum_sq = 0.0;
  double sum_e = 0.0;
  double max_abs = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = a[i];
    lo = std::min(lo, x);
    hi = std::max(hi, x);
    const double e = x - static_cast<double>(b[i]);
    sum_sq += e * e;
    sum_e += e;
    max_abs = std::max(max_abs, std::abs(e));
  }
  st.mse = sum_sq / static_cast<double>(n);
  st.max_abs_error = max_abs;
  st.value_range = hi - lo;
  st.max_rel_error =
      st.value_range > 0 ? max_abs / st.value_range
                         : (max_abs > 0 ? std::numeric_limits<double>::infinity()
                                        : 0.0);
  // Eq. 2 uses max(D) as the peak; follow the paper exactly.
  const double peak = hi;
  st.psnr_db = st.mse > 0
                   ? 20.0 * std::log10(std::abs(peak) / std::sqrt(st.mse))
                   : std::numeric_limits<double>::infinity();

  // Lag-1 autocorrelation of the pointwise error signal.
  if (n > 1) {
    const double mean_e = sum_e / static_cast<double>(n);
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

}  // namespace

ErrorStats compute_error_stats(const Field& original, const Field& recon) {
  EBLCIO_CHECK_ARG(original.dtype() == recon.dtype(), "field dtype mismatch");
  if (original.dtype() == DType::kFloat32)
    return stats_impl(original.as<float>(), recon.as<float>());
  return stats_impl(original.as<double>(), recon.as<double>());
}

bool check_value_range_bound(const Field& original, const Field& recon,
                             double eb_rel) {
  const auto st = compute_error_stats(original, recon);
  // Tiny epsilon absorbs double-rounding in the bound computation itself.
  return st.max_abs_error <= eb_rel * st.value_range * (1.0 + 1e-9) + 1e-300;
}

}  // namespace eblcio
