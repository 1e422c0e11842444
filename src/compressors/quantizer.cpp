// LinearQuantizer's row kernels, compiled once per RowIsa entry.
//
// The kernel bodies are always-inline templates; each entry is a thin
// function that inlines them under its own target attribute, so one source
// yields the baseline and the AVX2 code. The AVX2 entry adds no FMA: the
// library builds with -ffp-contract=off, and without FMA in the target no
// multiply-add could be fused anyway, so both entries round every
// operation exactly as quantize<T> and recover do.
#include "compressors/quantizer.h"

#include <algorithm>

namespace eblcio {
namespace {

#if defined(__x86_64__) || defined(__i386__)
#define EBLCIO_ROW_AVX2 1
#endif

struct RowConsts {
  double eb;
  double eb2;
  double inv_eb2;
  double guard;  // radius - 1: the largest |quotient| quantize<T> codes
  std::int32_t radius;
};

// quantize_row's flags.
constexpr unsigned kAnyZero = 1;  // some code is 0
constexpr unsigned kAnyTie = 2;   // some quotient grazed a half-integer tie

// Pass A is pure double: the quotient, the range guard, the nearest-even
// snap and the half-tie test of round_quotient_half_away (outside the tie
// zone the snap is the integer quantize<T> picks). An out-of-range
// quotient stores NaN, which fails pass B's bound check, so it needs no
// flag of its own. Pass B narrows: the T cast, the original-domain bound
// check and the code/recon stores, on the same values quantize<T>
// evaluates. The tie test goes through a buffer and is counted in pass B:
// GCC 12 vectorizes neither pass with a mask reduction in pass A. The
// constants come by value: read through a reference, q.radius may alias
// the u32 code stores, and GCC then leaves pass B scalar.
template <typename T>
[[gnu::always_inline]] inline unsigned quantize_row_body(
    RowConsts q, const T* __restrict x, const double* __restrict pred,
    std::size_t n, std::uint32_t* __restrict codes, T* __restrict recon) {
  double qd[kRowChunk];   // snapped quotients (NaN: out of range)
  double tie[kRowChunk];  // 1.0 where the quotient grazes a tie
  unsigned flags = 0;
  for (std::size_t base = 0; base < n; base += kRowChunk) {
    const std::size_t len = std::min(kRowChunk, n - base);
    const T* xs = x + base;
    const double* ps = pred + base;
    std::uint32_t* cs = codes + base;
    T* rs = recon + base;
    for (std::size_t k = 0; k < len; ++k) {
      const double qf = (static_cast<double>(xs[k]) - ps[k]) * q.inv_eb2;
      const bool in_range = std::fabs(qf) < q.guard;
      const double qc = in_range ? qf : 0.0;
      const double y = (qc + kRoundMagic) - kRoundMagic;
      tie[k] = near_half_tie(qc, qc - y) ? 1.0 : 0.0;
      qd[k] = in_range ? y : __builtin_nan("");
    }
    int zeros = 0;
    int ties = 0;
    for (std::size_t k = 0; k < len; ++k) {
      const T cast = static_cast<T>(ps[k] + qd[k] * q.eb2);
      const bool ok = std::fabs(static_cast<double>(cast) -
                                static_cast<double>(xs[k])) <= q.eb;
      cs[k] = ok ? static_cast<std::uint32_t>(
                       static_cast<std::int32_t>(qd[k]) + q.radius)
                 : 0u;
      rs[k] = ok ? cast : xs[k];
      zeros += !ok;
      ties += tie[k] != 0.0;
    }
    flags |= (zeros ? kAnyZero : 0u) | (ties ? kAnyTie : 0u);
  }
  return flags;
}

// double(code) - radius, exact for every u32 code (the same value as
// recover's int64 difference): the sign-flip turns the code into an int32,
// whose conversion to double vectorizes where u32's does not.
template <typename T>
[[gnu::always_inline]] inline void recover_row_body(
    RowConsts q, const std::uint32_t* __restrict codes,
    const double* __restrict pred, std::size_t n, T* __restrict out) {
  const double rad = static_cast<double>(q.radius);
  for (std::size_t k = 0; k < n; ++k) {
    const double code =
        static_cast<double>(static_cast<std::int32_t>(codes[k] ^ 0x80000000u)) +
        2147483648.0;
    out[k] = static_cast<T>(pred[k] + (code - rad) * q.eb2);
  }
}

template <typename T>
unsigned quantize_row_default(RowConsts q, const T* x,
                              const double* pred, std::size_t n,
                              std::uint32_t* codes, T* recon) {
  return quantize_row_body(q, x, pred, n, codes, recon);
}

template <typename T>
void recover_row_default(RowConsts q, const std::uint32_t* codes,
                         const double* pred, std::size_t n, T* out) {
  recover_row_body(q, codes, pred, n, out);
}

#ifdef EBLCIO_ROW_AVX2
template <typename T>
[[gnu::target("avx2")]] unsigned quantize_row_avx2(
    RowConsts q, const T* x, const double* pred, std::size_t n,
    std::uint32_t* codes, T* recon) {
  return quantize_row_body(q, x, pred, n, codes, recon);
}

template <typename T>
[[gnu::target("avx2")]] void recover_row_avx2(RowConsts q,
                                              const std::uint32_t* codes,
                                              const double* pred,
                                              std::size_t n, T* out) {
  recover_row_body(q, codes, pred, n, out);
}
#endif

}  // namespace

bool row_isa_supported(RowIsa isa) {
  if (isa == RowIsa::kDefault) return true;
#ifdef EBLCIO_ROW_AVX2
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

template <typename T>
bool LinearQuantizer::quantize_row(const T* x, const double* pred,
                                   std::size_t n, std::uint32_t* codes,
                                   T* recon,
                                   [[maybe_unused]] RowIsa isa) const {
  if (eb2_ > 0.0) {
    const RowConsts q{eb_, eb2_, inv_eb2_, static_cast<double>(radius_) - 1,
                      static_cast<std::int32_t>(radius_)};
#ifdef EBLCIO_ROW_AVX2
    const unsigned flags =
        isa == RowIsa::kAvx2
            ? quantize_row_avx2(q, x, pred, n, codes, recon)
            : quantize_row_default(q, x, pred, n, codes, recon);
#else
    const unsigned flags = quantize_row_default(q, x, pred, n, codes, recon);
#endif
    if (!(flags & kAnyTie)) return flags & kAnyZero;
  }
  // A degenerate bound, or a row that grazed a half-integer tie, where
  // round_quotient_half_away settles the tie with an exact divide.
  return quantize_each(*this, x, pred, n, codes, recon);
}

template <typename T>
void LinearQuantizer::recover_row(const std::uint32_t* codes,
                                  const double* pred, std::size_t n, T* out,
                                  [[maybe_unused]] RowIsa isa) const {
  const RowConsts q{eb_, eb2_, inv_eb2_, static_cast<double>(radius_) - 1,
                    static_cast<std::int32_t>(radius_)};
#ifdef EBLCIO_ROW_AVX2
  if (isa == RowIsa::kAvx2) return recover_row_avx2(q, codes, pred, n, out);
#endif
  recover_row_default(q, codes, pred, n, out);
}

template bool LinearQuantizer::quantize_row<float>(const float*,
                                                   const double*, std::size_t,
                                                   std::uint32_t*, float*,
                                                   RowIsa) const;
template bool LinearQuantizer::quantize_row<double>(const double*,
                                                    const double*,
                                                    std::size_t,
                                                    std::uint32_t*, double*,
                                                    RowIsa) const;
template void LinearQuantizer::recover_row<float>(const std::uint32_t*,
                                                  const double*, std::size_t,
                                                  float*, RowIsa) const;
template void LinearQuantizer::recover_row<double>(const std::uint32_t*,
                                                   const double*, std::size_t,
                                                   double*, RowIsa) const;

}  // namespace eblcio
