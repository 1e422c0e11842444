// Quantization components shared by the SZ-family compressors and the
// composable codec framework (compressors/composed.h):
//
//  * LinearQuantizer     — reciprocal-multiply linear quantizer (the SZ2/
//                          SZ3/QoZ production path), tie-corrected so its
//                          code choices are bit-identical to an exact
//                          division at half-integer ties;
//  * DivLinearQuantizer  — the same error-controlled linear quantizer with
//                          a correctly-rounded divide on the hot path (the
//                          textbook formulation; differential referee for
//                          LinearQuantizer);
//  * LogQuantizer        — sign-symmetric log-domain quantizer: residuals
//                          quantized on a uniform grid over
//                          t(x) = sgn(x)·log1p(|x|), validated against the
//                          absolute bound in the original domain.
//
// All three share one contract, which is what makes them pluggable behind
// the block/interp prediction kernels: prediction residuals map to integer
// codes on a 2*eb grid; residuals outside the code capacity (or failing
// the round-trip check) are flagged "unpredictable" (code 0) and stored
// exactly by the caller.
//
// The round-trip check is performed against the value *after casting to the
// field's storage type*: the decompressed field holds T, and for bounds
// near T's precision the cast itself would otherwise push the error past
// the bound.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace eblcio {

// Magic constant for the add/sub round-to-nearest-even snap: 1.5 * 2^52.
inline constexpr double kRoundMagic = 6755399441055744.0;

// Branch-free round-to-nearest with halves away from zero — bit-exact with
// std::llround for |x| < 2^51, but inlineable and auto-vectorizable: no
// libm call, and both fixups compile to selects. The magic add/sub snaps x
// to the nearest-even integer exactly; d = x - y is then exact, so the
// only inputs nearest-even and llround disagree on — exact .5 ties — are
// detected and bumped away from zero.
inline double round_half_away(double x) {
  const double y = (x + kRoundMagic) - kRoundMagic;
  const double d = x - y;
  const double up = (d == 0.5) & (x > 0.0) ? 1.0 : 0.0;
  const double dn = (d == -0.5) & (x < 0.0) ? 1.0 : 0.0;
  return (y + up) - dn;
}

// Half-integer tie zone test for a reciprocal-multiply quotient. d is the
// distance from qf to its nearest-even snap (|d| <= 0.5); the zone is
// |qf| within 2^-48·max(1,|qf|) of a half-integer — orders of magnitude
// wider than the <= 2-ulp error of a reciprocal multiply, yet still
// vanishingly rare on real residual streams.
inline bool near_half_tie(double qf, double d) {
  return std::fabs(std::fabs(d) - 0.5) <=
         0x1p-48 * std::max(1.0, std::fabs(qf));
}

// Rounds the quotient diff/eb2 given its reciprocal-multiply approximation
// qf = diff * (1/eb2), halves away from zero — and, unlike a plain
// round_half_away(qf), always yields the SAME integer the correctly-
// rounded division would: inside the (rare) tie zone, where the <= 2-ulp
// reciprocal error is the difference between rounding up and down, the
// quotient is recomputed with an exact divide and that value decides.
// Outside the zone the nearest-even snap is already the right integer.
// This is the fix for the documented reciprocal-multiply ulp edge case:
// every quantizer that rounds a reciprocal-multiply quotient routes
// through here, so composed and legacy paths emit the same code at
// half-integer ties (regression-locked in tests/test_composed.cpp).
inline double round_quotient_half_away(double qf, double diff, double eb2) {
  const double y = (qf + kRoundMagic) - kRoundMagic;
  const double d = qf - y;
  if (near_half_tie(qf, d)) [[unlikely]]
    return round_half_away(diff / eb2);
  return y;
}

// quantize_row's contract as a per-element loop over quantize<T>: codes[k]
// and recon[k] for x[k] predicted by pred[k] (recon[k] = x[k] where the
// code is 0); returns whether any code is 0. The row path of the divide
// and log quantizers, and LinearQuantizer's fallback for the rows its
// kernel does not settle.
template <typename T, typename Q>
bool quantize_each(const Q& quant, const T* x, const double* pred,
                   std::size_t n, std::uint32_t* codes, T* recon) {
  bool any_zero = false;
  for (std::size_t k = 0; k < n; ++k) {
    const double v = static_cast<double>(x[k]);
    double r = v;
    codes[k] = quant.template quantize<T>(v, pred[k], &r);
    recon[k] = static_cast<T>(r);
    any_zero |= codes[k] == 0;
  }
  return any_zero;
}

// The compiled entries of LinearQuantizer's row kernels (quantizer.cpp):
// the same source built for the build's baseline target (kDefault) and for
// AVX2 without FMA (kAvx2). Every entry emits the same bits; the library
// compiles with -ffp-contract=off, so no entry fuses a multiply-add.
enum class RowIsa : std::uint8_t { kDefault, kAvx2 };

// The row length the kernels work on at a time: LinearQuantizer's entries
// split longer rows into chunks of it, and the interpolation engine hands
// out rows of at most this many targets.
inline constexpr std::size_t kRowChunk = 256;

// Whether this CPU runs `isa`'s entry (kDefault always).
bool row_isa_supported(RowIsa isa);

// The entry the row kernels run unless told otherwise: kAvx2 when the CPU
// supports it, else kDefault. Chosen on the first call, fixed after.
inline RowIsa selected_row_isa() {
  static const RowIsa isa =
      row_isa_supported(RowIsa::kAvx2) ? RowIsa::kAvx2 : RowIsa::kDefault;
  return isa;
}

class LinearQuantizer {
 public:
  // `abs_eb` is the absolute per-element error bound; `radius` gives code
  // capacity 2*radius (SZ uses 32768 by default -> 65536-entry alphabet).
  explicit LinearQuantizer(double abs_eb, std::uint32_t radius = 32768)
      : eb_(abs_eb),
        eb2_(2.0 * abs_eb),
        inv_eb2_(eb2_ > 0.0 ? 1.0 / eb2_ : 0.0),
        radius_(radius) {}

  std::uint32_t radius() const { return radius_; }
  // Alphabet size for the entropy stage: code 0 = unpredictable.
  std::uint32_t alphabet_size() const { return 2 * radius_ + 1; }
  double abs_eb() const { return eb_; }

  // Quantizes `value` against `pred` for a field stored as T. On success
  // returns a nonzero code and sets *recon to the exact value the
  // decompressor will materialize (T-cast, then widened); guaranteed
  // |*recon - value| <= eb. Returns 0 if unquantizable; the caller stores
  // the value exactly.
  template <typename T>
  std::uint32_t quantize(double value, double pred, double* recon) const {
    const double diff = value - pred;
    if (eb2_ <= 0.0) {
      // Degenerate bound (constant field under a relative bound): only an
      // exact prediction is codable. *recon is what the decoder restores,
      // recover(pred, radius) = pred + 0, which differs from `value` only
      // in the sign of a zero (-0.0 predicted as +0.0 comes back +0.0).
      if (diff == 0.0) {
        *recon = static_cast<double>(static_cast<T>(recover(pred, radius_)));
        return radius_;
      }
      return 0;
    }
    // Reciprocal multiply instead of a divide: ~15 cycles off the
    // prediction-feedback dependency chain. The (at most ~2-ulp)
    // difference in qf could only shift the chosen q where qf sits within
    // an ulp of a half-integer — and round_quotient_half_away detects
    // exactly that zone and re-derives the quotient with an exact divide,
    // so the emitted code always matches the division semantics. Decoding
    // is unaffected: recover() never uses the reciprocal.
    const double qf = diff * inv_eb2_;
    if (!(std::fabs(qf) < static_cast<double>(radius_) - 1)) return 0;
    // qd is an exact integer below 2^17, so using it directly (instead of
    // an int64 round-trip) in the reconstruction is bit-identical — and
    // keeps two conversions off the prediction-feedback dependency chain
    // that serializes the Lorenzo sweep; the integer cast happens once,
    // for the emitted code, off that chain.
    const double qd = round_quotient_half_away(qf, diff, eb2_);
    const T cast = static_cast<T>(pred + qd * eb2_);
    if (std::fabs(static_cast<double>(cast) - value) > eb_) return 0;
    *recon = static_cast<double>(cast);
    return static_cast<std::uint32_t>(static_cast<std::int64_t>(qd) +
                                      static_cast<std::int64_t>(radius_));
  }

  // Row kernels over a prediction buffer: element k of a row is x[k],
  // predicted by pred[k]. quantize_row writes codes[k] and recon[k]
  // exactly as quantize<T>(x[k], pred[k], ...) would, with recon[k] =
  // x[k] in a code-0 slot (the value the decoder's unpredictable path
  // restores), and returns whether any code is 0, so the caller scans for
  // its unpredictable values only then. recover_row writes out[k] =
  // static_cast<T>(recover(pred[k], codes[k])) for every k, code 0
  // included: a placeholder the caller overwrites from its unpredictable
  // stream. The buffers of one call must not overlap.
  //
  // Both are compiled twice in quantizer.cpp, once per RowIsa entry; `isa`
  // picks one (it must be supported; the tests run each). The entry
  // quantizes a row in chunks of kRowChunk with two loops per chunk: an
  // all-double pass (quotient, range guard, nearest-even snap, half-tie
  // flag) and a narrowing pass (T cast, bound check, code and recon
  // stores). The AVX2 entry vectorizes both passes at -O3; the default
  // entry's narrowing pass stays scalar on SSE2 targets. A row whose
  // quotient grazes a half-integer tie, or a degenerate bound, is redone
  // element by element through quantize<T>, so the row path never emits a
  // bit the scalar path would not.
  template <typename T>
  bool quantize_row(const T* x, const double* pred, std::size_t n,
                    std::uint32_t* codes, T* recon,
                    RowIsa isa = selected_row_isa()) const;
  template <typename T>
  void recover_row(const std::uint32_t* codes, const double* pred,
                   std::size_t n, T* out,
                   RowIsa isa = selected_row_isa()) const;

  // Inverse mapping for a nonzero code; the caller casts the result to T
  // and must track the cast value in its reconstruction state (mirroring
  // what quantize() verified).
  double recover(double pred, std::uint32_t code) const {
    const auto q = static_cast<std::int64_t>(code) -
                   static_cast<std::int64_t>(radius_);
    return pred + static_cast<double>(q) * eb2_;
  }

 private:
  double eb_;
  double eb2_;
  double inv_eb2_;
  std::uint32_t radius_;
};

// The same error-controlled linear quantizer with a correctly-rounded
// divide on the hot path — the textbook formulation of the SZ quantizer.
// With LinearQuantizer's half-tie correction the two emit identical codes
// on every input whose quotient is not within an ulp of the radius guard,
// which makes this the differential referee for the production reciprocal
// path (asserted over random fields in tests/test_composed.cpp).
class DivLinearQuantizer {
 public:
  explicit DivLinearQuantizer(double abs_eb, std::uint32_t radius = 32768)
      : eb_(abs_eb), eb2_(2.0 * abs_eb), radius_(radius) {}

  std::uint32_t radius() const { return radius_; }
  std::uint32_t alphabet_size() const { return 2 * radius_ + 1; }
  double abs_eb() const { return eb_; }

  template <typename T>
  std::uint32_t quantize(double value, double pred, double* recon) const {
    const double diff = value - pred;
    if (eb2_ <= 0.0) {  // as LinearQuantizer's degenerate bound
      if (diff == 0.0) {
        *recon = static_cast<double>(static_cast<T>(recover(pred, radius_)));
        return radius_;
      }
      return 0;
    }
    const double qf = diff / eb2_;
    if (!(std::fabs(qf) < static_cast<double>(radius_) - 1)) return 0;
    const auto q = static_cast<std::int64_t>(round_half_away(qf));
    const T cast = static_cast<T>(pred + static_cast<double>(q) * eb2_);
    if (std::fabs(static_cast<double>(cast) - value) > eb_) return 0;
    *recon = static_cast<double>(cast);
    return static_cast<std::uint32_t>(q + static_cast<std::int64_t>(radius_));
  }

  // The row-kernel signatures as per-element loops.
  template <typename T>
  bool quantize_row(const T* x, const double* pred, std::size_t n,
                    std::uint32_t* codes, T* recon) const {
    return quantize_each(*this, x, pred, n, codes, recon);
  }
  template <typename T>
  void recover_row(const std::uint32_t* codes, const double* pred,
                   std::size_t n, T* out) const {
    for (std::size_t k = 0; k < n; ++k)
      out[k] = static_cast<T>(recover(pred[k], codes[k]));
  }

  double recover(double pred, std::uint32_t code) const {
    const auto q = static_cast<std::int64_t>(code) -
                   static_cast<std::int64_t>(radius_);
    return pred + static_cast<double>(q) * eb2_;
  }

 private:
  double eb_;
  double eb2_;
  std::uint32_t radius_;
};

// Sign-symmetric log-domain quantizer: residuals are quantized on a
// uniform grid over t(x) = sgn(x)·log1p(|x|) (a monotone bijection of the
// whole real line, so negative and zero values need no special casing).
// The t-domain half-step is log1p(abs_eb / (1 + vmax)) — by the mean value
// theorem a t-domain error of that size maps to at most ~abs_eb in the
// original domain for |x| <= vmax — and every emitted code is still
// validated against the absolute bound on the original-domain T-cast, so
// the per-element guarantee never rests on the analytic argument alone.
// `vmax` (the field's peak magnitude) travels in the composed payload as
// the quantizer parameter, making blobs self-describing.
class LogQuantizer {
 public:
  LogQuantizer(double abs_eb, double vmax, std::uint32_t radius = 32768)
      : eb_(abs_eb), radius_(radius) {
    const double half =
        abs_eb > 0.0 ? std::log1p(abs_eb / (1.0 + std::fabs(vmax))) : 0.0;
    eb2t_ = 2.0 * half;
  }

  std::uint32_t radius() const { return radius_; }
  std::uint32_t alphabet_size() const { return 2 * radius_ + 1; }
  double abs_eb() const { return eb_; }

  template <typename T>
  std::uint32_t quantize(double value, double pred, double* recon) const {
    if (eb2t_ <= 0.0) {
      // Degenerate bound: an exact prediction is codable only when the
      // decoder gives it back. recover(pred, radius) = inv(fwd(pred)) is
      // often an ulp off a double; *recon is that decoded value, which
      // differs from `value` at most in the sign of a zero.
      if (value - pred == 0.0) {
        const T decoded = static_cast<T>(recover(pred, radius_));
        if (static_cast<double>(decoded) == value) {
          *recon = static_cast<double>(decoded);
          return radius_;
        }
      }
      return 0;
    }
    const double tp = fwd(pred);
    const double qf = (fwd(value) - tp) / eb2t_;
    if (!(std::fabs(qf) < static_cast<double>(radius_) - 1)) return 0;
    const auto q = static_cast<std::int64_t>(round_half_away(qf));
    const T cast =
        static_cast<T>(inv(tp + static_cast<double>(q) * eb2t_));
    // Negated comparison so a NaN cast (from non-finite inputs) also
    // falls to the unpredictable path.
    if (!(std::fabs(static_cast<double>(cast) - value) <= eb_)) return 0;
    *recon = static_cast<double>(cast);
    return static_cast<std::uint32_t>(q + static_cast<std::int64_t>(radius_));
  }

  // The row-kernel signatures as per-element loops.
  template <typename T>
  bool quantize_row(const T* x, const double* pred, std::size_t n,
                    std::uint32_t* codes, T* recon) const {
    return quantize_each(*this, x, pred, n, codes, recon);
  }
  template <typename T>
  void recover_row(const std::uint32_t* codes, const double* pred,
                   std::size_t n, T* out) const {
    // Code-0 slots are overwritten by the caller from the unpredictable
    // stream; skip them so the placeholder stays a benign constant rather
    // than an exp of an extreme argument.
    for (std::size_t k = 0; k < n; ++k)
      out[k] = codes[k] ? static_cast<T>(recover(pred[k], codes[k])) : T{0};
  }

  double recover(double pred, std::uint32_t code) const {
    const auto q = static_cast<std::int64_t>(code) -
                   static_cast<std::int64_t>(radius_);
    return inv(fwd(pred) + static_cast<double>(q) * eb2t_);
  }

 private:
  static double fwd(double x) {
    return x < 0.0 ? -std::log1p(-x) : std::log1p(x);
  }
  static double inv(double t) {
    // |t| <= 60 keeps expm1 finite (~1.1e26, within float range) so the
    // caller's T-cast stays defined even for corrupt code streams; values
    // whose transform exceeds the clamp fail quantize()'s original-domain
    // check and are stored exactly instead.
    const double c = std::clamp(t, -60.0, 60.0);
    return c < 0.0 ? -std::expm1(-c) : std::expm1(c);
  }

  double eb_;
  double eb2t_ = 0.0;
  std::uint32_t radius_;
};

}  // namespace eblcio
