// Composable codec framework (compressors/composed.h) test grid.
//
// Five suites:
//  * ComposedNames      — codec-name round-trip and registry routing;
//  * QuantizerTies      — the reciprocal-multiply half-integer-tie fix:
//                         LinearQuantizer's code choice is locked to the
//                         exact-divide DivLinearQuantizer at ties, scalar
//                         and row paths alike (ISSUE PR-8 satellite);
//  * LogQuantizerBound  — per-element bound property of the log quantizer;
//  * ComposedGrid       — differential round-trip of EVERY predictor x
//                         quantizer x encoder combination, rank 1D-4D,
//                         float and double, three error bounds, with
//                         decode determinism across thread counts and
//                         serial==parallel sweep parity;
//  * ComposedFuzz       — corrupt-stream handling: truncations, forged
//                         component ids, component/payload mismatches and
//                         mid-stage damage must raise CorruptStream, never
//                         return a partial Field.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "common/field.h"
#include "common/rng.h"
#include "compressors/backend.h"
#include "compressors/composed.h"
#include "compressors/compressor.h"
#include "compressors/quantizer.h"
#include "core/decision.h"
#include "core/sweep.h"

namespace eblcio {
namespace {

// Deterministic smooth-ish test field (decaying walk + ramp), pure Rng
// arithmetic — the same construction the reference-blob suite uses.
template <typename T>
Field make_field(const std::vector<std::size_t>& dims, std::uint64_t seed) {
  NdArray<T> arr(Shape{std::span<const std::size_t>(dims)});
  Rng rng(seed);
  double v = 0.0;
  const std::size_t d_last = dims.back();
  std::size_t i = 0;
  for (auto& x : arr.span()) {
    v = 0.96 * v + (rng.next_double() - 0.5);
    const double ramp = 0.05 * static_cast<double>(i % d_last);
    x = static_cast<T>(v + ramp);
    ++i;
  }
  return Field("grid", std::move(arr));
}

std::uint64_t fnv1a(std::span<const std::byte> data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::byte b : data) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename T>
void expect_within_bound(const Field& orig, const Field& back,
                         double abs_eb) {
  auto a = orig.as<T>().span();
  auto b = back.as<T>().span();
  ASSERT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double err = std::fabs(static_cast<double>(a[i]) -
                                 static_cast<double>(b[i]));
    worst = std::max(worst, err);
    ASSERT_LE(err, abs_eb) << "element " << i << " out of bound";
  }
  // Sanity: the bound is actually exercised, not trivially zero.
  EXPECT_GT(worst, 0.0);
}

// --- ComposedNames ---------------------------------------------------------

TEST(ComposedNames, NameRoundTripAllConfigs) {
  const auto grid = all_composed_configs();
  ASSERT_EQ(grid.size(),
            static_cast<std::size_t>(kNumPredictors) * kNumQuantizers *
                kNumEncoders);
  std::set<std::string> names;
  for (const auto& config : grid) {
    const std::string name = composed_codec_name(config);
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    const auto parsed = parse_composed_codec_name(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, config) << name;
    // The registry materializes the config on demand, under its own name.
    EXPECT_EQ(compressor(name).name(), name);
  }
}

TEST(ComposedNames, MalformedNamesRejected) {
  const char* bad[] = {
      "composed:",
      "composed:lorenzo1",
      "composed:lorenzo1+linear",
      "composed:lorenzo1+linear+huffman+extra",
      "composed:bogus+linear+huffman",
      "composed:lorenzo1+bogus+huffman",
      "composed:lorenzo1+linear+bogus",
      "decomposed:lorenzo1+linear+huffman",
      "lorenzo1+linear+huffman",
  };
  for (const char* name : bad) {
    EXPECT_FALSE(parse_composed_codec_name(name).has_value()) << name;
    EXPECT_THROW(compressor(name), InvalidArgument) << name;
  }
}

// --- QuantizerTies ---------------------------------------------------------

// Exact half-integer tie: diff/eb2 = 2.5 precisely. The reciprocal-multiply
// quotient 7.5 * (1/3.0) is NOT exactly 2.5, so without the tie fix the
// reciprocal path could round to 2 where the exact divide rounds (halves
// away from zero) to 3. This test locks the encoder-side code choice.
TEST(QuantizerTies, HalfIntegerTieMatchesExactDivide) {
  const double eb = 1.5;  // eb2 = 3.0, inv not exactly representable
  const LinearQuantizer recip(eb);
  const DivLinearQuantizer div(eb);

  double r1 = 0.0, r2 = 0.0;
  // +2.5 quotient: away-from-zero = 3 -> code radius + 3.
  EXPECT_EQ(recip.quantize<double>(7.5, 0.0, &r1), 32768u + 3u);
  EXPECT_EQ(div.quantize<double>(7.5, 0.0, &r2), 32768u + 3u);
  EXPECT_EQ(r1, r2);
  // -2.5 quotient: away-from-zero = -3 -> code radius - 3.
  EXPECT_EQ(recip.quantize<double>(-7.5, 0.0, &r1), 32768u - 3u);
  EXPECT_EQ(div.quantize<double>(-7.5, 0.0, &r2), 32768u - 3u);
  EXPECT_EQ(r1, r2);
}

// Sweep many constructed half-integer ties with an eb2 whose reciprocal is
// inexact; the reciprocal path must agree with the exact divide on every
// one (this is precisely the zone round_quotient_half_away re-derives).
TEST(QuantizerTies, ConstructedTieSweepAgrees) {
  const double eb = 0.3;  // eb2 = 0.6; 1/0.6 is inexact
  const LinearQuantizer recip(eb);
  const DivLinearQuantizer div(eb);
  int disagreements = 0;
  for (int k = -2000; k <= 2000; ++k) {
    // value whose quotient is as close to k + 0.5 as doubles allow
    const double value = (static_cast<double>(k) + 0.5) * (2.0 * eb);
    double r1 = 0.0, r2 = 0.0;
    const auto c1 = recip.quantize<double>(value, 0.0, &r1);
    const auto c2 = div.quantize<double>(value, 0.0, &r2);
    if (c1 != c2) ++disagreements;
    if (c1 && c1 == c2) EXPECT_EQ(r1, r2);
  }
  EXPECT_EQ(disagreements, 0);
}

// Random differential: over random (value, pred, eb) triples the
// production reciprocal quantizer and the textbook divide quantizer must
// emit identical codes and reconstructions.
TEST(QuantizerTies, RandomDifferentialRecipVsDivide) {
  Rng rng(0xd1ffULL);
  int checked = 0;
  for (int trial = 0; trial < 200000; ++trial) {
    const double eb = 1e-5 + rng.next_double() * 0.5;
    const LinearQuantizer recip(eb);
    const DivLinearQuantizer div(eb);
    const double pred = (rng.next_double() - 0.5) * 100.0;
    const double value = pred + (rng.next_double() - 0.5) * 64.0 * eb;
    double r1 = 0.0, r2 = 0.0;
    const auto c1 = recip.quantize<float>(value, pred, &r1);
    const auto c2 = div.quantize<float>(value, pred, &r2);
    ASSERT_EQ(c1, c2) << "value=" << value << " pred=" << pred
                      << " eb=" << eb;
    if (c1) {
      ASSERT_EQ(r1, r2);
      ++checked;
    }
  }
  EXPECT_GT(checked, 100000);  // the comparison actually exercised codes
}

// At the radius guard the two linear quantizers are not code-identical: the
// reciprocal quotient lands an ulp under radius - 1 where the exact divide
// lands on it, so kLinearRecip codes the value and kLinear stores it
// exactly. The two wire ids therefore keep separate implementations.
TEST(QuantizerTies, RadiusGuardSplitsRecipFromDivide) {
  const double eb = 0.4745943310917578;
  const double value = 31102.064893767256;
  const LinearQuantizer recip(eb);
  const DivLinearQuantizer div(eb);
  double r1 = 0.0, r2 = 0.0;
  EXPECT_EQ(recip.quantize<double>(value, 0.0, &r1), 65535u);
  EXPECT_EQ(div.quantize<double>(value, 0.0, &r2), 0u);
}

// --- Row kernels -----------------------------------------------------------

// Every compiled row-kernel entry this host runs: the default always, AVX2
// where the CPU has it.
std::vector<RowIsa> host_row_isas() {
  std::vector<RowIsa> isas{RowIsa::kDefault};
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) isas.push_back(RowIsa::kAvx2);
#endif
  return isas;
}

const char* isa_name(RowIsa isa) {
  return isa == RowIsa::kAvx2 ? "avx2" : "default";
}

template <typename T>
bool same_bits(T a, T b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

// One row of inputs and predictions.
template <typename T>
struct Row {
  std::vector<T> x;
  std::vector<double> pred;
};

// A row of n elements for bound eb: mostly in-range residuals, with every
// 7th residual at the radius guard (just under, on, or over radius - 1),
// every 11th input special (NaN, +-inf, a subnormal, -0), every 13th
// prediction non-finite, and, when `tie`, one exact or near half-integer
// quotient in the middle of the row.
template <typename T>
Row<T> make_row(std::size_t n, double eb, bool tie, Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double eb2 = 2.0 * eb;
  const double special[] = {std::nan(""),
                            kInf,
                            -kInf,
                            std::numeric_limits<T>::denorm_min() * 3,
                            -std::numeric_limits<T>::min() / 4,
                            -0.0};
  const double guard[] = {32766.0, 32766.5, 32767.0 - 1e-9, 32767.0,
                          32767.5};
  Row<T> row;
  row.x.resize(n);
  row.pred.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    // Predictions on a 1/8 grid keep exact ties T-representable.
    const double p = std::round((rng.next_double() - 0.5) * 800.0) / 8.0;
    double v = p + (rng.next_double() - 0.5) * 64.0 * eb2;
    if (k % 7 == 3) {
      const double q = guard[rng.next_below(5)];
      v = p + (rng.next_below(2) ? q : -q) * eb2;
    }
    if (k % 11 == 5) v = special[rng.next_below(6)];
    row.x[k] = static_cast<T>(v);
    row.pred[k] = k % 13 == 9 ? special[rng.next_below(3)] : p;
  }
  if (tie) {
    const std::size_t k = n / 2;
    const double m = static_cast<double>(rng.next_below(200)) - 100.0;
    row.pred[k] = 0.25 * static_cast<double>(rng.next_below(64));
    row.x[k] = static_cast<T>(row.pred[k] + (m + 0.5) * eb2);
  }
  return row;
}

// quantize_row and recover_row of `quant` (through `isa` when given)
// against per-element quantize<T>/recover: codes, reconstruction bits, the
// any-zero result, and every recovered nonzero-code element, which must
// also be the encoder's reconstruction bit for bit.
template <typename T, typename Q, typename... Isa>
::testing::AssertionResult row_matches_scalar(const Q& quant,
                                              const Row<T>& row,
                                              Isa... isa) {
  const std::size_t n = row.x.size();
  std::vector<std::uint32_t> codes(n, 0xdeadbeefu);
  std::vector<T> recon(n, T{-7});
  const bool any_zero = quant.template quantize_row<T>(
      row.x.data(), row.pred.data(), n, codes.data(), recon.data(), isa...);
  bool ref_zero = false;
  for (std::size_t k = 0; k < n; ++k) {
    const double v = static_cast<double>(row.x[k]);
    double r = v;
    const std::uint32_t code = quant.template quantize<T>(v, row.pred[k], &r);
    ref_zero |= code == 0;
    if (codes[k] != code || !same_bits(recon[k], static_cast<T>(r)))
      return ::testing::AssertionFailure()
             << "quantize_row diverges at k=" << k << " of n=" << n
             << ": x=" << v << " pred=" << row.pred[k] << " code "
             << codes[k] << " vs " << code;
  }
  if (any_zero != ref_zero)
    return ::testing::AssertionFailure()
           << "any-zero " << any_zero << " vs " << ref_zero << " (n=" << n
           << ")";
  std::vector<T> out(n);
  quant.template recover_row<T>(codes.data(), row.pred.data(), n,
                                out.data(), isa...);
  for (std::size_t k = 0; k < n; ++k) {
    if (codes[k] == 0) continue;
    const T ref = static_cast<T>(quant.recover(row.pred[k], codes[k]));
    if (!same_bits(out[k], ref))
      return ::testing::AssertionFailure()
             << "recover_row diverges at k=" << k << " of n=" << n;
    if (!same_bits(out[k], recon[k]))
      return ::testing::AssertionFailure()
             << "decode differs from the encoder's reconstruction at k="
             << k << " of n=" << n << ": x=" << row.x[k]
             << " pred=" << row.pred[k];
  }
  return ::testing::AssertionSuccess();
}

template <typename T>
void check_linear_rows(RowIsa isa) {
  SCOPED_TRACE(isa_name(isa));
  Rng rng(isa == RowIsa::kAvx2 ? 0xa2 : 0xd0);
  // 0.25: eb2 = 0.5 makes constructed ties exact; 0.3: 1/eb2 is inexact,
  // so ties land within an ulp; the others: a typical bound, the bound at
  // which the reciprocal and the divide split at the radius guard, a
  // subnormal bound (1/eb2 overflows) and eb = 0.
  for (const double eb : {0.25, 0.3}) {
    const LinearQuantizer quant(eb);
    for (std::size_t n = 1; n <= 2 * kRowChunk + 1; ++n)
      for (const bool tie : {false, true})
        ASSERT_TRUE(row_matches_scalar(quant, make_row<T>(n, eb, tie, rng),
                                       isa))
            << "eb=" << eb << " tie=" << tie;
  }
  for (const double eb : {1e-3, 0.4745943310917578, 1e-310, 0.0}) {
    const LinearQuantizer quant(eb);
    for (const std::size_t n : {std::size_t{1}, std::size_t{7}, kRowChunk,
                                kRowChunk + 1, 2 * kRowChunk + 1})
      for (const bool tie : {false, true})
        ASSERT_TRUE(row_matches_scalar(quant, make_row<T>(n, eb, tie, rng),
                                       isa))
            << "eb=" << eb << " tie=" << tie;
  }
  // The reciprocal's radius-guard split, as one element of a longer row.
  if constexpr (std::is_same_v<T, double>) {
    const LinearQuantizer quant(0.4745943310917578);
    Row<T> row = make_row<T>(40, 0.4745943310917578, false, rng);
    row.x[20] = 31102.064893767256;
    row.pred[20] = 0.0;
    ASSERT_TRUE(row_matches_scalar(quant, row, isa));
  }
  // Corrupt codes: recover_row must equal recover for every u32 code.
  const LinearQuantizer quant(1e-2);
  std::vector<std::uint32_t> codes(2 * kRowChunk + 1);
  std::vector<double> pred(codes.size());
  for (std::size_t k = 0; k < codes.size(); ++k) {
    codes[k] = static_cast<std::uint32_t>(rng.next_u64());
    pred[k] = rng.next_double() * 10.0;
  }
  codes[0] = 0;
  codes[1] = 0xffffffffu;
  codes[2] = 0x80000000u;
  std::vector<T> out(codes.size());
  quant.recover_row<T>(codes.data(), pred.data(), codes.size(), out.data(),
                       isa);
  for (std::size_t k = 0; k < codes.size(); ++k)
    ASSERT_TRUE(
        same_bits(out[k], static_cast<T>(quant.recover(pred[k], codes[k]))))
        << "code " << codes[k];
}

// The row entries must stay bit-identical to per-element quantize<T> and
// recover on every host entry: every row length up to two chunks and one,
// half-integer ties (the redo path), residuals at the radius guard,
// non-finite and subnormal data, and eb = 0.
TEST(QuantizerTies, RowPathMatchesScalarOnTies) {
  const std::vector<RowIsa> isas = host_row_isas();
  // The process runs the AVX2 entry wherever the CPU has it.
  EXPECT_EQ(selected_row_isa(), isas.back());
  for (const RowIsa isa : isas) {
    ASSERT_TRUE(row_isa_supported(isa));
    check_linear_rows<float>(isa);
    check_linear_rows<double>(isa);
  }
  // The default argument runs the selected entry.
  Rng rng(5);
  const LinearQuantizer quant(0.25);
  EXPECT_TRUE(row_matches_scalar(quant, make_row<float>(300, 0.25, true, rng)));
}

// The divide and log quantizers' rows are per-element loops over the same
// calls; they must agree with them too (the log quantizer leaves a code-0
// slot at 0 in recover_row, which the caller overwrites).
TEST(QuantizerTies, DivideAndLogRowsMatchPerElement) {
  Rng rng(0x10c);
  for (const double eb : {0.25, 1e-3, 0.0}) {
    const DivLinearQuantizer div(eb);
    const LogQuantizer log(eb, 400.0);
    for (const std::size_t n : {std::size_t{1}, std::size_t{16}, kRowChunk,
                                2 * kRowChunk + 1}) {
      EXPECT_TRUE(row_matches_scalar(div, make_row<float>(n, eb, true, rng)));
      EXPECT_TRUE(row_matches_scalar(div, make_row<double>(n, eb, true, rng)));
      EXPECT_TRUE(row_matches_scalar(log, make_row<float>(n, eb, true, rng)));
      EXPECT_TRUE(row_matches_scalar(log, make_row<double>(n, eb, true, rng)));
    }
  }
}

// --- LogQuantizerBound -----------------------------------------------------

TEST(LogQuantizerBound, PerElementBoundHolds) {
  Rng rng(0x10eULL);
  const double vmax = 50.0;
  for (double eb : {1e-1, 1e-3, 1e-5}) {
    const LogQuantizer quant(eb, vmax);
    int coded = 0;
    for (int trial = 0; trial < 20000; ++trial) {
      const double value = (rng.next_double() - 0.5) * 2.0 * vmax;
      const double pred = value + (rng.next_double() - 0.5) * 16.0 * eb;
      double recon = value;
      const auto code = quant.quantize<double>(value, pred, &recon);
      if (code == 0) continue;  // unpredictable: caller stores exactly
      ++coded;
      ASSERT_LE(std::fabs(recon - value), eb)
          << "value=" << value << " pred=" << pred << " eb=" << eb;
      // recover() must reproduce what quantize() promised.
      ASSERT_EQ(static_cast<double>(static_cast<double>(
                    quant.recover(pred, code))),
                recon);
    }
    EXPECT_GT(coded, 10000) << "eb=" << eb;
  }
}

// At eb = 0 a quantizer codes only an exact prediction, and what it
// reports is what the decoder restores: -0.0 predicted as +0.0 reads +0.0
// on both sides, and the log quantizer codes a double only when its log
// round trip gives it back (often it is an ulp off).
TEST(LogQuantizerBound, ZeroBoundReportsWhatTheDecoderRestores) {
  const auto check = [](const auto& quant, auto type) {
    using T = typename decltype(type)::type;
    double r = 1.0;
    const std::uint32_t code = quant.template quantize<T>(-0.0, 0.0, &r);
    ASSERT_NE(code, 0u);
    EXPECT_FALSE(std::signbit(r));
    EXPECT_FALSE(std::signbit(static_cast<T>(quant.recover(0.0, code))));
    EXPECT_EQ(quant.template quantize<T>(1.5, 1.25, &r), 0u);
  };
  const auto each_type = [&](const auto& quant) {
    check(quant, std::type_identity<float>{});
    check(quant, std::type_identity<double>{});
  };
  each_type(LinearQuantizer(0.0));
  each_type(DivLinearQuantizer(0.0));
  each_type(LogQuantizer(0.0, 400.0));

  const LogQuantizer log(0.0, 400.0);
  Rng rng(0x0eb);
  int coded = 0, refused = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const double v = (rng.next_double() - 0.5) * 200.0;
    double r = 0.0;
    const std::uint32_t code = log.quantize<double>(v, v, &r);
    if (code == 0) {
      ++refused;
      continue;
    }
    ++coded;
    ASSERT_EQ(r, v);
    ASSERT_EQ(log.recover(v, code), v);
  }
  EXPECT_GT(coded, 0);
  EXPECT_GT(refused, 0);
}

// --- ComposedGrid ----------------------------------------------------------

struct GridShape {
  const char* label;
  std::vector<std::size_t> dims;
};

const std::vector<GridShape>& grid_shapes() {
  static const std::vector<GridShape> kShapes = {
      {"1d", {400}},
      {"2d", {24, 20}},
      {"3d", {12, 10, 8}},
      {"4d", {6, 6, 5, 4}},
  };
  return kShapes;
}

// One case of the differential grid: compress, enforce the per-element
// bound against the header's absolute bound, and check the decoder is
// deterministic across thread counts.
template <typename T>
void check_grid_case(Compressor& comp, const GridShape& shape, double rel_eb) {
  SCOPED_TRACE(testing::Message() << comp.name() << " " << shape.label
                                  << " eb=" << rel_eb);
  const Field f = make_field<T>(shape.dims, 0x5eedULL);
  CompressOptions opt;
  opt.mode = BoundMode::kValueRangeRel;
  opt.error_bound = rel_eb;
  const Bytes blob = comp.compress(f, opt);

  const BlobHeader header = peek_header(blob);
  EXPECT_EQ(header.codec, comp.name());
  ASSERT_GT(header.abs_error_bound, 0.0);

  const Field back = comp.decompress(blob, 1);
  ASSERT_EQ(back.shape(), f.shape());
  ASSERT_EQ(back.dtype(), f.dtype());
  expect_within_bound<T>(f, back, header.abs_error_bound);

  // Decode determinism across --jobs: byte-identical reconstructions.
  const Field back3 = comp.decompress(blob, 3);
  ASSERT_EQ(back3.shape(), f.shape());
  EXPECT_TRUE(std::equal(back.bytes().begin(), back.bytes().end(),
                         back3.bytes().begin(), back3.bytes().end()))
      << "decode differs between 1 and 3 threads";
}

// Every predictor x quantizer x encoder combination, every rank 1D-4D,
// float and double, three relative bounds — per-element error within the
// header bound everywhere.
TEST(ComposedGrid, AllCombosRoundTripWithinBound) {
  for (const auto& config : all_composed_configs()) {
    Compressor& comp = compressor(composed_codec_name(config));
    for (const auto& shape : grid_shapes()) {
      for (double rel_eb : {1e-2, 1e-3, 1e-4}) {
        check_grid_case<float>(comp, shape, rel_eb);
        check_grid_case<double>(comp, shape, rel_eb);
      }
    }
  }
}

// A constant field under a relative bound has eb = 0 and must decode
// exactly through every configuration, including the log quantizer on
// doubles, whose log round trip of the constant is an ulp off.
TEST(ComposedGrid, ConstantFieldsDecodeExactly) {
  CompressOptions opt;
  opt.mode = BoundMode::kValueRangeRel;
  for (const auto& config : all_composed_configs()) {
    Compressor& comp = compressor(composed_codec_name(config));
    for (const double value : {57.123, -41.77}) {
      SCOPED_TRACE(comp.name() + " " + std::to_string(value));
      Field f("c", NdArray<double>(Shape{12, 10, 8}));
      for (double& x : f.as<double>().span()) x = value;
      const Field back = comp.decompress(comp.compress(f, opt));
      EXPECT_TRUE(std::ranges::equal(back.bytes(), f.bytes()));
    }
  }
}

// Chunked (multi-slab) layout round-trip: the quantizer parameter is
// computed whole-field, so chunked blobs must still honour the bound and
// decode identically at any thread count.
TEST(ComposedGrid, ChunkedRoundTrip) {
  const Field f = make_field<float>({32, 16, 12}, 0x5eedULL);
  for (const auto& config : all_composed_configs()) {
    // One chunked case per (predictor, quantizer) pair keeps runtime sane;
    // encoders are exercised exhaustively by the serial grid above.
    if (config.encoder != EncoderId::kHuffmanLz) continue;
    Compressor& comp = compressor(composed_codec_name(config));
    SCOPED_TRACE(comp.name());
    CompressOptions opt;
    opt.error_bound = 1e-3;
    opt.threads = 4;
    const Bytes blob = comp.compress(f, opt);
    const Field back4 = comp.decompress(blob, 4);
    ASSERT_EQ(back4.shape(), f.shape());
    expect_within_bound<float>(f, back4, peek_header(blob).abs_error_bound);
    const Field back1 = comp.decompress(blob, 1);
    EXPECT_TRUE(std::equal(back4.bytes().begin(), back4.bytes().end(),
                           back1.bytes().begin(), back1.bytes().end()));
  }
}

// Serial and parallel sweeps over the full grid must produce bit-identical
// blobs cell for cell (core/sweep.h's options.parallel toggle).
TEST(ComposedGrid, SweepSerialParallelParity) {
  const Field f = make_field<float>({16, 16, 16}, 0x5eedULL);
  auto eval = [&](const ComposedConfig& config, SweepCellContext&) {
    CompressOptions opt;
    opt.error_bound = 1e-3;
    return fnv1a(compressor(composed_codec_name(config)).compress(f, opt));
  };
  SweepOptions serial_opts;
  serial_opts.parallel = false;
  const auto serial = sweep_grid(all_composed_configs(), eval, serial_opts);
  SweepOptions parallel_opts;
  parallel_opts.parallel = true;
  const auto parallel = sweep_grid(all_composed_configs(), eval,
                                   parallel_opts);

  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  serial.rethrow_first_error();
  parallel.rethrow_first_error();
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    ASSERT_TRUE(serial.cells[i].ok());
    ASSERT_TRUE(parallel.cells[i].ok());
    EXPECT_EQ(*serial.cells[i].result, *parallel.cells[i].result)
        << composed_codec_name(serial.cells[i].cell);
  }
}

// advise_compression routes composed configurations as sweep cells: given
// >= 8 composed codec names it trials each (codec, bound) pair, streams
// progress in domain order, and ranks the candidates.
TEST(ComposedGrid, AdvisorRanksComposedConfigs) {
  const Field f = make_field<float>({24, 24, 24}, 0x5eedULL);
  AdvisorConstraints constraints;
  constraints.objective = Objective::kMaxRatio;  // time-independent score
  constraints.psnr_min_db = 20.0;
  constraints.error_bounds = {1e-2, 1e-3};
  constraints.codecs = {
      "composed:lorenzo1+linear-recip+huffman-lz",
      "composed:lorenzo1+linear+huffman",
      "composed:lorenzo1+log+huffman-lut",
      "composed:lorenzo2+linear-recip+huffman",
      "composed:lorenzo2+linear+lz",
      "composed:regression+linear-recip+huffman-lz",
      "composed:interp-cubic+linear-recip+huffman",
      "composed:interp-cubic+log+huffman-lz",
      "composed:interp-linear+linear+raw",
  };

  std::size_t calls = 0, last_done = 0;
  const auto report = advise_compression(
      f, constraints,
      [&](const AdvisorCandidate&, std::size_t done, std::size_t total) {
        // Streamed in domain order with monotone running progress.
        EXPECT_EQ(total, constraints.codecs.size() *
                             constraints.error_bounds.size());
        EXPECT_EQ(done, last_done + 1);
        last_done = done;
        ++calls;
      });
  EXPECT_EQ(calls,
            constraints.codecs.size() * constraints.error_bounds.size());
  ASSERT_EQ(report.candidates.size(), calls);
  // Ranked by descending score.
  for (std::size_t i = 1; i < report.candidates.size(); ++i)
    EXPECT_GE(report.candidates[i - 1].score, report.candidates[i].score);
  // A feasible recommendation exists and is one of the composed names.
  ASSERT_FALSE(report.recommendation.codec.empty());
  EXPECT_TRUE(report.recommendation.codec.starts_with("composed:"));
  EXPECT_TRUE(report.recommendation.feasible);
  // Serial execution reproduces the same ranking data exactly.
  AdvisorConstraints serial_constraints = constraints;
  serial_constraints.parallel = false;
  const auto serial_report = advise_compression(f, serial_constraints);
  ASSERT_EQ(serial_report.candidates.size(), report.candidates.size());
  for (std::size_t i = 0; i < report.candidates.size(); ++i) {
    EXPECT_EQ(serial_report.candidates[i].codec,
              report.candidates[i].codec);
    EXPECT_EQ(serial_report.candidates[i].error_bound,
              report.candidates[i].error_bound);
    EXPECT_EQ(serial_report.candidates[i].ratio,
              report.candidates[i].ratio);
    EXPECT_EQ(serial_report.candidates[i].psnr_db,
              report.candidates[i].psnr_db);
  }
}

// --- ComposedFuzz ----------------------------------------------------------

struct ComposedBlobMap {
  Bytes blob;
  std::size_t payload_off = 0;    // first byte of the chunk payload
  std::size_t code_blob_off = 0;  // first byte of the encoder blob (its tag)
  std::size_t ncodes_off = 0;     // the payload's u64 code count
};

// Builds a serial composed blob and locates the payload landmarks the
// fuzz cases flip bytes at.
ComposedBlobMap mapped_blob(const std::string& codec_name) {
  ComposedBlobMap m;
  const Field f = make_field<float>({16, 12, 10}, 0x5eedULL);
  CompressOptions opt;
  opt.error_bound = 1e-3;
  m.blob = compressor(codec_name).compress(f, opt);

  // Serial layout: [BlobHeader][u8 kLayoutSingle][u64 size][payload].
  Bytes header_bytes;
  peek_header(m.blob).encode(header_bytes);
  m.payload_off = header_bytes.size() + 1 + 8;

  // Payload: [12B component header][u64 ncodes][3 sized streams][code blob]
  // for the block family, [u64 ncodes][2 sized streams][code blob] for the
  // interp family — walk the sized streams to find the encoder blob.
  const bool interp = codec_name.find("interp") != std::string::npos;
  ByteReader r(std::span<const std::byte>(m.blob).subspan(m.payload_off));
  r.read_pod<std::uint8_t>();  // version
  r.read_pod<std::uint8_t>();  // predictor
  r.read_pod<std::uint8_t>();  // quantizer
  r.read_pod<std::uint8_t>();  // encoder
  r.read_pod<double>();        // quant_param
  m.ncodes_off = m.payload_off + r.pos();
  r.read_pod<std::uint64_t>();  // ncodes
  for (int i = 0; i < (interp ? 2 : 3); ++i) read_sized(r);
  m.code_blob_off = m.payload_off + r.pos();
  EXPECT_LT(m.code_blob_off, m.blob.size());
  return m;
}

void expect_corrupt(const Bytes& blob, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_THROW(decompress_any(blob, 1), CorruptStream);
  // Parallel decode paths must reject it identically.
  EXPECT_THROW(decompress_any(blob, 3), CorruptStream);
}

Bytes with_byte(const Bytes& blob, std::size_t off, std::uint8_t value) {
  Bytes mutated = blob;
  mutated[off] = static_cast<std::byte>(value);
  return mutated;
}

TEST(ComposedFuzz, TruncationsRaiseCorruptStream) {
  const auto m = mapped_blob("composed:lorenzo1+linear-recip+huffman");
  // Truncate inside the blob header, at the layout byte, inside the
  // component header, mid sized-streams, and inside the code blob.
  const std::size_t cuts[] = {m.payload_off - 9,      // inside the u64 size
                              m.payload_off,          // payload absent
                              m.payload_off + 6,      // mid component header
                              m.ncodes_off + 3,       // mid code count
                              m.code_blob_off - 1,    // code blob absent
                              m.code_blob_off + 2,    // mid code blob
                              m.blob.size() - 1};     // last byte missing
  for (std::size_t cut : cuts) {
    ASSERT_LT(cut, m.blob.size());
    Bytes truncated(m.blob.begin(),
                    m.blob.begin() + static_cast<std::ptrdiff_t>(cut));
    SCOPED_TRACE(testing::Message() << "cut at " << cut);
    EXPECT_THROW(decompress_any(truncated, 1), CorruptStream);
  }
  // Header-only truncation can't even name a codec.
  Bytes tiny(m.blob.begin(), m.blob.begin() + 3);
  EXPECT_THROW(decompress_any(tiny, 1), Error);
}

TEST(ComposedFuzz, ForgedComponentHeaderRaiseCorruptStream) {
  const auto m = mapped_blob("composed:lorenzo1+linear-recip+huffman");
  const std::size_t version_off = m.payload_off;
  const std::size_t pred_off = m.payload_off + 1;
  const std::size_t quant_off = m.payload_off + 2;
  const std::size_t enc_off = m.payload_off + 3;

  expect_corrupt(with_byte(m.blob, version_off, 0xFF), "bad version");
  expect_corrupt(with_byte(m.blob, pred_off, 200), "predictor out of range");
  expect_corrupt(with_byte(m.blob, quant_off, 77), "quantizer out of range");
  expect_corrupt(with_byte(m.blob, enc_off, 99), "encoder out of range");
  // Valid-but-different ids: the payload names a component triple that
  // contradicts the blob header's codec string.
  expect_corrupt(
      with_byte(m.blob, pred_off,
                static_cast<std::uint8_t>(PredictorId::kLorenzo2)),
      "forged valid predictor");
  expect_corrupt(with_byte(m.blob, quant_off,
                           static_cast<std::uint8_t>(QuantizerId::kLog)),
                 "forged valid quantizer");
  expect_corrupt(with_byte(m.blob, enc_off,
                           static_cast<std::uint8_t>(EncoderId::kRaw)),
                 "forged valid encoder");
  // Non-finite quantizer parameter (a NaN double's top byte).
  Bytes nan_param = m.blob;
  const double nan = std::nan("");
  std::memcpy(nan_param.data() + m.payload_off + 4, &nan, sizeof nan);
  expect_corrupt(nan_param, "non-finite quant param");
}

TEST(ComposedFuzz, EncoderPayloadMismatchRaisesCorruptStream) {
  // The component header says "huffman" but the code blob's wire tag says
  // otherwise: caught before any entropy decode runs.
  const auto m = mapped_blob("composed:lorenzo1+linear-recip+huffman");
  expect_corrupt(with_byte(m.blob, m.code_blob_off, 0xEE),
                 "invalid backend tag");
  expect_corrupt(with_byte(m.blob, m.code_blob_off, kBackendRaw),
                 "valid but mismatched backend tag");
}

TEST(ComposedFuzz, ForgedCodeCountRaisesCorruptStream) {
  const auto m = mapped_blob("composed:lorenzo1+linear-recip+huffman");
  // Block payloads carry one code per element; +1 must be rejected.
  std::uint64_t ncodes = 0;
  std::memcpy(&ncodes, m.blob.data() + m.ncodes_off, sizeof ncodes);
  Bytes forged = m.blob;
  const std::uint64_t bumped = ncodes + 1;
  std::memcpy(forged.data() + m.ncodes_off, &bumped, sizeof bumped);
  expect_corrupt(forged, "code count mismatch");
}

TEST(ComposedFuzz, InterpFamilyFuzz) {
  const auto m = mapped_blob("composed:interp-cubic+log+huffman-lz");
  expect_corrupt(with_byte(m.blob, m.payload_off, 0xFF), "bad version");
  expect_corrupt(
      with_byte(m.blob, m.payload_off + 1,
                static_cast<std::uint8_t>(PredictorId::kInterpLinear)),
      "forged interp predictor");
  expect_corrupt(with_byte(m.blob, m.code_blob_off, 0xEE),
                 "invalid backend tag");
  for (std::size_t cut :
       {m.payload_off + 6, m.code_blob_off + 1, m.blob.size() - 1}) {
    Bytes truncated(m.blob.begin(),
                    m.blob.begin() + static_cast<std::ptrdiff_t>(cut));
    SCOPED_TRACE(testing::Message() << "cut at " << cut);
    EXPECT_THROW(decompress_any(truncated, 1), CorruptStream);
  }
}

}  // namespace
}  // namespace eblcio
