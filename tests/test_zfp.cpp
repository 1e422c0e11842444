// ZFP compressor tests: fixed-accuracy bound guarantees, the
// compression-only OpenMP policy, rejection of non-finite input and of
// forged stream tables, and ZfpGolden, which freezes the embedded coder's
// bytes: the stream, its decode, and the decode of truncated, shortened
// and byte-flipped copies, across 1D-4D, f32/f64, four bounds and 1 or 4
// sub-streams.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
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
using test::spiky_field;

CompressOptions rel(double eb, int threads = 1) {
  CompressOptions o;
  o.mode = BoundMode::kValueRangeRel;
  o.error_bound = eb;
  o.threads = threads;
  return o;
}

class ZfpBound
    : public ::testing::TestWithParam<std::tuple<double, std::string>> {};

TEST_P(ZfpBound, GuaranteesValueRangeBound) {
  const auto [eb, which] = GetParam();
  Field f;
  if (which == "1d") f = noisy_field_1d();
  else if (which == "2d") f = smooth_field_2d();
  else if (which == "3d") f = smooth_field_3d();
  else f = double_field_4d();

  Compressor& c = compressor("ZFP");
  const Field r = c.decompress(c.compress(f, rel(eb)), 1);
  EXPECT_TRUE(check_value_range_bound(f, r, eb)) << which << " eb=" << eb;
  EXPECT_EQ(r.shape(), f.shape());
}

INSTANTIATE_TEST_SUITE_P(
    BoundSweep, ZfpBound,
    ::testing::Combine(::testing::Values(1e-1, 1e-2, 1e-3, 1e-4, 1e-5),
                       ::testing::Values("1d", "2d", "3d", "4d")));

TEST(Zfp, AllZeroBlocksAreOneBit) {
  NdArray<float> arr(Shape{64, 64, 64});  // all zeros
  const Field f("zeros", std::move(arr));
  Compressor& c = compressor("ZFP");
  const Bytes blob = c.compress(f, rel(1e-3));
  // 4096 blocks, ~1 bit each + header: far below one byte per block * 10.
  EXPECT_LT(blob.size(), 4096u);
  const Field r = c.decompress(blob, 1);
  for (std::size_t i = 0; i < r.num_elements(); ++i)
    EXPECT_EQ(r.as<float>()[i], 0.0f);
}

TEST(Zfp, SmoothFieldCompressesWell) {
  Compressor& c = compressor("ZFP");
  const Field f = smooth_field_3d(48);
  const Bytes blob = c.compress(f, rel(1e-2));
  // ~6.5 bits/value: the 2(d+1) guard planes below the tolerance are the
  // dominant cost on noisy-smooth data, as with the reference coder.
  EXPECT_GT(compression_ratio(f.size_bytes(), blob.size()), 4.0);
}

TEST(Zfp, ErrorTracksToleranceNotJustBelowBound) {
  // Fixed-accuracy mode should use the tolerance budget: at a loose bound
  // the observed max error should be within ~3 orders of magnitude of the
  // tolerance (not e.g. lossless).
  Compressor& c = compressor("ZFP");
  const Field f = smooth_field_3d(48);
  const Field r = c.decompress(c.compress(f, rel(1e-2)), 1);
  const auto st = compute_error_stats(f, r);
  EXPECT_GT(st.max_rel_error, 1e-6);
  EXPECT_LE(st.max_rel_error, 1e-2 * (1 + 1e-9));
}

TEST(Zfp, SpikyDataRespectsBound) {
  Compressor& c = compressor("ZFP");
  const Field f = spiky_field();
  for (double eb : {1e-2, 1e-4}) {
    const Field r = c.decompress(c.compress(f, rel(eb)), 1);
    EXPECT_TRUE(check_value_range_bound(f, r, eb));
  }
}

TEST(Zfp, ConstantFieldWithinBound) {
  Compressor& c = compressor("ZFP");
  const Field f = constant_field(10000, 13.5f);
  const Field r = c.decompress(c.compress(f, rel(1e-3)), 1);
  EXPECT_TRUE(check_value_range_bound(f, r, 1e-3));
}

TEST(Zfp, NonBlockAlignedDims) {
  NdArray<float> arr(Shape{9, 17, 6});
  for (std::size_t i = 0; i < arr.num_elements(); ++i)
    arr[i] = 0.01f * static_cast<float>((i * 53) % 211);
  const Field f("odd", std::move(arr));
  Compressor& c = compressor("ZFP");
  const Field r = c.decompress(c.compress(f, rel(1e-3)), 1);
  EXPECT_TRUE(check_value_range_bound(f, r, 1e-3));
}

TEST(Zfp, ParallelCompressionMatchesSerialOutputSizeClosely) {
  Compressor& c = compressor("ZFP");
  const Field f = smooth_field_3d(48);
  const auto serial = c.compress(f, rel(1e-3, 1));
  const auto parallel = c.compress(f, rel(1e-3, 8));
  // Same blocks, same planes — only sub-stream padding differs.
  EXPECT_LT(std::abs(static_cast<long>(serial.size()) -
                     static_cast<long>(parallel.size())),
            static_cast<long>(serial.size() / 10 + 256));
  // Both decode to in-bound reconstructions.
  EXPECT_TRUE(check_value_range_bound(f, c.decompress(parallel, 1), 1e-3));
}

TEST(Zfp, DecompressIgnoresThreadArgument) {
  // zfp 1.0's OpenMP policy: decompression is serial. The thread argument
  // must not change results.
  Compressor& c = compressor("ZFP");
  const Field f = smooth_field_3d();
  const Bytes blob = c.compress(f, rel(1e-3, 4));
  const Field a = c.decompress(blob, 1);
  const Field b = c.decompress(blob, 16);
  for (std::size_t i = 0; i < a.num_elements(); ++i)
    EXPECT_EQ(a.as<float>()[i], b.as<float>()[i]);
  EXPECT_FALSE(c.caps().parallel_decompress);
}

TEST(Zfp, RatioImprovesWithLooserBound) {
  Compressor& c = compressor("ZFP");
  const Field f = smooth_field_3d(48);
  std::size_t prev = 0;
  for (double eb : {1e-1, 1e-3, 1e-5}) {
    const std::size_t size = c.compress(f, rel(eb)).size();
    EXPECT_GE(size, prev);
    prev = size;
  }
}

TEST(Zfp, DoublePrecisionPath) {
  Compressor& c = compressor("ZFP");
  const Field f = double_field_4d();
  const Field r = c.decompress(c.compress(f, rel(1e-4)), 1);
  EXPECT_EQ(r.dtype(), DType::kFloat64);
  EXPECT_TRUE(check_value_range_bound(f, r, 1e-4));
}

TEST(Zfp, NonFiniteInputIsUnsupported) {
  Compressor& c = compressor("ZFP");
  const double kBad[] = {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()};
  for (double bad : kBad) {
    for (int threads : {1, 4}) {
      Field f = smooth_field_3d(16);
      f.as<float>()[1234] = static_cast<float>(bad);
      EXPECT_THROW(c.compress(f, rel(1e-3, threads)), Unsupported)
          << bad << " threads=" << threads;
      NdArray<double> arr(Shape{4, 8, 8, 8});
      arr[300] = bad;
      CompressOptions abs_opt = rel(1e-6, threads);
      abs_opt.mode = BoundMode::kAbsolute;
      EXPECT_THROW(c.compress(Field("f64", std::move(arr)), abs_opt),
                   Unsupported)
          << bad << " f64 threads=" << threads;
    }
  }
}

TEST(Zfp, ForgedChunkCountIsCorruptStream) {
  // A real 16^3 blob with its stream-table count patched to 2^32 - 1: the
  // decoder must reject the count before sizing a table for it.
  Compressor& c = compressor("ZFP");
  Bytes blob = c.compress(smooth_field_3d(16), rel(1e-3));
  ByteReader r(blob);
  (void)BlobHeader::decode(r);
  const std::size_t at = blob.size() - r.remaining().size();
  const std::uint32_t forged = 0xFFFFFFFFu;
  std::memcpy(blob.data() + at, &forged, sizeof forged);
  EXPECT_THROW(c.decompress(blob, 1), CorruptStream);
}

// --- ZfpGolden: the ZFP stream, frozen -------------------------------------
//
// Every (dims, dtype, bound, threads) cell below pins four FNV-1a hashes
// captured from the per-bit reference coder: the encoded blob, its decoded
// bytes, a digest of the decode outcomes of damaged copies of the blob
// (cut at 30/70/99%, and the last sub-stream shortened with its size entry
// patched so the decoder reads past-end zeros), and a digest of the decoded
// bytes after single-byte flips. Any coder change that moves one of them
// changes the stream or its decoder, not just its speed. Re-harvest (only
// for an intentional format revision) with
//   EBLCIO_DUMP_ZFP_GOLDEN=1 ./test_zfp --gtest_filter='ZfpGolden.*'

std::uint64_t fnv1a(std::span<const std::byte> data,
                    std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (std::byte b : data) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a_word(std::uint64_t h, std::uint64_t w) {
  return fnv1a(std::as_bytes(std::span<const std::uint64_t>(&w, 1)), h);
}

// Random walk with a zero run (empty blocks), a run of tiny values (blocks
// below the tolerance floor at loose bounds) and sparse spikes (a wide
// emax spread). Pure Rng arithmetic, no libm: hashes are host-independent.
template <typename T>
Field golden_field(const std::vector<std::size_t>& dims) {
  NdArray<T> arr(Shape{std::span<const std::size_t>(dims)});
  Rng rng(0x2f9ULL);
  const std::size_t n = arr.num_elements();
  double v = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    v = 0.9 * v + (rng.next_double() - 0.5);
    double x = v + 0.01 * static_cast<double>(i % 97);
    if (i < n / 10) x = 0.0;
    else if (i < n / 5) x *= 1e-9;
    else if (i % 211 == 0) x *= 1e4;
    arr[i] = static_cast<T>(x);
  }
  return Field("golden", std::move(arr));
}

// Decoded-bytes hash, or a marker for the structured failure it raised.
constexpr std::uint64_t kCorrupt = 0xC0;
constexpr std::uint64_t kOtherError = 0xE0;

std::uint64_t decode_outcome(std::span<const std::byte> blob) {
  try {
    return fnv1a(compressor("ZFP").decompress(blob, 1).bytes());
  } catch (const CorruptStream&) {
    return kCorrupt;
  } catch (const Error&) {
    return kOtherError;
  }
}

std::uint64_t truncated_digest(const Bytes& blob) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (double frac : {0.3, 0.7, 0.99}) {
    const auto cut = static_cast<std::size_t>(frac * blob.size());
    h = fnv1a_word(h, decode_outcome(std::span(blob).first(cut)));
  }
  // Shorten the last sub-stream and patch its size entry: the framing
  // stays valid and the bit reader runs into its past-end zeros.
  ByteReader r(blob);
  (void)BlobHeader::decode(r);
  const std::size_t table = blob.size() - r.remaining().size();
  const auto nchunks = r.read_pod<std::uint32_t>();
  std::size_t entry = table + 4 + 8 * (nchunks - 1);
  std::uint64_t last = 0;
  std::memcpy(&last, blob.data() + entry, 8);
  for (double frac : {0.3, 0.7, 0.99}) {
    const auto keep = static_cast<std::uint64_t>(frac * last);
    Bytes s(blob.begin(), blob.end() - static_cast<long>(last - keep));
    std::memcpy(s.data() + entry, &keep, 8);
    h = fnv1a_word(h, decode_outcome(s));
  }
  return h;
}

std::uint64_t flipped_digest(const Bytes& blob) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (double frac : {0.4, 0.55, 0.7, 0.85, 0.97}) {
    Bytes s = blob;
    s[static_cast<std::size_t>(frac * s.size())] ^= std::byte{0x5a};
    h = fnv1a_word(h, decode_outcome(s));
  }
  return h;
}

struct GoldenCase {
  const char* name;
  std::uint64_t blob, decoded, truncated, flipped;
};

constexpr GoldenCase kGolden[] = {
    {"1d_f32_rel1e-1_t1", 0x8fad056144358deeULL, 0x86c211ed48541fb0ULL,
     0x87e1c3dc84c09554ULL, 0xc3bce00db04bab17ULL},
    {"1d_f32_rel1e-1_t4", 0x2ad949a7eac38f36ULL, 0x86c211ed48541fb0ULL,
     0xb05c2036c599d5ccULL, 0x9bfd3a789bd72dfeULL},
    {"1d_f32_rel1e-3_t1", 0x69767ff43e9c3174ULL, 0xd35d538e5703559aULL,
     0x642b6a13a945a8e8ULL, 0x25be56cfaf13a46bULL},
    {"1d_f32_rel1e-3_t4", 0xb01461c179b0e839ULL, 0xd35d538e5703559aULL,
     0x602edc21a67a0c72ULL, 0xb138d22754adfec1ULL},
    {"1d_f32_rel1e-5_t1", 0x149ea2417610725dULL, 0xec69f78454fd1dc8ULL,
     0x50856f009bc2e14aULL, 0x42074a649d7049d0ULL},
    {"1d_f32_rel1e-5_t4", 0xc8ac659add94884bULL, 0xec69f78454fd1dc8ULL,
     0x64ffb014ff925696ULL, 0xc03784d70d3b0456ULL},
    {"1d_f32_abs0_t1", 0x27a08ea24894be0dULL, 0x2399447af9d44926ULL,
     0x49fa9fe46b9afbbfULL, 0x76c2e41fc3698a46ULL},
    {"1d_f32_abs0_t4", 0x79c755af1fbddff3ULL, 0x2399447af9d44926ULL,
     0xc5079a4f1a96ea75ULL, 0x9a656b16cf53088dULL},
    {"1d_f64_rel1e-1_t1", 0x8cd50929753dca32ULL, 0x42c6032d2118c568ULL,
     0x9fa96e2ab36c737cULL, 0x0146ebd784e3e09cULL},
    {"1d_f64_rel1e-1_t4", 0x39249741ca8d6902ULL, 0x42c6032d2118c568ULL,
     0x83c118b76d362bc6ULL, 0x5b87e22fa5b9bea4ULL},
    {"1d_f64_rel1e-3_t1", 0x098997725a506552ULL, 0x783490169f485db4ULL,
     0x9462469fada176ecULL, 0x0f91968015bcd947ULL},
    {"1d_f64_rel1e-3_t4", 0x72c249bb2b0b0627ULL, 0x783490169f485db4ULL,
     0x5f00486850439404ULL, 0x8e2cab495363f188ULL},
    {"1d_f64_rel1e-5_t1", 0xaf11a6a70fd5d99fULL, 0x1927294a174b2008ULL,
     0x9a60725dff53f761ULL, 0xb5772bb10d60a74dULL},
    {"1d_f64_rel1e-5_t4", 0x4744b966e4ca69a5ULL, 0x1927294a174b2008ULL,
     0x0c8649247040fd81ULL, 0x988717bf5da16ad6ULL},
    {"1d_f64_abs0_t1", 0xac2cdb403bfbf585ULL, 0xf16e715836a99504ULL,
     0x2048f86fc2136c97ULL, 0x0d3c77f4ad9dc896ULL},
    {"1d_f64_abs0_t4", 0x0f6b01cea8a4710cULL, 0xf16e715836a99504ULL,
     0x3b849fa9b248947fULL, 0xa86348066f696611ULL},
    {"2d_f32_rel1e-1_t1", 0x5a35e05ebdaf89f7ULL, 0x21f4d66775eec3deULL,
     0xc26ba86c5773df38ULL, 0xd50b7d77c01e282eULL},
    {"2d_f32_rel1e-1_t4", 0xe34e8f1f5460e9a4ULL, 0x21f4d66775eec3deULL,
     0x72dd325a7c8d0664ULL, 0x480425ff0ad90234ULL},
    {"2d_f32_rel1e-3_t1", 0x4ef82db4a6f61b18ULL, 0x0e7024a73dab8493ULL,
     0x3ecb8ae082751a0aULL, 0x4c356699a275d986ULL},
    {"2d_f32_rel1e-3_t4", 0x4ced1cc076a741e3ULL, 0x0e7024a73dab8493ULL,
     0xfbc3db085f8114f6ULL, 0xfb36e7fb11393d65ULL},
    {"2d_f32_rel1e-5_t1", 0x1018668261e4d194ULL, 0xcff755551def0117ULL,
     0xb00748679812f9d0ULL, 0x2427bcbc6c4c6f27ULL},
    {"2d_f32_rel1e-5_t4", 0x3dce2a7f95e36391ULL, 0xcff755551def0117ULL,
     0xeb7c810cf7967d5dULL, 0xe9a0b074555da99aULL},
    {"2d_f32_abs0_t1", 0xc475b11db1a06ad1ULL, 0x642a773ffb27ca0dULL,
     0x968ddfb82e208d42ULL, 0x946fb5f5e48acd28ULL},
    {"2d_f32_abs0_t4", 0x64aefe547823a81eULL, 0x642a773ffb27ca0dULL,
     0x0f1bfce6b9fe6ad2ULL, 0x8579de88cb09c168ULL},
    {"2d_f64_rel1e-1_t1", 0x7520412229feed9aULL, 0xcbe6710bd6b01350ULL,
     0x1095fdcbff913220ULL, 0xe41f15a90dce8a48ULL},
    {"2d_f64_rel1e-1_t4", 0x20e934138a0ed3b1ULL, 0xcbe6710bd6b01350ULL,
     0x60a0f28be6e79cfaULL, 0x34300d008f5146a6ULL},
    {"2d_f64_rel1e-3_t1", 0xb13e0e9d4d10f13cULL, 0xaa9387f0e48d8d6aULL,
     0x7f85d44e963e88c3ULL, 0x4c8dc63f6e2e4cbaULL},
    {"2d_f64_rel1e-3_t4", 0xe83be5929d9d9507ULL, 0xaa9387f0e48d8d6aULL,
     0xaf3aa9c8763a88c0ULL, 0xaa76a70b4bed0e0fULL},
    {"2d_f64_rel1e-5_t1", 0x8c747e542dffeaacULL, 0xb50d34d142ffc142ULL,
     0x2382e71007fc0bbaULL, 0xae8a6988ac531eadULL},
    {"2d_f64_rel1e-5_t4", 0xc1075e7824b72439ULL, 0xb50d34d142ffc142ULL,
     0x435f10e8443c93a4ULL, 0x034ebfda435c0657ULL},
    {"2d_f64_abs0_t1", 0x60c97dedb0e114aaULL, 0xc0c327fb4883ea7aULL,
     0x81711b019fa54f8eULL, 0xd31825e7d428ccf6ULL},
    {"2d_f64_abs0_t4", 0x987b8fcdab1a5201ULL, 0xc0c327fb4883ea7aULL,
     0x7db0e4a2d604286aULL, 0x8f43148e92fb40faULL},
    {"3d_f32_rel1e-1_t1", 0x5b42c50e090ead42ULL, 0x1dbefb7b3fa719b1ULL,
     0xd318bbc3f9237236ULL, 0x75073a2a8a7ab62cULL},
    {"3d_f32_rel1e-1_t4", 0x7abca036c7e4114cULL, 0x1dbefb7b3fa719b1ULL,
     0x1f7f1c46b500d7ccULL, 0x210a88c0a0445288ULL},
    {"3d_f32_rel1e-3_t1", 0xbd1ea3caf06ae9fdULL, 0xc4ce6a1b1206da4eULL,
     0x82a21dcaa85f5a61ULL, 0x9e8490a0e3af91cfULL},
    {"3d_f32_rel1e-3_t4", 0x158025fd9a3a005bULL, 0xc4ce6a1b1206da4eULL,
     0xc19eb087a1f9e039ULL, 0xd19e489d03ec3623ULL},
    {"3d_f32_rel1e-5_t1", 0xa73696a987b058aeULL, 0xdfb1bb363867fb40ULL,
     0xe09ea40e9ebe8b2cULL, 0x05b6e3a601eacfb1ULL},
    {"3d_f32_rel1e-5_t4", 0xeab114d5a1c5b379ULL, 0xdfb1bb363867fb40ULL,
     0x93a2b90ad8712de7ULL, 0xb196863f782a7b02ULL},
    {"3d_f32_abs0_t1", 0xf844c6c605edc6ccULL, 0x70522763fa106809ULL,
     0x6d42f99b252aaaa8ULL, 0x4fbdb09c61d2f4c0ULL},
    {"3d_f32_abs0_t4", 0x7cb69304fb369de9ULL, 0x70522763fa106809ULL,
     0x0d7932f0f204e453ULL, 0x3206fb05c522f03fULL},
    {"3d_f64_rel1e-1_t1", 0x15a86b29958c37aeULL, 0x6ee542972df0ca7aULL,
     0x310c4922f161277dULL, 0x6c8cd73a49c3176eULL},
    {"3d_f64_rel1e-1_t4", 0x74cd1258019180f8ULL, 0x6ee542972df0ca7aULL,
     0xf59efea99870d387ULL, 0x8ab399f5f0451219ULL},
    {"3d_f64_rel1e-3_t1", 0x41a6b8a8af05c7d2ULL, 0x4640966e43efb5f5ULL,
     0x45d1f859f0d13bceULL, 0x92a109f871ef9944ULL},
    {"3d_f64_rel1e-3_t4", 0xc94459a8893c3f7cULL, 0x4640966e43efb5f5ULL,
     0x10d28e4b6492e3a1ULL, 0x3f21ce17f634e5bbULL},
    {"3d_f64_rel1e-5_t1", 0x06625c5be7ec69b0ULL, 0x19e67531cdb1fb08ULL,
     0xacc1953c9a2429bcULL, 0x95f2d573985e13bcULL},
    {"3d_f64_rel1e-5_t4", 0x07eba0abb4b5b6ffULL, 0x19e67531cdb1fb08ULL,
     0xf19c84665c07fd7aULL, 0xa9c2bba468cd2fadULL},
    {"3d_f64_abs0_t1", 0xb86b10c5685ed33fULL, 0x3443923884d6ef1cULL,
     0xd55e9114d7744ff9ULL, 0x4db695b84e55a1ddULL},
    {"3d_f64_abs0_t4", 0x0300e99a297f5853ULL, 0x3443923884d6ef1cULL,
     0x548016ead21c296dULL, 0x35f5ec4d23f30a54ULL},
    {"4d_f32_rel1e-1_t1", 0xd902a366facde671ULL, 0x954ba56e026ce6cbULL,
     0x12e33c05f9fb9441ULL, 0x64386673de581177ULL},
    {"4d_f32_rel1e-1_t4", 0x925836ec975466aaULL, 0x954ba56e026ce6cbULL,
     0x5d488270c657da5cULL, 0x50c7acb7cd3a97b7ULL},
    {"4d_f32_rel1e-3_t1", 0x801dbd0356106230ULL, 0xb3f81e56652e3b70ULL,
     0xb45e240cdf96e0eaULL, 0xfc7f4a4c2e3a519dULL},
    {"4d_f32_rel1e-3_t4", 0x741d7c6a4a7917aaULL, 0xb3f81e56652e3b70ULL,
     0x62533ce365094e1eULL, 0x23a53d463d6e8515ULL},
    {"4d_f32_rel1e-5_t1", 0x36e74eb5259f4bdaULL, 0x19ae36ac8b6cbff4ULL,
     0x65fdc8baf7e3df0bULL, 0x65bf91e795c0d36bULL},
    {"4d_f32_rel1e-5_t4", 0xff17c6fe0262b943ULL, 0x19ae36ac8b6cbff4ULL,
     0xec58e3fcfd359b8bULL, 0x64ac9874ec90e54fULL},
    {"4d_f32_abs0_t1", 0xb7d25c3bc5e427a6ULL, 0x6630b9394413e6aaULL,
     0x1ac07506c7633679ULL, 0xf92d0113bad69422ULL},
    {"4d_f32_abs0_t4", 0x977afa90c7c2cec6ULL, 0x6630b9394413e6aaULL,
     0x012360024fbeebc0ULL, 0x1b8b533720ad46aaULL},
    {"4d_f64_rel1e-1_t1", 0xf8893a8e95eb5f86ULL, 0x6682f8658a92f4b0ULL,
     0x7b008d75ac38e5d8ULL, 0x2751f129687d8d08ULL},
    {"4d_f64_rel1e-1_t4", 0xb66360f266185cabULL, 0x6682f8658a92f4b0ULL,
     0xbde0b6c9f8d95145ULL, 0xb162e8c9b12be2bcULL},
    {"4d_f64_rel1e-3_t1", 0xc2f03c7a6255d539ULL, 0x8d7d295f5c82e9ceULL,
     0xa1ef88687bb546f7ULL, 0xa1c1df2506317ee2ULL},
    {"4d_f64_rel1e-3_t4", 0x48e62204457fbad7ULL, 0x8d7d295f5c82e9ceULL,
     0x3b971a0d529ebc71ULL, 0xcdafa72276cd307aULL},
    {"4d_f64_rel1e-5_t1", 0x71d52e6d5175ecb6ULL, 0xf662c5d6ee582108ULL,
     0x754535d2666937f3ULL, 0x367ce03e077f768bULL},
    {"4d_f64_rel1e-5_t4", 0xfd4343fb5f12255fULL, 0xf662c5d6ee582108ULL,
     0x4e5b6b99a366216fULL, 0xe61cc0143be0f0b3ULL},
    {"4d_f64_abs0_t1", 0xeab359196216584eULL, 0xd7941599cd6d0913ULL,
     0xfba7001bce15c991ULL, 0x74fabd6305a165afULL},
    {"4d_f64_abs0_t4", 0x147e61f4bc9f2646ULL, 0xd7941599cd6d0913ULL,
     0x8db1e25aa8f114c2ULL, 0xe9f0eaf6224b7551ULL},
};

TEST(ZfpGolden, StreamsDecodesAndDamageOutcomesArePinned) {
  const bool dump = std::getenv("EBLCIO_DUMP_ZFP_GOLDEN") != nullptr;
  const std::vector<std::vector<std::size_t>> shapes = {
      {1001}, {45, 37}, {19, 13, 22}, {3, 9, 10, 11}};
  struct Bound {
    const char* tag;
    BoundMode mode;
    double eb;
  };
  const Bound bounds[] = {{"rel1e-1", BoundMode::kValueRangeRel, 1e-1},
                          {"rel1e-3", BoundMode::kValueRangeRel, 1e-3},
                          {"rel1e-5", BoundMode::kValueRangeRel, 1e-5},
                          {"abs0", BoundMode::kAbsolute, 0.0}};
  std::size_t idx = 0;
  for (const auto& dims : shapes) {
    for (DType dtype : {DType::kFloat32, DType::kFloat64}) {
      const Field f = dtype == DType::kFloat32 ? golden_field<float>(dims)
                                               : golden_field<double>(dims);
      for (const Bound& b : bounds) {
        for (int threads : {1, 4}) {
          const std::string name =
              std::to_string(dims.size()) + "d_" +
              (dtype == DType::kFloat32 ? "f32_" : "f64_") + b.tag + "_t" +
              std::to_string(threads);
          CompressOptions o;
          o.mode = b.mode;
          o.error_bound = b.eb;
          o.threads = threads;
          const Bytes blob = compressor("ZFP").compress(f, o);
          const GoldenCase got{"", fnv1a(blob), decode_outcome(blob),
                               truncated_digest(blob), flipped_digest(blob)};
          if (dump) {
            std::printf("    {\"%s\", 0x%016llxULL, 0x%016llxULL,\n"
                        "     0x%016llxULL, 0x%016llxULL},\n",
                        name.c_str(),
                        static_cast<unsigned long long>(got.blob),
                        static_cast<unsigned long long>(got.decoded),
                        static_cast<unsigned long long>(got.truncated),
                        static_cast<unsigned long long>(got.flipped));
            continue;
          }
          ASSERT_LT(idx, std::size(kGolden));
          const GoldenCase& want = kGolden[idx++];
          ASSERT_EQ(name, want.name);
          EXPECT_EQ(got.blob, want.blob) << name << ": stream changed";
          EXPECT_EQ(got.decoded, want.decoded) << name << ": decode changed";
          EXPECT_EQ(got.truncated, want.truncated)
              << name << ": truncated-stream outcome changed";
          EXPECT_EQ(got.flipped, want.flipped)
              << name << ": flipped-byte outcome changed";
        }
      }
    }
  }
  if (!dump) EXPECT_EQ(idx, std::size(kGolden));
}

}  // namespace
}  // namespace eblcio
