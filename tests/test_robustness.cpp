// Failure-injection and robustness properties across the whole codec and
// container surface: truncated blobs, bit flips, determinism, and
// idempotence. A decoder facing corrupt input must either throw an
// eblcio::Error or return a correctly-shaped field — never crash or hang.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <utility>

#include "codec/lz77.h"
#include "common/rng.h"
#include "compressors/backend.h"
#include "compressors/chunking.h"
#include "compressors/compressor.h"
#include "io/io_tool.h"
#include "metrics/error_stats.h"
#include "test_util.h"

namespace eblcio {
namespace {

using test::smooth_field_2d;
using test::smooth_field_3d;

CompressOptions options_for(const std::string& codec) {
  CompressOptions o;
  if (compressor(codec).caps().lossless) {
    o.mode = BoundMode::kLossless;
  } else {
    o.mode = BoundMode::kValueRangeRel;
    o.error_bound = 1e-3;
  }
  return o;
}

class CodecRobustness : public ::testing::TestWithParam<std::string> {};

TEST_P(CodecRobustness, TruncationNeverCrashes) {
  Compressor& c = compressor(GetParam());
  const Field f = smooth_field_2d(48);
  const Bytes blob = c.compress(f, options_for(GetParam()));

  Rng rng(1234);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t cut = rng.next_below(blob.size());
    Bytes truncated(blob.begin(), blob.begin() + cut);
    try {
      const Field r = c.decompress(truncated, 1);
      // If decoding "succeeded", the shape must still be coherent.
      EXPECT_LE(r.num_elements(), f.num_elements());
    } catch (const Error&) {
      // Expected: structured failure.
    }
  }
}

TEST_P(CodecRobustness, BitFlipsNeverCrash) {
  Compressor& c = compressor(GetParam());
  const Field f = smooth_field_2d(48);
  const Bytes blob = c.compress(f, options_for(GetParam()));

  Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    Bytes mutated = blob;
    // Flip a byte somewhere after the codec name so dispatch still works.
    const std::size_t pos = 16 + rng.next_below(mutated.size() - 16);
    mutated[pos] ^= static_cast<std::byte>(1u << rng.next_below(8));
    try {
      const Field r = c.decompress(mutated, 1);
      (void)r;
    } catch (const Error&) {
    }
  }
}

TEST_P(CodecRobustness, CompressionIsDeterministic) {
  Compressor& c = compressor(GetParam());
  const Field f = smooth_field_3d(24);
  const auto opt = options_for(GetParam());
  const Bytes a = c.compress(f, opt);
  const Bytes b = c.compress(f, opt);
  EXPECT_EQ(a, b);
}

TEST_P(CodecRobustness, DecompressOfDecompressedIsStable) {
  // Idempotence on the reconstruction: compressing the reconstruction at
  // the same bound and decompressing again must stay within 2x the bound
  // of the original (and exactly the bound of the first reconstruction).
  Compressor& c = compressor(GetParam());
  if (c.caps().lossless) GTEST_SKIP();
  const Field f = smooth_field_3d(24);
  const auto opt = options_for(GetParam());
  const Field r1 = c.decompress(c.compress(f, opt), 1);
  const Field r2 = c.decompress(c.compress(r1, opt), 1);
  const auto st = compute_error_stats(f, r2);
  EXPECT_LE(st.max_abs_error,
            2.0 * 1e-3 * f.value_range().span() * (1 + 1e-6));
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, CodecRobustness,
    ::testing::Values("SZ2", "SZ3", "ZFP", "QoZ", "SZx", "zstd", "C-Blosc2",
                      "fpzip", "FPC"));

// --- forged blob lengths and dims -----------------------------------------

// Overwrites the u64 at `at` of `blob` with `value`.
Bytes forge_u64(Bytes blob, std::size_t at, std::uint64_t value) {
  std::memcpy(blob.data() + at, &value, 8);
  return blob;
}

class ForgedBlobDims : public ::testing::TestWithParam<std::string> {};

TEST_P(ForgedBlobDims, ElementCountOverflowIsCorruptStream) {
  // dims[2] of a 16^3 f32 blob forged so the element count wraps to 4096:
  // ZFP indexed past its buffer, SZ3 shifted by 64 and SZx returned a
  // 4096-element field before the header checked the count.
  Compressor& c = compressor(GetParam());
  const Bytes blob = c.compress(smooth_field_3d(16), options_for(GetParam()));
  std::uint32_t name_len = 0;
  std::memcpy(&name_len, blob.data() + 4, 4);
  const std::size_t dims_at = 4 + 4 + name_len + 2;  // magic, codec, dtype, nd
  for (std::uint64_t forged : {0xFF00000000000010ULL, 0x0ULL}) {
    const Bytes bad = forge_u64(blob, dims_at + 16, forged);
    EXPECT_THROW(c.decompress(bad, 1), CorruptStream) << forged;
    EXPECT_THROW(decompress_any(bad), CorruptStream) << forged;
  }
}

INSTANTIATE_TEST_SUITE_P(AllEblcs, ForgedBlobDims,
                         ::testing::Values("SZ2", "SZ3", "ZFP", "QoZ", "SZx"));

TEST(ForgedBlobLength, LengthsThatWrapThePositionAreCorruptStreams) {
  // A forged u64 length n read at `at` with pos + n wrapping to 7 passed
  // ByteReader's old `pos + n <= size` check, and the blob decoded past its
  // end with no error (SZ3's single-slab payload size: 2^64 - 56 at 55).
  auto expect_corrupt = [](const char* codec, const Bytes& blob,
                           std::size_t at) {
    const Bytes bad = forge_u64(blob, at, std::uint64_t{7} - (at + 8));
    EXPECT_THROW(compressor(codec).decompress(bad, 1), CorruptStream)
        << codec << " @" << at;
  };
  const Field f = smooth_field_3d(16);
  const Bytes sz3 = compressor("SZ3").compress(f, options_for("SZ3"));
  std::uint64_t payload = 0;
  std::memcpy(&payload, sz3.data() + 55, 8);
  ASSERT_EQ(payload, sz3.size() - 63);
  expect_corrupt("SZ3", sz3, 55);
  // SZ2's first slab: after the 54-byte header, the slab count and the
  // slab's code count come its sized mode-bit, coefficient and
  // unpredictable-value sections.
  const Bytes sz2 = compressor("SZ2").compress(f, options_for("SZ2"));
  std::size_t at = 54 + 4 + 8;
  for (int section = 0; section < 3; ++section) {
    expect_corrupt("SZ2", sz2, at);
    std::uint64_t len = 0;
    std::memcpy(&len, sz2.data() + at, 8);
    at += 8 + static_cast<std::size_t>(len);
  }
}

TEST(ForgedBlobLength, LzOriginalSizeInsideSz3CodeStreamIsCorruptStream) {
  // A tag-1 (Huffman + LZ) code stream carries an LZ header whose u64
  // orig_size was reserved before any check: 2^40 threw std::bad_alloc out
  // of decompress_any instead of CorruptStream.
  const Field f = smooth_field_3d(32);
  const Bytes sz3 = compressor("SZ3").compress(f, options_for("SZ3"));
  // The single-slab payload at 63: stride, gamma, cubic flag, code count,
  // then the sized anchor and unpredictable-value sections.
  std::size_t at = 63 + 8 + 8 + 1 + 8;
  for (int section = 0; section < 2; ++section) {
    std::uint64_t len = 0;
    std::memcpy(&len, sz3.data() + at, 8);
    at += 8 + static_cast<std::size_t>(len);
  }
  ASSERT_EQ(static_cast<std::uint8_t>(sz3[at]), 1) << "not a tag-1 stream";
  std::uint32_t magic = 0;
  std::memcpy(&magic, sz3.data() + at + 9, 4);  // after tag and u64 size
  ASSERT_EQ(magic, 0x4c5a4542u);
  const std::size_t orig_size_at = at + 9 + 4;
  for (const int log2 : {33, 40, 62}) {
    const Bytes bad =
        forge_u64(sz3, orig_size_at, std::uint64_t{1} << log2);
    EXPECT_THROW(decompress_any(bad), CorruptStream) << "2^" << log2;
  }
}

// --- forged counts -----------------------------------------------------------
//
// Every parser reads the counts it sizes tables from through
// ByteReader::read_count. Each row names one such count in a real input,
// the bytes its parser bounds it by and the least bytes one counted item
// takes; a count one item past that bound, the largest value of its
// width, and for u64 counts 2^62 and 2^62 + 1 (whose item bytes wrap
// 2^64) must all raise CorruptStream: no bad_alloc, no length_error.

struct CountSite {
  std::string name;
  Bytes input;
  std::size_t at = 0;          // offset of the count
  std::size_t width = 0;       // its bytes: 4 or 8
  std::size_t left = 0;        // bytes its parser has after it
  std::size_t item_bytes = 0;  // least bytes of one counted item
  std::function<void(const Bytes&)> decode;
  bool input_decodes = true;
};

std::size_t header_end(const Bytes& blob) {
  ByteReader r(blob);
  BlobHeader::decode(r);
  return r.pos();
}

std::uint64_t u64_at(const Bytes& b, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, b.data() + at, 8);
  return v;
}

std::vector<CountSite> count_sites() {
  std::vector<CountSite> sites;
  const auto decode_blob = [](const Bytes& b) { decompress_any(b); };
  const Field f = smooth_field_3d(32);

  Rng rng(7);
  Bytes data(4000);
  for (auto& b : data) b = static_cast<std::byte>(rng.next_below(16));
  Bytes lz = lz_compress(data);
  const std::size_t tokens_at = 20 + u64_at(lz, 12);  // magic, sizes, lits
  sites.push_back({"LZ tokens", lz, tokens_at, 8, lz.size() - tokens_at - 8,
                   2, [](const Bytes& b) { lz_decompress(b); }});

  Bytes zfp = compressor("ZFP").compress(f, options_for("ZFP"));
  const std::size_t zfp_at = header_end(zfp);
  sites.push_back({"ZFP streams", zfp, zfp_at, 4, zfp.size() - zfp_at - 4, 8,
                   decode_blob});

  CompressOptions four = options_for("SZ3");
  four.threads = 4;
  Bytes chunked = compressor("SZ3").compress(f, four);
  const std::size_t chunk_at = header_end(chunked) + 1;  // after the layout
  EXPECT_EQ(static_cast<std::uint8_t>(chunked[chunk_at - 1]), kLayoutChunked);
  sites.push_back({"chunks", chunked, chunk_at, 4,
                   chunked.size() - chunk_at - 4, 8, decode_blob});

  Bytes sz2 = compressor("SZ2").compress(f, four);
  const std::size_t slabs_at = header_end(sz2);
  sites.push_back({"SZ2 slabs", sz2, slabs_at, 4, sz2.size() - slabs_at - 4,
                   32, decode_blob});

  PfsSimulator pfs;
  io_tool("HDF5").write_field(pfs, "/f",
                              Field("f", NdArray<float>(Shape{32, 32, 32})));
  Bytes h5 = pfs.read_file("/f");
  // Magic, version, dataset count, then "f"'s name, dtype, rank, 3 dims
  // and attribute count: the chunk-table total follows at 45.
  EXPECT_EQ(u64_at(h5, 45), 32u * 32 * 32 * 4);
  sites.push_back({"HDF5 total", h5, 45, 8, h5.size() - 45 - 8, 1,
                   [](const Bytes& b) {
                     PfsSimulator p;
                     p.write_file("/f", b);
                     io_tool("HDF5").read_field(p, "/f");
                   }});

  // SZ3's single-slab payload at 63: stride, gamma, cubic flag, code
  // count, the sized anchor and unpredictable-value sections, then the
  // code stream [tag][u64 size][stream]. Retagged raw (3), the stream
  // reads as [u32 alphabet][u64 count][codes].
  Bytes sz3 = compressor("SZ3").compress(f, options_for("SZ3"));
  std::size_t tag_at = 63 + 8 + 8 + 1 + 8;
  for (int section = 0; section < 2; ++section)
    tag_at += 8 + static_cast<std::size_t>(u64_at(sz3, tag_at));
  EXPECT_LE(static_cast<std::uint8_t>(sz3[tag_at]), 1);  // a Huffman stream
  sz3[tag_at] = std::byte{kBackendRaw};
  std::uint32_t alphabet = 0;
  std::memcpy(&alphabet, sz3.data() + tag_at + 9, 4);
  sites.push_back({"raw codes", sz3, tag_at + 13, 8,
                   u64_at(sz3, tag_at + 1) - 12, raw_code_width(alphabet),
                   decode_blob, false});
  return sites;
}

TEST(ForgedCounts, EveryCountPastItsBytesIsCorruptStream) {
  for (const CountSite& site : count_sites()) {
    SCOPED_TRACE(site.name);
    if (site.input_decodes) ASSERT_NO_THROW(site.decode(site.input));
    std::vector<std::uint64_t> counts{site.left / site.item_bytes + 1};
    if (site.width == 4) {
      counts.push_back(0xFFFFFFFFu);
    } else {
      counts.insert(counts.end(), {std::uint64_t{1} << 62,
                                   (std::uint64_t{1} << 62) + 1,
                                   ~std::uint64_t{0}});
    }
    for (const std::uint64_t count : counts) {
      Bytes bad = site.input;
      std::memcpy(bad.data() + site.at, &count, site.width);
      EXPECT_THROW(site.decode(bad), CorruptStream) << count;
    }
  }
}

TEST(CrossCodec, WrongCodecHeaderIsRejectedOrStructured) {
  // Feed an SZ3 blob to SZx's decoder: the self-describing header carries
  // "SZ3", and dispatch via decompress_any is correct, but a direct call
  // on the wrong codec must fail in a structured way if it fails.
  const Field f = smooth_field_2d(32);
  CompressOptions o;
  o.error_bound = 1e-3;
  const Bytes sz3 = compressor("SZ3").compress(f, o);
  try {
    const Field r = compressor("SZx").decompress(sz3, 1);
    (void)r;
  } catch (const Error&) {
  }
  // decompress_any must always route correctly.
  const Field ok = decompress_any(sz3);
  EXPECT_TRUE(check_value_range_bound(f, ok, 1e-3));
}

TEST(BlobHeaderRobustness, OutOfRangeDtypeAndBoundModeBytesAreRejected) {
  // Every codec's blob starts with the common header: magic, codec name,
  // dtype byte, rank byte, dims, absolute bound, bound-mode byte, bound.
  // Forged enum bytes must throw before any decoder trusts them.
  const Field f = smooth_field_2d(24);
  for (const std::string& name : all_compressor_names()) {
    SCOPED_TRACE(name);
    const Bytes blob = compressor(name).compress(f, options_for(name));
    const std::size_t dtype_at = 4 + 4 + name.size();
    const std::size_t mode_at =
        dtype_at + 2 + 8 * f.shape().dims_vector().size() + 8;
    ASSERT_EQ(static_cast<std::uint8_t>(blob[mode_at]),
              static_cast<std::uint8_t>(options_for(name).mode));
    for (const std::uint8_t bad : {2, 3, 0x80, 0xff}) {
      Bytes forged = blob;
      forged[dtype_at] = static_cast<std::byte>(bad);
      EXPECT_THROW(peek_header(forged), CorruptStream);
      EXPECT_THROW(decompress_any(forged), CorruptStream);
      EXPECT_THROW(test::decode_box(forged, {{0, 0}, {1, 1}}),
                   CorruptStream);
    }
    for (const std::uint8_t bad : {3, 4, 0x80, 0xff}) {
      Bytes forged = blob;
      forged[mode_at] = static_cast<std::byte>(bad);
      EXPECT_THROW(peek_header(forged), CorruptStream);
      EXPECT_THROW(decompress_any(forged), CorruptStream);
    }
  }
}

TEST(CrossCodec, AllCodecsRoundTripAllDTypes) {
  CompressOptions lossy;
  lossy.error_bound = 1e-3;
  CompressOptions lossless;
  lossless.mode = BoundMode::kLossless;
  for (const std::string& name : all_compressor_names()) {
    Compressor& c = compressor(name);
    for (DType dt : {DType::kFloat32, DType::kFloat64}) {
      Field f;
      if (dt == DType::kFloat32) {
        f = smooth_field_3d(16);
      } else {
        NdArray<double> arr(Shape{16, 16, 16});
        for (std::size_t i = 0; i < arr.num_elements(); ++i)
          arr[i] = std::sin(0.1 * static_cast<double>(i));
        f = Field("d3", std::move(arr));
      }
      const auto& opt = c.caps().lossless ? lossless : lossy;
      const Field r = c.decompress(c.compress(f, opt), 1);
      EXPECT_EQ(r.dtype(), dt) << name;
      EXPECT_EQ(r.shape(), f.shape()) << name;
      if (!c.caps().lossless)
        EXPECT_TRUE(check_value_range_bound(f, r, 1e-3)) << name;
    }
  }
}

// --- non-finite input -------------------------------------------------------

// A 16^3 f32 field sin(0.1 i) with one bad element at `at`.
Field sine_with(float bad, std::size_t at) {
  NdArray<float> arr(Shape{16, 16, 16});
  for (std::size_t i = 0; i < arr.num_elements(); ++i)
    arr[i] = static_cast<float>(std::sin(0.1 * static_cast<double>(i)));
  arr[at] = bad;
  return Field("sine", std::move(arr));
}

CompressOptions rel_1e3(int threads = 1) {
  CompressOptions o;
  o.mode = BoundMode::kValueRangeRel;
  o.error_bound = 1e-3;
  o.threads = threads;
  return o;
}

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

class SzFamily : public ::testing::TestWithParam<std::string> {};

TEST_P(SzFamily, InfiniteValueRangeIsUnsupported) {
  // One +-Inf makes the value-range-relative bound infinite; the codecs
  // then left most finite elements far off. A NaN first element poisons
  // the range the same way.
  Compressor& c = compressor(GetParam());
  for (const float bad : {kInf, -kInf})
    for (const std::size_t at : {std::size_t{0}, std::size_t{1234}})
      EXPECT_THROW(c.compress(sine_with(bad, at), rel_1e3()), Unsupported)
          << bad << " at " << at;
  EXPECT_THROW(c.compress(sine_with(kNaN, 0), rel_1e3()), Unsupported);
}

TEST_P(SzFamily, InteriorNaNRoundTripsBitExactly) {
  // value_range skips a NaN that is not the first element, so the bound
  // stays finite. SZ2, SZ3 and QoZ store the NaN verbatim; SZx rejects it.
  Compressor& c = compressor(GetParam());
  const Field f = sine_with(kNaN, 1234);
  if (GetParam() == "SZx") {
    for (int threads : {1, 4})
      EXPECT_THROW(c.compress(f, rel_1e3(threads)), Unsupported);
    return;
  }
  const Field r = c.decompress(c.compress(f, rel_1e3()), 1);
  const auto& in = f.as<float>();
  const auto& out = r.as<float>();
  std::uint32_t a, b;
  std::memcpy(&a, &in[1234], 4);
  std::memcpy(&b, &out[1234], 4);
  EXPECT_EQ(a, b);
  const double eb = 1e-3 * f.value_range().span();
  for (std::size_t i = 0; i < in.num_elements(); ++i)
    if (i != 1234) ASSERT_LE(std::fabs(out[i] - in[i]), eb) << i;
}

INSTANTIATE_TEST_SUITE_P(Eblcs, SzFamily,
                         ::testing::Values("SZ2", "SZ3", "QoZ", "SZx"));

TEST(Szx, NonFiniteInputIsUnsupported) {
  // SZx decoded a NaN as an in-range value with no error. Every block's
  // min/max scan now rejects NaN and +-Inf, under absolute bounds too.
  Compressor& c = compressor("SZx");
  for (const float bad : {kNaN, kInf, -kInf})
    for (int threads : {1, 4}) {
      CompressOptions abs_opt = rel_1e3(threads);
      abs_opt.mode = BoundMode::kAbsolute;
      for (const std::size_t at : {std::size_t{0}, std::size_t{1234}})
        EXPECT_THROW(c.compress(sine_with(bad, at), abs_opt), Unsupported)
            << bad << " at " << at << " threads=" << threads;
      NdArray<double> arr(Shape{4, 8, 8, 8});
      arr[300] = bad;
      EXPECT_THROW(c.compress(Field("f64", std::move(arr)), abs_opt),
                   Unsupported)
          << bad << " f64 threads=" << threads;
    }
}

}  // namespace
}  // namespace eblcio
