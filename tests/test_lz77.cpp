// LZ77 codec tests: round-trips on varied content, ratio expectations,
// overlapping matches, corrupt streams.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "codec/intcodec.h"
#include "codec/shuffle.h"
#include "compressors/backend.h"
#include "codec/lz77.h"
#include "common/error.h"
#include "common/rng.h"
#include "compressors/components.h"

namespace eblcio {
namespace {

Bytes to_bytes(const std::string& s) {
  Bytes b(s.size());
  std::memcpy(b.data(), s.data(), s.size());
  return b;
}

void expect_roundtrip(const Bytes& data) {
  const Bytes blob = lz_compress(data);
  const Bytes back = lz_decompress(blob);
  ASSERT_EQ(back.size(), data.size());
  // memcmp's pointers must be non-null even for size 0 (empty vectors
  // return nullptr from data()).
  if (!data.empty())
    EXPECT_EQ(std::memcmp(back.data(), data.data(), data.size()), 0);
}

TEST(Lz77, EmptyInput) { expect_roundtrip({}); }

TEST(Lz77, TinyInput) { expect_roundtrip(to_bytes("ab")); }

TEST(Lz77, PureLiterals) { expect_roundtrip(to_bytes("abcdefgh")); }

TEST(Lz77, RepeatedTextCompressesWell) {
  std::string s;
  for (int i = 0; i < 1000; ++i) s += "the quick brown fox ";
  const Bytes data = to_bytes(s);
  const Bytes blob = lz_compress(data);
  EXPECT_LT(blob.size(), data.size() / 20);
  expect_roundtrip(data);
}

TEST(Lz77, OverlappingMatchRle) {
  // 100k 'a's exercises dist=1 overlapping copies.
  expect_roundtrip(Bytes(100000, std::byte{'a'}));
}

TEST(Lz77, AllByteValues) {
  Bytes data(256 * 40);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::byte>(i % 256);
  expect_roundtrip(data);
}

TEST(Lz77, IncompressibleRandomDataSurvives) {
  Rng rng(3);
  Bytes data(65536);
  for (auto& b : data) b = static_cast<std::byte>(rng.next_below(256));
  const Bytes blob = lz_compress(data);
  // Random bytes should not shrink meaningfully, but must round-trip.
  EXPECT_GT(blob.size(), data.size() / 2);
  expect_roundtrip(data);
}

TEST(Lz77, FloatDataLowRatio) {
  // The Fig. 1 point: byte-level LZ on floating-point fields barely helps.
  Rng rng(4);
  Bytes data(4 * 50000);
  double v = 0.0;
  for (std::size_t i = 0; i < data.size() / 4; ++i) {
    v = 0.99 * v + 0.01 * rng.normal();
    const float f = static_cast<float>(v);
    std::memcpy(data.data() + 4 * i, &f, 4);
  }
  const Bytes blob = lz_compress(data);
  const double ratio = static_cast<double>(data.size()) / blob.size();
  EXPECT_LT(ratio, 3.0);
  expect_roundtrip(data);
}

TEST(Lz77, RejectsBadMagic) {
  Bytes blob = lz_compress(to_bytes("hello world hello world"));
  blob[0] = static_cast<std::byte>(0xff);
  EXPECT_THROW(lz_decompress(blob), CorruptStream);
}

TEST(Lz77, RejectsTruncatedBlob) {
  Bytes blob = lz_compress(Bytes(10000, std::byte{'x'}));
  blob.resize(blob.size() - 8);
  EXPECT_THROW(lz_decompress(blob), CorruptStream);
}

TEST(Lz77, RejectsForgedHugeTokenLengths) {
  // A hand-built blob whose token carries match_len (or literal_run) near
  // UINT64_MAX: the decoder's output-size checks must reject it without
  // the size arithmetic wrapping into an out-of-bounds copy.
  const auto forge = [](std::uint64_t lit_run, std::uint64_t match_len,
                        std::uint64_t dist) {
    // Tokens are varint-coded; build the frame around a real literal blob.
    const Bytes seed = lz_compress(to_bytes("aa"));  // header + lit blob
    Bytes blob;
    // magic + orig_size
    append_pod<std::uint32_t>(blob, 0x4c5a4542u);
    append_pod<std::uint64_t>(blob, 2);
    // reuse the genuine huffman literal blob from the seed frame
    ByteReader r(seed);
    (void)r.read_pod<std::uint32_t>();
    (void)r.read_pod<std::uint64_t>();
    const auto lit_size = r.read_pod<std::uint64_t>();
    auto lit_blob = r.read_bytes(lit_size);
    append_pod<std::uint64_t>(blob, lit_size);
    append_bytes(blob, lit_blob);
    append_pod<std::uint64_t>(blob, 1);  // one token
    varint_encode(blob, lit_run);
    varint_encode(blob, match_len);
    if (match_len > 0) varint_encode(blob, dist);
    return blob;
  };
  const std::uint64_t huge = ~std::uint64_t{0} - 1;
  EXPECT_THROW(lz_decompress(forge(1, huge, 1)), CorruptStream);
  EXPECT_THROW(lz_decompress(forge(huge, 0, 0)), CorruptStream);
  EXPECT_THROW(lz_decompress(forge(2, huge, 2)), CorruptStream);
}

TEST(Lz77, RejectsForgedHugeOriginalSize) {
  // The header's orig_size was reserved before anything checked it: 2^40
  // and 2^62 threw std::bad_alloc and 2^33 reserved 8 GiB before the size
  // mismatch. Its bound from the literal and token counts rejects all
  // three before any allocation.
  Rng rng(12);
  Bytes data(1000);
  for (auto& b : data) b = static_cast<std::byte>(rng.next_below(8));
  const Bytes blob = lz_compress(data);
  ASSERT_EQ(lz_decompress(blob), data);
  for (const int log2 : {33, 40, 62}) {
    Bytes bad = blob;
    const std::uint64_t forged = std::uint64_t{1} << log2;
    std::memcpy(bad.data() + 4, &forged, sizeof forged);  // after magic
    EXPECT_THROW(lz_decompress(bad), CorruptStream) << "2^" << log2;
  }
}

TEST(Lz77, ProbeDepthTradesRatioForSpeed) {
  std::string s;
  Rng rng(6);
  for (int i = 0; i < 2000; ++i) {
    s += "pattern-";
    s += std::to_string(rng.next_below(30));
  }
  const Bytes data = to_bytes(s);
  LzOptions shallow;
  shallow.max_probes = 1;
  LzOptions deep;
  deep.max_probes = 128;
  const auto blob_shallow = lz_compress(data, shallow);
  const auto blob_deep = lz_compress(data, deep);
  EXPECT_LE(blob_deep.size(), blob_shallow.size());
  EXPECT_EQ(lz_decompress(blob_deep), lz_decompress(blob_shallow));
}

TEST(Lz77, BackendKeepsLzBranchForHeterogeneousStreams) {
  // encode_code_stream must pick the LZ branch whenever it is smaller —
  // including on heterogeneous streams (a noisy region followed by a long
  // smooth one, a normal quantization-code shape) whose Huffman-blob
  // *prefix* is incompressible. Guards against any future sampling
  // shortcut that would judge the stream by its head.
  Rng rng(31);
  std::vector<std::uint32_t> codes;
  for (int i = 0; i < (1 << 17); ++i)
    codes.push_back(rng.next_below(65537));       // noisy head
  codes.insert(codes.end(), 1 << 21, 32768u);     // smooth tail
  const Bytes blob = encode_code_stream(codes, 65537);
  const Bytes huff = huffman_encode(codes, 65537);
  const Bytes lz = lz_compress(huff);
  // The emitted stream must be the (much smaller) LZ branch, not the
  // skipped-pass Huffman fallback.
  EXPECT_LT(blob.size(), huff.size() / 2);
  EXPECT_LE(blob.size(), lz.size() + 16);  // LZ payload + backend framing
  ByteReader r(blob);
  EXPECT_EQ(decode_code_stream(r), codes);
}

// --- byte pin of the match finder ------------------------------------------
//
// FNV-1a of lz_compress at four probe budgets over the three input shapes
// the library feeds it. Inputs use Rng uniforms and plain arithmetic only,
// so they are identical on every platform.

std::uint64_t fnv1a(std::span<const std::byte> data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::byte b : data) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// A smooth f32 random walk, byte-shuffled as the Blosc path does.
Bytes shuffled_walk() {
  Rng rng(41);
  std::vector<float> v(1 << 15);
  double x = 0.0;
  for (float& e : v) {
    x = 0.99 * x + (rng.next_double() - 0.5);
    e = static_cast<float>(x);
  }
  return shuffle_bytes(std::as_bytes(std::span<const float>(v)), 4);
}

// The huffman-lz stage's input: a Huffman blob of Lorenzo quantization
// codes of a noisy walk at bound 1e-2.
Bytes huffman_quant_codes() {
  Rng rng(42);
  std::vector<std::uint32_t> codes(1 << 16);
  double x = 0.0, recon = 0.0;
  const double eb = 1e-2;
  for (std::uint32_t& c : codes) {
    x += 0.05 * (rng.next_double() - 0.5);
    const auto q = static_cast<std::int64_t>(
        std::floor((x - recon) / (2 * eb) + 0.5));
    recon += static_cast<double>(q) * 2 * eb;
    c = static_cast<std::uint32_t>(q + kQuantRadius);
  }
  return huffman_encode(codes, kQuantAlphabet);
}

// Over 64 KiB of random bytes with 96-byte repeats at distances 65535,
// 65536 and 65537: the edges of the 64 KiB window.
Bytes far_repeats() {
  Rng rng(43);
  Bytes data(4 * 65536);
  for (auto& b : data) b = static_cast<std::byte>(rng.next_below(256));
  const std::size_t dists[] = {65535, 65536, 65537};
  for (std::size_t k = 0; k < 9; ++k) {
    const std::size_t at = 66000 + k * 20000;
    const std::size_t d = dists[k % 3];
    std::memcpy(data.data() + at, data.data() + at - d, 96);
  }
  return data;
}

TEST(Lz77, ProbeBudgetBytePin) {
  struct Case {
    const char* input;
    int probes;
    std::uint64_t fnv;
  };
  const Case cases[] = {
      {"shuffled", 1, 0x724908510eaf5e45ULL},
      {"shuffled", 8, 0xdec968f14581d632ULL},
      {"shuffled", 32, 0x5ff5e53a2f3cdd8eULL},
      {"shuffled", 128, 0x2fe90cd9a02aa584ULL},
      {"huffman", 1, 0x1db69821b7cbbac9ULL},
      {"huffman", 8, 0xa3d501291036d11bULL},
      {"huffman", 32, 0xa3d501291036d11bULL},
      {"huffman", 128, 0xa3d501291036d11bULL},
      {"far", 1, 0x4a87026f848410bfULL},
      {"far", 8, 0x3dde85ced16c12c0ULL},
      {"far", 32, 0x3dde85ced16c12c0ULL},
      {"far", 128, 0x3dde85ced16c12c0ULL},
  };
  const Bytes shuffled = shuffled_walk();
  const Bytes huffman = huffman_quant_codes();
  const Bytes far = far_repeats();
  for (const Case& c : cases) {
    const std::string input = c.input;
    const Bytes& data =
        input == "shuffled" ? shuffled : input == "huffman" ? huffman : far;
    LzOptions opt;
    opt.max_probes = c.probes;
    const Bytes blob = lz_compress(data, opt);
    EXPECT_EQ(fnv1a(blob), c.fnv)
        << c.input << " probes=" << c.probes << std::hex << " got 0x"
        << fnv1a(blob);
    EXPECT_EQ(lz_decompress(blob), data) << c.input;
  }
}

class Lz77Fuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lz77Fuzz, StructuredRandomRoundTrip) {
  Rng rng(GetParam());
  // Mix of runs, repeats and noise.
  Bytes data;
  for (int seg = 0; seg < 50; ++seg) {
    const int kind = static_cast<int>(rng.next_below(3));
    const std::size_t len = 10 + rng.next_below(3000);
    if (kind == 0) {
      data.insert(data.end(), len,
                  static_cast<std::byte>(rng.next_below(256)));
    } else if (kind == 1 && !data.empty()) {
      const std::size_t src = rng.next_below(data.size());
      for (std::size_t i = 0; i < len; ++i)
        data.push_back(data[src + (i % (data.size() - src))]);
    } else {
      for (std::size_t i = 0; i < len; ++i)
        data.push_back(static_cast<std::byte>(rng.next_below(256)));
    }
  }
  expect_roundtrip(data);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lz77Fuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace eblcio
