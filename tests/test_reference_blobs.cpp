// Seed reference blobs: 17 deterministic compression cases whose encoded
// blob AND decoded reconstruction are pinned by FNV-1a hash.
//
// The wire formats of every codec in the library are frozen: kernel
// optimizations (table-driven Huffman, multi-symbol LUT packing,
// vectorized SZ2/interp regression blocks, LZ match-finder changes) must
// not change a single emitted or reconstructed byte. These hashes were
// captured from the PR-6 seed library; any future kernel change that
// alters one is a wire-format break, not a speedup, and must be rejected
// (or, for an intentional format revision, re-pinned with a version bump
// and a migration note).
//
// Beside them, the block engine (SZ2 and the composed lorenzo1, lorenzo2
// and regression configurations) is pinned at ranks 2-4 over extents that
// cut blocks, on a field with outliers, and through windowed decodes with
// the element counts they reconstruct; these were captured before its
// Lorenzo walk was reordered, and the reorder had to keep every byte.
//
// Inputs are generated with pure Rng arithmetic — no libm transcendentals
// — so the cases hash identically across hosts and libm versions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <vector>

#include "codec/huffman.h"
#include "codec/lz77.h"
#include "codec/shuffle.h"
#include "common/field.h"
#include "common/rng.h"
#include "compressors/backend.h"
#include "compressors/block_core.h"
#include "compressors/chunking.h"
#include "compressors/compressor.h"
#include "compressors/interp_core.h"
#include "compressors/zone.h"
#include "data/dataset.h"

namespace eblcio {
namespace {

std::uint64_t fnv1a(std::span<const std::byte> data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::byte b : data) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename T>
std::uint64_t fnv1a_pod_span(std::span<const T> s) {
  return fnv1a(std::as_bytes(s));
}

// Smooth-ish deterministic field: a decaying random walk plus a linear
// ramp, built from Rng uniforms and plain arithmetic only. The ramp makes
// the SZ2 regression predictor win on a meaningful share of blocks, so the
// regression code path is exercised by every SZ2 case.
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
  return Field("ref", std::move(arr));
}

struct PinnedCase {
  const char* name;
  std::uint64_t blob_hash;
  std::uint64_t decode_hash;  // 0 when decode is checked by equality instead
};

// Hashes captured from the seed library (see file comment).
constexpr PinnedCase kPinned[] = {
    {"huffman_normal", 0x4467567e6d191f16ULL, 0},
    {"huffman_geometric", 0x755c5e6c92773666ULL, 0},
    {"lz_mixed", 0x2b45625abb3f31a3ULL, 0},
    {"shuffle_3d", 0xae76bc95179f3960ULL, 0},
    {"sz2_1d_f32", 0x160a96d25db9438bULL, 0x98e4a43170d39902ULL},
    {"sz2_2d_f32", 0x1203f1d00074f3f5ULL, 0xbc1de66adec71cb3ULL},
    {"sz2_3d_f32", 0x789d9d1365207282ULL, 0x5ca41afb46d5f560ULL},
    {"sz2_3d_f64", 0x5e4e9716ab07a95aULL, 0xf34e8330f19cc1cbULL},
    {"sz2_3d_f32_chunked", 0xbf7c701bd67a12bbULL, 0xc2c23155f71beecdULL},
    {"sz3_1d_f32", 0xabfa5d3c64676e23ULL, 0xee65a0c91555006cULL},
    {"sz3_2d_f32", 0xb53b60d67bb83b64ULL, 0x953e1a749e159d61ULL},
    {"sz3_3d_f32", 0x9183e77cd1b0ea3eULL, 0x1bb6555a58242a40ULL},
    {"qoz_2d_f32", 0x5444939602d7dcb0ULL, 0x780f12cdaea4090eULL},
    {"qoz_3d_f32", 0x285f3ed2903ef832ULL, 0x1bb6555a58242a40ULL},
    {"zfp_2d_f32", 0x05c07800c2434772ULL, 0x003f1892d7af440fULL},
    {"zfp_3d_f32", 0x2aa46e65ca097fd7ULL, 0x2c64ea576c5a5848ULL},
    {"szx_3d_f32", 0xfdae947bbd03bc52ULL, 0xb9f57fec561e5609ULL},
    // Block-engine pins: SZ2 at rank 4, a field whose outliers put code-0
    // elements in several rows of one block, fields whose last extent is
    // 1, and the composed block predictors at ranks 2-4 over extents that
    // cut blocks.
    {"sz2_4d_f64", 0x96023b09f7fd3dfbULL, 0x3c26e61bd1b2bfd0ULL},
    {"sz2_3d_f32_spiked", 0xb1be137bc59e85fdULL, 0xb131fe1c916197d6ULL},
    {"sz2_3d_f32_flat", 0x840bfb4d1692d852ULL, 0x87ef693f292587c0ULL},
    {"lorenzo1_2d_f32_flat", 0xa3933f6563c1b841ULL, 0x6aa4aecd69354becULL},
    {"lorenzo1_2d_f32", 0x96fb4373b2174e64ULL, 0x2f21209adef596c4ULL},
    {"lorenzo1_3d_f32", 0x267ab2387c203231ULL, 0x8f3613d39537cfe2ULL},
    {"lorenzo1_4d_f64", 0x4ae3d0be086f48a3ULL, 0x8494a303fbb40ef7ULL},
    {"lorenzo2_2d_f32", 0x3a377c2252c8eeb3ULL, 0x9f67a33e50491a0cULL},
    {"lorenzo2_3d_f32", 0x00f1cc9896f92b69ULL, 0x15cf974758e1dd8eULL},
    {"lorenzo2_3d_f32_spiked", 0x41e157d044a546d5ULL, 0x8f08d7893aaca549ULL},
    {"lorenzo2_4d_f64", 0xa439e0bd951934eaULL, 0x4856c0b430152c19ULL},
    {"regression_2d_f32", 0xdbac333d40639a38ULL, 0x1fb27af5d394a875ULL},
    {"regression_3d_f32", 0x636f301b92ec427aULL, 0xb563be34effa9bf6ULL},
    {"regression_4d_f64", 0x1c6c6ed26ada9002ULL, 0x358a49176b83adfcULL},
};

// Windowed decodes: the hash of the box's decoded bytes and the elements
// the decode reconstructed to produce them.
struct PinnedWindow {
  const char* name;
  std::uint64_t bytes_hash;
  std::size_t elements;
};

constexpr PinnedWindow kPinnedWindows[] = {
    {"sz2_3d_f32 corner", 0x6dd0080c29fa2cdcULL, 216},
    {"sz2_3d_f32 inner", 0x249f95c00c45b65cULL, 5832},
    {"sz2_3d_f32 far", 0xcf9b5484e2cc119aULL, 32768},
    {"sz2_3d_f32_spiked inner", 0xadf178fe36c5b58bULL, 3888},
    {"sz2_3d_f32_spiked far", 0xfac6db9ea79ed002ULL, 12673},
    {"sz2_2d_f32 inner", 0x04e78ce0f52a68adULL, 3072},
    {"sz2_4d_f64 inner", 0x9b236d97748211b3ULL, 9072},
    {"lorenzo2_3d_f32 inner", 0xf2d086107bc31998ULL, 2639},
};

const PinnedCase& pinned(const char* name) {
  for (const auto& c : kPinned)
    if (std::string_view(c.name) == name) return c;
  ADD_FAILURE() << "no pinned case named " << name;
  static PinnedCase none{"", 0, 0};
  return none;
}

// When set, prints harvest-ready hash lines for re-pinning after an
// intentional wire-format change:
//   EBLCIO_DUMP_REF_HASHES=1 ./test_reference_blobs
bool dump_hashes() {
  static const bool dump = std::getenv("EBLCIO_DUMP_REF_HASHES") != nullptr;
  return dump;
}

void check_case(const char* name, std::uint64_t blob_hash,
                std::uint64_t decode_hash) {
  if (dump_hashes())
    std::printf("    {\"%s\", 0x%016llxULL, 0x%016llxULL},\n", name,
                static_cast<unsigned long long>(blob_hash),
                static_cast<unsigned long long>(decode_hash));
  const PinnedCase& p = pinned(name);
  EXPECT_EQ(blob_hash, p.blob_hash)
      << name << ": encoded blob changed (wire-format break)";
  EXPECT_EQ(decode_hash, p.decode_hash)
      << name << ": decoded bytes changed (decoder behaviour break)";
}

// make_field with every 23rd element pushed far off the walk. Under an
// absolute bound of 1e-3 the outliers and the Lorenzo predictions they
// spoil fall outside the code range, so code-0 elements land in many rows
// of one block (see SpikedFieldHasUnpredictableRows).
Field make_spiked_field(const std::vector<std::size_t>& dims) {
  Field f = make_field<float>(dims, 0x5eedULL);
  auto values = f.as<float>().span();
  for (std::size_t i = 7; i < values.size(); i += 23)
    values[i] = (i / 23) % 2 ? 3e4f : -3e4f;
  return f;
}

void check_codec_case(const char* name, const std::string& codec,
                      const Field& f, int threads,
                      BoundMode mode = BoundMode::kValueRangeRel) {
  SCOPED_TRACE(name);
  CompressOptions opt;
  opt.mode = mode;
  opt.error_bound = 1e-3;
  opt.threads = threads;
  Compressor& comp = compressor(codec);
  const Bytes blob = comp.compress(f, opt);
  const Field back = comp.decompress(blob, threads);
  ASSERT_EQ(back.shape(), f.shape());
  check_case(name, fnv1a(blob), fnv1a(back.bytes()));
}

void check_codec_case(const char* name, const std::string& codec, DType dtype,
                      const std::vector<std::size_t>& dims, int threads) {
  check_codec_case(name, codec,
                   dtype == DType::kFloat32
                       ? make_field<float>(dims, 0x5eedULL)
                       : make_field<double>(dims, 0x5eedULL),
                   threads);
}

// Decodes `box` of `f`'s blob (bound 1e-3, one thread) and pins the box's
// bytes and the elements reconstructed; the bytes must also equal the
// crop of the full decode.
void check_window_case(const char* name, const std::string& codec,
                       const Field& f, const Region& box,
                       BoundMode mode = BoundMode::kValueRangeRel) {
  SCOPED_TRACE(name);
  CompressOptions opt;
  opt.mode = mode;
  opt.error_bound = 1e-3;
  Compressor& comp = compressor(codec);
  const Bytes blob = comp.compress(f, opt);
  Field out = unfilled_field(codec, f.dtype(),
                             Shape{std::span<const std::size_t>(box.shape)});
  const std::size_t elements = comp.decompress_into(blob, out, 0, box, 1);
  Field crop = unfilled_field(codec, f.dtype(),
                              Shape{std::span<const std::size_t>(box.shape)});
  crop_into(comp.decompress(blob, 1), box, crop, 0);
  ASSERT_TRUE(std::ranges::equal(out.bytes(), crop.bytes()));
  const std::uint64_t hash = fnv1a(out.bytes());
  if (dump_hashes())
    std::printf("    {\"%s\", 0x%016llxULL, %zu},\n", name,
                static_cast<unsigned long long>(hash), elements);
  const auto* pin = std::ranges::find_if(kPinnedWindows, [&](const auto& w) {
    return std::string_view(w.name) == name;
  });
  ASSERT_NE(pin, std::end(kPinnedWindows)) << "no pinned window " << name;
  EXPECT_EQ(hash, pin->bytes_hash) << name << ": windowed bytes changed";
  EXPECT_EQ(elements, pin->elements) << name << ": reconstruction changed";
}

TEST(ReferenceBlobs, HuffmanNormalStream) {
  // SZ-style quantization codes: Irwin-Hall sum of uniforms approximates
  // the centered normal the entropy stage sees, with no libm calls.
  Rng rng(2);
  std::vector<std::uint32_t> syms(1 << 16);
  for (auto& s : syms) {
    double g = 0.0;
    for (int k = 0; k < 8; ++k) g += rng.next_double() - 0.5;
    double v = 32768.0 + g * 42.0;
    if (v < 0.0) v = 0.0;
    if (v > 65536.0) v = 65536.0;
    s = static_cast<std::uint32_t>(v);
  }
  const Bytes blob = huffman_encode(syms, 65537);
  ASSERT_EQ(huffman_decode(blob), syms);
  ASSERT_EQ(huffman_decode_reference(blob), syms);
  check_case("huffman_normal", fnv1a(blob), 0);
}

TEST(ReferenceBlobs, HuffmanGeometricStream) {
  // Low-entropy geometric stream: typical code lengths <= 5 bits, the
  // regime the multi-symbol LUT packs up to four codes per slot for.
  Rng rng(6);
  std::vector<std::uint32_t> syms(1 << 16);
  for (auto& s : syms) {
    std::uint32_t v = 0;
    while (v < 63 && rng.next_double() < 0.5) ++v;
    s = v;
  }
  const Bytes blob = huffman_encode(syms, 64);
  ASSERT_EQ(huffman_decode(blob), syms);
  ASSERT_EQ(huffman_decode_reference(blob), syms);
  check_case("huffman_geometric", fnv1a(blob), 0);
}

TEST(ReferenceBlobs, LzMixedCorpus) {
  Rng rng(3);
  Bytes corpus;
  for (int seg = 0; seg < 48; ++seg) {
    const std::size_t len = 512 + rng.next_below(2048);
    if (seg % 3 == 0) {
      corpus.insert(corpus.end(), len,
                    static_cast<std::byte>(rng.next_below(256)));
    } else {
      for (std::size_t i = 0; i < len; ++i)
        corpus.push_back(static_cast<std::byte>(rng.next_below(16) * 17));
    }
  }
  const Bytes blob = lz_compress(corpus);
  ASSERT_EQ(lz_decompress(blob), corpus);
  check_case("lz_mixed", fnv1a(blob), 0);
}

TEST(ReferenceBlobs, ShuffleField) {
  const Field f = make_field<float>({32, 32, 32}, 0x5eedULL);
  const Bytes shuffled = shuffle_bytes(f.bytes(), 4);
  ASSERT_EQ(unshuffle_bytes(shuffled, 4),
            Bytes(f.bytes().begin(), f.bytes().end()));
  check_case("shuffle_3d", fnv1a(shuffled), 0);
}

TEST(ReferenceBlobs, Sz2) {
  check_codec_case("sz2_1d_f32", "SZ2", DType::kFloat32, {4096}, 1);
  check_codec_case("sz2_2d_f32", "SZ2", DType::kFloat32, {96, 96}, 1);
  check_codec_case("sz2_3d_f32", "SZ2", DType::kFloat32, {32, 32, 32}, 1);
  check_codec_case("sz2_3d_f64", "SZ2", DType::kFloat64, {32, 32, 32}, 1);
  // Multi-slab chunked layout: same field, 4-thread slab split.
  check_codec_case("sz2_3d_f32_chunked", "SZ2", DType::kFloat32,
                   {32, 32, 32}, 4);
  check_codec_case("sz2_4d_f64", "SZ2", DType::kFloat64, {7, 13, 9, 14}, 1);
  check_codec_case("sz2_3d_f32_spiked", "SZ2", make_spiked_field({19, 23, 29}),
                   1, BoundMode::kAbsolute);
  // A last extent of 1: rows of one element, stencils without a d3 term.
  check_codec_case("sz2_3d_f32_flat", "SZ2", DType::kFloat32, {13, 29, 1}, 1);
}

TEST(ReferenceBlobs, ComposedBlockPredictors) {
  for (const char* pred : {"lorenzo1", "lorenzo2", "regression"}) {
    const std::string codec =
        std::string("composed:") + pred + "+linear-recip+huffman-lz";
    const std::string name = pred;
    check_codec_case((name + "_2d_f32").c_str(), codec, DType::kFloat32,
                     {13, 257}, 1);
    check_codec_case((name + "_3d_f32").c_str(), codec, DType::kFloat32,
                     {7, 13, 29}, 1);
    check_codec_case((name + "_4d_f64").c_str(), codec, DType::kFloat64,
                     {7, 13, 9, 8}, 1);
  }
  check_codec_case("lorenzo1_2d_f32_flat",
                   "composed:lorenzo1+linear-recip+huffman-lz",
                   DType::kFloat32, {257, 1}, 1);
  check_codec_case("lorenzo2_3d_f32_spiked",
                   "composed:lorenzo2+linear-recip+huffman-lz",
                   make_spiked_field({19, 23, 29}), 1, BoundMode::kAbsolute);
}

TEST(ReferenceBlobs, SpikedFieldHasUnpredictableRows) {
  // The spiked pins are only worth their name while the encoding has
  // code-0 elements in many rows.
  const Field f = make_spiked_field({19, 23, 29});
  const BlockEncoding enc =
      block_compress(f, 1e-3,
                     BlockPredictor::kLorenzoRegression,
                     QuantizerId::kLinearRecip, 0.0);
  EXPECT_GE(enc.unpred.size() / sizeof(float), 1000u);
}

TEST(ReferenceBlobs, WindowedDecodes) {
  const Field f3 = make_field<float>({32, 32, 32}, 0x5eedULL);
  check_window_case("sz2_3d_f32 corner", "SZ2", f3, {{0, 0, 0}, {1, 1, 1}});
  check_window_case("sz2_3d_f32 inner", "SZ2", f3, {{5, 7, 3}, {9, 6, 11}});
  check_window_case("sz2_3d_f32 far", "SZ2", f3, {{20, 1, 26}, {12, 30, 6}});
  const Field spiked = make_spiked_field({19, 23, 29});
  check_window_case("sz2_3d_f32_spiked inner", "SZ2", spiked,
                    {{4, 5, 6}, {7, 8, 9}}, BoundMode::kAbsolute);
  check_window_case("sz2_3d_f32_spiked far", "SZ2", spiked,
                    {{13, 0, 20}, {6, 23, 9}}, BoundMode::kAbsolute);
  check_window_case("sz2_2d_f32 inner", "SZ2",
                    make_field<float>({96, 96}, 0x5eedULL),
                    {{17, 30}, {40, 9}});
  check_window_case("sz2_4d_f64 inner", "SZ2",
                    make_field<double>({7, 13, 9, 14}, 0x5eedULL),
                    {{1, 6, 2, 7}, {5, 4, 6, 7}});
  check_window_case("lorenzo2_3d_f32 inner",
                    "composed:lorenzo2+linear-recip+huffman-lz",
                    make_field<float>({7, 13, 29}, 0x5eedULL),
                    {{2, 3, 10}, {4, 9, 12}});
}

TEST(ReferenceBlobs, Sz3) {
  check_codec_case("sz3_1d_f32", "SZ3", DType::kFloat32, {4096}, 1);
  check_codec_case("sz3_2d_f32", "SZ3", DType::kFloat32, {96, 96}, 1);
  check_codec_case("sz3_3d_f32", "SZ3", DType::kFloat32, {32, 32, 32}, 1);
}

TEST(ReferenceBlobs, QoZ) {
  check_codec_case("qoz_2d_f32", "QoZ", DType::kFloat32, {96, 96}, 1);
  check_codec_case("qoz_3d_f32", "QoZ", DType::kFloat32, {32, 32, 32}, 1);
}

TEST(ReferenceBlobs, Zfp) {
  check_codec_case("zfp_2d_f32", "ZFP", DType::kFloat32, {96, 96}, 1);
  check_codec_case("zfp_3d_f32", "ZFP", DType::kFloat32, {32, 32, 32}, 1);
}

TEST(ReferenceBlobs, Szx) {
  check_codec_case("szx_3d_f32", "SZx", DType::kFloat32, {32, 32, 32}, 1);
}

// --- Component-framework equivalence ---------------------------------------
//
// The composed-codec refactor (PR 8) factored SZ2's kernels into
// block_core and templated interp_core over the quantizer. These tests
// pin that the framework components, assembled with the legacy framing,
// reproduce the frozen SZ2/SZ3 wire formats byte-for-byte — i.e. the
// legacy codecs really are configurations of the new framework, not
// parallel implementations.

BlobHeader legacy_header(const char* codec, const Field& f,
                         const CompressOptions& opt) {
  BlobHeader h;
  h.codec = codec;
  h.dtype = f.dtype();
  h.dims = f.shape().dims_vector();
  h.abs_error_bound = absolute_bound_for(f, opt);
  h.requested_mode = opt.mode;
  h.requested_bound = opt.error_bound;
  return h;
}

// Assembles an SZ2 blob from the framework components: the
// (kLorenzoRegression, kLinearRecip) block engine plus the huffman-lz
// encoder, behind SZ2's single-slab framing.
void check_sz2_equivalence(const char* pinned_name, DType dtype,
                           const std::vector<std::size_t>& dims) {
  SCOPED_TRACE(pinned_name);
  const Field f = dtype == DType::kFloat32
                      ? make_field<float>(dims, 0x5eedULL)
                      : make_field<double>(dims, 0x5eedULL);
  CompressOptions opt;
  opt.error_bound = 1e-3;
  const Bytes expect = compressor("SZ2").compress(f, opt);

  const BlobHeader header = legacy_header("SZ2", f, opt);
  const BlockEncoding enc = block_compress(
      f, header.abs_error_bound, BlockPredictor::kLorenzoRegression,
      QuantizerId::kLinearRecip, 0.0);
  Bytes out;
  header.encode(out);
  append_pod<std::uint32_t>(out, 1);  // one slab (serial compression)
  append_pod<std::uint64_t>(out, enc.codes.size());
  append_sized(out, enc.mode_bits);
  append_sized(out, enc.coeffs);
  append_sized(out, enc.unpred);
  // The huffman-lz encoder component is the legacy entropy stage.
  append_bytes(out, encode_codes_with(EncoderId::kHuffmanLz, enc.codes,
                                      kQuantAlphabet));

  ASSERT_EQ(out, expect) << "component-assembled SZ2 blob diverged";
  EXPECT_EQ(fnv1a(out), pinned(pinned_name).blob_hash);
}

TEST(ReferenceBlobs, ComposedSz2Equivalence) {
  check_sz2_equivalence("sz2_1d_f32", DType::kFloat32, {4096});
  check_sz2_equivalence("sz2_2d_f32", DType::kFloat32, {96, 96});
  check_sz2_equivalence("sz2_3d_f32", DType::kFloat32, {32, 32, 32});
  check_sz2_equivalence("sz2_3d_f64", DType::kFloat64, {32, 32, 32});
}

// Assembles an SZ3 blob from the interp engine at its default (legacy)
// configuration — which, post-refactor, routes through the same templated
// kernel the composed interp-cubic configurations use.
void check_interp_equivalence(const char* pinned_name,
                              const std::vector<std::size_t>& dims) {
  SCOPED_TRACE(pinned_name);
  const Field f = make_field<float>(dims, 0x5eedULL);
  CompressOptions opt;
  opt.error_bound = 1e-3;
  const Bytes expect = compressor("SZ3").compress(f, opt);

  const BlobHeader header = legacy_header("SZ3", f, opt);
  InterpConfig config;  // legacy defaults, incl. the linear-recip quantizer
  const InterpEncoding enc =
      interp_compress(f, header.abs_error_bound, config);
  Bytes out;
  header.encode(out);
  append_pod<std::uint8_t>(out, kLayoutSingle);
  const Bytes payload = interp_payload_encode(config, enc);
  append_pod<std::uint64_t>(out, payload.size());
  append_bytes(out, payload);

  ASSERT_EQ(out, expect) << "component-assembled SZ3 blob diverged";
  EXPECT_EQ(fnv1a(out), pinned(pinned_name).blob_hash);
}

TEST(ReferenceBlobs, ComposedInterpEquivalence) {
  check_interp_equivalence("sz3_1d_f32", {4096});
  check_interp_equivalence("sz3_2d_f32", {96, 96});
  check_interp_equivalence("sz3_3d_f32", {32, 32, 32});
}

}  // namespace
}  // namespace eblcio
