// Zone-sharded containers and partial-region reads: extent math, region
// reads on every codec, rank and dtype against the serial reference and the
// full read's slice, the zoned container index through every IoTool, random
// query boxes vs the serial reference, and robustness (corrupt zone
// indexes, truncated zone blobs, out-of-bounds queries, and forged
// containers whose chunks disagree with the index in rows or dtype must
// fail cleanly with no partial field escaping; the retired version-1
// layout is refused at open), and the full read as the whole-domain region
// read.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>

#include "common/buffer_pool.h"
#include "common/error.h"
#include "common/region.h"
#include "common/rng.h"
#include "compressors/backend.h"
#include "compressors/block_core.h"
#include "compressors/chunking.h"
#include "compressors/compressor.h"
#include "compressors/zone.h"
#include "core/pipeline.h"
#include "data/dataset.h"
#include "io/io_tool.h"
#include "io/pfs.h"
#include "metrics/error_stats.h"
#include "test_util.h"

namespace eblcio {
namespace {

using test::decode_box;
using test::double_field_4d;
using test::noisy_field_1d;
using test::smooth_field_2d;
using test::smooth_field_3d;

bool bytes_equal(const Field& a, const Field& b) {
  const auto ab = a.bytes();
  const auto bb = b.bytes();
  return ab.size() == bb.size() &&
         std::equal(ab.begin(), ab.end(), bb.begin());
}

// A zeroed field shaped like `region`, dtype matching `like`.
Field region_shaped(const Field& like, const Region& region) {
  const Shape s{std::span<const std::size_t>(region.shape)};
  if (like.dtype() == DType::kFloat32)
    return Field(like.name(), NdArray<float>(s));
  return Field(like.name(), NdArray<double>(s));
}

// Independent slice extraction: the whole field is one "zone" starting at
// row 0, so scattering it into `region` yields exactly the region's values.
Field slice_region(const Field& full, const Region& region) {
  Field out = region_shaped(full, region);
  scatter_zone_into_region(full, 0, region, out);
  return out;
}

// `f` with every value widened to double.
Field widened(const Field& f) {
  const NdArray<float>& src = f.as<float>();
  NdArray<double> arr(src.shape());
  for (std::size_t i = 0; i < src.num_elements(); ++i) arr[i] = src[i];
  return Field(f.name() + "_f64", std::move(arr));
}

Region random_region(Rng& rng, const std::vector<std::size_t>& dims) {
  Region r;
  for (std::size_t d : dims) {
    const std::size_t start = rng.next_below(d);
    const std::size_t len = 1 + rng.next_below(d - start);
    r.start.push_back(start);
    r.shape.push_back(len);
  }
  return r;
}

// --- extent math ------------------------------------------------------------

TEST(ZoneExtents, PartitionLeadingDimensionLikeSlabs) {
  const auto ext = zone_extents(40, 8);
  ASSERT_EQ(ext.size(), 8u);
  std::size_t next = 0, total = 0;
  for (const auto& z : ext) {
    EXPECT_EQ(z.row_start, next);
    EXPECT_GT(z.rows, 0u);
    next += z.rows;
    total += z.rows;
  }
  EXPECT_EQ(total, 40u);
  // 43 = 8*5 + 3: the first three zones take the extra row.
  const auto uneven = zone_extents(43, 8);
  EXPECT_EQ(uneven[0].rows, 6u);
  EXPECT_EQ(uneven[2].rows, 6u);
  EXPECT_EQ(uneven[3].rows, 5u);
}

TEST(ZoneExtents, ClampsToLeadingExtent) {
  const auto ext = zone_extents(3, 16);
  ASSERT_EQ(ext.size(), 3u);
  for (const auto& z : ext) EXPECT_EQ(z.rows, 1u);
}

TEST(ZoneExtents, RejectsNonPositiveZoneCount) {
  EXPECT_THROW(zone_extents(16, 0), InvalidArgument);
}

TEST(CoveringZones, IntersectionIsContiguousRun) {
  const auto ext = zone_extents(40, 8);  // 5 rows each
  EXPECT_EQ(covering_zones(ext, 0, 40).size(), 8u);
  const auto one = covering_zones(ext, 7, 2);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 1u);
  // Rows [4, 6) straddle the zone 0 / zone 1 boundary.
  const auto straddle = covering_zones(ext, 4, 2);
  ASSERT_EQ(straddle.size(), 2u);
  EXPECT_EQ(straddle[0], 0u);
  EXPECT_EQ(straddle[1], 1u);
  // A boundary-aligned query touches only the zone it starts in.
  const auto aligned = covering_zones(ext, 5, 5);
  ASSERT_EQ(aligned.size(), 1u);
  EXPECT_EQ(aligned[0], 1u);
}

TEST(RegionValidate, RejectsEmptyAndOutOfBounds) {
  const std::vector<std::size_t> dims{8, 8};
  EXPECT_NO_THROW(validate_region({{0, 0}, {8, 8}}, dims));
  EXPECT_THROW(validate_region({{0, 0}, {0, 8}}, dims), InvalidArgument);
  EXPECT_THROW(validate_region({{8, 0}, {1, 1}}, dims), InvalidArgument);
  EXPECT_THROW(validate_region({{4, 0}, {5, 1}}, dims), InvalidArgument);
  EXPECT_THROW(validate_region({{0}, {8}}, dims), InvalidArgument);
}

// --- region reads through the zoned container -------------------------------

// Streams `f` out as a `zones`-zone `codec` container. Every box read
// through the laned region pipeline must equal the serial reference and
// the box's slice of the laned full read, bit for bit, and both reads
// must return every pooled buffer they took.
void expect_region_reads_agree(const Field& f, const std::string& codec,
                               int zones, const std::vector<Region>& boxes) {
  PfsSimulator pfs;
  PipelineConfig config;
  config.codec = codec;
  config.error_bound = 1e-3;
  StreamConfig stream;
  stream.slabs = zones;
  const auto wrec = run_streamed_compress_write(f, config, pfs, stream);
  const Field full = run_streamed_read(pfs, wrec.path, config).field;
  ASSERT_EQ(full.shape(), f.shape());
  for (const Region& box : boxes) {
    const BufferPool::Stats before = BufferPool::global().stats();
    const Field got =
        run_streamed_read_region(pfs, wrec.path, box, config).field;
    const Field ref =
        read_region_reference(pfs, wrec.path, box, config.io_library);
    const BufferPool::Stats after = BufferPool::global().stats();
    EXPECT_EQ(after.acquires - before.acquires,
              after.releases - before.releases);
    EXPECT_TRUE(bytes_equal(got, ref));
    EXPECT_TRUE(bytes_equal(got, slice_region(full, box)));
  }
}

// A box that cuts both zones it covers: rows from the middle of zone 0 to
// the middle of zone 1, and one element in from each side past dim 0
// where the extent allows.
Region cutting_box(const std::vector<std::size_t>& dims, int zones) {
  const auto ext = zone_extents(dims[0], zones);
  Region box{std::vector<std::size_t>(dims.size(), 0), dims};
  box.start[0] = ext[0].rows / 2;
  box.shape[0] = ext[0].rows + ext[1].rows / 2 - box.start[0];
  for (std::size_t d = 1; d < dims.size(); ++d)
    if (dims[d] > 2) {
      box.start[d] = 1;
      box.shape[d] = dims[d] - 2;
    }
  return box;
}

TEST(ZonedRegionRead, EveryEblcCodecRankAndDtype) {
  const Field f1 = noisy_field_1d(600);
  const Field f2 = smooth_field_2d(48);
  const Field f3 = smooth_field_3d(24);
  Rng rng(77);
  for (const Field& f : {f1, widened(f1), f2, widened(f2), f3, widened(f3),
                         double_field_4d(8, 12)}) {
    for (const std::string& codec : eblc_names()) {
      if (codec == "QoZ" && f.ndims() == 1) continue;  // QoZ refuses 1D
      SCOPED_TRACE(codec + " " + f.name());
      std::vector<Region> boxes;
      for (int q = 0; q < 3; ++q)
        boxes.push_back(random_region(rng, f.shape().dims_vector()));
      boxes.push_back(cutting_box(f.shape().dims_vector(), 4));
      expect_region_reads_agree(f, codec, 4, boxes);
    }
  }
}

TEST(ZonedRegionRead, BoundaryStraddlingRegions) {
  // 8 zones of 5 rows: straddle one boundary, several boundaries, align
  // exactly on one, and take the whole field.
  expect_region_reads_agree(
      smooth_field_3d(40), "SZ3", 8,
      {Region{{4, 0, 0}, {2, 40, 40}}, Region{{3, 10, 5}, {20, 7, 30}},
       Region{{5, 0, 0}, {5, 40, 40}}, Region{{0, 0, 0}, {40, 40, 40}}});
}

// --- windowed decode (decompress_into with a window) -----------------------

// The windowed decode must equal the full decode cropped to `box`, bit for
// bit, and reconstruct no more than the full decode does.
void expect_windowed_matches_full(std::span<const std::byte> blob,
                                  const Region& box, int threads = 1) {
  const Field full = decompress_any(blob, threads);
  std::size_t reconstructed = 0;
  const Field got = decode_box(blob, box, threads, &reconstructed);
  EXPECT_EQ(got.shape().dims_vector(), box.shape);
  EXPECT_TRUE(bytes_equal(got, slice_region(full, box)));
  EXPECT_GE(reconstructed, box.num_elements());
  EXPECT_LE(reconstructed, full.num_elements());
}

bool throws(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error&) {
    return true;
  }
  return false;
}

// On a possibly corrupt blob: the windowed decode throws exactly when the
// full decode throws, and otherwise returns the full decode's crop.
void expect_throw_parity(std::span<const std::byte> blob, const Region& box) {
  Field full;
  const bool full_threw = throws([&] { full = decompress_any(blob); });
  Field got;
  const bool windowed_threw =
      throws([&] { got = decode_box(blob, box); });
  ASSERT_EQ(windowed_threw, full_threw);
  if (!full_threw) EXPECT_TRUE(bytes_equal(got, slice_region(full, box)));
}

TEST(WindowedDecode, MatchesFullDecodeCropOnEveryEblcRankAndDtype) {
  CompressOptions opt;
  opt.error_bound = 1e-3;
  const Field f1 = noisy_field_1d(700);
  const Field f2 = smooth_field_2d(40);
  const Field f3 = smooth_field_3d(20);
  Rng rng(404);
  for (const Field& f : {f1, widened(f1), f2, widened(f2), f3, widened(f3),
                         double_field_4d(8, 10)}) {
    for (const std::string& codec : eblc_names()) {
      Compressor& c = compressor(codec);
      if (!c.supports(f, opt)) continue;
      const Bytes blob = c.compress(f, opt);
      for (int q = 0; q < 4; ++q) {
        SCOPED_TRACE(codec + " " + f.name() + " query " + std::to_string(q));
        expect_windowed_matches_full(
            blob, random_region(rng, f.shape().dims_vector()));
      }
    }
  }
}

TEST(WindowedDecode, Sz2ReconstructsOnlyTheLowerCone) {
  const Field f = smooth_field_3d(24);  // 4^3 blocks of 6^3
  CompressOptions opt;
  opt.error_bound = 1e-3;
  const Bytes blob = compressor("SZ2").compress(f, opt);
  std::size_t reconstructed = 0;
  // [0, 7) on every axis rounds up to two blocks per axis: 12^3 elements.
  (void)decode_box(blob, {{3, 0, 6}, {4, 7, 1}}, 1, &reconstructed);
  EXPECT_EQ(reconstructed, 12u * 12u * 12u);
  // Other codecs decode in full and crop.
  const Bytes sz3 = compressor("SZ3").compress(f, opt);
  (void)decode_box(sz3, {{3, 0, 6}, {4, 7, 1}}, 1, &reconstructed);
  EXPECT_EQ(reconstructed, f.num_elements());
}

TEST(WindowedDecode, Sz2EdgeBoxes) {
  CompressOptions opt;
  opt.error_bound = 1e-3;
  // 20 = 3 whole blocks + a partial one per axis; 2D edges are 16.
  for (const Field& f : {smooth_field_3d(20), widened(smooth_field_2d(40)),
                         noisy_field_1d(600), double_field_4d(7, 8)}) {
    const Bytes blob = compressor("SZ2").compress(f, opt);
    const auto dims = f.shape().dims_vector();
    const std::size_t nd = dims.size();
    const std::vector<std::size_t> zeros(nd, 0), ones(nd, 1);
    std::vector<std::size_t> last(nd), edge(nd), edge_len(nd);
    for (std::size_t d = 0; d < nd; ++d) {
      last[d] = dims[d] - 1;
      const std::size_t block = nd == 1 ? 256 : nd == 2 ? 16 : 6;
      edge[d] = std::min(block, dims[d] - 1);  // starts on a block edge
      edge_len[d] = std::min(block, dims[d] - edge[d]);  // ends on the next
    }
    SCOPED_TRACE(f.name());
    expect_windowed_matches_full(blob, {zeros, ones});  // the origin
    std::size_t reconstructed = 0;
    (void)decode_box(blob, {last, ones}, 1, &reconstructed);
    EXPECT_EQ(reconstructed, f.num_elements());  // the cone is everything
    expect_windowed_matches_full(blob, {last, ones});
    expect_windowed_matches_full(blob, {edge, edge_len});
    expect_windowed_matches_full(blob, {zeros, dims});
    Rng rng(9);
    for (int q = 0; q < 6; ++q) {
      std::vector<std::size_t> at(nd);
      for (std::size_t d = 0; d < nd; ++d) at[d] = rng.next_below(dims[d]);
      expect_windowed_matches_full(blob, {at, ones});  // single elements
    }
  }
}

TEST(WindowedDecode, MultiSlabSz2AppliesTheConePerSlab) {
  CompressOptions opt;
  opt.error_bound = 1e-3;
  opt.threads = 4;
  Rng rng(57);
  for (const Field& f : {smooth_field_3d(22), widened(smooth_field_2d(50))}) {
    const Bytes blob = compressor("SZ2").compress(f, opt);
    const auto dims = f.shape().dims_vector();
    for (int q = 0; q < 8; ++q) {
      const Region box = random_region(rng, dims);
      SCOPED_TRACE(f.name() + " query " + std::to_string(q));
      expect_windowed_matches_full(blob, box, 1);
      expect_windowed_matches_full(blob, box, 4);
    }
    // One slab only, slab-straddling, and the whole field.
    Region one = {std::vector<std::size_t>(dims.size(), 0), dims};
    one.shape[0] = 2;
    expect_windowed_matches_full(blob, one, 4);
    Region straddle = one;
    straddle.start[0] = dims[0] / 4 - 1;
    straddle.shape[0] = dims[0] / 2;
    expect_windowed_matches_full(blob, straddle, 4);
    expect_windowed_matches_full(
        blob, {std::vector<std::size_t>(dims.size(), 0), dims}, 4);
  }
}

TEST(WindowedDecode, RejectsBoxesOutsideTheBlob) {
  const Field f = smooth_field_3d(12);
  CompressOptions opt;
  for (const std::string& codec : {"SZ2", "SZ3"}) {
    const Bytes blob = compressor(codec).compress(f, opt);
    // The window is checked before the destination: `out` fits none of
    // these boxes, yet each throws InvalidArgument.
    Field out = decompress_any(blob);
    for (const Region& box : {Region{{0, 0}, {4, 4}},
                              Region{{0, 0, 10}, {1, 1, 3}},
                              Region{{0, 0, 0}, {0, 1, 1}}})
      EXPECT_THROW(decompress_into_any(blob, out, 0, box), InvalidArgument);
    EXPECT_THROW(decode_box(blob, {{0, 0}, {4, 4}}), InvalidArgument);
    EXPECT_THROW(decode_box(blob, {{0, 0, 10}, {1, 1, 3}}), InvalidArgument);
  }
}

// --- windowed decode: throw parity with the full decode ---------------------

class WindowedThrowParity : public ::testing::Test {
 protected:
  // Boxes whose cones stop well short of the end of the field, plus the
  // far corner (whole-field cone).
  const std::vector<Region> boxes_{
      {{0, 0, 0}, {1, 1, 1}},
      {{2, 3, 1}, {5, 4, 6}},
      {{23, 23, 23}, {1, 1, 1}}};

  static Field field() { return smooth_field_3d(24); }

  // An absolute bound, so an outlier cannot widen it.
  static CompressOptions absolute_options() {
    CompressOptions opt;
    opt.mode = BoundMode::kAbsolute;
    opt.error_bound = 1e-3;
    return opt;
  }

  // Byte offset of slab 0's code count in an SZ2 blob.
  static std::size_t ncodes_offset(const Bytes& blob) {
    Bytes header;
    peek_header(blob).encode(header);
    return header.size() + sizeof(std::uint32_t);
  }

  // A single-slab SZ2 blob framed by hand from block_compress's streams,
  // after `edit` had its way with them.
  static Bytes sz2_blob(const Field& f,
                        const std::function<void(BlockEncoding&)>& edit) {
    BlobHeader header =
        peek_header(compressor("SZ2").compress(f, absolute_options()));
    BlockEncoding enc =
        block_compress(f, header.abs_error_bound,
                       BlockPredictor::kLorenzoRegression,
                       QuantizerId::kLinearRecip, 0.0);
    edit(enc);
    Bytes out;
    header.encode(out);
    append_pod<std::uint32_t>(out, 1);
    append_pod<std::uint64_t>(out, enc.codes.size());
    append_sized(out, enc.mode_bits);
    append_sized(out, enc.coeffs);
    append_sized(out, enc.unpred);
    append_bytes(out, encode_code_stream(enc.codes, kQuantAlphabet));
    return out;
  }

  void expect_parity_on_every_box(const Bytes& blob) {
    for (const Region& box : boxes_) expect_throw_parity(blob, box);
  }
};

TEST_F(WindowedThrowParity, HandFramedBlobMatchesTheCodec) {
  EXPECT_EQ(sz2_blob(field(), [](BlockEncoding&) {}),
            compressor("SZ2").compress(field(), absolute_options()));
}

TEST_F(WindowedThrowParity, Truncations) {
  CompressOptions opt;
  opt.error_bound = 1e-3;
  for (const int threads : {1, 4}) {
    opt.threads = threads;
    const Bytes blob = compressor("SZ2").compress(field(), opt);
    Rng rng(17 + threads);
    for (int trial = 0; trial < 30; ++trial) {
      const Bytes cut(blob.begin(),
                      blob.begin() + static_cast<std::ptrdiff_t>(
                                         rng.next_below(blob.size())));
      SCOPED_TRACE("cut at " + std::to_string(cut.size()));
      expect_parity_on_every_box(cut);
    }
  }
}

TEST_F(WindowedThrowParity, ForgedCodeCounts) {
  CompressOptions opt;
  opt.error_bound = 1e-3;
  for (const int threads : {1, 4}) {
    opt.threads = threads;
    const Bytes blob = compressor("SZ2").compress(field(), opt);
    const std::size_t at = ncodes_offset(blob);
    for (const std::int64_t delta : {-1, 1, -216, 216}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " delta " +
                   std::to_string(delta));
      Bytes forged = blob;
      std::uint64_t n = 0;
      std::memcpy(&n, forged.data() + at, 8);
      n += static_cast<std::uint64_t>(delta);
      std::memcpy(forged.data() + at, &n, 8);
      expect_parity_on_every_box(forged);
      if (threads == 1) continue;
      // Move codes from slab 1 to slab 0: the total still matches, so
      // only the slab the boxes never touch underruns.
      ByteReader r(std::span<const std::byte>(forged).subspan(at + 8));
      for (int stream = 0; stream < 3; ++stream) (void)read_sized(r);
      const std::size_t slab1 = at + 8 + r.pos();
      std::uint64_t n1 = 0;
      std::memcpy(&n1, forged.data() + slab1, 8);
      n1 -= static_cast<std::uint64_t>(delta);
      std::memcpy(forged.data() + slab1, &n1, 8);
      expect_parity_on_every_box(forged);
    }
  }
}

TEST_F(WindowedThrowParity, UnpredictableUnderrunAfterTheLastNeededBlock) {
  // An outlier in the field's last element is an unpredictable value that
  // only the last block consumes; dropping it from the stream leaves every
  // box whose cone ends earlier able to decode — unless the demand is
  // checked up front, as the full decode's incremental reads imply.
  Field f = field();
  NdArray<float>& arr = f.as<float>();
  arr[arr.num_elements() - 1] = 1e6f;
  const Bytes good = sz2_blob(f, [](BlockEncoding&) {});
  expect_parity_on_every_box(good);
  const Bytes bad = sz2_blob(f, [](BlockEncoding& enc) {
    ASSERT_GE(enc.unpred.size(), sizeof(float));
    enc.unpred.resize(enc.unpred.size() - sizeof(float));
  });
  EXPECT_THROW(decompress_any(bad), CorruptStream);
  expect_parity_on_every_box(bad);
}

TEST_F(WindowedThrowParity, ForgedModeBitsAndCoefficients) {
  // Turning on the regression bit of the last block asks for one
  // coefficient record more than the stream holds.
  const Bytes extra_reg = sz2_blob(field(), [](BlockEncoding& enc) {
    for (std::size_t bit = enc.mode_bits.size() * 8; bit-- > 0;) {
      const auto mask = static_cast<std::byte>(1u << (bit % 8));
      if ((enc.mode_bits[bit / 8] & mask) == std::byte{0}) {
        enc.mode_bits[bit / 8] |= mask;
        return;
      }
    }
  });
  EXPECT_THROW(decompress_any(extra_reg), CorruptStream);
  expect_parity_on_every_box(extra_reg);
  const Bytes short_coeffs = sz2_blob(field(), [](BlockEncoding& enc) {
    if (!enc.coeffs.empty()) enc.coeffs.pop_back();
  });
  expect_parity_on_every_box(short_coeffs);
  const Bytes short_bits = sz2_blob(field(), [](BlockEncoding& enc) {
    enc.mode_bits.pop_back();
  });
  EXPECT_THROW(decompress_any(short_bits), CorruptStream);
  expect_parity_on_every_box(short_bits);
}

TEST_F(WindowedThrowParity, RandomByteFlips) {
  CompressOptions opt;
  opt.error_bound = 1e-3;
  for (const std::string& codec : {"SZ2", "SZ3"}) {
    const Bytes blob = compressor(codec).compress(field(), opt);
    Bytes header;
    peek_header(blob).encode(header);
    Rng rng(23);
    for (int trial = 0; trial < 30; ++trial) {
      Bytes flipped = blob;
      const std::size_t at =
          header.size() + rng.next_below(blob.size() - header.size());
      flipped[at] ^= static_cast<std::byte>(1 + rng.next_below(255));
      SCOPED_TRACE(codec + " flip at " + std::to_string(at));
      expect_parity_on_every_box(flipped);
    }
  }
}

// --- zoned containers through every IoTool ----------------------------------

class ZonedContainer : public ::testing::TestWithParam<std::string> {};

TEST_P(ZonedContainer, FooterZoneIndexRoundTrips) {
  const Field f = smooth_field_3d(40);
  PfsSimulator pfs;
  PipelineConfig config;
  config.codec = "SZ3";
  config.io_library = GetParam();
  StreamConfig stream;
  stream.slabs = 8;
  const auto wrec = run_streamed_compress_write(f, config, pfs, stream);

  auto reader = io_tool(GetParam()).open_chunked_reader(pfs, wrec.path);
  EXPECT_EQ(reader.index().zones, zone_extents(40, 8));

  // covering() resolves boxes from the footer alone: the two zones the
  // straddling box touches, whose fetches return exactly the bytes their
  // appends wrote.
  const Region straddle{{4, 0, 0}, {2, 40, 40}};
  const auto cover = reader.covering(straddle);
  ASSERT_EQ(cover.size(), 2u);
  EXPECT_EQ(cover[0] + 1, cover[1]);
  for (const std::size_t zi : cover) {
    IoCost cost;
    Bytes blob = reader.read_chunk(zi, &cost);
    const ZoneExtent& z = reader.index().zones[zi];
    EXPECT_LT(z.row_start, 6u);
    EXPECT_GT(z.row_start + z.rows, 4u);
    EXPECT_EQ(blob.size(), reader.index().chunks[zi].size);
    EXPECT_EQ(peek_header(blob).dims[0], z.rows);
    EXPECT_GT(cost.total_seconds(), 0.0);
  }
}

TEST_P(ZonedContainer, RandomQueryBoxesMatchSerialReference) {
  // The acceptance loop for partial reads: every random query box decoded
  // through the streamed region pipeline must be bit-identical to the
  // serial fetch-then-decode reference, and to the corresponding slice of
  // the full-field streamed read.
  const Field f = smooth_field_3d(40);
  PfsSimulator pfs;
  PipelineConfig config;
  config.codec = "SZ3";
  config.error_bound = 1e-3;
  config.io_library = GetParam();
  StreamConfig stream;
  stream.slabs = 8;
  const auto wrec = run_streamed_compress_write(f, config, pfs, stream);
  const Field full = run_streamed_read(pfs, wrec.path, config).field;

  Rng rng(101);
  for (int q = 0; q < 6; ++q) {
    const Region region = random_region(rng, {40, 40, 40});
    const auto rec = run_streamed_read_region(pfs, wrec.path, region, config);
    const Field ref = read_region_reference(pfs, wrec.path, region, GetParam());
    EXPECT_TRUE(bytes_equal(rec.field, ref)) << "query " << q;
    EXPECT_TRUE(bytes_equal(rec.field, slice_region(full, region)))
        << "query " << q;
    EXPECT_EQ(rec.field_bytes, rec.field.size_bytes());
    EXPECT_EQ(rec.zones_total, 8);
    EXPECT_EQ(static_cast<std::size_t>(rec.zones_decoded),
              covering_zones(zone_extents(40, 8), region.start[0],
                             region.shape[0])
                  .size());
  }
}

TEST_P(ZonedContainer, WindowedSz2QueriesMatchReferenceWithTransportOnAndOff) {
  const Field f = smooth_field_3d(40);
  PfsSimulator pfs;
  PipelineConfig config;
  config.codec = "SZ2";
  config.error_bound = 1e-3;
  config.io_library = GetParam();
  StreamConfig stream;
  stream.slabs = 5;  // 8-row zones
  const auto wrec = run_streamed_compress_write(f, config, pfs, stream);

  Rng rng(202);
  for (int q = 0; q < 5; ++q) {
    const Region region = random_region(rng, {40, 40, 40});
    const Field ref = read_region_reference(pfs, wrec.path, region, GetParam());
    for (const bool transport : {true, false}) {
      stream.use_transport = transport;
      const auto rec =
          run_streamed_read_region(pfs, wrec.path, region, config, stream);
      SCOPED_TRACE("query " + std::to_string(q) +
                   (transport ? " transport" : " blocking"));
      EXPECT_TRUE(bytes_equal(rec.field, ref));
      // Each covering zone rebuilds at least its part of the box and at
      // most the whole zone.
      const std::size_t zone_elems = 8 * 40 * 40;
      EXPECT_GE(rec.elements_reconstructed, region.num_elements());
      EXPECT_LE(rec.elements_reconstructed,
                static_cast<std::size_t>(rec.zones_decoded) * zone_elems);
    }
  }
  // A box in the first block of a zone reconstructs one block row of it.
  const auto corner = run_streamed_read_region(
      pfs, wrec.path, {{8, 0, 0}, {1, 1, 1}}, config, stream);
  EXPECT_EQ(corner.elements_reconstructed, 6u * 6u * 6u);
}

INSTANTIATE_TEST_SUITE_P(AllContainers, ZonedContainer,
                         ::testing::Values("HDF5", "NetCDF", "ADIOS"));

// --- the point of the zone index: fetch scales with the query ---------------

TEST(ZoneRegionRead, BytesFetchedScaleWithQueryNotField) {
  const Field f = smooth_field_3d(48);
  PfsSimulator pfs;
  PipelineConfig config;
  config.codec = "SZ3";
  StreamConfig stream;
  stream.slabs = 8;
  const auto wrec = run_streamed_compress_write(f, config, pfs, stream);

  const Region one_zone{{0, 0, 0}, {2, 48, 48}};
  const auto small = run_streamed_read_region(pfs, wrec.path, one_zone, config);
  EXPECT_EQ(small.zones_decoded, 1);
  EXPECT_GT(small.bytes_fetched, 0u);
  EXPECT_LT(small.fetch_fraction(), 0.5);

  const Region everything{{0, 0, 0}, {48, 48, 48}};
  const auto all = run_streamed_read_region(pfs, wrec.path, everything, config);
  EXPECT_EQ(all.zones_decoded, 8);
  EXPECT_GT(all.bytes_fetched, small.bytes_fetched);
  // A full-box query fetches every chunk payload, nothing more.
  auto reader = io_tool("HDF5").open_chunked_reader(pfs, wrec.path);
  EXPECT_EQ(all.bytes_fetched, reader.index().total_bytes());
}

TEST(ZoneRegionRead, StreamedOverlapUndercutsSerialSchedule) {
  const Field f = smooth_field_3d(48);
  PfsSimulator pfs;
  PipelineConfig config;
  config.codec = "SZ3";
  StreamConfig stream;
  stream.slabs = 8;
  const auto wrec = run_streamed_compress_write(f, config, pfs, stream);
  const Region region{{8, 0, 0}, {30, 48, 48}};
  const auto rec = run_streamed_read_region(pfs, wrec.path, region, config);
  ASSERT_EQ(rec.zone_fetch_s.size(),
            static_cast<std::size_t>(rec.zones_decoded));
  ASSERT_EQ(rec.zone_decompress_s.size(),
            static_cast<std::size_t>(rec.zones_decoded));
  for (double s : rec.zone_fetch_s) EXPECT_GT(s, 0.0);
  for (double s : rec.zone_decompress_s) EXPECT_GT(s, 0.0);
  EXPECT_GT(rec.streamed_total_s, 0.0);
  EXPECT_LT(rec.streamed_total_s, rec.serial_total_s);
  EXPECT_GT(rec.overlap_saving_s(), 0.0);
  EXPECT_GT(rec.fetch_j, 0.0);
  EXPECT_GT(rec.decompress_j, 0.0);
}

// --- robustness -------------------------------------------------------------

class ZoneRobustness : public ::testing::Test {
 protected:
  void SetUp() override {
    field_ = smooth_field_3d(24);
    config_.codec = "SZ3";
    StreamConfig stream;
    stream.slabs = 4;
    path_ = run_streamed_compress_write(field_, config_, pfs_, stream).path;
    nchunks_ = 4;
  }

  void corrupt(const std::function<void(Bytes&)>& mutate) {
    Bytes raw = pfs_.read_file(path_);
    mutate(raw);
    pfs_.write_file(path_, raw);
  }

  // Byte offset of zone entry `i`'s field `word` (0 = offset, 1 = size,
  // 2 = row_start, 3 = rows) inside the container's footer.
  std::size_t footer_word(const Bytes& raw, std::size_t i,
                          std::size_t word) const {
    const std::size_t footer_len = 12 + 32 * nchunks_ + 8;
    return raw.size() - footer_len + 12 + 32 * i + 8 * word;
  }

  Region region_{{0, 0, 0}, {24, 24, 24}};
  Field field_;
  PipelineConfig config_;
  PfsSimulator pfs_;
  std::string path_;
  std::size_t nchunks_ = 0;
};

TEST_F(ZoneRobustness, OutOfBoundsExtentFailsCleanly) {
  // Blow up the first entry's size: the overflow-safe extent check must
  // reject the index at open, before any chunk fetch.
  corrupt([&](Bytes& raw) {
    const std::uint64_t huge = ~std::uint64_t{0} / 2;
    std::memcpy(raw.data() + footer_word(raw, 0, 1), &huge, 8);
  });
  EXPECT_THROW(run_streamed_read_region(pfs_, path_, region_, config_),
               CorruptStream);
  EXPECT_THROW(read_region_reference(pfs_, path_, region_, "HDF5"),
               CorruptStream);
}

TEST_F(ZoneRobustness, NonContiguousZoneIndexFailsCleanly) {
  // Shift zone 1's row_start: the index no longer partitions the rows.
  corrupt([&](Bytes& raw) {
    const std::uint64_t bad = 17;
    std::memcpy(raw.data() + footer_word(raw, 1, 2), &bad, 8);
  });
  EXPECT_THROW(run_streamed_read_region(pfs_, path_, region_, config_),
               CorruptStream);
}

TEST_F(ZoneRobustness, ShortZoneCoverageFailsCleanly) {
  // Shrink the last zone so the index stops short of the dataset rows.
  corrupt([&](Bytes& raw) {
    const std::uint64_t bad = 1;
    std::memcpy(raw.data() + footer_word(raw, nchunks_ - 1, 3), &bad, 8);
  });
  EXPECT_THROW(run_streamed_read_region(pfs_, path_, region_, config_),
               CorruptStream);
}

TEST_F(ZoneRobustness, TruncatedZoneBlobFailsWithoutPartialField) {
  // Halve the first zone's recorded size: the extent stays in bounds, so
  // the open succeeds, but decoding the truncated blob must throw — from
  // both the streamed pipeline and the serial reference — with no partial
  // region escaping.
  corrupt([&](Bytes& raw) {
    std::uint64_t size = 0;
    std::memcpy(&size, raw.data() + footer_word(raw, 0, 1), 8);
    size /= 2;
    std::memcpy(raw.data() + footer_word(raw, 0, 1), &size, 8);
  });
  const Region hits_zone0{{0, 0, 0}, {2, 24, 24}};
  EXPECT_THROW(
      (void)run_streamed_read_region(pfs_, path_, hits_zone0, config_), Error);
  EXPECT_THROW((void)read_region_reference(pfs_, path_, hits_zone0, "HDF5"),
               Error);
  // Queries that never touch the truncated zone still decode.
  const Region other_zones{{12, 0, 0}, {6, 24, 24}};
  const auto rec = run_streamed_read_region(pfs_, path_, other_zones, config_);
  EXPECT_TRUE(bytes_equal(
      rec.field, read_region_reference(pfs_, path_, other_zones, "HDF5")));
}

TEST_F(ZoneRobustness, CorruptZoneBlobFailsWithoutPartialField) {
  // Flip the middle of zone 2's payload: fetch succeeds, decode throws.
  auto reader = io_tool("HDF5").open_chunked_reader(pfs_, path_);
  const auto extent = reader.index().chunks[2];
  corrupt([&](Bytes& raw) {
    for (std::size_t i = 0; i < extent.size; ++i)
      raw[static_cast<std::size_t>(extent.offset) + i] ^= std::byte{0xff};
  });
  const Region hits_zone2{{13, 0, 0}, {2, 24, 24}};
  EXPECT_THROW(
      (void)run_streamed_read_region(pfs_, path_, hits_zone2, config_), Error);
  EXPECT_THROW((void)read_region_reference(pfs_, path_, hits_zone2, "HDF5"),
               Error);
}

TEST_F(ZoneRobustness, OutOfBoundsRegionIsInvalidArgument) {
  EXPECT_THROW(run_streamed_read_region(pfs_, path_, {{0, 0, 0}, {25, 24, 24}},
                                        config_),
               InvalidArgument);
  EXPECT_THROW(
      run_streamed_read_region(pfs_, path_, {{0, 0}, {4, 4}}, config_),
      InvalidArgument);
  EXPECT_THROW(
      read_region_reference(pfs_, path_, {{24, 0, 0}, {1, 1, 1}}, "HDF5"),
      InvalidArgument);
  EXPECT_THROW(read_region_reference(pfs_, path_, {{0, 0}, {4, 4}}, "HDF5"),
               InvalidArgument);
}

// --- one container layout --------------------------------------------------

// The retired version-1 layout ("CIDX" footer, header version 1) carried no
// zone index. A zoned container patched to either marker is malformed: the
// open refuses it from the footer or header, before any chunk is fetched,
// and so does every reader built on it.
class RetiredV1Layout : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    config_.codec = "SZ3";
    config_.io_library = GetParam();
    StreamConfig stream;
    stream.slabs = 3;
    path_ =
        run_streamed_compress_write(smooth_field_3d(12), config_, pfs_, stream)
            .path;
  }

  // Patches the container's bytes, then expects every reader to refuse it
  // with a CorruptStream whose message names `what`.
  void expect_refused(const std::function<void(Bytes&)>& patch,
                      const std::string& what) {
    Bytes raw = pfs_.read_file(path_);
    patch(raw);
    pfs_.write_file(path_, raw);
    try {
      (void)io_tool(GetParam()).open_chunked_reader(pfs_, path_);
      ADD_FAILURE() << "open accepted a retired layout";
    } catch (const CorruptStream& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
    StreamConfig stream;
    for (const bool transport : {true, false}) {
      stream.use_transport = transport;
      EXPECT_THROW((void)run_streamed_read(pfs_, path_, config_, stream),
                   CorruptStream);
    }
    EXPECT_THROW((void)read_chunked_field(pfs_, path_, GetParam()),
                 CorruptStream);
  }

  PipelineConfig config_;
  PfsSimulator pfs_;
  std::string path_;
};

TEST_P(RetiredV1Layout, CidxFooterMagicIsRefused) {
  expect_refused(
      [](Bytes& raw) {
        std::uint64_t footer_start = 0;
        std::memcpy(&footer_start, raw.data() + raw.size() - 8, 8);
        const std::uint32_t cidx = 0x58444943;  // "CIDX"
        std::memcpy(raw.data() + footer_start, &cidx, 4);
      },
      "footer magic");
}

TEST_P(RetiredV1Layout, VersionOneHeaderIsRefused) {
  expect_refused(
      [](Bytes& raw) {
        const std::uint16_t v1 = 1;
        std::memcpy(raw.data() + 4, &v1, 2);  // after the u32 "EBCK" magic
      },
      "header version");
}

INSTANTIATE_TEST_SUITE_P(AllContainers, RetiredV1Layout,
                         ::testing::Values("HDF5", "NetCDF", "ADIOS"));

TEST(ZonedWriter, RejectsBadPartitions) {
  const Field f = smooth_field_3d(16);
  PfsSimulator pfs;
  IoTool& tool = io_tool("HDF5");
  ChunkedDatasetMeta meta;
  meta.name = "zs";
  meta.dims = f.shape().dims_vector();
  const Bytes blob(512, std::byte{0x2a});

  auto writer = tool.open_zoned(pfs, "/pfs/z", meta);
  EXPECT_THROW(writer.append_zone(blob, {0, 0}), InvalidArgument);
  writer.append_zone(blob, {0, 8});
  // Out-of-order / gapped extents are rejected immediately.
  EXPECT_THROW(writer.append_zone(blob, {9, 7}), InvalidArgument);
  // Closing before the zones cover the dataset rows is rejected.
  EXPECT_THROW(writer.close(), InvalidArgument);
}

// A box covering a blob's whole extent decodes exactly as decompress_any.
TEST(WholeBoxDecode, EqualsDecompressAnyForEveryCodec) {
  CompressOptions opt;
  opt.error_bound = 1e-3;
  const Field f3 = smooth_field_3d(20);
  const Field f4 = double_field_4d(8, 10);
  for (const Field& f : {f3, widened(f3), f4}) {
    std::vector<std::string> codecs = all_compressor_names();
    codecs.push_back("composed:lorenzo1+linear+huffman");
    for (const std::string& codec : codecs) {
      Compressor& c = compressor(codec);
      if (!c.supports(f, opt)) continue;
      SCOPED_TRACE(codec + " " + f.name());
      const Bytes blob = c.compress(f, opt);
      const Region whole{std::vector<std::size_t>(f.ndims(), 0),
                         f.shape().dims_vector()};
      std::size_t reconstructed = 0;
      const Field got = decode_box(blob, whole, 1, &reconstructed);
      EXPECT_TRUE(bytes_equal(got, decompress_any(blob)));
      EXPECT_EQ(got.shape().dims_vector(), f.shape().dims_vector());
      EXPECT_EQ(reconstructed, f.num_elements());
    }
  }
}

// A destination shaped like `blob_dims` plus `guard` rows before and after,
// every byte set to `fill` (0xA5 reads as a plain value, 0xFF as NaN).
Field guarded_destination(DType dtype, std::vector<std::size_t> dims,
                          std::size_t guard, unsigned char fill) {
  dims[0] += 2 * guard;
  Field out =
      unfilled_field("dst", dtype, Shape{std::span<const std::size_t>(dims)});
  void* data = dtype == DType::kFloat32
                   ? static_cast<void*>(out.as<float>().data())
                   : static_cast<void*>(out.as<double>().data());
  std::memset(data, fill, out.size_bytes());
  return out;
}

// Decodes `window` of `blob` (the whole blob when absent) into the
// guarded destinations both fills give, and returns the bytes of its rows.
// The two are each other's referee: an element left unwritten, or read
// before it is written, shows its fill, so the window's rows must read the
// same bytes under both, and the guard rows must keep their fill. (The
// decoded values themselves are pinned by the reference blobs and
// ZfpGolden.) Then every mismatched destination (dtype, rank, a wider row,
// rows past the end, and for a window the blob's own extents) must throw
// CorruptStream and leave its bytes as they were.
Bytes expect_decodes_into_exactly_its_rows(const Bytes& blob,
                                           const Window& window,
                                           int threads) {
  constexpr std::size_t kGuard = 3;
  const BlobHeader header = peek_header(blob);
  Compressor& codec = compressor(header.codec);
  const std::vector<std::size_t> dims = window ? window->shape : header.dims;
  const std::size_t elements =
      Shape{std::span<const std::size_t>(dims)}.num_elements();
  const std::size_t rows_bytes = elements * dtype_size(header.dtype);
  const std::size_t guard_bytes = kGuard * rows_bytes / dims[0];
  std::vector<Bytes> rows;
  for (const unsigned char fill : {0xA5, 0xFF}) {
    SCOPED_TRACE("fill " + std::to_string(fill));
    Field out = guarded_destination(header.dtype, dims, kGuard, fill);
    const std::size_t n =
        codec.decompress_into(blob, out, kGuard, window, threads);
    EXPECT_GE(n, elements);
    EXPECT_LE(n, header.num_elements());
    const auto got = out.bytes();
    const auto mine = got.subspan(guard_bytes, rows_bytes);
    rows.emplace_back(mine.begin(), mine.end());
    for (const std::size_t i : {std::size_t{0}, guard_bytes + rows_bytes})
      EXPECT_TRUE(std::all_of(
          got.begin() + i, got.begin() + i + guard_bytes,
          [&](std::byte b) { return b == static_cast<std::byte>(fill); }));
  }
  EXPECT_TRUE(rows[0] == rows[1]);
  Field through_any = guarded_destination(header.dtype, dims, 0, 0xA5);
  decompress_into_any(blob, through_any, 0, window, threads);
  EXPECT_TRUE(std::equal(rows[0].begin(), rows[0].end(),
                         through_any.bytes().begin(),
                         through_any.bytes().end()));

  const DType other = header.dtype == DType::kFloat32 ? DType::kFloat64
                                                      : DType::kFloat32;
  std::vector<std::size_t> wider = dims, other_rank = dims;
  wider.back() += 1;
  other_rank.pop_back();
  if (other_rank.empty()) other_rank = {dims[0], 1, 1};
  struct Mismatch {
    Field out;
    std::size_t row_start;
  };
  std::vector<Mismatch> mismatches;
  mismatches.push_back({guarded_destination(other, dims, 1, 0xA5), 1});
  if (dims.size() > 1)  // a 1D window's only extent is its rows
    mismatches.push_back(
        {guarded_destination(header.dtype, wider, 1, 0xA5), 1});
  mismatches.push_back(
      {guarded_destination(header.dtype, other_rank, 1, 0xA5), 1});
  mismatches.push_back({guarded_destination(header.dtype, dims, 1, 0xA5), 3});
  mismatches.push_back(
      {guarded_destination(header.dtype, dims, 1, 0xA5), ~0ull});
  if (!std::equal(dims.begin() + 1, dims.end(), header.dims.begin() + 1))
    mismatches.push_back(
        {guarded_destination(header.dtype, header.dims, 1, 0xA5), 1});
  for (Mismatch& m : mismatches) {
    const Bytes before(m.out.bytes().begin(), m.out.bytes().end());
    EXPECT_THROW(
        codec.decompress_into(blob, m.out, m.row_start, window, threads),
        CorruptStream);
    EXPECT_TRUE(std::equal(before.begin(), before.end(),
                           m.out.bytes().begin(), m.out.bytes().end()));
  }
  return rows[0];
}

// Windows of a blob shaped `dims`: one cutting every axis, the second half
// of its rows (whole past dim 0: it cuts a multi-slab blob's slabs), and
// the far corner element.
std::vector<Region> test_windows(const std::vector<std::size_t>& dims) {
  Region inner{dims, dims}, tail{std::vector<std::size_t>(dims.size(), 0),
                                 dims};
  Region corner{dims, std::vector<std::size_t>(dims.size(), 1)};
  for (std::size_t d = 0; d < dims.size(); ++d) {
    inner.start[d] = dims[d] / 4;
    inner.shape[d] = std::max<std::size_t>(dims[d] / 2, 1);
    corner.start[d] = dims[d] - 1;
  }
  tail.start[0] = dims[0] / 2;
  tail.shape[0] = dims[0] - dims[0] / 2;
  return {inner, tail, corner};
}

// decompress_into writes every element of exactly its rows, whatever they
// held before, for every codec, both dtypes, 1D to 4D, serial and 4-chunk
// blobs: the whole blob, and windows equal to the full decode's crop.
TEST(DecodeInto, EveryCodecWritesExactlyItsRows) {
  std::vector<std::string> codecs = all_compressor_names();
  codecs.push_back("composed:interp-cubic+log+huffman-lz");
  const Field f3 = smooth_field_3d(20);
  for (const Field& f :
       {f3, widened(f3), noisy_field_1d(3000), double_field_4d(7, 10)}) {
    const auto dims = f.shape().dims_vector();
    for (const std::string& name : codecs) {
      Compressor& codec = compressor(name);
      for (const int threads : {1, 4}) {
        CompressOptions opt;
        opt.error_bound = 1e-3;
        opt.threads = threads;
        if (codec.caps().lossless) opt.mode = BoundMode::kLossless;
        if (!codec.supports(f, opt)) continue;
        SCOPED_TRACE(name + " " + f.name() + " threads " +
                     std::to_string(threads));
        const Bytes blob = codec.compress(f, opt);
        const Field full = field_from_bytes(
            "full", f.dtype(), dims,
            expect_decodes_into_exactly_its_rows(blob, std::nullopt,
                                                 threads));
        for (const Region& box : test_windows(dims)) {
          SCOPED_TRACE("window from " + std::to_string(box.start[0]));
          const Bytes got =
              expect_decodes_into_exactly_its_rows(blob, box, threads);
          const Field crop = slice_region(full, box);
          EXPECT_TRUE(std::equal(got.begin(), got.end(), crop.bytes().begin(),
                                 crop.bytes().end()));
        }
      }
    }
  }
}

// The same on the paper's four datasets, through SZ3's in-place kernels.
TEST(DecodeInto, Sz3OnThePaperDatasets) {
  const std::vector<std::pair<std::string, std::vector<std::size_t>>> sets =
      {{"NYX", {24, 24, 24}},
       {"S3D", {11, 12, 12, 12}},
       {"CESM", {5, 40, 60}},
       {"HACC", {20000}}};
  for (const auto& [name, dims] : sets) {
    const Field f = generate_dataset_dims(name, dims, 42);
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(name + " threads " + std::to_string(threads));
      CompressOptions opt;
      opt.threads = threads;
      expect_decodes_into_exactly_its_rows(compressor("SZ3").compress(f, opt),
                                           std::nullopt, threads);
    }
  }
}

// The full restart is the whole-domain region read: same field, bytes,
// fetch columns and modeled schedule.
TEST(WholeDomainRead, FullReadIsTheWholeDomainRegionRead) {
  const Field f = smooth_field_3d(24);
  PfsSimulator pfs;
  PipelineConfig config;
  config.codec = "SZ2";
  StreamConfig stream;
  stream.slabs = 4;
  const auto wrec = run_streamed_compress_write(f, config, pfs, stream);
  const std::size_t payload =
      io_tool("HDF5").open_chunked_reader(pfs, wrec.path).index().total_bytes();
  const Region whole{{0, 0, 0}, {24, 24, 24}};
  const auto sum = [](const std::vector<double>& v) {
    double t = 0.0;
    for (const double x : v) t += x;
    return t;
  };
  for (const bool transport : {true, false}) {
    SCOPED_TRACE(transport ? "transport" : "blocking");
    stream.use_transport = transport;
    const auto full = run_streamed_read(pfs, wrec.path, config, stream);
    const auto region =
        run_streamed_read_region(pfs, wrec.path, whole, config, stream);
    EXPECT_TRUE(bytes_equal(full.field, region.field));
    EXPECT_TRUE(bytes_equal(full.field, read_chunked_field(pfs, wrec.path,
                                                           "HDF5")));
    EXPECT_EQ(full.bytes_fetched, payload);
    EXPECT_EQ(region.bytes_fetched, payload);
    EXPECT_EQ(region.elements_reconstructed, f.num_elements());
    EXPECT_EQ(full.slabs, 4);
    EXPECT_EQ(region.zones_decoded, 4);
    EXPECT_EQ(full.lanes, region.lanes);
    // Fetch pricing is deterministic; decode seconds are host-timed.
    EXPECT_EQ(full.slab_fetch_s, region.zone_fetch_s);
    EXPECT_EQ(full.transport.sectors, region.transport.sectors);
    // Serial makespan: open + every fetch + every decode, so the two agree
    // once each run's own decode seconds are taken out.
    const double full_open_fetch =
        full.serial_total_s - sum(full.slab_decompress_s);
    const double region_open_fetch =
        region.serial_total_s - sum(region.zone_decompress_s);
    EXPECT_NEAR(full_open_fetch, region_open_fetch,
                1e-12 * full.serial_total_s);
    if (transport) continue;
    // Streamed makespan (blocking path, the read solver over the eager
    // wire): swapping the two runs' decode columns swaps their makespans.
    const double open_s = full_open_fetch - sum(full.slab_fetch_s);
    const auto eager_read = [&](const std::vector<double>& fetch,
                                const std::vector<double>& consume,
                                int lanes) {
      return solve_read_timeline(TransportConfig{}, eager_wire(fetch.size()),
                                 consume, fetch, kStreamQueueDepth, open_s,
                                 lanes)
          .makespan_s;
    };
    EXPECT_NEAR(eager_read(full.slab_fetch_s, region.zone_decompress_s,
                           full.lanes),
                region.streamed_total_s, 1e-12 * region.streamed_total_s);
    EXPECT_NEAR(eager_read(region.zone_fetch_s, full.slab_decompress_s,
                           region.lanes),
                full.streamed_total_s, 1e-12 * full.streamed_total_s);
  }
}

// --- forged containers: chunk headers are checked before placement ----------

class ForgedContainer : public ::testing::Test {
 protected:
  // 24^3 field cut into 4 six-row slabs, each compressed at the whole-field
  // bound; `wide` is the first twelve rows as one blob, `as_f64` slab 2 of
  // the same values in double precision.
  void SetUp() override {
    field_ = smooth_field_3d(24);
    opt_.mode = BoundMode::kAbsolute;
    CompressOptions rel;
    opt_.error_bound = absolute_bound_for(field_, rel);
    for (const Field& slab : split_slabs(field_, 4))
      blobs_.push_back(compressor("SZ3").compress(slab, opt_));
    wide_ = compressor("SZ3").compress(split_slabs(field_, 2)[0], opt_);
    const Field slab2 = split_slabs(field_, 4)[2];
    NdArray<double> d(slab2.shape());
    for (std::size_t i = 0; i < d.num_elements(); ++i)
      d[i] = slab2.as<float>()[i];
    as_f64_ = compressor("SZ3").compress(Field(field_.name(), std::move(d)), opt_);
  }

  // Writes `blobs` as a zoned container claiming the honest 6-row extents.
  void write(const std::vector<Bytes>& blobs) {
    IoTool& tool = io_tool("HDF5");
    ChunkedDatasetMeta meta;
    meta.name = field_.name();
    meta.dims = field_.shape().dims_vector();
    auto out = tool.open_zoned(pfs_, path_, meta);
    const auto zones = zone_extents(24, 4);
    for (std::size_t i = 0; i < blobs.size(); ++i)
      out.append_zone(blobs[i], zones[i]);
    out.close();
  }

  // Every reader of the container must refuse it with CorruptStream.
  void expect_rejected() {
    PipelineConfig config;
    StreamConfig stream;
    for (const bool transport : {true, false}) {
      stream.use_transport = transport;
      EXPECT_THROW((void)run_streamed_read(pfs_, path_, config, stream),
                   CorruptStream);
      EXPECT_THROW((void)run_streamed_read_region(pfs_, path_, box_, config,
                                                  stream),
                   CorruptStream);
    }
    EXPECT_THROW((void)read_chunked_field(pfs_, path_, "HDF5"), CorruptStream);
    EXPECT_THROW((void)read_region_reference(pfs_, path_, box_, "HDF5"),
                 CorruptStream);
  }

  Field field_;
  CompressOptions opt_;
  std::vector<Bytes> blobs_;
  Bytes wide_, as_f64_;
  PfsSimulator pfs_;
  const std::string path_ = "/pfs/forged";
  const Region box_{{4, 0, 0}, {12, 24, 24}};  // zones 0-2
};

TEST_F(ForgedContainer, HonestChunksDecode) {
  write(blobs_);
  PipelineConfig config;
  const auto read = run_streamed_read(pfs_, path_, config);
  const Field ref = read_chunked_field(pfs_, path_, "HDF5");
  EXPECT_TRUE(bytes_equal(read.field, ref));
  EXPECT_TRUE(check_value_range_bound(field_, read.field, 1e-3));
}

TEST_F(ForgedContainer, SwappedLargerZoneBlobFailsCleanly) {
  auto blobs = blobs_;
  blobs[1] = wide_;  // 12 rows where the index promises 6
  write(blobs);
  expect_rejected();
}

TEST_F(ForgedContainer, MixedDtypeZoneFailsCleanly) {
  auto blobs = blobs_;
  blobs[2] = as_f64_;
  write(blobs);
  expect_rejected();
}

TEST(MergeSlabs, ChecksBoundsAndDtypeBeforeEachCopy) {
  const Field f = smooth_field_3d(8);
  auto slabs = split_slabs(f, 2);
  const auto dims = f.shape().dims_vector();
  EXPECT_TRUE(bytes_equal(merge_slabs(slabs, dims, f.name()), f));
  slabs.push_back(slabs[0]);  // one slab too many
  EXPECT_THROW((void)merge_slabs(slabs, dims, f.name()), CorruptStream);
  slabs.pop_back();
  NdArray<double> d(slabs[1].shape());
  slabs[1] = Field(f.name(), std::move(d));
  EXPECT_THROW((void)merge_slabs(slabs, dims, f.name()), CorruptStream);
}

}  // namespace
}  // namespace eblcio
