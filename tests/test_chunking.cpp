// Slab chunking tests: split/merge inverses, deterministic row
// distribution, chunk container layout.
#include <gtest/gtest.h>

#include <cstring>

#include "compressors/chunking.h"
#include "test_util.h"

namespace eblcio {
namespace {

using test::double_field_4d;
using test::smooth_field_3d;

TEST(Chunking, SlabRowsDistributesRemainder) {
  // 10 rows over 4 chunks -> 3,3,2,2.
  EXPECT_EQ(slab_rows(10, 4, 0), 3u);
  EXPECT_EQ(slab_rows(10, 4, 1), 3u);
  EXPECT_EQ(slab_rows(10, 4, 2), 2u);
  EXPECT_EQ(slab_rows(10, 4, 3), 2u);
  std::size_t total = 0;
  for (int c = 0; c < 4; ++c) total += slab_rows(10, 4, c);
  EXPECT_EQ(total, 10u);
}

TEST(Chunking, SplitMergeIsIdentity) {
  const Field f = smooth_field_3d(20);
  for (int chunks : {1, 2, 3, 7, 20}) {
    const auto slabs = split_slabs(f, chunks);
    const Field merged =
        merge_slabs(slabs, f.shape().dims_vector(), f.name());
    ASSERT_EQ(merged.shape(), f.shape());
    for (std::size_t i = 0; i < f.num_elements(); ++i)
      EXPECT_EQ(merged.as<float>()[i], f.as<float>()[i]);
  }
}

TEST(Chunking, SplitCapsAtDimZero) {
  const Field f = double_field_4d(3, 8);  // dim0 = 3
  const auto slabs = split_slabs(f, 16);
  EXPECT_EQ(slabs.size(), 3u);
}

TEST(Chunking, SlabShapesMatchDistribution) {
  const Field f = smooth_field_3d(10);
  const auto slabs = split_slabs(f, 4);
  ASSERT_EQ(slabs.size(), 4u);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(slabs[c].shape().dim(0), slab_rows(10, 4, static_cast<int>(c)));
    EXPECT_EQ(slabs[c].shape().dim(1), 10u);
  }
}

TEST(Chunking, ContainerRoundTripSingleAndChunked) {
  const Field f = smooth_field_3d(16);
  BlobHeader header;
  header.codec = "test";
  header.dtype = f.dtype();
  header.dims = f.shape().dims_vector();

  // Identity "codec": payload = raw bytes.
  PayloadCompressFn kernel = [](const Field& field, const BlobHeader&,
                                Field*) {
    auto raw = field.bytes();
    return Bytes(raw.begin(), raw.end());
  };
  PayloadDecompressFn dekernel = [](const BlobHeader& h,
                                    std::span<const std::byte> payload,
                                    Field& out, std::size_t offset) {
    EBLCIO_CHECK_STREAM(payload.size() == h.num_elements() * sizeof(float),
                        "size");
    std::memcpy(out.as<float>().data() + offset, payload.data(),
                payload.size());
  };

  for (int threads : {1, 4}) {
    CompressOptions opt;
    opt.threads = threads;
    const Bytes blob = compress_chunked(header, f, opt, kernel);
    Field r = unfilled_field("r", f.dtype(), f.shape());
    decompress_chunked_into(blob, threads, dekernel, r, 0);
    for (std::size_t i = 0; i < f.num_elements(); ++i)
      EXPECT_EQ(r.as<float>()[i], f.as<float>()[i]);
  }
}

TEST(Chunking, ForgedChunkCountFailsBeforeTheTableIsSized) {
  // A chunk count past the rows or past the bytes left for its size table
  // is refused before the table is allocated from it.
  const Field f = smooth_field_3d(16);
  BlobHeader header;
  header.codec = "t";
  header.dtype = f.dtype();
  header.dims = f.shape().dims_vector();
  PayloadCompressFn kernel = [](const Field&, const BlobHeader&,
                                Field*) {
    return Bytes(8, std::byte{1});
  };
  PayloadDecompressFn never = [](const BlobHeader&, std::span<const std::byte>,
                                 Field&, std::size_t) {
    ADD_FAILURE() << "a kernel ran on a forged chunk table";
  };
  CompressOptions parallel;
  parallel.threads = 4;
  const Bytes blob = compress_chunked(header, f, parallel, kernel);
  ByteReader r(blob);
  BlobHeader::decode(r);
  const std::size_t count_at = blob.size() - r.remaining().size() + 1;
  for (const std::uint32_t forged : {0u, 17u, 0xFFFFFFFFu}) {
    Bytes bad = blob;
    std::memcpy(bad.data() + count_at, &forged, sizeof(forged));
    Field out = unfilled_field("out", f.dtype(), f.shape());
    EXPECT_THROW(decompress_chunked_into(bad, 4, never, out, 0),
                 CorruptStream);
  }
}

TEST(Chunking, ChunkedLayoutTagAfterHeader) {
  const Field f = smooth_field_3d(16);
  BlobHeader header;
  header.codec = "t";
  header.dtype = f.dtype();
  header.dims = f.shape().dims_vector();
  PayloadCompressFn kernel = [](const Field&, const BlobHeader&,
                                Field*) {
    return Bytes(8, std::byte{1});
  };
  CompressOptions serial;
  const Bytes single = compress_chunked(header, f, serial, kernel);
  CompressOptions parallel;
  parallel.threads = 4;
  const Bytes chunked = compress_chunked(header, f, parallel, kernel);

  ByteReader r1(single);
  BlobHeader::decode(r1);
  EXPECT_EQ(r1.read_pod<std::uint8_t>(), kLayoutSingle);
  ByteReader r2(chunked);
  BlobHeader::decode(r2);
  EXPECT_EQ(r2.read_pod<std::uint8_t>(), kLayoutChunked);
  EXPECT_EQ(r2.read_pod<std::uint32_t>(), 4u);
}

}  // namespace
}  // namespace eblcio
