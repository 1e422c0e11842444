// I/O tool container tests: one-dataset files and chunked containers for
// HDF5, NetCDF and ADIOS through the PFS, clean rejection of damaged and
// forged files, the modeled HDF5-vs-NetCDF cost gap (Fig. 11 mechanism),
// and IoGolden, which freezes the one-dataset files' bytes and costs.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>

#include "common/buffer_pool.h"
#include "common/error.h"
#include "common/rng.h"
#include "compressors/zone.h"
#include "io/io_tool.h"
#include "test_util.h"

namespace eblcio {
namespace {

using test::double_field_4d;
using test::smooth_field_3d;

TEST(IoRegistry, NamesAndLookup) {
  EXPECT_EQ(io_tool("HDF5").name(), "HDF5");
  EXPECT_EQ(io_tool("netcdf").name(), "NetCDF");
  EXPECT_EQ(io_tool("h5").name(), "HDF5");
  EXPECT_EQ(io_tool("adios").name(), "ADIOS");  // extension tool
  EXPECT_EQ(io_tool("bp").name(), "ADIOS");
  EXPECT_THROW(io_tool("posix"), InvalidArgument);
  // The paper's Sec. IV-D sweep covers exactly HDF5 and NetCDF.
  EXPECT_EQ(io_tool_names().size(), 2u);
}

class ContainerRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(ContainerRoundTrip, FieldThroughPfs) {
  IoTool& tool = io_tool(GetParam());
  PfsSimulator pfs;
  const Field f = smooth_field_3d(24);
  const IoCost cost = tool.write_field(pfs, "/data/f", f);
  EXPECT_GT(cost.total_seconds(), 0.0);
  EXPECT_GT(cost.bytes_written, f.size_bytes());  // container overhead

  const Field r = tool.read_field(pfs, "/data/f");
  ASSERT_EQ(r.shape(), f.shape());
  for (std::size_t i = 0; i < f.num_elements(); ++i)
    EXPECT_EQ(r.as<float>()[i], f.as<float>()[i]);
}

TEST_P(ContainerRoundTrip, DoubleFieldThroughPfs) {
  IoTool& tool = io_tool(GetParam());
  PfsSimulator pfs;
  const Field f = double_field_4d(3, 10);
  tool.write_field(pfs, "/data/d", f);
  const Field r = tool.read_field(pfs, "/data/d");
  for (std::size_t i = 0; i < f.num_elements(); ++i)
    EXPECT_EQ(r.as<double>()[i], f.as<double>()[i]);
}

TEST_P(ContainerRoundTrip, BlobThroughPfs) {
  IoTool& tool = io_tool(GetParam());
  PfsSimulator pfs;
  Bytes blob(5000);
  for (std::size_t i = 0; i < blob.size(); ++i)
    blob[i] = static_cast<std::byte>(i * 31);
  tool.write_blob(pfs, "/data/b", "compressed", blob);
  EXPECT_EQ(tool.read_blob(pfs, "/data/b", "compressed"), blob);
}

TEST_P(ContainerRoundTrip, LargeBlobSpansSeveralChunks) {
  // Past HDF5's 1 MiB chunk size the payload splits over its chunk table.
  IoTool& tool = io_tool(GetParam());
  PfsSimulator pfs;
  Bytes blob((3u << 20) + 5);
  for (std::size_t i = 0; i < blob.size(); ++i)
    blob[i] = static_cast<std::byte>(i * 7 + (i >> 20));
  const IoCost cost = tool.write_blob(pfs, "/data/big", "big", blob);
  EXPECT_GT(cost.bytes_written, blob.size());
  EXPECT_EQ(tool.read_blob(pfs, "/data/big", "big"), blob);
}

TEST_P(ContainerRoundTrip, WrongDatasetNameIsInvalidArgument) {
  IoTool& tool = io_tool(GetParam());
  PfsSimulator pfs;
  tool.write_blob(pfs, "/data/b", "compressed", Bytes(64, std::byte{1}));
  EXPECT_THROW(tool.read_blob(pfs, "/data/b", "other"), InvalidArgument);
}

TEST_P(ContainerRoundTrip, RejectsBadMagicAndForeignFiles) {
  IoTool& tool = io_tool(GetParam());
  PfsSimulator pfs;
  pfs.write_file("/data/zeros", Bytes(64, std::byte{0}));
  EXPECT_THROW(tool.read_field(pfs, "/data/zeros"), CorruptStream);
  EXPECT_THROW(tool.read_blob(pfs, "/data/zeros", "x"), CorruptStream);
  // Another tool's file is refused by its magic.
  const std::string other = GetParam() == "HDF5" ? "ADIOS" : "HDF5";
  io_tool(other).write_blob(pfs, "/data/foreign", "x", Bytes(32));
  EXPECT_THROW(tool.read_blob(pfs, "/data/foreign", "x"), CorruptStream);
}

TEST_P(ContainerRoundTrip, TruncatedFilesAreCorruptStreams) {
  IoTool& tool = io_tool(GetParam());
  PfsSimulator pfs;
  tool.write_blob(pfs, "/data/good", "x", Bytes(4096, std::byte{0x41}));
  const Bytes good = pfs.read_file("/data/good");
  Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    pfs.write_file("/data/cut",
                   std::span(good).first(rng.next_below(good.size())));
    EXPECT_THROW(tool.read_blob(pfs, "/data/cut", "x"), CorruptStream);
  }
}

// --- forged one-dataset files ----------------------------------------------
//
// Each case writes a valid file, overwrites one field with a forged value
// and expects a clean CorruptStream: no bad_alloc, length_error or
// out-of-range read. Offsets follow the frozen layouts for a dataset
// named "f" of rank `rank`, no attributes and `data` payload bytes.

struct FieldOffsets {
  std::size_t count, dims, size, offset;  // offset: ADIOS segment only
};

FieldOffsets field_offsets(const std::string& tool, std::size_t rank,
                           std::size_t data) {
  const std::size_t meta = 11 + 8 * rank;  // name, dtype, rank, dims, attrs
  if (tool == "HDF5") return {6, 17, 10 + meta, 0};  // size: chunk total
  if (tool == "NetCDF") return {4, 15, 8 + meta, 0};
  const std::size_t footer = 4 + data;  // ADIOS: data, then footer
  return {footer + 4, footer + 15, footer + 16 + meta, footer + 8 + meta};
}

class ForgedFile : public ::testing::TestWithParam<std::string> {
 protected:
  // Writes a 16^3 f32 field named "f", forges the `width`-byte field at
  // `at` to `value` and reads it back as a field (and, for damage a blob
  // read also sees, as a blob).
  void expect_corrupt(std::size_t at, std::uint64_t value,
                      std::size_t width = 8, bool blob_too = true) {
    IoTool& tool = io_tool(GetParam());
    PfsSimulator pfs;
    NdArray<float> arr(Shape{16, 16, 16});
    tool.write_field(pfs, "/f", Field("f", std::move(arr)));
    Bytes bytes = pfs.read_file("/f");
    ASSERT_LE(at + width, bytes.size());
    std::memcpy(bytes.data() + at, &value, width);
    pfs.write_file("/f", bytes);
    EXPECT_THROW(tool.read_field(pfs, "/f"), CorruptStream);
    if (blob_too) {
      EXPECT_THROW(tool.read_blob(pfs, "/f", "f"), CorruptStream);
    }
  }
  FieldOffsets at() const { return field_offsets(GetParam(), 3, 16384); }
};

TEST_P(ForgedFile, OffsetsMatchTheLayout) {
  // The offsets the cases below forge hold what the layout says they do.
  PfsSimulator pfs;
  io_tool(GetParam())
      .write_field(pfs, "/f", Field("f", NdArray<float>(Shape{16, 16, 16})));
  const Bytes bytes = pfs.read_file("/f");
  auto u64_at = [&](std::size_t at) {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + at, 8);
    return v;
  };
  std::uint32_t count = 0;
  std::memcpy(&count, bytes.data() + at().count, 4);
  EXPECT_EQ(count, 1u);
  for (std::size_t d = 0; d < 3; ++d) EXPECT_EQ(u64_at(at().dims + 8 * d), 16u);
  EXPECT_EQ(u64_at(at().size), 16384u);
  if (GetParam() == "HDF5") {
    EXPECT_EQ(u64_at(at().size + 12), 16384u);  // the one chunk's length
  }
  if (GetParam() == "ADIOS") {
    EXPECT_EQ(u64_at(at().offset), 4u);
    EXPECT_EQ(u64_at(bytes.size() - 8), 4u + 16384u);
  }
}

TEST_P(ForgedFile, DatasetCountOtherThanOne) {
  expect_corrupt(at().count, 0, 4);
  expect_corrupt(at().count, 2, 4);
}

TEST_P(ForgedFile, DataSizePastTheFile) {
  // HDF5's chunk-table total, NetCDF's data size, ADIOS's segment size.
  expect_corrupt(at().size, std::uint64_t{1} << 40);
  expect_corrupt(at().size, ~std::uint64_t{0} - 3);
}

TEST_P(ForgedFile, DimsWhoseElementCountOverflows) {
  // 16 x 16 x 0xFF00000000000010 wraps to 4096 elements; 2^40 fits in
  // size_t but not in the file.
  expect_corrupt(at().dims + 16, 0xFF00000000000010ULL, 8, false);
  expect_corrupt(at().dims + 16, std::uint64_t{1} << 40, 8, false);
  expect_corrupt(at().dims, 0, 8, false);
}

TEST(ForgedHdf5File, ChunkLength) {
  PfsSimulator pfs;
  IoTool& tool = io_tool("HDF5");
  tool.write_field(pfs, "/f", Field("f", NdArray<float>(Shape{16, 16, 16})));
  Bytes bytes = pfs.read_file("/f");
  const std::size_t len_at = field_offsets("HDF5", 3, 16384).size + 12;
  for (std::uint64_t forged : {~std::uint64_t{0} - 40, std::uint64_t{16383}}) {
    std::memcpy(bytes.data() + len_at, &forged, 8);
    pfs.write_file("/f", bytes);
    EXPECT_THROW(tool.read_field(pfs, "/f"), CorruptStream);
  }
}

TEST(ForgedAdiosFile, FooterOffsetAndSegmentExtent) {
  PfsSimulator pfs;
  IoTool& tool = io_tool("ADIOS");
  tool.write_field(pfs, "/f", Field("f", NdArray<float>(Shape{16, 16, 16})));
  const Bytes good = pfs.read_file("/f");
  auto forge = [&](std::size_t at, std::uint64_t value) {
    Bytes bytes = good;
    std::memcpy(bytes.data() + at, &value, 8);
    pfs.write_file("/f", bytes);
    EXPECT_THROW(tool.read_field(pfs, "/f"), CorruptStream) << at;
  };
  const std::size_t tail = good.size() - 8;
  forge(tail, ~std::uint64_t{0} - 3);  // footer start 2^64 - 4
  forge(tail, tail + 1);
  forge(tail, 3);  // inside the data: no footer magic there
  const std::size_t offset_at = field_offsets("ADIOS", 3, 16384).offset;
  forge(offset_at, ~std::uint64_t{0} - 7);  // offset + size wraps
  forge(offset_at, 5);                      // segment runs into the footer
}

INSTANTIATE_TEST_SUITE_P(AllTools, ContainerRoundTrip,
                         ::testing::Values("HDF5", "NetCDF", "ADIOS"));
INSTANTIATE_TEST_SUITE_P(AllTools, ForgedFile,
                         ::testing::Values("HDF5", "NetCDF", "ADIOS"));

TEST(IoCosts, NetCdfCostsMoreThanHdf5) {
  // The Fig. 11 finding, from mechanism: classic-model staging + header
  // rewrites make NetCDF writes several times more expensive.
  PfsSimulator pfs;
  const Field f = smooth_field_3d(48);
  const IoCost h5 = io_tool("HDF5").write_field(pfs, "/h5", f);
  const IoCost nc = io_tool("NetCDF").write_field(pfs, "/nc", f);
  EXPECT_GT(nc.total_seconds(), h5.total_seconds() * 2.0);
  EXPECT_LT(nc.total_seconds(), h5.total_seconds() * 12.0);
}

TEST(IoCosts, SmallBlobsCheaperThanLargeFields) {
  // The core compressed-I/O effect: a CR~50 blob writes much faster. The
  // field must be large enough that transfer (not open latency) dominates,
  // as with the paper's multi-hundred-MB data sets.
  PfsSimulator pfs;
  const Field f = smooth_field_3d(128);
  const Bytes small_blob(f.size_bytes() / 50, std::byte{3});
  const IoCost orig = io_tool("HDF5").write_field(pfs, "/o", f);
  const IoCost comp =
      io_tool("HDF5").write_blob(pfs, "/c", "x", small_blob);
  EXPECT_LT(comp.total_seconds() * 5.0, orig.total_seconds());
}

TEST(IoCosts, ContentionPropagatesToContainers) {
  PfsSimulator pfs;
  const Field f = smooth_field_3d(32);
  const IoCost solo = io_tool("HDF5").write_field(pfs, "/s", f, 1);
  const IoCost busy = io_tool("HDF5").write_field(pfs, "/b", f, 512);
  EXPECT_GT(busy.transfer_seconds, solo.transfer_seconds * 2.0);
}

// --- chunked datasets (append_zone / read_chunk through the footer index) ---

class ChunkedDataset : public ::testing::TestWithParam<std::string> {
 protected:
  static Bytes chunk_bytes(std::size_t n, std::uint8_t tag) {
    Bytes b(n);
    for (std::size_t i = 0; i < n; ++i)
      b[i] = static_cast<std::byte>((i * 131 + tag) & 0xff);
    return b;
  }

  // Writes a closed five-chunk container at `path`; returns its chunks.
  static std::vector<Bytes> write_container(PfsSimulator& pfs,
                                            const std::string& path) {
    ChunkedDatasetMeta meta;
    meta.name = "slabs";
    meta.dims = {40, 30, 20};
    std::vector<Bytes> chunks;
    auto writer = io_tool(GetParam()).open_zoned(pfs, path, meta);
    const auto zones = zone_extents(40, 5);
    for (std::size_t i = 0; i < zones.size(); ++i) {
      chunks.push_back(chunk_bytes(9000 + 613 * i, static_cast<std::uint8_t>(i)));
      writer.append_zone(chunks.back(), zones[i]);
    }
    writer.close();
    return chunks;
  }
};

TEST_P(ChunkedDataset, RoundTripsBitForBit) {
  IoTool& tool = io_tool(GetParam());
  PfsSimulator pfs;

  ChunkedDatasetMeta meta;
  meta.name = "slabs";
  meta.dtype_code = 2;
  meta.dims = {40, 30, 20};
  meta.attributes["content"] = "eblc-compressed";

  std::vector<Bytes> chunks;
  for (int i = 0; i < 5; ++i)
    chunks.push_back(chunk_bytes(10000 + 997 * i, static_cast<std::uint8_t>(i)));
  const auto zones = zone_extents(40, 5);

  auto writer = tool.open_zoned(pfs, "/c/ds", meta);
  EXPECT_GT(writer.open_cost().total_seconds(), 0.0);
  std::size_t payload = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const IoCost cost = writer.append_zone(chunks[i], zones[i]);
    EXPECT_GT(cost.total_seconds(), 0.0);
    payload += chunks[i].size();
  }
  EXPECT_EQ(writer.payload_bytes(), payload);
  EXPECT_EQ(writer.chunks_written(), chunks.size());
  const IoCost close_cost = writer.close();
  EXPECT_GT(close_cost.total_seconds(), 0.0);
  EXPECT_TRUE(writer.closed());
  EXPECT_THROW(writer.append_zone(chunks[0], {40, 8}), InvalidArgument);

  auto reader = tool.open_chunked_reader(pfs, "/c/ds");
  const ChunkIndex& index = reader.index();
  EXPECT_EQ(index.meta.name, "slabs");
  EXPECT_EQ(index.meta.dims, meta.dims);
  EXPECT_EQ(index.meta.attributes.at("content"), "eblc-compressed");
  ASSERT_EQ(index.chunks.size(), chunks.size());
  EXPECT_EQ(index.zones, zones);
  EXPECT_EQ(index.total_bytes(), payload);
  EXPECT_GT(reader.open_cost().total_seconds(), 0.0);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    IoCost cost;
    EXPECT_EQ(reader.read_chunk(i, &cost), chunks[i]);
    EXPECT_GT(cost.total_seconds(), 0.0);
  }
  EXPECT_THROW(reader.read_chunk(chunks.size()), InvalidArgument);
}

TEST_P(ChunkedDataset, EmptyDatasetRoundTrips) {
  IoTool& tool = io_tool(GetParam());
  PfsSimulator pfs;
  ChunkedDatasetMeta meta;
  meta.name = "empty";
  meta.dims = {0};  // zero rows: zero zones
  auto writer = tool.open_zoned(pfs, "/c/empty", meta);
  writer.close();
  auto reader = tool.open_chunked_reader(pfs, "/c/empty");
  EXPECT_EQ(reader.index().chunks.size(), 0u);
  EXPECT_EQ(reader.index().meta.name, "empty");
}

TEST_P(ChunkedDataset, RejectsForeignAndCorruptContainers) {
  IoTool& tool = io_tool(GetParam());
  PfsSimulator pfs;
  // Another tool's chunked container is refused by name.
  const std::string other = GetParam() == "HDF5" ? "NetCDF" : "HDF5";
  ChunkedDatasetMeta meta;
  meta.name = "x";
  meta.dims = {4};
  auto writer = io_tool(other).open_zoned(pfs, "/c/foreign", meta);
  writer.append_zone(Bytes(100, std::byte{1}), {0, 4});
  writer.close();
  EXPECT_THROW(tool.open_chunked_reader(pfs, "/c/foreign"), CorruptStream);

  // A non-chunked file is rejected cleanly.
  pfs.write_file("/c/garbage", Bytes(64, std::byte{0xab}));
  EXPECT_THROW(tool.open_chunked_reader(pfs, "/c/garbage"), CorruptStream);
  pfs.write_file("/c/tiny", Bytes(4, std::byte{1}));
  EXPECT_THROW(tool.open_chunked_reader(pfs, "/c/tiny"), CorruptStream);
}

TEST_P(ChunkedDataset, ReadChunkLeavesThePoolBalanced) {
  // The open's footer and header fetches, each chunk's pooled fetch and
  // the tool's staging copy all go back to the BufferPool once the caller
  // releases what read_chunk returned.
  IoTool& tool = io_tool(GetParam());
  PfsSimulator pfs;
  write_container(pfs, "/c/balanced");
  const auto before = BufferPool::global().stats();
  {
    auto reader = tool.open_chunked_reader(pfs, "/c/balanced");
    for (const std::size_t i : {0u, 2u, 3u, 4u})
      BufferPool::global().release(reader.read_chunk(i));
  }
  const auto after = BufferPool::global().stats();
  EXPECT_EQ(after.acquires - before.acquires,
            after.releases - before.releases);
}

INSTANTIATE_TEST_SUITE_P(AllTools, ChunkedDataset,
                         ::testing::Values("HDF5", "NetCDF", "ADIOS"));

TEST(ChunkedCosts, MechanismGapShowsUpInChunkStreams) {
  // The Fig. 11 mechanism carries over to chunked streaming: NetCDF stages
  // every chunk through its conversion buffer and rewrites the header at
  // close, so the same chunk stream costs more than HDF5's direct layout.
  PfsSimulator pfs;
  const Bytes chunk(2u << 20, std::byte{3});
  double total[2] = {0.0, 0.0};
  const char* tools[2] = {"HDF5", "NetCDF"};
  for (int t = 0; t < 2; ++t) {
    ChunkedDatasetMeta meta;
    meta.name = "m";
    meta.dims = {4};
    auto writer =
        io_tool(tools[t]).open_zoned(pfs, std::string("/c/") + tools[t], meta);
    total[t] += writer.open_cost().total_seconds();
    for (std::uint64_t i = 0; i < 4; ++i)
      total[t] += writer.append_zone(chunk, {i, 1}).total_seconds();
    total[t] += writer.close().total_seconds();
  }
  EXPECT_GT(total[1], total[0] * 1.5);
}


// --- IoGolden: the one-dataset files, frozen --------------------------------
//
// Every (tool, payload, clients) cell pins the FNV-1a of the file the tool
// leaves on the PFS, bytes_written, prep_seconds and transfer_seconds (as
// exact hex floats), and the FNV-1a of what read_field/read_blob hands back.
// Payloads are pure Rng arithmetic, no libm, so the hashes are
// host-independent. Any change that moves one of them changes a container
// layout or a modeled cost. Re-harvest (only for an intentional format or
// cost-model revision) with
//   EBLCIO_DUMP_IO_GOLDEN=1 ./test_io_containers --gtest_filter='IoGolden.*'

std::uint64_t fnv1a(std::span<const std::byte> data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::byte b : data) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename T>
Field golden_payload(std::string name, const std::vector<std::size_t>& dims) {
  NdArray<T> arr(Shape{std::span<const std::size_t>(dims)});
  Rng rng(0x10ULL + dims.size());
  double v = 0.0;
  for (std::size_t i = 0; i < arr.num_elements(); ++i) {
    v = 0.75 * v + (rng.next_double() - 0.5);
    arr[i] = static_cast<T>(v + 0.125 * static_cast<double>(i % 17));
  }
  return Field(std::move(name), std::move(arr));
}

struct IoGoldenCase {
  const char* tool;
  const char* payload;
  int clients;
  std::uint64_t file;
  std::size_t bytes_written;
  double prep_seconds, transfer_seconds;
  std::uint64_t decoded;
};

constexpr IoGoldenCase kIoGolden[] = {
    {"HDF5", "f32_3d_named", 1, 0x869165bd1f5350f9ULL, 4388,
     0x1.5bd0660f2e4cp-16, 0x1.c8f3c2ffabe6p-11, 0xb768589f711169b0ULL},
    {"HDF5", "f32_3d_named", 7, 0x869165bd1f5350f9ULL, 4388,
     0x1.5bd0660f2e4cp-16, 0x1.03f122b426aa5p-10, 0xb768589f711169b0ULL},
    {"HDF5", "f64_4d_unnamed", 1, 0x79d633b22adedeceULL, 2956,
     0x1.57cf5548bd3eap-16, 0x1.c8af1e72620adp-11, 0x81485a7fcbe4fb52ULL},
    {"HDF5", "f64_4d_unnamed", 7, 0x79d633b22adedeceULL, 2956,
     0x1.57cf5548bd3eap-16, 0x1.03ce19615e4d2p-10, 0x81485a7fcbe4fb52ULL},
    {"HDF5", "f32_3p5mib", 1, 0x39e8d36570da8e1dULL, 3670107,
     0x1.4b2f4226afdbfp-11, 0x1.317f13866f9b4p-9, 0x2a808f9556e4ca37ULL},
    {"HDF5", "f32_3p5mib", 7, 0x39e8d36570da8e1dULL, 3670107,
     0x1.4b2f4226afdbfp-11, 0x1.44cde3f90e494p-9, 0x2a808f9556e4ca37ULL},
    {"HDF5", "blob5000", 1, 0x0d8826c99ee5a6cdULL, 5088,
     0x1.5dc57a6a76b8cp-16, 0x1.c91550eeed51ep-11, 0x11a066004d56dfffULL},
    {"HDF5", "blob5000", 7, 0x0d8826c99ee5a6cdULL, 5088,
     0x1.5dc57a6a76b8cp-16, 0x1.0402432645641p-10, 0x11a066004d56dfffULL},
    {"NetCDF", "f32_3d_named", 1, 0xe3288dcd0ceba803ULL, 4374,
     0x1.100ae50b5d006p-14, 0x1.43f3dd25af4e8p-9, 0xb768589f711169b0ULL},
    {"NetCDF", "f32_3d_named", 7, 0xe3288dcd0ceba803ULL, 4374,
     0x1.100ae50b5d006p-14, 0x1.53af7cdac70b7p-9, 0xb768589f711169b0ULL},
    {"NetCDF", "f64_4d_unnamed", 1, 0x3ac95e527fec49edULL, 2942,
     0x1.095e73c0a094dp-14, 0x1.43e2b4025cd7cp-9, 0x81485a7fcbe4fb52ULL},
    {"NetCDF", "f64_4d_unnamed", 7, 0x3ac95e527fec49edULL, 2942,
     0x1.095e73c0a094dp-14, 0x1.539df83162dcep-9, 0x81485a7fcbe4fb52ULL},
    {"NetCDF", "f32_3p5mib", 1, 0xbb9fcf021a72142cULL, 3670069,
     0x1.0f2dad83b615ap-8, 0x1.019adb25b74fdp-8, 0x2a808f9556e4ca37ULL},
    {"NetCDF", "f32_3p5mib", 7, 0xbb9fcf021a72142cULL, 3670069,
     0x1.0f2dad83b615ap-8, 0x1.0b42422826f3fp-8, 0x2a808f9556e4ca37ULL},
    {"NetCDF", "blob5000", 1, 0x9bc16a4270e29742ULL, 5074,
     0x1.134e06f8d5b5bp-14, 0x1.43fc40a17fa98p-9, 0x11a066004d56dfffULL},
    {"NetCDF", "blob5000", 7, 0x9bc16a4270e29742ULL, 5074,
     0x1.134e06f8d5b5bp-14, 0x1.53b80d13d6684p-9, 0x11a066004d56dfffULL},
    {"ADIOS", "f32_3d_named", 1, 0x366e70aefb5d95e2ULL, 4394,
     0x1.61f95e142139p-17, 0x1.e32aef8b8d79ep-11, 0xb768589f711169b0ULL},
    {"ADIOS", "f32_3d_named", 7, 0x366e70aefb5d95e2ULL, 4394,
     0x1.61f95e142139p-17, 0x1.110cb9be6ed7cp-10, 0xb768589f711169b0ULL},
    {"ADIOS", "f64_4d_unnamed", 1, 0x7fd2e5c88e8075f1ULL, 2962,
     0x1.5bf7c4ea77a5p-17, 0x1.e2e64afe439ebp-11, 0x81485a7fcbe4fb52ULL},
    {"ADIOS", "f64_4d_unnamed", 7, 0x7fd2e5c88e8075f1ULL, 2962,
     0x1.5bf7c4ea77a5p-17, 0x1.10e9b06ba67a8p-10, 0x81485a7fcbe4fb52ULL},
    {"ADIOS", "f32_3p5mib", 1, 0x87ee77aed0403133ULL, 3670089,
     0x1.eb881b3963c65p-12, 0x1.380c9508a2af9p-9, 0x2a808f9556e4ca37ULL},
    {"ADIOS", "f32_3p5mib", 7, 0x87ee77aed0403133ULL, 3670089,
     0x1.eb881b3963c65p-12, 0x1.4b5b6454be485p-9, 0x2a808f9556e4ca37ULL},
    {"ADIOS", "blob5000", 1, 0x058d4018da9c192eULL, 5094,
     0x1.64e8fc9d0ddc3p-17, 0x1.e34c7d7acee5bp-11, 0x11a066004d56dfffULL},
    {"ADIOS", "blob5000", 7, 0x058d4018da9c192eULL, 5094,
     0x1.64e8fc9d0ddc3p-17, 0x1.111dda308d917p-10, 0x11a066004d56dfffULL},
};

// Writes `payload` through `tool` on a fresh PFS and reports the cell.
IoGoldenCase io_golden_cell(const char* tool, const char* payload,
                            int clients) {
  IoTool& io = io_tool(tool);
  PfsSimulator pfs;
  const std::string p = payload;
  IoCost cost;
  std::uint64_t decoded = 0;
  if (p == "blob5000") {
    Bytes blob(5000);
    Rng rng(0xb10bULL);
    for (auto& b : blob) b = static_cast<std::byte>(rng.next_below(256));
    cost = io.write_blob(pfs, "/g", "compressed", blob, clients);
    decoded = fnv1a(io.read_blob(pfs, "/g", "compressed"));
  } else {
    const Field f =
        p == "f32_3d_named" ? golden_payload<float>("temp", {12, 10, 9})
        : p == "f64_4d_unnamed" ? golden_payload<double>("", {3, 4, 5, 6})
                                : golden_payload<float>("big", {14, 256, 256});
    cost = io.write_field(pfs, "/g", f, clients);
    const Field back = io.read_field(pfs, "/g");
    EXPECT_EQ(back.shape(), f.shape());
    EXPECT_EQ(back.name(), f.name().empty() ? "data" : f.name());
    decoded = fnv1a(back.bytes());
  }
  return {tool,
          payload,
          clients,
          fnv1a(pfs.read_file("/g")),
          cost.bytes_written,
          cost.prep_seconds,
          cost.transfer_seconds,
          decoded};
}

TEST(IoGolden, WholeFileBytesAndCostsArePinned) {
  const bool dump = std::getenv("EBLCIO_DUMP_IO_GOLDEN") != nullptr;
  std::size_t i = 0;
  for (const char* tool : {"HDF5", "NetCDF", "ADIOS"})
    for (const char* payload :
         {"f32_3d_named", "f64_4d_unnamed", "f32_3p5mib", "blob5000"})
      for (int clients : {1, 7}) {
        const IoGoldenCase got = io_golden_cell(tool, payload, clients);
        if (dump) {
          std::printf(
              "    {\"%s\", \"%s\", %d, 0x%016llxULL, %zu,\n"
              "     %a, %a, 0x%016llxULL},\n",
              tool, payload, clients,
              static_cast<unsigned long long>(got.file), got.bytes_written,
              got.prep_seconds, got.transfer_seconds,
              static_cast<unsigned long long>(got.decoded));
          continue;
        }
        ASSERT_LT(i, std::size(kIoGolden));
        const IoGoldenCase& want = kIoGolden[i++];
        SCOPED_TRACE(std::string(tool) + " " + payload + " x" +
                     std::to_string(clients));
        ASSERT_STREQ(want.tool, tool);
        ASSERT_STREQ(want.payload, payload);
        ASSERT_EQ(want.clients, clients);
        EXPECT_EQ(got.file, want.file);
        EXPECT_EQ(got.bytes_written, want.bytes_written);
        EXPECT_EQ(got.prep_seconds, want.prep_seconds);
        EXPECT_EQ(got.transfer_seconds, want.transfer_seconds);
        EXPECT_EQ(got.decoded, want.decoded);
      }
  if (!dump) EXPECT_EQ(i, std::size(kIoGolden));
}

}  // namespace
}  // namespace eblcio
