// H5Lite / NcLite container tests: round-trips through the PFS, format
// metadata, and the modeled HDF5-vs-NetCDF cost gap (Fig. 11 mechanism).
#include <gtest/gtest.h>

#include "common/buffer_pool.h"
#include "common/error.h"
#include "compressors/zone.h"
#include "io/h5lite.h"
#include "io/io_tool.h"
#include "io/nclite.h"
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

INSTANTIATE_TEST_SUITE_P(BothLibraries, ContainerRoundTrip,
                         ::testing::Values("HDF5", "NetCDF"));

TEST(H5Lite, MultiDatasetFile) {
  H5LiteFile file;
  H5Dataset a;
  a.name = "alpha";
  a.dtype_code = 0;
  a.dims = {4};
  a.data = Bytes(16, std::byte{1});
  a.attributes["units"] = "K";
  file.add_dataset(a);
  H5Dataset b;
  b.name = "beta";
  b.dtype_code = 2;
  b.dims = {9};
  b.data = Bytes(9, std::byte{2});
  file.add_dataset(b);

  const Bytes encoded = file.encode();
  const H5LiteFile back = H5LiteFile::decode(encoded);
  ASSERT_EQ(back.datasets().size(), 2u);
  EXPECT_EQ(back.dataset("alpha").attributes.at("units"), "K");
  EXPECT_EQ(back.dataset("beta").data, b.data);
  EXPECT_THROW(back.dataset("gamma"), InvalidArgument);
}

TEST(H5Lite, ChunkedLayoutSplitsLargeData) {
  H5LiteFile file;
  H5Dataset d;
  d.name = "big";
  d.dtype_code = 2;
  d.dims = {3u << 20};
  d.data = Bytes(3u << 20, std::byte{7});
  file.add_dataset(std::move(d));
  const Bytes encoded = file.encode();
  const H5LiteFile back = H5LiteFile::decode(encoded);
  EXPECT_EQ(back.dataset("big").data.size(), 3u << 20);
}

TEST(H5Lite, RejectsCorruptMagic) {
  Bytes bad(16, std::byte{0});
  EXPECT_THROW(H5LiteFile::decode(bad), CorruptStream);
}

TEST(NcLite, HeaderThenDataLayout) {
  NcLiteFile file;
  NcVariable v;
  v.name = "temp";
  v.dtype_code = 0;
  v.dims = {2, 3};
  v.data = Bytes(24, std::byte{5});
  v.attributes["units"] = "degC";
  file.add_variable(std::move(v));

  int syncs = 0;
  const Bytes encoded = file.encode(&syncs);
  EXPECT_EQ(syncs, 2);  // enddef + close for one variable
  const NcLiteFile back = NcLiteFile::decode(encoded);
  EXPECT_EQ(back.variable("temp").attributes.at("units"), "degC");
  EXPECT_EQ(back.variable("temp").data.size(), 24u);
}

TEST(NcLite, RejectsCorruptMagic) {
  Bytes bad(16, std::byte{9});
  EXPECT_THROW(NcLiteFile::decode(bad), CorruptStream);
}

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

TEST_P(ChunkedDataset, EagerPrefetchAwaitEqualsReadChunk) {
  // Without a transport, prefetch_chunk fetches at once and await_chunk
  // hands the parked blob back: on a quiet PFS, the same bytes and the
  // same cost as read_chunk, with every prefetch issued ahead of the
  // awaits as the streamed read's source runs ahead of its lanes.
  IoTool& tool = io_tool(GetParam());
  PfsSimulator pfs;
  const auto chunks = write_container(pfs, "/c/eager");
  auto reader = tool.open_chunked_reader(pfs, "/c/eager");
  std::vector<std::size_t> handles;
  for (std::size_t i = 0; i < chunks.size(); ++i)
    handles.push_back(reader.prefetch_chunk(i, 3));
  EXPECT_THROW(reader.prefetch_chunk(2), InvalidArgument);  // still parked
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    IoCost eager, blocking;
    const Bytes got = reader.await_chunk(handles[i], i, &eager);
    EXPECT_EQ(got, chunks[i]);
    EXPECT_EQ(reader.read_chunk(i, &blocking, 3), got);
    EXPECT_EQ(eager.prep_seconds, blocking.prep_seconds);
    EXPECT_EQ(eager.transfer_seconds, blocking.transfer_seconds);
    EXPECT_EQ(eager.bytes_written, blocking.bytes_written);
  }
  EXPECT_THROW(reader.await_chunk(handles[0], 0), InvalidArgument);
}

TEST_P(ChunkedDataset, UnawaitedPrefetchesGoBackToThePool) {
  // A reader destroyed with chunks prefetched but never awaited (a read
  // that failed mid-stream) returns their pooled buffers, blocking or
  // transported.
  IoTool& tool = io_tool(GetParam());
  PfsSimulator pfs;
  write_container(pfs, "/c/unawaited");
  for (const bool transported : {false, true}) {
    const auto before = BufferPool::global().stats();
    {
      auto reader = tool.open_chunked_reader(pfs, "/c/unawaited");
      if (transported) {
        TransportConfig config;
        config.sector_bytes = 4096;
        reader.enable_transport(config);
      }
      reader.prefetch_chunk(0);
      reader.prefetch_chunk(2);
      BufferPool::global().release(reader.read_chunk(3));
      reader.prefetch_chunk(4);
    }
    const auto after = BufferPool::global().stats();
    EXPECT_EQ(after.acquires - before.acquires,
              after.releases - before.releases)
        << (transported ? "transported" : "blocking");
  }
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

}  // namespace
}  // namespace eblcio
