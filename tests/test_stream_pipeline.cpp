// Streaming pipeline tests: PFS append/ranged-read semantics, chunked
// container round-trips through the IoTool formats, the compress/write
// overlap the chunked mode exists for, and the symmetric fetch/decompress
// overlap on the read side — plus robustness (corrupt slabs and chunk
// indexes must fail cleanly, with no partial field escaping) and the codec
// lanes: byte parity with one-slab-at-a-time references, failure settling,
// the process-wide core budget, the lane-aware timeline solvers, and the
// lane energy sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <mutex>
#include <numeric>
#include <thread>

#include "common/buffer_pool.h"
#include "common/error.h"
#include "common/rng.h"
#include "compressors/chunking.h"
#include "compressors/compressor.h"
#include "compressors/zone.h"
#include "core/pipeline.h"
#include "data/dataset.h"
#include "energy/cpu_model.h"
#include "energy/powercap_monitor.h"
#include "io/io_tool.h"
#include "io/pfs.h"
#include "io/transport.h"
#include "metrics/error_stats.h"
#include "parallel/executor.h"
#include "parallel/lanes.h"
#include "test_util.h"

namespace eblcio {
namespace {

using test::double_field_4d;
using test::noisy_field_1d;
using test::smooth_field_2d;
using test::smooth_field_3d;

bool same_bytes(std::span<const std::byte> a, std::span<const std::byte> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

TEST(PfsAppend, AppendEqualsWholeFileContent) {
  PfsSimulator pfs;
  Bytes whole;
  auto stream = pfs.open_append("/pfs/parts");
  for (int i = 0; i < 5; ++i) {
    Bytes part(300000 + i * 1000, static_cast<std::byte>(i + 1));
    whole.insert(whole.end(), part.begin(), part.end());
    stream.append(part);
  }
  EXPECT_EQ(stream.bytes_written(), whole.size());
  EXPECT_EQ(pfs.file_size("/pfs/parts"), whole.size());
  EXPECT_EQ(pfs.read_file("/pfs/parts"), whole);
}

TEST(PfsAppend, OpenCostChargedOnceAndStripesFill) {
  PfsSimulator pfs;
  const Bytes small(1000, std::byte{7});
  const auto first = pfs.append_file("/pfs/a", small);
  const auto second = pfs.append_file("/pfs/a", small);
  // Creation pays open/metadata latency; the follow-up append does not.
  EXPECT_GT(first.seconds, second.seconds);
  EXPECT_GT(second.seconds, 0.0);
  // Both fit in the first stripe unit: no extra stripe allocated.
  EXPECT_EQ(pfs.file_size("/pfs/a"), 2000u);
  const auto usage = pfs.ost_usage();
  EXPECT_EQ(std::accumulate(usage.begin(), usage.end(), std::size_t{0}),
            2000u);
}

TEST(PfsAppend, TruncatesOnOpenAppend) {
  PfsSimulator pfs;
  pfs.write_file("/pfs/x", Bytes(100, std::byte{1}));
  auto stream = pfs.open_append("/pfs/x");
  stream.append(Bytes(10, std::byte{2}));
  EXPECT_EQ(pfs.file_size("/pfs/x"), 10u);
}

// --- streamed write ---------------------------------------------------------

TEST(StreamPipeline, RoundTripHoldsBound) {
  const Field f = smooth_field_3d(40);
  PfsSimulator pfs;
  PipelineConfig config;
  config.codec = "SZ3";
  config.error_bound = 1e-3;
  StreamConfig stream;
  stream.slabs = 8;

  const auto rec = run_streamed_compress_write(f, config, pfs, stream);
  EXPECT_EQ(rec.slabs, 8);
  EXPECT_EQ(rec.io_library, "HDF5");
  EXPECT_EQ(rec.original_bytes, f.size_bytes());
  EXPECT_GT(rec.ratio(), 1.0);
  // Independent cross-check of the container accounting: the header (up
  // to the first chunk), the chunk payloads, and the zone-index footer
  // (magic + count + 32 bytes per zone entry + trailing start offset)
  // must tile the stored container exactly.
  auto reader = io_tool("HDF5").open_chunked_reader(pfs, rec.path);
  const auto& chunks = reader.index().chunks;
  ASSERT_EQ(chunks.size(), 8u);
  ASSERT_EQ(reader.index().zones.size(), 8u);
  const std::size_t footer_bytes = 4 + 8 + 32 * chunks.size() + 8;
  EXPECT_EQ(chunks.front().offset + reader.index().total_bytes() +
                footer_bytes,
            rec.compressed_bytes);
  EXPECT_EQ(pfs.file_size(rec.path), rec.compressed_bytes);

  const auto read = run_streamed_read(pfs, rec.path, config);
  ASSERT_EQ(read.field.shape(), f.shape());
  EXPECT_TRUE(check_value_range_bound(f, read.field, config.error_bound));
}

TEST(StreamPipeline, ChunkedStreamingBeatsSerialCompressThenWrite) {
  // The point of the chunked mode: slab i compresses while the container
  // writes slab i-1, so the modeled end-to-end time undercuts the serial
  // compress-everything-then-write-everything schedule.
  const Field f = smooth_field_3d(64);
  PfsSimulator pfs;
  PipelineConfig config;
  config.codec = "SZ3";
  config.error_bound = 1e-3;
  StreamConfig stream;
  stream.slabs = 8;

  const auto rec = run_streamed_compress_write(f, config, pfs, stream);
  ASSERT_EQ(rec.slab_compress_s.size(), 8u);
  ASSERT_EQ(rec.slab_write_s.size(), 8u);
  for (double s : rec.slab_compress_s) EXPECT_GT(s, 0.0);
  for (double s : rec.slab_write_s) EXPECT_GT(s, 0.0);
  EXPECT_GT(rec.streamed_total_s, 0.0);
  EXPECT_LT(rec.streamed_total_s, rec.serial_total_s);
  EXPECT_GT(rec.overlap_saving_s(), 0.0);
  // Overlap can never beat the compress stage spread over every lane;
  // sanity-bound the model from below too.
  const double compress_total = std::accumulate(
      rec.slab_compress_s.begin(), rec.slab_compress_s.end(), 0.0);
  ASSERT_GE(rec.lanes, 1);
  EXPECT_GE(rec.streamed_total_s, compress_total / rec.lanes);
  // Energy was charged by both stages through the shared monitor.
  EXPECT_GT(rec.compress_j, 0.0);
  EXPECT_GT(rec.write_j, 0.0);
}

TEST(StreamPipeline, WorksForEveryEblcCodec) {
  const Field f = smooth_field_3d(32);
  for (const std::string codec : {"SZ2", "SZ3", "ZFP", "QoZ", "SZx"}) {
    PfsSimulator pfs;
    PipelineConfig config;
    config.codec = codec;
    config.error_bound = 1e-3;
    StreamConfig stream;
    stream.slabs = 4;
    const auto rec = run_streamed_compress_write(f, config, pfs, stream);
    const auto read = run_streamed_read(pfs, rec.path, config);
    EXPECT_TRUE(check_value_range_bound(f, read.field, config.error_bound))
        << codec;
  }
}

TEST(StreamPipeline, SingleSlabDegeneratesGracefully) {
  const Field f = smooth_field_3d(16);
  PfsSimulator pfs;
  PipelineConfig config;
  config.codec = "SZx";
  StreamConfig stream;
  stream.slabs = 1;
  const auto rec = run_streamed_compress_write(f, config, pfs, stream);
  EXPECT_EQ(rec.slabs, 1);
  const auto read = run_streamed_read(pfs, rec.path, config);
  EXPECT_EQ(read.field.shape(), f.shape());
}

TEST(StreamPipeline, BlockingPathRecordsCarryNoTransportTelemetry) {
  // The blocking path's makespans come from the transport solvers over the
  // eager wire, but its records report no transport.
  const Field f = smooth_field_3d(16);
  PfsSimulator pfs;
  PipelineConfig config;
  config.codec = "SZx";
  StreamConfig stream;
  stream.slabs = 4;
  stream.use_transport = false;
  const auto write = run_streamed_compress_write(f, config, pfs, stream);
  const auto read = run_streamed_read(pfs, write.path, config, stream);
  const auto region = run_streamed_read_region(
      pfs, write.path, Region{{2, 0, 0}, {9, 16, 16}}, config, stream);
  EXPECT_EQ(write.streamed_total_s, write.blocking_total_s);
  EXPECT_GT(read.streamed_total_s, 0.0);
  EXPECT_GT(region.streamed_total_s, 0.0);
  for (const TransportTelemetry* t :
       {&write.transport, &read.transport, &region.transport}) {
    EXPECT_EQ(t->channels, 0);
    EXPECT_EQ(t->ring_depth, 0);
    EXPECT_EQ(t->sector_bytes, 0u);
    EXPECT_EQ(t->sectors, 0u);
    EXPECT_EQ(t->credit_stalls, 0u);
    EXPECT_EQ(t->credit_stall_s, 0.0);
    EXPECT_EQ(t->mean_inflight, 0.0);
    EXPECT_EQ(t->peak_inflight, 0);
  }
}

TEST(StreamPipeline, RejectsBadConfig) {
  const Field f = smooth_field_3d(8);
  PfsSimulator pfs;
  PipelineConfig config;
  StreamConfig bad;
  bad.slabs = 0;
  EXPECT_THROW(run_streamed_compress_write(f, config, pfs, bad),
               InvalidArgument);
}

// --- streamed write through every container ---------------------------------

class StreamAllContainers : public ::testing::TestWithParam<std::string> {};

TEST_P(StreamAllContainers, WriteStreamsReadStreamsBitParity) {
  // The acceptance loop: write via the chunk API, read via the pipeline,
  // and require the streamed field bit-for-bit identical to the serial
  // fetch-then-decompress reference — in each of the three containers.
  const Field f = smooth_field_3d(32);
  PfsSimulator pfs;
  PipelineConfig config;
  config.codec = "SZ3";
  config.error_bound = 1e-3;
  config.io_library = GetParam();
  StreamConfig stream;
  stream.slabs = 6;

  const auto rec = run_streamed_compress_write(f, config, pfs, stream);
  EXPECT_EQ(rec.io_library, io_tool(GetParam()).name());
  EXPECT_LT(rec.streamed_total_s, rec.serial_total_s);

  const auto read = run_streamed_read(pfs, rec.path, config);
  const Field serial = read_chunked_field(pfs, rec.path, GetParam());
  ASSERT_EQ(read.field.shape(), serial.shape());
  const auto streamed_bytes = read.field.bytes();
  const auto serial_bytes = serial.bytes();
  ASSERT_EQ(streamed_bytes.size(), serial_bytes.size());
  EXPECT_TRUE(std::equal(streamed_bytes.begin(), streamed_bytes.end(),
                         serial_bytes.begin()));
  EXPECT_TRUE(check_value_range_bound(f, read.field, config.error_bound));
}

INSTANTIATE_TEST_SUITE_P(AllContainers, StreamAllContainers,
                         ::testing::Values("HDF5", "NetCDF", "ADIOS"));

// --- streamed read ----------------------------------------------------------

TEST(StreamRead, FetchOverlapsDecompression) {
  // The read-side mirror: the PFS fetch of slab i overlaps decompression
  // of slab i-1, so the streamed makespan undercuts the serial
  // fetch-everything-then-decompress-everything schedule.
  const Field f = smooth_field_3d(64);
  PfsSimulator pfs;
  PipelineConfig config;
  config.codec = "SZ3";
  config.error_bound = 1e-3;
  StreamConfig stream;
  stream.slabs = 8;

  const auto wrec = run_streamed_compress_write(f, config, pfs, stream);
  const auto rec = run_streamed_read(pfs, wrec.path, config, stream);
  ASSERT_EQ(rec.slabs, 8);
  ASSERT_EQ(rec.slab_fetch_s.size(), 8u);
  ASSERT_EQ(rec.slab_decompress_s.size(), 8u);
  for (double s : rec.slab_fetch_s) EXPECT_GT(s, 0.0);
  for (double s : rec.slab_decompress_s) EXPECT_GT(s, 0.0);
  EXPECT_GT(rec.streamed_total_s, 0.0);
  EXPECT_LT(rec.streamed_total_s, rec.serial_total_s);
  EXPECT_GT(rec.overlap_saving_s(), 0.0);
  // The pipeline can never finish before the decompress stage spread over
  // every lane.
  const double decompress_total = std::accumulate(
      rec.slab_decompress_s.begin(), rec.slab_decompress_s.end(), 0.0);
  ASSERT_GE(rec.lanes, 1);
  EXPECT_GE(rec.streamed_total_s, decompress_total / rec.lanes);
  // Both stages charged energy through the shared monitor.
  EXPECT_GT(rec.fetch_j, 0.0);
  EXPECT_GT(rec.decompress_j, 0.0);
  EXPECT_EQ(rec.container_bytes, wrec.compressed_bytes);
  EXPECT_EQ(rec.field_bytes, f.size_bytes());
}

TEST(StreamRead, RegistersWithReaderRegistry) {
  const Field f = smooth_field_3d(24);
  PfsSimulator pfs;
  PipelineConfig config;
  config.codec = "SZx";
  const auto wrec = run_streamed_compress_write(f, config, pfs);
  EXPECT_GE(pfs.peak_concurrent_writers(), 1);
  pfs.reset_reader_peak();
  EXPECT_EQ(pfs.peak_concurrent_readers(), 0);
  (void)run_streamed_read(pfs, wrec.path, config);
  EXPECT_GE(pfs.peak_concurrent_readers(), 1);
  EXPECT_EQ(pfs.concurrent_readers(), 0);  // scope released
}

TEST(StreamRead, WrongToolFailsCleanly) {
  const Field f = smooth_field_3d(16);
  PfsSimulator pfs;
  PipelineConfig config;
  config.codec = "SZx";
  config.io_library = "HDF5";
  const auto wrec = run_streamed_compress_write(f, config, pfs);
  PipelineConfig wrong = config;
  wrong.io_library = "NetCDF";
  EXPECT_THROW(run_streamed_read(pfs, wrec.path, wrong), CorruptStream);
}

// --- robustness: corrupt containers must fail cleanly ------------------------

class StreamReadRobustness : public ::testing::Test {
 protected:
  void SetUp() override {
    field_ = smooth_field_3d(24);
    config_.codec = "SZ3";
    config_.error_bound = 1e-3;
    StreamConfig stream;
    stream.slabs = 4;
    path_ = run_streamed_compress_write(field_, config_, pfs_, stream).path;
  }

  // Rewrites the container with `mutate` applied to its bytes.
  void corrupt(const std::function<void(Bytes&)>& mutate) {
    Bytes raw = pfs_.read_file(path_);
    mutate(raw);
    pfs_.write_file(path_, raw);
  }

  Field field_;
  PipelineConfig config_;
  PfsSimulator pfs_;
  std::string path_;
};

TEST_F(StreamReadRobustness, TruncatedContainerFailsCleanly) {
  corrupt([](Bytes& raw) { raw.resize(raw.size() / 2); });
  EXPECT_THROW(run_streamed_read(pfs_, path_, config_), Error);
  EXPECT_THROW(read_chunked_field(pfs_, path_, config_.io_library), Error);
}

TEST_F(StreamReadRobustness, UnclosedContainerFailsCleanly) {
  // A writer that never committed its footer: the trailing 8 bytes are
  // compressed payload, not a footer offset.
  IoTool& tool = io_tool(config_.io_library);
  ChunkedDatasetMeta meta;
  meta.name = "unclosed";
  meta.dims = {8};
  auto writer = tool.open_zoned(pfs_, "/pfs/unclosed", meta);
  writer.append_zone(Bytes(4096, std::byte{0x5a}), {0, 4});
  EXPECT_THROW(run_streamed_read(pfs_, "/pfs/unclosed", config_), Error);
}

TEST_F(StreamReadRobustness, CorruptedSlabFailsWithoutPartialField) {
  // Flip bytes in the middle of the first chunk's payload: the slab's
  // decompression must throw and run_streamed_read must not hand back a
  // partially reconstructed field.
  IoTool& tool = io_tool(config_.io_library);
  auto reader = tool.open_chunked_reader(pfs_, path_);
  const auto extent = reader.index().chunks.front();
  corrupt([&](Bytes& raw) {
    for (std::size_t i = 0; i < extent.size; ++i)
      raw[static_cast<std::size_t>(extent.offset) + i] ^= std::byte{0xff};
  });
  EXPECT_THROW((void)run_streamed_read(pfs_, path_, config_), Error);
}

TEST_F(StreamReadRobustness, BadChunkIndexFailsCleanly) {
  // Point the footer's first extent past end of file: the ranged fetch
  // must reject it instead of crashing (overflow-safe extent check).
  IoTool& tool = io_tool(config_.io_library);
  auto reader = tool.open_chunked_reader(pfs_, path_);
  const std::size_t nchunks = reader.index().chunks.size();
  corrupt([&](Bytes& raw) {
    // Zoned footer layout: [magic u32][nchunks u64]
    // [(offset,size,row_start,rows) u64 quads][footer_start u64];
    // locate the first entry and blow up its size.
    const std::size_t footer_len = 12 + 32 * nchunks + 8;
    const std::size_t first_extent = raw.size() - footer_len + 12;
    const std::uint64_t huge = ~std::uint64_t{0} / 2;
    std::memcpy(raw.data() + first_extent + 8, &huge, 8);
  });
  EXPECT_THROW((void)run_streamed_read(pfs_, path_, config_), Error);
}

// --- codec lanes --------------------------------------------------------------

// `f` converted to double precision.
Field as_double(const Field& f) {
  const auto& in = f.as<float>();
  NdArray<double> out(in.shape());
  for (std::size_t i = 0; i < in.num_elements(); ++i) out[i] = in[i];
  return Field(f.name(), std::move(out));
}

// The container a one-slab-at-a-time writer produces: split_slabs, compress
// each slab at the whole-field absolute bound, append the zones in order.
Bytes serial_container(const Field& f, const PipelineConfig& config,
                       int slabs) {
  Compressor& comp = compressor(config.codec);
  CompressOptions opt;
  opt.error_bound = config.error_bound;
  CompressOptions slab_opt = opt;
  slab_opt.mode = BoundMode::kAbsolute;
  slab_opt.error_bound = absolute_bound_for(f, opt);
  PfsSimulator pfs;
  IoTool& tool = io_tool(config.io_library);
  ChunkedDatasetMeta meta;
  meta.name = f.name();
  meta.dims = f.shape().dims_vector();
  meta.attributes["content"] = "eblc-compressed";
  meta.attributes["codec"] = comp.name();
  const std::string path = "/pfs/serial";
  auto out = tool.open_zoned(pfs, path, meta);
  const auto parts = split_slabs(f, slabs);
  const auto zones = zone_extents(f.shape().dim(0), slabs);
  for (std::size_t i = 0; i < parts.size(); ++i)
    out.append_zone(comp.compress(parts[i], slab_opt), zones[i]);
  out.close();
  return pfs.read_file(path);
}

TEST(CodecLanes, LanedPipelinesAreByteIdenticalToSerialReferences) {
  // Every codec family x dtype x rank x slab count around the lane count,
  // transport on and off: the laned container equals its blocking twin and
  // the one-slab-at-a-time container, and the laned full and region reads
  // equal the serial references.
  const int w = codec_lanes(1);
  const std::vector<Field> fields = {noisy_field_1d(4096), as_double(smooth_field_2d(40)),
                                     smooth_field_3d(24), double_field_4d(20, 8)};
  const std::vector<std::string> codecs = {"SZ2", "SZ3", "ZFP", "QoZ", "SZx",
                                           "composed:lorenzo2+linear+huffman-lz"};
  const std::vector<int> slab_counts = {1, std::max(1, w - 1), w + 1, 17};
  Rng rng(77);
  for (const std::string& codec : codecs) {
    for (const Field& f : fields) {
      PipelineConfig config;
      config.codec = codec;
      config.error_bound = 1e-3;
      CompressOptions probe;
      if (!compressor(codec).supports(f, probe)) continue;
      for (const int slabs : slab_counts) {
        SCOPED_TRACE(codec + " " + std::to_string(f.ndims()) + "D " +
                     std::to_string(slabs) + " slabs");
        StreamConfig stream;
        stream.slabs = slabs;
        PfsSimulator pfs, twin_pfs;
        const auto rec = run_streamed_compress_write(f, config, pfs, stream);
        EXPECT_EQ(rec.lanes, std::min(w, rec.slabs));
        stream.use_transport = false;
        const auto twin =
            run_streamed_compress_write(f, config, twin_pfs, stream);
        const Bytes bytes = pfs.read_file(rec.path);
        EXPECT_TRUE(same_bytes(bytes, twin_pfs.read_file(twin.path)));
        EXPECT_TRUE(same_bytes(bytes, serial_container(f, config, slabs)));

        const Field ref = read_chunked_field(pfs, rec.path, config.io_library);
        EXPECT_EQ(ref.name(), f.name());
        Region box;
        for (const std::size_t d : f.shape().dims_vector()) {
          const std::size_t start = rng.next_below(d);
          box.start.push_back(start);
          box.shape.push_back(1 + rng.next_below(d - start));
        }
        const Field box_ref =
            read_region_reference(pfs, rec.path, box, config.io_library);
        for (const bool transport : {true, false}) {
          stream.use_transport = transport;
          const auto read = run_streamed_read(pfs, rec.path, config, stream);
          EXPECT_EQ(read.field.name(), ref.name());
          EXPECT_EQ(read.field.shape(), ref.shape());
          EXPECT_TRUE(same_bytes(read.field.bytes(), ref.bytes()));
          const auto region =
              run_streamed_read_region(pfs, rec.path, box, config, stream);
          EXPECT_TRUE(same_bytes(region.field.bytes(), box_ref.bytes()));
        }
      }
    }
  }
}

TEST(CodecLanes, LargeUnevenS3dReadsMatchTheReferences) {
  // An S3D f64 field above 32 MiB (so its output is a fresh mapping every
  // read) in 8 zones over 11 rows (2,2,2,1,1,1,1,1): the laned whole read
  // places every zone straight into its rows, and the region reads mix
  // whole zones with decoded parts. Each equals its serial reference bit
  // for bit, and each region equals the crop of the whole field.
  const Field f = generate_dataset_dims("S3D", {11, 74, 74, 74}, 42);
  ASSERT_GT(f.size_bytes(), std::size_t{32} << 20);
  PfsSimulator pfs;
  PipelineConfig config;
  config.codec = "SZ3";
  StreamConfig stream;
  stream.slabs = 8;
  const auto wrec = run_streamed_compress_write(f, config, pfs, stream);
  const Field whole = read_chunked_field(pfs, wrec.path, config.io_library);
  EXPECT_TRUE(check_value_range_bound(f, whole, config.error_bound));
  const std::vector<Region> boxes = {
      {{1, 0, 0, 0}, {9, 74, 74, 74}},   // zones 1-6 whole, 0 and 7 in part
      {{2, 5, 6, 7}, {5, 40, 30, 20}}};  // every zone in part
  for (const bool transport : {true, false}) {
    SCOPED_TRACE(transport ? "transport" : "blocking");
    stream.use_transport = transport;
    const auto read = run_streamed_read(pfs, wrec.path, config, stream);
    EXPECT_TRUE(same_bytes(read.field.bytes(), whole.bytes()));
    for (const Region& box : boxes) {
      const auto region =
          run_streamed_read_region(pfs, wrec.path, box, config, stream);
      const Field ref =
          read_region_reference(pfs, wrec.path, box, config.io_library);
      EXPECT_TRUE(same_bytes(region.field.bytes(), ref.bytes()));
      const Shape crop_shape{std::span<const std::size_t>(box.shape)};
      Field crop("crop", NdArray<double>(crop_shape));
      scatter_zone_into_region(whole, 0, box, crop);
      EXPECT_TRUE(same_bytes(crop.bytes(), ref.bytes()));
    }
  }
}

TEST(CodecLanes, CorruptMiddleChunkFailsCleanlyAndSettles) {
  // A corrupt chunk in the middle of a many-slab container: the laned read
  // throws CorruptStream (no deadlock, no field), every pooled buffer it
  // took comes back, and no lane task is left on the executor.
  const Field f = smooth_field_3d(34);
  PfsSimulator pfs;
  PipelineConfig config;
  config.codec = "SZ3";
  StreamConfig stream;
  stream.slabs = 17;
  const auto wrec = run_streamed_compress_write(f, config, pfs, stream);
  const auto extent =
      io_tool(config.io_library).open_chunked_reader(pfs, wrec.path)
          .index().chunks[8];
  Bytes raw = pfs.read_file(wrec.path);
  for (std::size_t i = 0; i < extent.size; ++i)
    raw[static_cast<std::size_t>(extent.offset) + i] ^= std::byte{0xff};
  pfs.write_file(wrec.path, raw);

  const Region middle{{14, 0, 0}, {6, 34, 34}};
  for (const bool transport : {true, false}) {
    SCOPED_TRACE(transport ? "transport" : "blocking");
    stream.use_transport = transport;
    BufferPool::global().reset_stats();
    EXPECT_THROW((void)run_streamed_read(pfs, wrec.path, config, stream),
                 CorruptStream);
    EXPECT_THROW(
        (void)run_streamed_read_region(pfs, wrec.path, middle, config, stream),
        CorruptStream);
    const auto pool = BufferPool::global().stats();
    EXPECT_EQ(pool.acquires, pool.releases);
    const auto ex = Executor::global().stats();
    EXPECT_EQ(ex.queued, 0u);
    EXPECT_EQ(ex.running, 0);
  }
  EXPECT_THROW((void)read_chunked_field(pfs, wrec.path, config.io_library),
               CorruptStream);
}

TEST(CodecLanes, ConcurrentPipelinesStayWithinTheCoreBudget) {
  // Three clients dump and restart at once: their lanes share one budget,
  // so no more than concurrency() lane codec calls ever run together.
  CoreBudget& budget = CoreBudget::global();
  EXPECT_LE(budget.slots(), Executor::global().concurrency());
  budget.reset_peak();
  const Field f = smooth_field_3d(40);
  PfsSimulator pfs;
  std::vector<std::thread> clients;
  std::vector<int> ok(3, 0);
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      Field mine = f;
      mine.set_name("client" + std::to_string(c));
      PipelineConfig config;
      config.codec = c == 1 ? "ZFP" : "SZ3";
      StreamConfig stream;
      stream.slabs = 10;
      stream.use_transport = c != 2;
      for (int round = 0; round < 3; ++round) {
        const auto w = run_streamed_compress_write(mine, config, pfs, stream);
        const auto r = run_streamed_read(pfs, w.path, config, stream);
        ok[c] += check_value_range_bound(mine, r.field, config.error_bound);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok, std::vector<int>(3, 3));
  EXPECT_GE(budget.peak(), 1);
  EXPECT_LE(budget.peak(), budget.slots());
  EXPECT_LE(budget.peak(), Executor::global().concurrency());
  EXPECT_EQ(budget.held(), 0);
}

TEST(CodecLanes, OrderedLanesKeepSlabOrderAndAdmissionWindow) {
  // The sink sees slabs strictly in order, at most `lanes` lanes run at
  // once, and a slab enters the lanes only once the sink has taken slab
  // i - (lanes + depth). (Taking slab k admits slab k + lanes + depth just
  // before sink(k) runs, so a lane may start while `taken` still reads k.)
  const std::size_t n = 23;
  const int lanes = 3;
  const std::size_t depth = 2;
  std::mutex mu;
  int running = 0, peak = 0;
  std::size_t taken = 0;
  std::vector<std::size_t> order;
  bool window_ok = true;
  LaneStages stages;
  stages.lane = [&](std::size_t i) {
    {
      std::lock_guard<std::mutex> lock(mu);
      peak = std::max(peak, ++running);
      window_ok &= i <= taken + lanes + depth;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200 * (i % 4)));
    std::lock_guard<std::mutex> lock(mu);
    --running;
  };
  stages.sink = [&](std::size_t i) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(i);
    taken = i + 1;
  };
  run_ordered_lanes(n, lanes, depth, stages);
  std::vector<std::size_t> expect(n);
  std::iota(expect.begin(), expect.end(), std::size_t{0});
  EXPECT_EQ(order, expect);
  EXPECT_LE(peak, lanes);
  EXPECT_TRUE(window_ok);

  // A failing lane stops the loop and surfaces its exception.
  stages.lane = [](std::size_t i) {
    if (i == 5) throw CorruptStream("lane 5");
  };
  stages.sink = [](std::size_t) {};
  EXPECT_THROW(run_ordered_lanes(n, lanes, depth, stages), CorruptStream);
  EXPECT_THROW(run_ordered_lanes(n, lanes, depth, {.source = [](std::size_t) {},
                                                   .lane = [](std::size_t) {},
                                                   .sink = [](std::size_t) {}}),
               InvalidArgument);
}

TEST(CodecLanes, PipelineOnPoolWorkerThrows) {
  // A lane loop's waits would hold the pool worker it runs on, so entered
  // from a global-pool task it refuses before dispatching any lane.
  std::atomic<int> lanes_run{0};
  LaneStages stages;
  stages.lane = [&](std::size_t) { lanes_run.fetch_add(1); };
  stages.sink = [](std::size_t) {};
  TaskGroup group;
  group.run([&] { run_ordered_lanes(8, 2, 1, stages); });
  // Poll rather than wait(): a waiting caller could run the task itself.
  while (group.pending() > 0) std::this_thread::yield();
  EXPECT_THROW(group.wait(), Error);
  EXPECT_EQ(lanes_run.load(), 0);
}

// --- the lane-aware timeline solvers ----------------------------------------

// The one-lane recurrences the streamed pipelines ran before codec lanes,
// verbatim: the bounded-channel producer/consumer with a slot freeing when
// the consumer finished slab i-2-depth.
double legacy_blocking_write(const std::vector<double>& produce,
                             const std::vector<double>& write,
                             std::size_t depth, double open_s) {
  const std::size_t n = produce.size();
  std::vector<double> fc(n, 0.0), fw(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double start = i > 0 ? fc[i - 1] : 0.0;
    if (i >= depth + 2) start = std::max(start, fw[i - 2 - depth]);
    else if (i == depth + 1) start = std::max(start, open_s);
    fc[i] = start + produce[i];
    const double writer_free = i > 0 ? fw[i - 1] : open_s;
    fw[i] = std::max(fc[i], writer_free) + write[i];
  }
  return fw[n - 1];
}

double legacy_blocking_read(const std::vector<double>& fetch,
                            const std::vector<double>& consume,
                            std::size_t depth, double open_s) {
  const std::size_t n = fetch.size();
  std::vector<double> ff(n, 0.0), fd(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double start = i > 0 ? ff[i - 1] : open_s;
    if (i >= depth + 2) start = std::max(start, fd[i - 2 - depth]);
    ff[i] = start + fetch[i];
    const double decomp_free = i > 0 ? fd[i - 1] : 0.0;
    fd[i] = std::max(ff[i], decomp_free) + consume[i];
  }
  return fd[n - 1];
}

// The transport-off pipelines' makespans: each direction's one solver over
// the eager wire, every message paying its whole blocking write or fetch as
// its stage step.
double eager_write(const std::vector<double>& produce,
                   const std::vector<double>& write, std::size_t depth,
                   double open_s, int lanes,
                   const TransportConfig& config = {}) {
  return solve_write_timeline(config, eager_wire(produce.size()), produce,
                              write, depth, open_s, lanes)
      .makespan_s;
}

double eager_read(const std::vector<double>& fetch,
                  const std::vector<double>& consume, std::size_t depth,
                  double open_s, int lanes,
                  const TransportConfig& config = {}) {
  return solve_read_timeline(config, eager_wire(fetch.size()), consume, fetch,
                             depth, open_s, lanes)
      .makespan_s;
}

TEST(LaneSolvers, OneLaneMatchesTheLegacyBlockingRecurrences) {
  // Any valid wire configuration schedules the eager wire identically.
  Rng rng(9);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t n = 1 + rng.next_below(20);
    const std::size_t depth = 1 + rng.next_below(4);
    const double open_s = 0.01 * rng.next_double();
    TransportConfig config;
    config.channels = 1 + static_cast<int>(rng.next_below(3));
    config.ring_depth = 1 + static_cast<int>(rng.next_below(4));
    std::vector<double> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = 0.01 * rng.next_double();
      b[i] = 0.01 * rng.next_double();
    }
    EXPECT_EQ(eager_write(a, b, depth, open_s, 1, config),
              legacy_blocking_write(a, b, depth, open_s));
    EXPECT_EQ(eager_read(a, b, depth, open_s, 1, config),
              legacy_blocking_read(a, b, depth, open_s));
  }
}

TEST(LaneSolvers, EagerWireReproducesTheBlockingSolversOnLanes) {
  // Makespans the dedicated transport-off solvers produced on these inputs
  // before they became the eager-wire case, bit for bit:
  // {lanes, depth, write, read}.
  const std::vector<double> code = {0.011,  0.0062, 0.0143, 0.0029,
                                    0.0097, 0.0081, 0.0124, 0.0045};
  const std::vector<double> io = {0.0012, 0.0025, 0.0008, 0.0047,
                                  0.0019, 0.0011, 0.0006, 0.0021};
  struct Pinned {
    int lanes;
    std::size_t depth;
    double write, read;
  };
  const Pinned pinned[] = {
      {2, 1, 0x1.3d07c84b5dcc6p-5, 0x1.367a0f9096bb9p-5},
      {2, 3, 0x1.3d07c84b5dcc6p-5, 0x1.367a0f9096bb9p-5},
      {3, 1, 0x1.e83e425aee632p-6, 0x1.05532617c1bdap-5},
      {3, 3, 0x1.e1b089a027526p-6, 0x1.05532617c1bdap-5},
      {4, 1, 0x1.bf487fcb923a2p-6, 0x1.a858793dd97f6p-6},
      {4, 3, 0x1.ab9f559b3d07cp-6, 0x1.a858793dd97f6p-6}};
  for (const Pinned& want : pinned) {
    SCOPED_TRACE(std::to_string(want.lanes) + " lanes, depth " +
                 std::to_string(want.depth));
    EXPECT_EQ(eager_write(code, io, want.depth, 0.0007, want.lanes),
              want.write);
    EXPECT_EQ(eager_read(io, code, want.depth, 0.0007, want.lanes),
              want.read);
  }
}

TEST(LaneSolvers, BlockingWriteReconstructionOnAFixedInput) {
  // A transported write's blocking_total_s: what each message would cost
  // as one blocking append (prep + one RPC per stripe its append touches +
  // its sectors' transfer shares), scheduled by the write solver over the
  // eager wire. With 1000-byte stripes and a 137-byte header the four
  // messages (0, 863, 2500 and 1000 bytes) touch 1 (the header's partial
  // stripe), 1 (ending stripe-aligned), 3 and 2 stripes.
  PfsConfig pc;
  pc.stripe_size = 1000;
  pc.rpc_latency_s = 1.0;
  const PfsSimulator pfs(pc);
  const auto sector = [](std::size_t message, std::size_t bytes,
                         double xfer_s) {
    SectorRecord s;
    s.message = message;
    s.bytes = bytes;
    s.xfer_s = xfer_s;
    return s;
  };
  const std::vector<SectorRecord> sectors = {
      sector(0, 0, 0.0),    sector(1, 863, 2.0),  sector(2, 1024, 1.0),
      sector(2, 1024, 1.0), sector(2, 452, 0.5),  sector(3, 1000, 4.0)};
  const std::vector<double> prep = {0.5, 0.25, 0.125, 1.0};
  const std::vector<double> write_s =
      blocking_write_seconds(pfs, 137, sectors, prep);
  EXPECT_EQ(write_s, (std::vector<double>{1.5, 3.25, 5.625, 7.0}));
  const std::vector<double> produce = {1.0, 1.0, 1.0, 1.0};
  const double close_s = 0.25;
  EXPECT_EQ(eager_write(produce, write_s, 1, 0.5, 1) + close_s, 18.625);
}

TEST(LaneSolvers, OneLaneTransportTimelinesMatchTheLegacySolvers) {
  // Recorded inputs (6 messages of 1-3 sectors on 2 channels with 2
  // credits each) and the makespans, credit stalls and occupancies the
  // one-lane solvers produced before lanes, bit for bit.
  TransportConfig config;
  config.sector_bytes = 64u << 10;
  config.ring_depth = 2;
  config.channels = 2;
  std::vector<SectorRecord> sectors;
  std::size_t ordinal = 0;
  for (std::size_t m = 0; m < 6; ++m) {
    const std::size_t nsec = 1 + m % 3;
    for (std::size_t s = 0; s < nsec; ++s, ++ordinal) {
      SectorRecord r;
      r.message = m;
      r.sector = ordinal;
      r.channel = static_cast<int>(ordinal % 2);
      r.bytes = s + 1 < nsec ? 65536 : 1000 * (m + 1);
      r.rpc_s = 0.0004 + 0.0001 * static_cast<double>(m);
      r.xfer_s = 0.0011 * static_cast<double>(r.bytes) / 65536.0 +
                 0.00003 * static_cast<double>(s);
      sectors.push_back(r);
    }
  }
  const std::vector<double> slow = {0.004, 0.0021, 0.0063, 0.0009, 0.0052, 0.0031};
  std::vector<double> fast = slow;
  for (double& p : fast) p *= 0.05;
  const std::vector<double> prep = {0.0002, 0.0001, 0.00035, 0.00005, 0.0003, 0.00015};
  const std::vector<double> consume = {0.0035, 0.0012, 0.0071, 0.0024, 0.0008, 0.0049};
  const std::vector<double> no_stage(consume.size(), 0.0);
  struct Pinned {
    std::size_t depth;
    double w_makespan, w_stall, w_mean;
    int w_peak;
    double r_makespan, r_stall, r_mean;
    int r_peak;
  };
  const Pinned pinned[2][3] = {
      {{1, 0x1.98fbffd12f808p-6, 0x0p+0, 0x1.0860b4426178p+0, 4,
        0x1.59d33daf8df7ap-6, 0x1.a36e2eb1c432cp-10, 0x1.b323b7c04c345p+0, 4},
       {2, 0x1.98fbffd12f808p-6, 0x0p+0, 0x1.0860b4426178p+0, 4,
        0x1.5856c8b43958p-6, 0x1.cacc63f141207p-9, 0x1.9634cc46d323bp+1, 4},
       {4, 0x1.98fbffd12f808p-6, 0x0p+0, 0x1.0860b4426178p+0, 4,
        0x1.5856c8b43958p-6, 0x1.a61335d249e46p-8, 0x1.a4d926172333ap+1, 4}},
      {{1, 0x1.5f89d4ac4e814p-7, 0x1.6d9f645b9f262p-8, 0x1.8ff65ff288a2bp+1, 4,
        0x1.59d33daf8df7ap-6, 0x1.a36e2eb1c432cp-10, 0x1.b323b7c04c345p+0, 4},
       {2, 0x1.5f89d4ac4e814p-7, 0x1.6e9b0cde09cf1p-8, 0x1.902430e01afe7p+1, 4,
        0x1.5856c8b43958p-6, 0x1.cacc63f141207p-9, 0x1.9634cc46d323bp+1, 4},
       {4, 0x1.5f89d4ac4e814p-7, 0x1.6e9b0cde09cf1p-8, 0x1.902430e01afe7p+1, 4,
        0x1.5856c8b43958p-6, 0x1.a61335d249e46p-8, 0x1.a4d926172333ap+1, 4}}};
  const std::vector<double>* produce[2] = {&slow, &fast};
  for (int p = 0; p < 2; ++p) {
    for (const Pinned& want : pinned[p]) {
      SCOPED_TRACE("produce set " + std::to_string(p) + ", depth " +
                   std::to_string(want.depth));
      const auto w = solve_write_timeline(config, sectors, *produce[p], prep,
                                          want.depth, 0.0007, 1);
      EXPECT_EQ(w.makespan_s, want.w_makespan);
      EXPECT_EQ(w.credit_stall_s, want.w_stall);
      EXPECT_EQ(w.mean_inflight, want.w_mean);
      EXPECT_EQ(w.peak_inflight, want.w_peak);
      // A stall is a sector that waited, and every wait costs time.
      EXPECT_EQ(w.credit_stalls > 0, w.credit_stall_s > 0.0);
      const auto r = solve_read_timeline(config, sectors, consume, no_stage,
                                         want.depth, 0.0007, 1);
      EXPECT_EQ(r.makespan_s, want.r_makespan);
      EXPECT_EQ(r.credit_stall_s, want.r_stall);
      EXPECT_EQ(r.mean_inflight, want.r_mean);
      EXPECT_EQ(r.peak_inflight, want.r_peak);
      EXPECT_EQ(r.credit_stalls > 0, r.credit_stall_s > 0.0);
      // More lanes never lengthen these schedules.
      EXPECT_LE(solve_write_timeline(config, sectors, *produce[p], prep,
                                     want.depth, 0.0007, 4)
                    .makespan_s,
                w.makespan_s);
      EXPECT_LE(solve_read_timeline(config, sectors, consume, no_stage,
                                    want.depth, 0.0007, 4)
                    .makespan_s,
                r.makespan_s);
    }
  }
}

TEST(LaneSolvers, LanesScheduleTheCodecStageInParallel) {
  // Eight equal slabs on four lanes with a free writer finish in two
  // rounds; the read side's lanes decode four fetched slabs at once.
  const std::vector<double> c(8, 1.0), zero(8, 0.0);
  EXPECT_EQ(eager_write(c, zero, 2, 0.0, 4), 2.0);
  EXPECT_EQ(eager_write(c, zero, 2, 0.0, 1), 8.0);
  EXPECT_EQ(eager_read(zero, c, 2, 0.0, 4), 2.0);
  EXPECT_EQ(eager_read(zero, c, 2, 0.0, 1), 8.0);
  // The admission window binds: one lane-slot of queue and a slow writer
  // keep at most lanes + depth slabs ahead of the writer.
  const std::vector<double> slow_write(8, 2.0);
  EXPECT_EQ(eager_write(c, slow_write, 1, 0.0, 4), 1.0 + 8 * 2.0);
}

// --- lane energy ---------------------------------------------------------------

TEST(LaneEnergy, DisjointSpansEqualRecordCompute) {
  const CpuModel& cpu = default_cpu();
  for (const int threads : {1, 2}) {
    const std::vector<LaneSpan> spans = {
        {0.0, 0.013}, {0.013, 0.02}, {0.031, 0.0442}, {0.05, 0.05}};
    PowercapMonitor lanes(cpu), serial(cpu);
    const auto got = lanes.record_lanes("lane", spans, threads);
    ASSERT_EQ(got.size(), spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto want = serial.record_compute(
          "lane", spans[i].end_s - spans[i].start_s, threads);
      EXPECT_EQ(got[i].seconds, want.seconds);
      EXPECT_EQ(got[i].joules, want.joules);
      EXPECT_EQ(got[i].samples, want.samples);
    }
    EXPECT_EQ(lanes.phases().size(), spans.size());
  }
}

TEST(LaneEnergy, EqualOverlappingSpansChargeTheNodeOnce) {
  const CpuModel& cpu = default_cpu();
  const double t = 0.037;
  for (const int k : {2, 3, 4}) {
    const std::vector<LaneSpan> spans(static_cast<std::size_t>(k),
                                      LaneSpan{0.0, t});
    PowercapMonitor monitor(cpu);
    double joules = 0.0;
    for (const EnergyReading& r : monitor.record_lanes("lane", spans, 1)) {
      EXPECT_DOUBLE_EQ(r.seconds, t / cpu.speed_factor);
      joules += r.joules;
    }
    EXPECT_NEAR(joules, cpu.node_power_w(k) * t / cpu.speed_factor,
                1e-12 * joules);
  }
  // Partial overlap: the shared interval is charged once at two cores,
  // each lane's unshared time at one.
  PowercapMonitor monitor(cpu);
  const auto r = monitor.record_lanes("lane", std::vector<LaneSpan>{{0.0, 0.02}, {0.01, 0.03}}, 1);
  const double want = (cpu.node_power_w(1) * 0.02 + cpu.node_power_w(2) * 0.01) /
                      cpu.speed_factor;
  EXPECT_NEAR(r[0].joules + r[1].joules, want, 1e-12 * want);
}

}  // namespace
}  // namespace eblcio
