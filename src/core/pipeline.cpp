#include "core/pipeline.h"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <tuple>

#include "common/buffer_pool.h"
#include "common/timer.h"
#include "compressors/chunking.h"
#include "compressors/compressor.h"
#include "compressors/zone.h"
#include "io/io_tool.h"
#include "parallel/lanes.h"

namespace eblcio {

CompressionRecord run_compression(const Field& field,
                                  const PipelineConfig& config,
                                  Bytes* blob_out) {
  Compressor& comp = compressor(config.codec);
  const CpuModel& cpu = cpu_model(config.cpu);

  CompressOptions opt;
  opt.mode = BoundMode::kValueRangeRel;
  opt.error_bound = config.error_bound;
  opt.threads = config.threads;

  CompressionRecord rec;
  rec.codec = comp.name();
  rec.error_bound = config.error_bound;
  rec.threads = config.threads;
  rec.original_bytes = field.size_bytes();

  Bytes blob;
  rec.host_compress_s = timed_s([&] { blob = comp.compress(field, opt); });
  rec.compressed_bytes = blob.size();
  rec.ratio = static_cast<double>(rec.original_bytes) /
              static_cast<double>(blob.size());

  Field recon;
  const int decomp_threads =
      comp.caps().parallel_decompress ? config.threads : 1;
  rec.host_decompress_s =
      timed_s([&] { recon = comp.decompress(blob, decomp_threads); });
  rec.quality = compute_error_stats(field, recon);

  PowercapMonitor monitor(cpu);
  const auto ec =
      monitor.record_compute("compress", rec.host_compress_s, config.threads);
  const auto ed = monitor.record_compute("decompress", rec.host_decompress_s,
                                         decomp_threads);
  rec.compress_s = ec.seconds;
  rec.compress_j = ec.joules;
  rec.decompress_s = ed.seconds;
  rec.decompress_j = ed.joules;
  if (blob_out) *blob_out = std::move(blob);
  return rec;
}

WriteRecord run_compress_write(const Field& field,
                               const PipelineConfig& config,
                               PfsSimulator& pfs) {
  const CpuModel& cpu = cpu_model(config.cpu);
  IoTool& io = io_tool(config.io_library);

  WriteRecord rec;
  rec.io_library = io.name();
  Bytes blob;
  rec.compression = run_compression(field, config, &blob);

  const std::string base = "/pfs/" + field.name();
  PowercapMonitor monitor(cpu);

  const IoCost wc = io.write_blob(pfs, base + ".eblc." + io.name(),
                                  field.name(), blob);
  const auto wc_prep =
      monitor.record_compute("write-prep", wc.prep_seconds, 1);
  const auto wc_io = monitor.record_io("write", wc.transfer_seconds);
  rec.write_compressed_s = wc_prep.seconds + wc_io.seconds;
  rec.write_compressed_j = wc_prep.joules + wc_io.joules;

  const IoCost wo = io.write_field(pfs, base + ".orig." + io.name(), field);
  const auto wo_prep =
      monitor.record_compute("write-orig-prep", wo.prep_seconds, 1);
  const auto wo_io = monitor.record_io("write-orig", wo.transfer_seconds);
  rec.write_original_s = wo_prep.seconds + wo_io.seconds;
  rec.write_original_j = wo_prep.joules + wo_io.joules;

  TradeoffMeasurement m;
  m.compress_seconds = rec.compression.compress_s;
  m.compress_joules = rec.compression.compress_j;
  m.write_compressed_seconds = rec.write_compressed_s;
  m.write_compressed_joules = rec.write_compressed_j;
  m.write_original_seconds = rec.write_original_s;
  m.write_original_joules = rec.write_original_j;
  m.psnr_db = rec.compression.quality.psnr_db;
  rec.verdict = evaluate_tradeoff(m, config.psnr_min_db);
  return rec;
}

// --- Streaming (chunked) experiments ---------------------------------------

namespace {

// The live client count the streamed pipelines feed the PFS contention
// model: every registered writer and reader fleet across overlapping
// worlds, plus this client itself. Streams register with the PFS only
// while their bytes move (see AppendStream), so at call time the caller's
// own stream is not yet counted — the +1 adds it. A lone pipeline sees 1;
// overlapping streams contend honestly. The sector plan prices each
// message's sectors at the same count.
int self_inclusive_clients(const PfsSimulator& pfs) {
  return std::max(1,
                  pfs.concurrent_writers() + pfs.concurrent_readers() + 1);
}

// A transported pipeline's telemetry: the transport's configuration and
// planned sector count beside its modeled timeline.
TransportTelemetry telemetry(const TransportConfig& config,
                             std::size_t sectors, const Timeline& t) {
  return {config.channels,  config.ring_depth, config.sector_bytes,
          sectors,          t.credit_stalls,   t.credit_stall_s,
          t.mean_inflight,  t.peak_inflight};
}

// Returns pooled blobs a failed pipeline never consumed.
void release_pending(std::vector<Bytes>& blobs) {
  for (Bytes& b : blobs)
    if (!b.empty()) BufferPool::global().release(std::move(b));
}

// The field a read assembles: `box`, or the whole dataset when none is
// given (a container holding no zones is refused before any fetch). The
// first zone placed allocates it unfilled from its dtype (the container's
// dtype_code tags opaque chunks); later zones must agree. The covering
// zones' parts tile the region, so each element is written once, and lanes
// place disjoint rows concurrently.
class ReadOutput {
 public:
  ReadOutput(const ChunkIndex& index, const std::optional<Region>& box,
             std::string path)
      : index_(index), path_(std::move(path)) {
    EBLCIO_CHECK_STREAM(!index.chunks.empty(),
                        "chunked container holds no zones: " + path_);
    region_ = box.value_or(Region{
        std::vector<std::size_t>(index.meta.dims.size(), 0), index.meta.dims});
  }

  const Region& region() const { return region_; }

  // The one placement step of both reads: checks zone `zi`'s blob dims
  // against the index (the dataset's, with the zone's rows), then decodes
  // the zone's part of the region, whole or partial, straight into its
  // rows of the output. Returns the elements the codec reconstructed.
  std::size_t place(std::span<const std::byte> blob, std::size_t zi) {
    const BlobHeader header = peek_header(blob);
    const ZoneExtent& zone = index_.zones[zi];
    std::vector<std::size_t> expected = index_.meta.dims;
    expected[0] = static_cast<std::size_t>(zone.rows);
    EBLCIO_CHECK_STREAM(header.dims == expected,
                        "chunk blob does not match its zone extent: " + path_);
    std::call_once(allocated_, [&] {
      const Shape shape{std::span<const std::size_t>(region_.shape)};
      field_ = unfilled_field(index_.meta.name, header.dtype, shape);
    });
    EBLCIO_CHECK_STREAM(header.dtype == field_.dtype(),
                        "zone blobs disagree on dtype: " + path_);
    const Region part = zone_part_of_region(region_, zone);
    const std::size_t row = zone.row_start + part.start[0] - region_.start[0];
    return decompress_into_any(blob, field_, row, part);
  }

  Field take() { return std::move(field_); }

 private:
  const ChunkIndex& index_;
  std::string path_;
  Region region_;
  std::once_flag allocated_;
  Field field_;
};

// The one streamed read. Resolves `box` (the whole dataset when none is
// given) to its covering zones from the footer index alone, fetches those
// zones in order on the calling thread and places each on a codec lane
// (ReadOutput::place). A failing fetch, decode, or placement propagates
// once every lane settled, with every pooled blob returned.
RegionReadRecord read_on_lanes(PfsSimulator& pfs, const std::string& path,
                               const std::optional<Region>& box,
                               const PipelineConfig& config,
                               const StreamConfig& stream) {
  const CpuModel& cpu = cpu_model(config.cpu);
  IoTool& tool = io_tool(config.io_library);

  RegionReadRecord rec;
  rec.io_library = tool.name();
  rec.path = path;
  rec.container_bytes = pfs.file_size(path);

  PowercapMonitor monitor(cpu);  // thread-safe: fetcher and lanes record
  auto reader =
      tool.open_chunked_reader(pfs, path, self_inclusive_clients(pfs));
  const ChunkIndex& index = reader.index();
  ReadOutput out(index, box, path);
  rec.region = out.region();
  const std::vector<std::size_t> ids = reader.covering(rec.region);
  const std::size_t n = ids.size();
  rec.zones_total = static_cast<int>(index.zones.size());
  rec.zones_decoded = static_cast<int>(n);
  rec.lanes = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(codec_lanes(1)), n));
  rec.zone_fetch_s.assign(n, 0.0);

  // Open: the footer index and metadata came by ranged reads (paid once).
  const auto open_prep = monitor.record_compute(
      "read-prep", reader.open_cost().prep_seconds, 1);
  const auto open_io =
      monitor.record_io("read-open", reader.open_cost().transfer_seconds);
  const double open_s = open_prep.seconds + open_io.seconds;
  rec.fetch_j = open_prep.joules + open_io.joules;

  std::vector<Bytes> blobs(n);
  std::vector<std::size_t> reconstructed(n, 0);
  std::vector<IoCost> fetch_cost(n);
  std::vector<WireMessage> messages(n);
  std::vector<LaneSpan> spans(n);

  WallTimer wall;
  LaneStages stages;
  // The source fetches zone k; its lane places it.
  stages.source = [&](std::size_t k) {
    const ChunkExtent& e = index.chunks[ids[k]];
    messages[k] = {e.offset, e.size, self_inclusive_clients(pfs)};
    blobs[k] = reader.read_chunk(ids[k], &fetch_cost[k], messages[k].clients);
  };
  stages.lane = [&](std::size_t k) {
    CoreBudget::Slot slot;
    spans[k].start_s = wall.elapsed_s();
    reconstructed[k] = out.place(blobs[k], ids[k]);
    spans[k].end_s = wall.elapsed_s();
    // The zone is placed; its buffer feeds the next fetch.
    BufferPool::global().release(std::move(blobs[k]));
    blobs[k] = Bytes();
  };
  try {
    run_ordered_lanes(n, rec.lanes, kStreamQueueDepth, stages);
  } catch (...) {
    release_pending(blobs);
    throw;
  }
  rec.host_wall_s = wall.elapsed_s();
  rec.field = out.take();
  rec.field_bytes = rec.field.size_bytes();

  // The wire: planned sector fetches under the transport, else the eager.
  const auto sectors =
      stream.use_transport
          ? plan_sectors(pfs, stream.transport, SectorOp::kFetch, messages)
          : eager_wire(n);
  if (stream.use_transport) {
    for (IoCost& cost : fetch_cost) cost.transfer_seconds = 0.0;
    for (const SectorRecord& s : sectors)
      fetch_cost[s.message].transfer_seconds += s.rpc_s + s.xfer_s;
  }

  // Each zone's fetch, charged in zone order (prep is container compute at
  // one core, transfer is PFS time). Solver inputs: under the transport a
  // lane pays the fetch prep before it decodes; without one, the whole
  // blocking fetch is the fetcher's serial stage step.
  std::vector<double> consume_s(n, 0.0), stage_s(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    const auto prep =
        monitor.record_compute("fetch-prep", fetch_cost[k].prep_seconds, 1);
    const auto io = monitor.record_io("fetch", fetch_cost[k].transfer_seconds);
    rec.zone_fetch_s[k] = prep.seconds + io.seconds;
    rec.fetch_j += prep.joules + io.joules;
    if (stream.use_transport)
      consume_s[k] = prep.seconds;
    else
      stage_s[k] = rec.zone_fetch_s[k];
  }
  const auto readings = monitor.record_lanes("decompress", spans, 1);
  double serial_fetch = 0.0, serial_decompress = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    rec.zone_decompress_s.push_back(readings[k].seconds);
    rec.decompress_j += readings[k].joules;
    rec.bytes_fetched += messages[k].bytes;
    rec.elements_reconstructed += reconstructed[k];
    consume_s[k] += readings[k].seconds;
    serial_fetch += rec.zone_fetch_s[k];
    serial_decompress += readings[k].seconds;
  }
  // Serial reference: open, fetch everything, then decode everything.
  rec.serial_total_s = open_s + serial_fetch + serial_decompress;

  const Timeline timeline = solve_read_timeline(
      stream.use_transport ? stream.transport : TransportConfig{}, sectors,
      consume_s, stage_s, kStreamQueueDepth, open_s, rec.lanes);
  rec.streamed_total_s = timeline.makespan_s;
  if (stream.use_transport)
    rec.transport = telemetry(stream.transport, sectors.size(), timeline);
  return rec;
}

// The one serial reference read: fetches and places the zones covering
// `box` (the whole dataset when none is given) in order on this thread.
Field read_reference(PfsSimulator& pfs, const std::string& path,
                     const std::optional<Region>& box,
                     const std::string& io_library) {
  auto reader = io_tool(io_library).open_chunked_reader(pfs, path);
  ReadOutput out(reader.index(), box, path);
  for (const std::size_t zi : reader.covering(out.region())) {
    Bytes blob = reader.read_chunk(zi);
    out.place(blob, zi);
    BufferPool::global().release(std::move(blob));
  }
  return out.take();
}

}  // namespace

StreamWriteRecord run_streamed_compress_write(const Field& field,
                                              const PipelineConfig& config,
                                              PfsSimulator& pfs,
                                              const StreamConfig& stream) {
  EBLCIO_CHECK_ARG(stream.slabs >= 1, "stream needs at least one slab");
  Compressor& comp = compressor(config.codec);
  const CpuModel& cpu = cpu_model(config.cpu);
  IoTool& tool = io_tool(config.io_library);

  // Slabs are zones: the chunking layer's slab_rows distribution, so the
  // footer zone index places each chunk's row interval for later
  // partial-region reads.
  const auto zones = zone_extents(field.shape().dim(0), stream.slabs);
  const std::size_t nslabs = zones.size();
  const int lanes = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(codec_lanes(config.threads)), nslabs));

  CompressOptions opt;
  opt.mode = BoundMode::kValueRangeRel;
  opt.error_bound = config.error_bound;
  opt.threads = config.threads;
  // The bound must be computed from the whole field's value range, not per
  // slab, or slab reconstructions would satisfy different bounds.
  const double abs_bound = absolute_bound_for(field, opt);
  CompressOptions slab_opt = opt;
  slab_opt.mode = BoundMode::kAbsolute;
  slab_opt.error_bound = abs_bound;

  StreamWriteRecord rec;
  rec.codec = comp.name();
  rec.io_library = tool.name();
  rec.path = "/pfs/" + field.name() + ".eblc.stream." + tool.name();
  rec.slabs = static_cast<int>(nslabs);
  rec.lanes = lanes;
  rec.original_bytes = field.size_bytes();
  rec.slab_write_s.resize(nslabs);

  PowercapMonitor monitor(cpu);  // thread-safe: lanes and writer record
  WallTimer wall;

  // Records one container-write IoCost: prep is container serialization
  // work (compute at one core), transfer is PFS time. Returns the prep and
  // the total seconds and adds the joules to write_j.
  double write_j = 0.0;
  const auto charge_io = [&](const char* io_label, const IoCost& cost) {
    const auto prep =
        monitor.record_compute("stream-write-prep", cost.prep_seconds, 1);
    const auto io = monitor.record_io(io_label, cost.transfer_seconds);
    write_j += prep.joules + io.joules;
    return std::pair<double, double>(prep.seconds, prep.seconds + io.seconds);
  };

  ChunkedDatasetMeta meta;
  meta.name = field.name();
  meta.dtype_code = 2;  // opaque compressed chunks
  meta.dims = field.shape().dims_vector();
  meta.attributes["content"] = "eblc-compressed";
  meta.attributes["codec"] = rec.codec;
  auto out = tool.open_zoned(pfs, rec.path, meta);
  const double open_s = charge_io("stream-write-open", out.open_cost()).second;
  // Per-slab container prep (compute) and offset/contention: the inputs of
  // the transport timeline and of the blocking-path reconstruction.
  std::vector<double> stage_prep_s(nslabs, 0.0);
  std::vector<WireMessage> messages(nslabs);
  std::vector<Bytes> blobs(nslabs);
  std::vector<LaneSpan> spans(nslabs);

  // Lanes extract and compress slabs; this thread appends them to the
  // container strictly in slab order.
  LaneStages stages;
  stages.lane = [&](std::size_t i) {
    const Field slab = extract_slab(field, zones[i]);
    CoreBudget::Slot slot;
    spans[i].start_s = wall.elapsed_s();
    blobs[i] = comp.compress(slab, slab_opt);
    spans[i].end_s = wall.elapsed_s();
  };
  stages.sink = [&](std::size_t i) {
    messages[i] = {out.open_cost().bytes_written + out.payload_bytes(),
                   blobs[i].size(), self_inclusive_clients(pfs)};
    IoCost cost = out.append_zone(blobs[i], zones[i], messages[i].clients);
    // Under the transport the planned sectors replace the blocking
    // transfer; they are charged once the whole stream is planned.
    if (stream.use_transport) cost.transfer_seconds = 0.0;
    std::tie(stage_prep_s[i], rec.slab_write_s[i]) =
        charge_io("stream-write", cost);
    // The blob has landed; its allocation feeds the next slab's buffers.
    BufferPool::global().release(std::move(blobs[i]));
    blobs[i] = Bytes();
  };
  try {
    run_ordered_lanes(nslabs, lanes, kStreamQueueDepth, stages);
  } catch (...) {
    release_pending(blobs);
    throw;
  }
  const double close_s =
      charge_io("stream-write-close", out.close(self_inclusive_clients(pfs)))
          .second;

  rec.host_wall_s = wall.elapsed_s();
  rec.compressed_bytes = pfs.file_size(rec.path);
  for (const EnergyReading& reading :
       monitor.record_lanes("stream-compress", spans, config.threads)) {
    rec.slab_compress_s.push_back(reading.seconds);
    rec.compress_j += reading.joules;
  }
  const double serial_compress = std::accumulate(
      rec.slab_compress_s.begin(), rec.slab_compress_s.end(), 0.0);

  // What each chunk's write cost through the blocking per-chunk append
  // path: what ran, or under the transport its reconstruction — the same
  // prep and transfer bytes, but per-chunk stripe RPCs and no overlap
  // between staging and the wire.
  std::vector<double> blocking_write_s = rec.slab_write_s;
  if (stream.use_transport) {
    const auto sectors = plan_sectors(pfs, stream.transport,
                                      SectorOp::kAppend, messages);
    blocking_write_s = blocking_write_seconds(
        pfs, out.open_cost().bytes_written, sectors, stage_prep_s);
    // Charge the planned wire once and fold it into slab_write_s.
    double wire_total = 0.0;
    std::vector<double> slab_wire_s(nslabs, 0.0);
    for (const SectorRecord& s : sectors) {
      wire_total += s.rpc_s + s.xfer_s;
      slab_wire_s[s.message] += s.rpc_s + s.xfer_s;
    }
    write_j += monitor.record_io("stream-write", wire_total).joules;
    for (std::size_t i = 0; i < nslabs; ++i)
      rec.slab_write_s[i] += slab_wire_s[i];

    const Timeline timeline =
        solve_write_timeline(stream.transport, sectors, rec.slab_compress_s,
                             stage_prep_s, kStreamQueueDepth, open_s, lanes);
    rec.streamed_total_s = timeline.makespan_s + close_s;
    rec.transport = telemetry(stream.transport, sectors.size(), timeline);
  }
  // The blocking makespan is the same solver over the eager wire.
  rec.blocking_total_s =
      solve_write_timeline(TransportConfig{}, eager_wire(nslabs),
                           rec.slab_compress_s, blocking_write_s,
                           kStreamQueueDepth, open_s, lanes)
          .makespan_s +
      close_s;
  if (!stream.use_transport) rec.streamed_total_s = rec.blocking_total_s;
  // Serial reference: the identical container writes, scheduled after all
  // compression instead of overlapped with it.
  rec.serial_total_s =
      serial_compress + open_s +
      std::accumulate(blocking_write_s.begin(), blocking_write_s.end(), 0.0) +
      close_s;
  rec.write_j = write_j;
  return rec;
}

// --- Streamed and serial reads ----------------------------------------------

StreamReadRecord run_streamed_read(PfsSimulator& pfs, const std::string& path,
                                   const PipelineConfig& config,
                                   const StreamConfig& stream) {
  RegionReadRecord whole =
      read_on_lanes(pfs, path, std::nullopt, config, stream);
  StreamReadRecord rec;
  rec.slabs = whole.zones_total;
  rec.slab_fetch_s = std::move(whole.zone_fetch_s);
  rec.slab_decompress_s = std::move(whole.zone_decompress_s);
  static_cast<StreamReadBase&>(rec) = std::move(whole);
  return rec;
}

Field read_chunked_field(PfsSimulator& pfs, const std::string& path,
                         const std::string& io_library) {
  return read_reference(pfs, path, std::nullopt, io_library);
}

RegionReadRecord run_streamed_read_region(PfsSimulator& pfs,
                                          const std::string& path,
                                          const Region& region,
                                          const PipelineConfig& config,
                                          const StreamConfig& stream) {
  return read_on_lanes(pfs, path, region, config, stream);
}

Field read_region_reference(PfsSimulator& pfs, const std::string& path,
                            const Region& region,
                            const std::string& io_library) {
  return read_reference(pfs, path, region, io_library);
}

}  // namespace eblcio
