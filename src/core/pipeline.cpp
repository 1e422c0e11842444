#include "core/pipeline.h"

#include <algorithm>

#include "common/buffer_pool.h"
#include "common/timer.h"
#include "compressors/chunking.h"
#include "compressors/compressor.h"
#include "compressors/zone.h"
#include "io/io_tool.h"
#include "parallel/executor.h"

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

struct ProducedSlab {
  std::size_t index = 0;
  Bytes blob;
};

// Closes the channel on every exit path so neither stage can wedge the
// other when one of them throws (a blocked push/pop returns once closed).
template <typename T>
struct ChannelCloser {
  BoundedChannel<T>* channel;
  ~ChannelCloser() { channel->close(); }
};

// The live client count the streamed pipelines feed the PFS contention
// model for *blocking* transfers: every registered writer and reader fleet
// across overlapping worlds, plus this client itself. Streams register
// with the PFS only while their data is in flight (see
// AppendStream::engage), so at call time the caller's own stream is not
// yet counted — the +1 adds it, exactly reproducing what the old
// whole-function WriterScope/ReaderScope registration fed the model. A
// lone pipeline sees 1; overlapping streams contend honestly. (Transport
// endpoints price their sectors themselves, while engaged, without the
// +1.)
int self_inclusive_clients(const PfsSimulator& pfs) {
  return std::max(1,
                  pfs.concurrent_writers() + pfs.concurrent_readers() + 1);
}

// One handle of a transported prefetch: slab ordinal + transport message.
struct PrefetchedSlab {
  std::size_t index = 0;
  std::size_t handle = 0;
};

void fill_telemetry(TransportTelemetry& t, const TransportConfig& config,
                    std::size_t sectors, std::size_t credit_stalls,
                    double credit_stall_s, double mean_inflight,
                    int peak_inflight) {
  t.channels = config.channels;
  t.ring_depth = config.ring_depth;
  t.sector_bytes = config.sector_bytes;
  t.sectors = sectors;
  t.credit_stalls = credit_stalls;
  t.credit_stall_s = credit_stall_s;
  t.mean_inflight = mean_inflight;
  t.peak_inflight = peak_inflight;
}

// Checks a zone blob's dims (from its header, or its decoded field) against
// the container's zone index entry before any of its bytes are assembled:
// dims must match the dataset with the extent's row count, so a swapped or
// forged blob fails cleanly.
void check_zone_dims(const std::vector<std::size_t>& zone_dims,
                     const ChunkIndex& index, std::size_t zi,
                     const std::string& path) {
  const auto& dims = index.meta.dims;
  EBLCIO_CHECK_STREAM(
      zone_dims.size() == dims.size() &&
          zone_dims[0] == static_cast<std::size_t>(index.zones[zi].rows),
      "zone blob does not match its index extent: " + path);
  for (std::size_t d = 1; d < zone_dims.size(); ++d)
    EBLCIO_CHECK_STREAM(zone_dims[d] == dims[d],
                        "zone blob does not match the dataset dims: " + path);
}

}  // namespace

StreamWriteRecord run_streamed_compress_write(const Field& field,
                                              const PipelineConfig& config,
                                              PfsSimulator& pfs,
                                              const StreamConfig& stream) {
  EBLCIO_CHECK_ARG(stream.slabs >= 1, "stream needs at least one slab");
  EBLCIO_CHECK_ARG(stream.queue_depth >= 1, "queue depth must be positive");
  Compressor& comp = compressor(config.codec);
  const CpuModel& cpu = cpu_model(config.cpu);
  IoTool& tool = io_tool(config.io_library);

  const auto slabs = split_slabs(field, stream.slabs);
  const std::size_t nslabs = slabs.size();
  // Slabs are zones: the same slab_rows distribution, so the footer zone
  // index places each chunk's row interval for later partial-region reads.
  const auto zones = zone_extents(field.shape().dim(0), stream.slabs);

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
  rec.queue_depth = stream.queue_depth;
  rec.original_bytes = field.size_bytes();
  rec.slab_compress_s.resize(nslabs);
  rec.slab_write_s.resize(nslabs);

  PowercapMonitor monitor(cpu);  // thread-safe: both stages record into it
  BoundedChannel<ProducedSlab> channel(
      static_cast<std::size_t>(stream.queue_depth));

  WallTimer wall;

  // Producer: compresses slabs in order as one executor task (each slab may
  // itself fan out onto the pool via opt.threads); blocks on the channel
  // when queue_depth blobs await the writer.
  TaskGroup producer;
  double compress_j = 0.0;
  producer.run([&] {
    // The channel must close even when a slab fails to compress, or the
    // consumer would block in pop() forever and the exception (captured
    // by the group) would never surface through producer.wait().
    ChannelCloser<ProducedSlab> closer{&channel};
    for (std::size_t i = 0; i < nslabs; ++i) {
      WallTimer t;
      Bytes blob = comp.compress(slabs[i], slab_opt);
      const auto reading = monitor.record_compute("stream-compress",
                                                  t.elapsed_s(),
                                                  config.threads);
      rec.slab_compress_s[i] = reading.seconds;
      compress_j += reading.joules;
      channel.push({i, std::move(blob)});
    }
  });

  // Records one chunk-write IoCost: prep is container serialization work
  // (compute at one core), transfer is PFS time.
  const auto charge_io = [&](const char* prep_label, const char* io_label,
                             const IoCost& cost) {
    const auto prep = monitor.record_compute(prep_label, cost.prep_seconds, 1);
    const auto io = monitor.record_io(io_label, cost.transfer_seconds);
    return std::pair<double, double>(prep.seconds + io.seconds,
                                     prep.joules + io.joules);
  };

  // Consumer (this thread): streams chunks into the IoTool container, one
  // append_chunk per slab, while the producer compresses ahead. If it
  // throws, the closer unblocks the producer so the TaskGroup can unwind.
  ChannelCloser<ProducedSlab> closer{&channel};
  ChunkedDatasetMeta meta;
  meta.name = field.name();
  meta.dtype_code = 2;  // opaque compressed chunks
  meta.dims = field.shape().dims_vector();
  meta.attributes["content"] = "eblc-compressed";
  meta.attributes["codec"] = rec.codec;
  auto out = tool.open_zoned(pfs, rec.path, meta);
  if (stream.use_transport) out.enable_transport(stream.transport);
  auto [open_s, open_j] =
      charge_io("stream-write-prep", "stream-write-open", out.open_cost());
  double write_j = open_j;
  // Per-slab container prep (compute) and payload size, kept for the
  // transport timeline solver and the blocking-path reconstruction.
  std::vector<double> stage_prep_s(nslabs, 0.0);
  std::vector<std::size_t> chunk_bytes(nslabs, 0);
  while (auto produced = channel.pop()) {
    chunk_bytes[produced->index] = produced->blob.size();
    const IoCost w = out.append_zone(produced->blob, zones[produced->index],
                                     self_inclusive_clients(pfs));
    if (stream.use_transport) {
      // Transport mode: the append only *staged* sectors (transfer is 0);
      // the wire cost lands in transport()->records() and is charged after
      // the drain, when every sector's contended price is known.
      const auto prep =
          monitor.record_compute("stream-write-prep", w.prep_seconds, 1);
      stage_prep_s[produced->index] = prep.seconds;
      rec.slab_write_s[produced->index] = prep.seconds;
      write_j += prep.joules;
    } else {
      const auto [seconds, joules] =
          charge_io("stream-write-prep", "stream-write", w);
      rec.slab_write_s[produced->index] = seconds;
      write_j += joules;
    }
    // The blob has landed in the container; recycle its allocation for the
    // next slab's compress/staging buffers.
    BufferPool::global().release(std::move(produced->blob));
  }
  // close() drains the transport rings first, so every sector has retired
  // (and priced itself) before the footer commits.
  const IoCost close_cost = out.close(self_inclusive_clients(pfs));
  const auto [close_s, close_j] =
      charge_io("stream-write-prep", "stream-write-close", close_cost);
  write_j += close_j;
  producer.wait();

  rec.host_wall_s = wall.elapsed_s();
  rec.compressed_bytes = pfs.file_size(rec.path);
  rec.compress_j = compress_j;

  const std::size_t depth = static_cast<std::size_t>(stream.queue_depth);
  double serial_compress = 0.0;
  for (std::size_t i = 0; i < nslabs; ++i)
    serial_compress += rec.slab_compress_s[i];

  // Runs the PR-8 blocking pipeline recurrence — the producer finishes
  // slab i after slab i-1 and after a channel slot frees (the writer
  // popped slab i-1-depth); the writer starts slab i when both it and the
  // slab are ready — over the given per-slab write costs, returning the
  // last write's finish time.
  const auto blocking_recurrence = [&](const std::vector<double>& write_s) {
    std::vector<double> fc(nslabs, 0.0), fw(nslabs, 0.0);
    for (std::size_t i = 0; i < nslabs; ++i) {
      double start = i > 0 ? fc[i - 1] : 0.0;
      if (i >= depth + 2) start = std::max(start, fw[i - 2 - depth]);
      else if (i == depth + 1) start = std::max(start, open_s);
      fc[i] = start + rec.slab_compress_s[i];
      const double writer_free = i > 0 ? fw[i - 1] : open_s;
      fw[i] = std::max(fc[i], writer_free) + write_s[i];
    }
    return fw[nslabs - 1];
  };

  if (stream.use_transport) {
    SectorWriter& transport = *out.transport();
    const auto& sectors = transport.records();
    // Charge the wire once, now that every sector has its contended price;
    // fold each message's wire seconds into its slab_write_s column.
    double wire_total = 0.0;
    std::vector<double> slab_wire_s(nslabs, 0.0), slab_xfer_s(nslabs, 0.0);
    for (const SectorRecord& s : sectors) {
      wire_total += s.rpc_s + s.xfer_s;
      slab_wire_s[s.message] += s.rpc_s + s.xfer_s;
      slab_xfer_s[s.message] += s.xfer_s;
    }
    const auto wire = monitor.record_io("stream-write", wire_total);
    write_j += wire.joules;
    for (std::size_t i = 0; i < nslabs; ++i)
      rec.slab_write_s[i] += slab_wire_s[i];

    const WriteTimeline timeline =
        solve_write_timeline(stream.transport, sectors, rec.slab_compress_s,
                             stage_prep_s, depth, open_s);
    rec.streamed_total_s = timeline.makespan_s + close_s;
    fill_telemetry(rec.transport, stream.transport, sectors.size(),
                   transport.stats().credit_stalls, timeline.credit_stall_s,
                   timeline.mean_inflight, timeline.peak_inflight);

    // Blocking-path reconstruction: what the identical chunk sequence
    // would have cost through PR-8's one-append-per-chunk path — the same
    // prep and transfer bytes, but per-chunk stripe RPCs and no overlap
    // between staging and the wire.
    const PfsConfig& pc = pfs.config();
    std::vector<double> blocking_write_s(nslabs, 0.0);
    std::size_t offset = out.open_cost().bytes_written;
    double serial_write = 0.0;
    for (std::size_t i = 0; i < nslabs; ++i) {
      const std::size_t len = chunk_bytes[i];
      const std::size_t stripes =
          len ? (offset + len - 1) / pc.stripe_size - offset / pc.stripe_size +
                    1
              : (offset % pc.stripe_size != 0 ? 1 : 0);
      blocking_write_s[i] = stage_prep_s[i] +
                            static_cast<double>(stripes) * pc.rpc_latency_s +
                            slab_xfer_s[i];
      offset += len;
      serial_write += blocking_write_s[i];
    }
    rec.blocking_total_s = blocking_recurrence(blocking_write_s) + close_s;
    rec.serial_total_s = serial_compress + open_s + serial_write + close_s;
  } else {
    double serial_write = 0.0;
    for (std::size_t i = 0; i < nslabs; ++i)
      serial_write += rec.slab_write_s[i];
    rec.streamed_total_s = blocking_recurrence(rec.slab_write_s) + close_s;
    rec.blocking_total_s = rec.streamed_total_s;
    // Serial reference: the identical container writes, scheduled after all
    // compression instead of overlapped with it.
    rec.serial_total_s = serial_compress + open_s + serial_write + close_s;
  }
  rec.write_j = write_j;
  return rec;
}

StreamReadRecord run_streamed_read(PfsSimulator& pfs, const std::string& path,
                                   const PipelineConfig& config,
                                   const StreamConfig& stream) {
  EBLCIO_CHECK_ARG(stream.queue_depth >= 1, "queue depth must be positive");
  const CpuModel& cpu = cpu_model(config.cpu);
  IoTool& tool = io_tool(config.io_library);

  StreamReadRecord rec;
  rec.io_library = tool.name();
  rec.path = path;
  rec.queue_depth = stream.queue_depth;
  rec.container_bytes = pfs.file_size(path);

  PowercapMonitor monitor(cpu);  // thread-safe: both stages record into it

  // Open the container: the footer chunk index and dataset metadata arrive
  // through ranged reads before the pipeline starts (open paid once).
  auto reader =
      tool.open_chunked_reader(pfs, path, self_inclusive_clients(pfs));
  if (stream.use_transport) reader.enable_transport(stream.transport);
  const std::size_t nslabs = reader.index().chunks.size();
  EBLCIO_CHECK_STREAM(nslabs >= 1, "chunked container holds no slabs");
  rec.slabs = static_cast<int>(nslabs);
  rec.slab_fetch_s.resize(nslabs);
  rec.slab_decompress_s.resize(nslabs);

  const auto open_prep = monitor.record_compute(
      "stream-read-prep", reader.open_cost().prep_seconds, 1);
  const auto open_io =
      monitor.record_io("stream-read-open", reader.open_cost().transfer_seconds);
  const double open_s = open_prep.seconds + open_io.seconds;
  double fetch_j = open_prep.joules + open_io.joules;

  WallTimer wall;
  std::vector<Field> slab_fields(nslabs);
  // Per-slab consumer-side compute (fetch prep + decompress), the transport
  // timeline solver's consume column.
  std::vector<double> consume_s(nslabs, 0.0);
  double decompress_j = 0.0;
  TaskGroup producer;

  if (stream.use_transport) {
    // Producer: stages each chunk's sector fetches through the transport
    // (blocking only on channel credits) and hands the message handle
    // over; the drainer ships sectors while this thread decompresses.
    BoundedChannel<PrefetchedSlab> handles(
        static_cast<std::size_t>(stream.queue_depth));
    producer.run([&] {
      ChannelCloser<PrefetchedSlab> closer{&handles};
      for (std::size_t i = 0; i < nslabs; ++i)
        handles.push({i, reader.prefetch_chunk(i)});
    });

    // Consumer (this thread): awaits each assembled chunk, charges its
    // fetch, and decompresses it. A corrupt slab throws here; the closer
    // unblocks the producer and no partial field escapes.
    ChannelCloser<PrefetchedSlab> closer{&handles};
    while (auto produced = handles.pop()) {
      IoCost cost;
      Bytes blob = reader.await_chunk(produced->handle, produced->index, &cost);
      const auto prep =
          monitor.record_compute("stream-fetch-prep", cost.prep_seconds, 1);
      const auto io = monitor.record_io("stream-fetch", cost.transfer_seconds);
      rec.slab_fetch_s[produced->index] = prep.seconds + io.seconds;
      fetch_j += prep.joules + io.joules;
      WallTimer t;
      Field slab = decompress_any(blob, 1);
      const auto reading =
          monitor.record_compute("stream-decompress", t.elapsed_s(), 1);
      rec.slab_decompress_s[produced->index] = reading.seconds;
      consume_s[produced->index] = prep.seconds + reading.seconds;
      decompress_j += reading.joules;
      BufferPool::global().release(std::move(blob));
      slab_fields[produced->index] = std::move(slab);
    }
    producer.wait();
  } else {
    // Producer: fetches chunk i with blocking ranged PFS reads as one
    // executor task while the consumer decompresses chunk i-1; blocks on
    // the channel when queue_depth fetched slabs await the decompressor.
    BoundedChannel<ProducedSlab> channel(
        static_cast<std::size_t>(stream.queue_depth));
    producer.run([&] {
      ChannelCloser<ProducedSlab> closer{&channel};
      for (std::size_t i = 0; i < nslabs; ++i) {
        IoCost cost;
        Bytes blob = reader.read_chunk(i, &cost, self_inclusive_clients(pfs));
        const auto prep =
            monitor.record_compute("stream-fetch-prep", cost.prep_seconds, 1);
        const auto io =
            monitor.record_io("stream-fetch", cost.transfer_seconds);
        rec.slab_fetch_s[i] = prep.seconds + io.seconds;
        fetch_j += prep.joules + io.joules;
        channel.push({i, std::move(blob)});
      }
    });

    // Consumer (this thread): decompresses slabs as they arrive. A corrupt
    // slab throws here; the closer unblocks the producer and no partial
    // field escapes (the exception propagates out of this function).
    ChannelCloser<ProducedSlab> closer{&channel};
    while (auto produced = channel.pop()) {
      WallTimer t;
      Field slab = decompress_any(produced->blob, 1);
      const auto reading =
          monitor.record_compute("stream-decompress", t.elapsed_s(), 1);
      rec.slab_decompress_s[produced->index] = reading.seconds;
      decompress_j += reading.joules;
      // The fetched slab is decoded; its buffer feeds the next fetch.
      BufferPool::global().release(std::move(produced->blob));
      slab_fields[produced->index] = std::move(slab);
    }
    producer.wait();
  }

  rec.host_wall_s = wall.elapsed_s();
  rec.fetch_j = fetch_j;
  rec.decompress_j = decompress_j;
  rec.field = merge_slabs(slab_fields, reader.index().meta.dims,
                          reader.index().meta.name);
  rec.field_bytes = rec.field.size_bytes();

  const std::size_t depth = static_cast<std::size_t>(stream.queue_depth);
  double serial_fetch = 0.0, serial_decompress = 0.0;
  for (std::size_t i = 0; i < nslabs; ++i) {
    serial_fetch += rec.slab_fetch_s[i];
    serial_decompress += rec.slab_decompress_s[i];
  }

  if (stream.use_transport) {
    SectorReader& transport = *reader.transport();
    const ReadTimeline timeline =
        solve_read_timeline(stream.transport, transport.records(), consume_s,
                            depth, open_s);
    rec.streamed_total_s = timeline.makespan_s;
    fill_telemetry(rec.transport, stream.transport,
                   transport.records().size(),
                   transport.stats().credit_stalls, timeline.credit_stall_s,
                   timeline.mean_inflight, timeline.peak_inflight);
  } else {
    // Mirror of the write recurrence with the roles swapped: the fetcher
    // finishes slab i after slab i-1 and after a channel slot frees (the
    // decompressor popped slab i-1-depth when it finished slab i-2-depth);
    // the first fetch waits for the index fetch at open. The decompressor
    // starts slab i when both it and the fetched slab are ready.
    std::vector<double> ff(nslabs, 0.0), fd(nslabs, 0.0);
    for (std::size_t i = 0; i < nslabs; ++i) {
      double start = i > 0 ? ff[i - 1] : open_s;
      if (i >= depth + 2) start = std::max(start, fd[i - 2 - depth]);
      ff[i] = start + rec.slab_fetch_s[i];
      const double decomp_free = i > 0 ? fd[i - 1] : 0.0;
      fd[i] = std::max(ff[i], decomp_free) + rec.slab_decompress_s[i];
    }
    rec.streamed_total_s = fd[nslabs - 1];
  }
  // Serial reference: open, fetch everything, then decompress everything.
  rec.serial_total_s = open_s + serial_fetch + serial_decompress;
  return rec;
}

Field read_chunked_field(PfsSimulator& pfs, const std::string& path,
                         const std::string& io_library) {
  IoTool& tool = io_tool(io_library);
  auto reader = tool.open_chunked_reader(pfs, path);
  const std::size_t nslabs = reader.index().chunks.size();
  EBLCIO_CHECK_STREAM(nslabs >= 1, "chunked container holds no slabs");
  std::vector<Field> slab_fields(nslabs);
  for (std::size_t i = 0; i < nslabs; ++i) {
    Bytes blob = reader.read_chunk(i);
    slab_fields[i] = decompress_any(blob, 1);
    BufferPool::global().release(std::move(blob));
  }
  return merge_slabs(slab_fields, reader.index().meta.dims,
                     reader.index().meta.name);
}

// --- Partial-region (zoned) reads -------------------------------------------

namespace {

// Allocates the region-shaped output field once the first zone reveals the
// dtype (the container's dtype_code is the opaque-compressed tag, not the
// payload dtype).
Field make_region_field(const std::string& name, const Region& region,
                        DType dtype) {
  Shape shape{std::span<const std::size_t>(region.shape)};
  return dtype == DType::kFloat32 ? Field(name, NdArray<float>(shape))
                                  : Field(name, NdArray<double>(shape));
}

}  // namespace

RegionReadRecord run_streamed_read_region(PfsSimulator& pfs,
                                          const std::string& path,
                                          const Region& region,
                                          const PipelineConfig& config,
                                          const StreamConfig& stream) {
  EBLCIO_CHECK_ARG(stream.queue_depth >= 1, "queue depth must be positive");
  const CpuModel& cpu = cpu_model(config.cpu);
  IoTool& tool = io_tool(config.io_library);

  RegionReadRecord rec;
  rec.io_library = tool.name();
  rec.path = path;
  rec.region = region;
  rec.queue_depth = stream.queue_depth;
  rec.container_bytes = pfs.file_size(path);

  PowercapMonitor monitor(cpu);  // thread-safe: both stages record into it

  auto reader =
      tool.open_chunked_reader(pfs, path, self_inclusive_clients(pfs));
  if (stream.use_transport) reader.enable_transport(stream.transport);
  const ChunkIndex& index = reader.index();
  EBLCIO_CHECK_STREAM(index.zoned(),
                      "container has no zone index (written before zoning, "
                      "or unzoned writer): " + path);
  // Resolve the query box to its covering zones from the footer index
  // alone; everything after this touches only those zones.
  const std::vector<std::size_t> covering = reader.covering(region);
  EBLCIO_CHECK_STREAM(!covering.empty(),
                      "region resolves to no covering zones: " + path);
  const std::size_t nzones = covering.size();
  rec.zones_total = static_cast<int>(index.zones.size());
  rec.zones_decoded = static_cast<int>(nzones);
  rec.zone_fetch_s.resize(nzones);
  rec.zone_decompress_s.resize(nzones);

  const auto open_prep = monitor.record_compute(
      "region-read-prep", reader.open_cost().prep_seconds, 1);
  const auto open_io = monitor.record_io("region-read-open",
                                         reader.open_cost().transfer_seconds);
  const double open_s = open_prep.seconds + open_io.seconds;
  double fetch_j = open_prep.joules + open_io.joules;

  WallTimer wall;
  Field out;
  bool out_ready = false;
  std::vector<double> consume_s(nzones, 0.0);
  std::size_t bytes_fetched = 0;
  double decompress_j = 0.0;
  TaskGroup producer;

  // Consumer step shared by both paths: validates one covering zone's blob
  // header against the index, decodes only the zone's part of the region
  // (the windowed decode), and copies it into the output. Returns the
  // dilated decode seconds. A corrupt zone throws here; no partial field
  // escapes.
  const auto consume_zone = [&](std::size_t i, const Bytes& blob) {
    const std::size_t zi = covering[i];
    WallTimer t;
    const BlobHeader header = peek_header(blob);
    check_zone_dims(header.dims, index, zi, path);
    if (!out_ready) {
      out = make_region_field(index.meta.name, region, header.dtype);
      out_ready = true;
    }
    EBLCIO_CHECK_STREAM(header.dtype == out.dtype(),
                        "zone blobs disagree on dtype: " + path);
    std::size_t reconstructed = 0;
    const Field part = decompress_region_any(
        blob, zone_part_of_region(region, index.zones[zi]), 1,
        &reconstructed);
    copy_zone_part_into_region(part, index.zones[zi], region, out);
    rec.elements_reconstructed += reconstructed;
    const auto reading =
        monitor.record_compute("region-decompress", t.elapsed_s(), 1);
    rec.zone_decompress_s[i] = reading.seconds;
    decompress_j += reading.joules;
    return reading.seconds;
  };

  if (stream.use_transport) {
    // Producer: stages each covering zone's sector fetches (in covering
    // order) while the consumer decodes the previous zone.
    BoundedChannel<PrefetchedSlab> handles(
        static_cast<std::size_t>(stream.queue_depth));
    producer.run([&] {
      ChannelCloser<PrefetchedSlab> closer{&handles};
      for (std::size_t i = 0; i < nzones; ++i)
        handles.push({i, reader.prefetch_chunk(covering[i])});
    });

    ChannelCloser<PrefetchedSlab> closer{&handles};
    while (auto produced = handles.pop()) {
      IoCost cost;
      Bytes blob =
          reader.await_chunk(produced->handle, covering[produced->index],
                             &cost);
      const auto prep =
          monitor.record_compute("region-fetch-prep", cost.prep_seconds, 1);
      const auto io = monitor.record_io("region-fetch", cost.transfer_seconds);
      rec.zone_fetch_s[produced->index] = prep.seconds + io.seconds;
      fetch_j += prep.joules + io.joules;
      bytes_fetched += blob.size();
      consume_s[produced->index] =
          prep.seconds + consume_zone(produced->index, blob);
      BufferPool::global().release(std::move(blob));
    }
    producer.wait();
  } else {
    // Producer: issues one blocking ranged fetch per covering zone (in
    // covering order) while the consumer decodes the previous zone.
    BoundedChannel<ProducedSlab> channel(
        static_cast<std::size_t>(stream.queue_depth));
    producer.run([&] {
      ChannelCloser<ProducedSlab> closer{&channel};
      for (std::size_t i = 0; i < nzones; ++i) {
        IoCost cost;
        Bytes blob = reader.read_chunk(covering[i], &cost,
                                       self_inclusive_clients(pfs));
        const auto prep =
            monitor.record_compute("region-fetch-prep", cost.prep_seconds, 1);
        const auto io =
            monitor.record_io("region-fetch", cost.transfer_seconds);
        rec.zone_fetch_s[i] = prep.seconds + io.seconds;
        fetch_j += prep.joules + io.joules;
        bytes_fetched += blob.size();
        channel.push({i, std::move(blob)});
      }
    });

    ChannelCloser<ProducedSlab> closer{&channel};
    while (auto produced = channel.pop()) {
      consume_zone(produced->index, produced->blob);
      BufferPool::global().release(std::move(produced->blob));
    }
    producer.wait();
  }

  rec.host_wall_s = wall.elapsed_s();
  rec.fetch_j = fetch_j;
  rec.decompress_j = decompress_j;
  rec.bytes_fetched = bytes_fetched;
  rec.field = std::move(out);
  rec.field_bytes = rec.field.size_bytes();

  const std::size_t depth = static_cast<std::size_t>(stream.queue_depth);
  double serial_fetch = 0.0, serial_decompress = 0.0;
  for (std::size_t i = 0; i < nzones; ++i) {
    serial_fetch += rec.zone_fetch_s[i];
    serial_decompress += rec.zone_decompress_s[i];
  }

  if (stream.use_transport) {
    SectorReader& transport = *reader.transport();
    const ReadTimeline timeline =
        solve_read_timeline(stream.transport, transport.records(), consume_s,
                            depth, open_s);
    rec.streamed_total_s = timeline.makespan_s;
    fill_telemetry(rec.transport, stream.transport,
                   transport.records().size(),
                   transport.stats().credit_stalls, timeline.credit_stall_s,
                   timeline.mean_inflight, timeline.peak_inflight);
  } else {
    // Same recurrence as the full read pipeline, over the covering set
    // only.
    std::vector<double> ff(nzones, 0.0), fd(nzones, 0.0);
    for (std::size_t i = 0; i < nzones; ++i) {
      double start = i > 0 ? ff[i - 1] : open_s;
      if (i >= depth + 2) start = std::max(start, fd[i - 2 - depth]);
      ff[i] = start + rec.zone_fetch_s[i];
      const double decomp_free = i > 0 ? fd[i - 1] : 0.0;
      fd[i] = std::max(ff[i], decomp_free) + rec.zone_decompress_s[i];
    }
    rec.streamed_total_s = fd[nzones - 1];
  }
  rec.serial_total_s = open_s + serial_fetch + serial_decompress;
  return rec;
}

Field read_region_reference(PfsSimulator& pfs, const std::string& path,
                            const Region& region,
                            const std::string& io_library) {
  IoTool& tool = io_tool(io_library);
  auto reader = tool.open_chunked_reader(pfs, path);
  const ChunkIndex& index = reader.index();
  EBLCIO_CHECK_STREAM(index.zoned(),
                      "container has no zone index: " + path);
  auto fetched = reader.read_zones(region);
  EBLCIO_CHECK_STREAM(!fetched.empty(),
                      "region resolves to no covering zones: " + path);

  Field out;
  bool out_ready = false;
  for (auto& f : fetched) {
    Field zone = decompress_any(f.blob, 1);
    check_zone_dims(zone.shape().dims_vector(), index, f.zone, path);
    if (!out_ready) {
      out = make_region_field(index.meta.name, region, zone.dtype());
      out_ready = true;
    }
    EBLCIO_CHECK_STREAM(zone.dtype() == out.dtype(),
                        "zone blobs disagree on dtype: " + path);
    scatter_zone_into_region(
        zone, static_cast<std::size_t>(index.zones[f.zone].row_start), region,
        out);
    BufferPool::global().release(std::move(f.blob));
  }
  return out;
}

}  // namespace eblcio

