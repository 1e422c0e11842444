// End-to-end measured pipelines — the orchestration the paper's harness
// (LibPressio + PAPI + HDF5/NetCDF) performs for each experiment cell.
//
// Each runner really executes the codec kernels (timed on the host),
// dilates the measured runtimes onto a Table-I platform, charges the node
// power model through the simulated RAPL counters, and drives container
// writes through the PFS simulator. Benches format the returned records
// into the paper's tables and figures.
#pragma once

#include <optional>
#include <string>

#include "common/field.h"
#include "common/region.h"
#include "core/tradeoff.h"
#include "energy/powercap_monitor.h"
#include "io/pfs.h"
#include "io/transport.h"
#include "metrics/error_stats.h"

namespace eblcio {

struct PipelineConfig {
  std::string codec = "SZ3";
  double error_bound = 1e-3;       // value-range relative
  int threads = 1;
  std::string cpu = "9480";        // Table I platform (substring match)
  std::string io_library = "HDF5"; // "HDF5" or "NetCDF"
  double psnr_min_db = 60.0;       // Eq. 5 threshold
};

// One compression/decompression measurement (no I/O): Figs. 5, 7, 10.
struct CompressionRecord {
  std::string codec;
  double error_bound = 0.0;
  int threads = 1;
  std::size_t original_bytes = 0;
  std::size_t compressed_bytes = 0;
  double ratio = 0.0;
  // Host-measured kernel times.
  double host_compress_s = 0.0;
  double host_decompress_s = 0.0;
  // Platform-dilated times and modeled energies.
  double compress_s = 0.0;
  double decompress_s = 0.0;
  double compress_j = 0.0;
  double decompress_j = 0.0;
  ErrorStats quality;
  double total_j() const { return compress_j + decompress_j; }
  double total_s() const { return compress_s + decompress_s; }
};

// Runs compress + decompress on `field`, returning times/energies/quality.
// When `blob_out` is non-null the compressed blob is handed back so callers
// can write it without re-compressing.
CompressionRecord run_compression(const Field& field,
                                  const PipelineConfig& config,
                                  Bytes* blob_out = nullptr);

// Full single-node write experiment (Sec. IV-D, Fig. 11): compress, write
// compressed via the I/O library, write the original as baseline, evaluate
// the Sec. III conditions.
struct WriteRecord {
  CompressionRecord compression;
  std::string io_library;
  double write_compressed_s = 0.0;
  double write_compressed_j = 0.0;
  double write_original_s = 0.0;
  double write_original_j = 0.0;
  TradeoffVerdict verdict;
};

WriteRecord run_compress_write(const Field& field,
                               const PipelineConfig& config,
                               PfsSimulator& pfs);

// --- Streaming (chunked) write experiment ---------------------------------
//
// Instead of compressing the whole field and only then touching the PFS,
// the field is cut into slabs along dim 0 and streamed through the
// container while it compresses. Slabs are independent blobs coded at one
// whole-field absolute bound, so up to W of them compress at once on codec
// *lanes* — executor tasks, each extracting its own slab rows
// (parallel/lanes.h) — with W = Executor::concurrency() / config.threads
// (1 on a one-core host). This thread appends the compressed slabs to the
// container strictly in slab order, so the file is byte-identical to a
// one-lane run. A queue of kStreamQueueDepth coded slabs between the lanes
// and the writer provides backpressure: slab i starts compressing once the
// writer has taken slab i - (W + kStreamQueueDepth). The container is
// whichever IoTool config.io_library names — each compressed slab lands as
// one chunk through IoTool::ChunkWriter, so the on-PFS file is a real
// HDF5/NetCDF/ADIOS chunked dataset, not a bespoke stream format. This is
// the overlap mechanism behind the paper's parallel write results
// (Figs. 10-12).
//
// Lanes of every pipeline in the process share one core budget: at most
// CoreBudget::slots() lane codec calls run at once, and a lane's timer
// starts only once it holds its slot, so overlapping pipelines queue
// instead of inflating each other's per-slab seconds. The modeled
// makespans schedule the codec stage on the lanes that ran (the solvers in
// io/transport.h take the lane count), and the energy model charges the
// node once for them (PowercapMonitor::record_lanes): over a host interval
// where k lanes of the call run, the call draws node_power(k * threads),
// shared by those k lanes.

// Slabs queued between the lanes and the serial stage of every streamed
// pipeline.
inline constexpr std::size_t kStreamQueueDepth = 2;

struct StreamConfig {
  int slabs = 8;  // slabs split along dim 0
  // Sector transport model between the pipeline and the PFS
  // (io/transport.h). The chunks always move as blocking container appends
  // and fetches, so the container bytes do not depend on the flag. When
  // set, each chunk's wire time is re-priced as the planned sectors of
  // `transport` (plan_sectors), and each direction's timeline solver
  // overlaps slab coding, sector staging on ring_depth credits per
  // channel, and wire transfer; when clear, the solver gets the eager
  // wire, whose every message pays its whole blocking append or fetch.
  bool use_transport = true;
  TransportConfig transport;
};

// Transport columns shared by the streamed write/read/region records; all
// zero when use_transport was false.
struct TransportTelemetry {
  int channels = 0;
  int ring_depth = 0;
  std::size_t sector_bytes = 0;
  std::size_t sectors = 0;         // planned sector transfers
  std::size_t credit_stalls = 0;   // modeled sectors that waited for a credit
  double credit_stall_s = 0.0;     // modeled staging time lost to credits
  double mean_inflight = 0.0;      // time-averaged sectors in flight
  int peak_inflight = 0;           // max sectors simultaneously in flight
};

// The fields every streamed record shares.
struct StreamRecordBase {
  std::string io_library;  // container the chunks streamed through
  std::string path;        // chunked container on the PFS
  int lanes = 1;  // codec lanes the slabs or zones were coded on
  // Modeled platform times: serial_total_s runs every stage back-to-back
  // on one core; streamed_total_s is the pipeline makespan with the codec
  // stage on `lanes` lanes overlapping the container stage, bounded by
  // kStreamQueueDepth.
  double serial_total_s = 0.0;
  double streamed_total_s = 0.0;
  // Host wall clock of the real concurrent run (lanes genuinely overlap
  // one another and the container thread on the executor).
  double host_wall_s = 0.0;
  // Sector transport telemetry (zeros when use_transport was false).
  TransportTelemetry transport;

  double overlap_saving_s() const { return serial_total_s - streamed_total_s; }
};

// A streamed write. Its serial_total_s charges compress-everything-then-
// write-everything (the identical container writes, just not overlapped).
struct StreamWriteRecord : StreamRecordBase {
  std::string codec;
  int slabs = 0;
  std::size_t original_bytes = 0;
  std::size_t compressed_bytes = 0;  // whole container (header+chunks+index)
  // What the same run would have cost through the blocking per-chunk
  // append path: the write solver over the eager wire, fed the identical
  // compress samples and per-chunk appends (under the transport,
  // reconstructed with per-chunk stripe pricing by blocking_write_seconds;
  // equals streamed_total_s when the blocking path actually ran). The
  // transport's speedup is blocking_total_s / streamed_total_s.
  double blocking_total_s = 0.0;
  // Energy recorded through one shared thread-safe monitor; compress_j
  // charges the node once for concurrent lanes.
  double compress_j = 0.0;
  double write_j = 0.0;
  // Per-slab platform times feeding the recurrence (compress, write).
  std::vector<double> slab_compress_s;
  std::vector<double> slab_write_s;

  double ratio() const {
    return compressed_bytes
               ? static_cast<double>(original_bytes) / compressed_bytes
               : 0.0;
  }
};

// Runs the streamed experiment and leaves the chunked container at
// record.path (readable by run_streamed_read / read_chunked_field with the
// same io_library). Each slab lands with the row interval it covers in the
// container's footer zone index, so partial-region readers
// (run_streamed_read_region) can later fetch only a query's covering
// slabs. Each append is priced at the PFS's live
// concurrent_writers()+concurrent_readers() count, so overlapping streams
// contend honestly.
StreamWriteRecord run_streamed_compress_write(const Field& field,
                                              const PipelineConfig& config,
                                              PfsSimulator& pfs,
                                              const StreamConfig& stream = {});

// --- Streaming (chunked) read experiments ----------------------------------
//
// The restart-time mirror of the write pipeline, and the serving-scale
// query path, are one pipeline: a read resolves a query box to its covering
// zones through the container's footer zone index, then this thread fetches
// those zones in order with ranged PFS reads while up to W codec lanes
// decode the zones already fetched, each copying its zone's part of the
// box straight into its own rows of the preallocated output. Fetch i
// starts once zone i - (1 + kStreamQueueDepth) has reached a lane.
// Fetching overlaps decoding, and decodes overlap each other, so the
// makespan undercuts the serial fetch-everything-then-decompress-everything
// schedule — the paper's Sec. VI-A "doubly effective" read-side benefit,
// measured. A partial box fetches only its covering zones, so bytes fetched
// scale with the query, not with the field; a full restart is the
// whole-domain box, where every zone decodes in full. Lanes, the core
// budget and the lane-aware energy are as on the write side.

// The fields both streamed reads share.
struct StreamReadBase : StreamRecordBase {
  std::size_t container_bytes = 0;  // whole container size on the PFS
  std::size_t bytes_fetched = 0;    // compressed bytes the read fetched
  std::size_t field_bytes = 0;      // reconstructed field or region size
  // Energy recorded through one shared thread-safe monitor.
  double fetch_j = 0.0;
  double decompress_j = 0.0;
  // The assembled field (or region, shaped region.shape).
  Field field;
};

// A full restart. serial_total_s charges open + every fetch + every
// decompression back-to-back.
struct StreamReadRecord : StreamReadBase {
  int slabs = 0;  // chunks found in the container index
  // Per-slab platform times feeding the recurrence (fetch, decompress).
  std::vector<double> slab_fetch_s;
  std::vector<double> slab_decompress_s;
};

// Reads a chunked container written by run_streamed_compress_write (or any
// IoTool::ChunkWriter holding compressed slabs) back through the streamed
// pipeline: the whole-domain case of run_streamed_read_region.
// config.io_library must name the container's tool; config.cpu selects the
// platform model. Only the transport settings of `stream` are honoured
// (the slab count comes from the container's chunk index). Every
// chunk's header is checked against its zone extent before any of its
// bytes are placed. Throws CorruptStream — with no partial field escaping
// — when the container, its chunk index, or any slab is malformed or
// disagrees on dtype.
StreamReadRecord run_streamed_read(PfsSimulator& pfs, const std::string& path,
                                   const PipelineConfig& config,
                                   const StreamConfig& stream = {});

// Serial reference for the same container: read_region_reference over the
// whole domain. Bit-for-bit identical to run_streamed_read's field — the
// --verify baseline.
Field read_chunked_field(PfsSimulator& pfs, const std::string& path,
                         const std::string& io_library);

// A partial-region query: the same schedule as StreamReadRecord, over the
// covering zones only.
struct RegionReadRecord : StreamReadBase {
  Region region;
  int zones_total = 0;    // zones in the container's index
  int zones_decoded = 0;  // covering zones actually fetched + decoded
  // Elements the covering zones' windowed decodes reconstructed: the
  // blocks in each zone's lower cone of the box for SZ2, whole zones for
  // the codecs that decode in full and crop.
  std::size_t elements_reconstructed = 0;
  // Per-covering-zone platform times feeding the recurrence.
  std::vector<double> zone_fetch_s;
  std::vector<double> zone_decompress_s;

  // Fetched compressed bytes relative to the whole container — the
  // amplification a full-field fetch would have paid instead.
  double fetch_fraction() const {
    return container_bytes ? static_cast<double>(bytes_fetched) /
                                 static_cast<double>(container_bytes)
                           : 0.0;
  }
};

// Reads `region` of a container written by run_streamed_compress_write
// through the streamed pipeline; each covering zone decodes only its part
// of the box, straight into its rows of the result (a windowed
// decompress_into_any). Throws CorruptStream when the
// container or any covering zone is malformed (no partial Field escapes),
// InvalidArgument when the region falls outside the dataset.
RegionReadRecord run_streamed_read_region(PfsSimulator& pfs,
                                          const std::string& path,
                                          const Region& region,
                                          const PipelineConfig& config,
                                          const StreamConfig& stream = {});

// The one serial reference read: fetches, checks, decodes and places the
// covering zones one at a time, in order, on the calling thread.
// Bit-for-bit identical to run_streamed_read_region's field — the --verify
// baseline for partial reads.
Field read_region_reference(PfsSimulator& pfs, const std::string& path,
                            const Region& region,
                            const std::string& io_library);

}  // namespace eblcio
