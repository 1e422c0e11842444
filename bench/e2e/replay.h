// Serial, span-instrumented replays of the pipeline calls bench_e2e
// measures.
//
// A traced op first runs the real pipeline call, then replays the same
// request one public-function call at a time on the calling thread, with
// one child span per call. The replay is built only from the layers' public
// APIs (split_slabs, interp_compress, encode_code_stream, the IoTool chunk
// writer/reader, merge_slabs, scatter_zone_into_region, ...), so a layer's
// host time is measured from outside the library. Each replay returns what
// it produced so the caller can require bit-parity with the pipeline.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/buffer_pool.h"
#include "common/timer.h"
#include "compressors/backend.h"
#include "compressors/block_core.h"
#include "compressors/chunking.h"
#include "compressors/compressor.h"
#include "compressors/interp_core.h"
#include "compressors/zone.h"
#include "core/decision.h"
#include "core/pipeline.h"
#include "core/sweep.h"
#include "energy/powercap_monitor.h"
#include "io/io_tool.h"
#include "metrics/error_stats.h"
#include "trace.h"

namespace e2e {

using namespace eblcio;

// A wrong output (bound violation, parity mismatch). Counted as a failed op
// like any exception the library throws.
class Failure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline void require(bool ok, const std::string& what) {
  if (!ok) throw Failure(what);
}

inline bool same_bytes(std::span<const std::byte> a,
                       std::span<const std::byte> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

// A zero-filled field shaped like `region`.
inline Field region_field(const std::string& name, const Region& region,
                          DType dtype) {
  const Shape shape{std::span<const std::size_t>(region.shape)};
  return dtype == DType::kFloat32 ? Field(name, NdArray<float>(shape))
                                  : Field(name, NdArray<double>(shape));
}

// The values of `field` inside `region` (the whole field acts as one zone
// starting at row 0).
inline Field extract_region(const Field& field, const Region& region) {
  Field out = region_field(field.name(), region, field.dtype());
  scatter_zone_into_region(field, 0, region, out);
  return out;
}

// Scratch state of one replay. The caller creates it before the replay's
// span opens and destroys it after the span closed, so neither setting up
// the scratch simulators nor releasing the replay's buffers counts as
// replay time outside every layer.
class ReplayScratch {
 public:
  PfsSimulator pfs;  // where a replayed dump writes its container

  // What the replay saw besides its spans.
  double decoded_elements = 0.0;    // elements of every chunk decoded
  std::size_t fetched_bytes = 0;    // compressed bytes read from the container
  std::size_t payload_bytes = 0;    // the container's chunk payloads
  std::size_t container_bytes = 0;  // the whole container file

  // Keeps `v` alive until the scratch is destroyed.
  template <typename T>
  void keep(T&& v) {
    held_.push_back(std::make_shared<std::decay_t<T>>(std::forward<T>(v)));
  }

  // The io.pfs layer on its own: the chunk's bytes appended to, and read
  // back from, a second scratch simulator. (The bytes are not compared here:
  // the parity checks on every replayed container and field already cover
  // the PFS path, and a compare would be time outside every layer.)
  void pfs_roundtrip(std::span<const std::byte> chunk, std::uint64_t op) {
    traced("append_file", "io.pfs", op, chunk.size(),
           [&] { return raw_.append_file("/raw", chunk); });
    auto back = traced("read_range", "io.pfs", op, chunk.size(), [&] {
      return raw_.read_range("/raw", raw_size_, chunk.size());
    });
    raw_size_ += chunk.size();
    keep(std::move(back.data));
  }

 private:
  PfsSimulator raw_;
  std::size_t raw_size_ = 0;
  std::vector<std::shared_ptr<void>> held_;
};

// Decodes one container chunk the way decompress_any would, one layer call
// at a time. SZ3 and SZ2 are split into their entropy decode and
// reconstruction; other codecs run as one kernel call.
inline Field replay_decode(std::span<const std::byte> blob, ReplayScratch& s,
                           std::uint64_t op) {
  ByteReader r(blob);
  const BlobHeader header = BlobHeader::decode(r);
  if (header.codec == "SZ3") {
    require(r.read_pod<std::uint8_t>() == kLayoutSingle,
            "SZ3 chunk is not single-layout");
    const auto payload = r.read_bytes(r.read_pod<std::uint64_t>());
    InterpPayload p = traced("interp_payload_decode", "codec", op,
                             payload.size(),
                             [&] { return interp_payload_decode(payload); });
    Field out = traced(
        "interp_decompress", "compressors", op,
        p.codes.size() * sizeof(std::uint32_t), [&] {
          return interp_decompress(header, p.config, p.codes, p.anchors,
                                   p.unpred);
        });
    s.keep(std::move(p.codes));
    return out;
  }
  if (header.codec == "SZ2") {
    require(r.read_pod<std::uint32_t>() == 1, "SZ2 chunk holds several slabs");
    const auto ncodes = r.read_pod<std::uint64_t>();
    const auto mode_bits = read_sized(r);
    ByteReader coeffs(read_sized(r));
    ByteReader unpred(read_sized(r));
    auto codes = traced("decode_code_stream", "codec", op,
                        r.remaining().size(),
                        [&] { return decode_code_stream(r); });
    require(codes.size() == ncodes, "SZ2 chunk code count mismatch");
    std::vector<Field> slabs(1);
    slabs[0] = traced(
        "block_decompress", "compressors", op,
        codes.size() * sizeof(std::uint32_t), [&] {
          return block_decompress(header, BlockPredictor::kLorenzoRegression,
                                  QuantizerId::kLinearRecip, 0.0, codes,
                                  mode_bits, coeffs, unpred);
        });
    // Sz2Compressor::decompress merges its slabs even when there is one.
    Field out = traced("merge_slabs", "compressors", op,
                       slabs[0].size_bytes(),
                       [&] { return merge_slabs(slabs, header.dims, "SZ2"); });
    s.keep(std::move(codes));
    s.keep(std::move(slabs));
    return out;
  }
  return traced("decompress", "compressors", op, blob.size(), [&] {
    return compressor(header.codec).decompress(blob, 1);
  });
}

// Compresses one slab at the absolute bound the way the pipeline's
// codec.compress(slab, threads=1) does, one layer call at a time, and frames
// the identical blob.
inline Bytes replay_encode(const Field& slab, Compressor& codec,
                           double abs_bound, ReplayScratch& s,
                           std::uint64_t op) {
  CompressOptions opt;
  opt.mode = BoundMode::kAbsolute;
  opt.error_bound = abs_bound;
  const std::string name = codec.name();
  if (name != "SZ3" && name != "SZ2")
    return traced("compress", "compressors", op, slab.size_bytes(),
                  [&] { return codec.compress(slab, opt); });

  BlobHeader header;
  header.codec = name;
  header.dtype = slab.dtype();
  header.dims = slab.shape().dims_vector();
  header.abs_error_bound = abs_bound;
  header.requested_mode = BoundMode::kAbsolute;
  header.requested_bound = abs_bound;
  Bytes out;
  if (name == "SZ3") {
    const InterpConfig config;
    InterpEncoding enc =
        traced("interp_compress", "compressors", op, slab.size_bytes(),
               [&] { return interp_compress(slab, abs_bound, config); });
    Bytes payload = traced("interp_payload_encode", "codec", op,
                           enc.codes.size() * sizeof(std::uint32_t),
                           [&] { return interp_payload_encode(config, enc); });
    traced("frame_blob", "compressors", op, [&] {
      header.encode(out);
      append_pod<std::uint8_t>(out, kLayoutSingle);
      append_pod<std::uint64_t>(out, payload.size());
      append_bytes(out, payload);
    });
    s.keep(std::move(enc));
    s.keep(std::move(payload));
    return out;
  }
  BlockEncoding enc =
      traced("block_compress", "compressors", op, slab.size_bytes(), [&] {
        return block_compress(slab, abs_bound,
                              BlockPredictor::kLorenzoRegression,
                              QuantizerId::kLinearRecip, 0.0);
      });
  Bytes code_blob = traced(
      "encode_code_stream", "codec", op,
      enc.codes.size() * sizeof(std::uint32_t),
      [&] { return encode_code_stream(enc.codes, kQuantAlphabet); });
  traced("frame_blob", "compressors", op, [&] {
    header.encode(out);
    append_pod<std::uint32_t>(out, 1);
    append_pod<std::uint64_t>(out, enc.codes.size());
    append_sized(out, enc.mode_bits);
    append_sized(out, enc.coeffs);
    append_sized(out, enc.unpred);
    append_bytes(out, code_blob);
  });
  BufferPool::global().release(std::move(code_blob));
  s.keep(std::move(enc));
  return out;
}

// Replays run_streamed_compress_write(field, config, pfs, {slabs}) into
// s.pfs. Returns the container path, which matches the pipeline's.
inline std::string replay_dump(const Field& field, const PipelineConfig& config,
                               int slabs, ReplayScratch& s, std::uint64_t op) {
  Compressor& codec = compressor(config.codec);
  IoTool& tool = io_tool(config.io_library);
  CompressOptions opt;
  opt.error_bound = config.error_bound;
  const double abs_bound =
      traced("absolute_bound_for", "compressors", op, field.size_bytes(),
             [&] { return absolute_bound_for(field, opt); });
  auto parts = traced("split_slabs", "compressors", op, field.size_bytes(),
                      [&] { return split_slabs(field, slabs); });
  const auto zones = zone_extents(field.shape().dim(0), slabs);

  ChunkedDatasetMeta meta;
  meta.name = field.name();
  meta.dtype_code = 2;
  meta.dims = field.shape().dims_vector();
  meta.attributes["content"] = "eblc-compressed";
  meta.attributes["codec"] = codec.name();
  const std::string path =
      "/pfs/" + field.name() + ".eblc.stream." + tool.name();
  auto out = traced("open_zoned", "io.container", op,
                    [&] { return tool.open_zoned(s.pfs, path, meta); });
  for (std::size_t i = 0; i < parts.size(); ++i) {
    Bytes blob = replay_encode(parts[i], codec, abs_bound, s, op);
    traced("append_zone", "io.container", op, blob.size(),
           [&] { return out.append_zone(blob, zones[i]); });
    s.pfs_roundtrip(blob, op);
    s.keep(std::move(blob));
  }
  traced("close", "io.container", op, [&] { return out.close(); });
  s.keep(std::move(parts));
  return path;
}

// Replays run_streamed_read(pfs, path, ...) and returns the merged field.
inline Field replay_restart(PfsSimulator& pfs, const std::string& path,
                            const std::string& io_library, ReplayScratch& s,
                            std::uint64_t op) {
  IoTool& tool = io_tool(io_library);
  auto reader = traced("open_chunked_reader", "io.container", op,
                       [&] { return tool.open_chunked_reader(pfs, path); });
  const ChunkIndex& index = reader.index();
  std::vector<Field> slabs(index.chunks.size());
  for (std::size_t i = 0; i < slabs.size(); ++i) {
    Bytes blob = traced("read_chunk", "io.container", op,
                        index.chunks[i].size,
                        [&] { return reader.read_chunk(i); });
    s.pfs_roundtrip(blob, op);
    slabs[i] = replay_decode(blob, s, op);
    s.decoded_elements += static_cast<double>(slabs[i].num_elements());
    s.fetched_bytes += blob.size();
    s.keep(std::move(blob));
  }
  s.payload_bytes = index.total_bytes();
  s.container_bytes = pfs.file_size(path);
  Field out = traced("merge_slabs", "compressors", op,
                     static_cast<std::uint64_t>(s.decoded_elements) *
                         dtype_size(slabs[0].dtype()),
                     [&] {
                       return merge_slabs(slabs, index.meta.dims,
                                          index.meta.name);
                     });
  s.keep(std::move(slabs));
  return out;
}

// Replays run_streamed_read_region(pfs, path, region, ...) and returns the
// assembled region.
inline Field replay_query(PfsSimulator& pfs, const std::string& path,
                          const Region& region, const std::string& io_library,
                          ReplayScratch& s, std::uint64_t op) {
  IoTool& tool = io_tool(io_library);
  auto reader = traced("open_chunked_reader", "io.container", op,
                       [&] { return tool.open_chunked_reader(pfs, path); });
  const ChunkIndex& index = reader.index();
  const auto covering = traced("covering", "io.container", op,
                               [&] { return reader.covering(region); });
  Field out;
  for (std::size_t k = 0; k < covering.size(); ++k) {
    const std::size_t zi = covering[k];
    Bytes blob = traced("read_chunk", "io.container", op,
                        index.chunks[zi].size,
                        [&] { return reader.read_chunk(zi); });
    s.pfs_roundtrip(blob, op);
    Field zone = replay_decode(blob, s, op);
    s.decoded_elements += static_cast<double>(zone.num_elements());
    s.fetched_bytes += blob.size();
    // The pipeline allocates the region when its first zone arrives.
    traced("scatter_zone_into_region", "compressors", op, zone.size_bytes(),
           [&] {
             if (k == 0)
               out = region_field(index.meta.name, region, zone.dtype());
             scatter_zone_into_region(
                 zone, static_cast<std::size_t>(index.zones[zi].row_start),
                 region, out);
           });
    s.keep(std::move(blob));
    s.keep(std::move(zone));
  }
  s.payload_bytes = index.total_bytes();
  s.container_bytes = pfs.file_size(path);
  return out;
}

// Replays advise_compression(field, constraints): the same centered sample
// (at most 64 per dimension), and every codec x bound trial run in order on
// the calling thread through the sweep engine. `sweep` receives the serial
// sweep's statistics.
inline std::vector<AdvisorCandidate> replay_advise(
    const Field& field, const AdvisorConstraints& constraints,
    ReplayScratch& s, std::uint64_t op, SweepStats& sweep) {
  Field sample = traced("sample_region", "core", op, [&] {
    Region box;
    for (int d = 0; d < field.ndims(); ++d) {
      box.shape.push_back(std::min<std::size_t>(field.shape().dim(d), 64));
      box.start.push_back((field.shape().dim(d) - box.shape.back()) / 2);
    }
    return extract_region(field, box);
  });
  const CpuModel& cpu = cpu_model(constraints.cpu);
  struct Trial {
    Compressor* comp = nullptr;
    double error_bound = 0.0;
  };
  std::vector<Trial> trials;
  for (const std::string& name :
       constraints.codecs.empty() ? eblc_names() : constraints.codecs) {
    Compressor& comp = compressor(name);
    for (const double eb : constraints.error_bounds) {
      CompressOptions opt;
      opt.error_bound = eb;
      if (comp.supports(sample, opt)) trials.push_back({&comp, eb});
    }
  }
  SweepOptions serial;
  serial.parallel = false;
  const auto report = sweep_grid(
      std::move(trials),
      [&](const Trial& t, SweepCellContext&) {
        CompressOptions opt;
        opt.error_bound = t.error_bound;
        AdvisorCandidate c;
        c.codec = t.comp->name();
        c.error_bound = t.error_bound;
        Bytes blob;
        const double seconds =
            traced("compress", "compressors", op, sample.size_bytes(), [&] {
              return timed_s([&] { blob = t.comp->compress(sample, opt); });
            });
        Field recon = traced("decompress", "compressors", op, blob.size(),
                             [&] { return t.comp->decompress(blob, 1); });
        const ErrorStats st =
            traced("compute_error_stats", "metrics", op, 2 * sample.size_bytes(),
                   [&] { return compute_error_stats(sample, recon); });
        c.ratio = compression_ratio(sample.size_bytes(), blob.size());
        c.psnr_db = st.psnr_db;
        c.compress_j = traced("record_compute", "energy", op, [&] {
          PowercapMonitor monitor(cpu);
          return monitor.record_compute("compress", seconds, 1).joules;
        });
        c.feasible = st.psnr_db >= constraints.psnr_min_db;
        s.keep(std::move(blob));
        s.keep(std::move(recon));
        return c;
      },
      serial);
  report.rethrow_first_error();
  sweep = report.stats;
  s.keep(std::move(sample));
  std::vector<AdvisorCandidate> out;
  for (const auto& cell : report.cells) out.push_back(*cell.result);
  return out;
}

}  // namespace e2e
