// Uniform I/O-library interface (the role HDF5 / NetCDF play in Sec. IV-D).
//
// An IoTool serializes a payload — either a raw Field ("Original" in Fig.
// 11) or a compressed blob — into its container format and writes it
// through the PFS simulator. The returned cost separates container
// preparation time (real serialization work, charged as compute) from PFS
// transfer time, because the two phases draw different power.
//
// There is one IoTool class; HDF5, NetCDF and ADIOS are three rows of a
// profile table in io_tool.cpp. A row names the library, fixes its
// one-dataset file layout (HDF5: header + 1 MiB chunk table; NetCDF: header
// then data; ADIOS: data then footer index) and holds the cost constants
// its mechanism implies: prep bandwidth and per-item prep, header rewrites,
// footer-commit RPCs, and whether data really stages through a conversion
// buffer. Every read, write and cost formula is written once over the row.
// A one-dataset file costs prep_seconds(file bytes) as prep, and the PFS
// write plus header_syncs x open latency plus the layout's footer-commit
// RPC (ADIOS only) as transfer.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/field.h"
#include "common/region.h"
#include "io/pfs.h"

namespace eblcio {

struct IoCost {
  double prep_seconds = 0.0;      // container serialization / staging copies
  double transfer_seconds = 0.0;  // PFS time
  std::size_t bytes_written = 0;
  double total_seconds() const { return prep_seconds + transfer_seconds; }
};

// --- Chunked datasets ------------------------------------------------------
//
// A chunked dataset streams through a container one slab at a time: the
// writer appends self-contained chunks through the PFS append path, and the
// container commits a chunk index (offset, size and row interval per chunk)
// in its footer at close. Readers load the index with ranged reads and then fetch chunks
// individually — which is what lets the streaming pipelines
// (core/pipeline.h) run through the real container formats instead of a
// bespoke stream file. Every tool shares one wire layout (header, appended
// chunks, footer index) tagged with the owning tool's name; what differs
// per tool is the cost mechanism (HDF5 writes chunks direct from the
// caller's buffer; NetCDF stages each chunk through its conversion buffer
// and rewrites the header at close; ADIOS appends segments and commits one
// footer RPC).

// Dataset-level metadata: what a chunked container's header and a
// one-dataset file carry beside the payload bytes.
struct ChunkedDatasetMeta {
  std::string name;
  std::uint8_t dtype_code = 2;  // 0=float32, 1=float64, 2=opaque bytes
  std::vector<std::size_t> dims;  // logical dims of the full dataset
  std::map<std::string, std::string> attributes;
};

// One chunk's extent inside the container file.
struct ChunkExtent {
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
};

// The decoded footer: dataset metadata plus every chunk's extent and its
// ZoneExtent — the row interval of the field that chunk's compressed blob
// covers — which is what lets a reader resolve a query box to its
// covering chunks without decoding anything.
struct ChunkIndex {
  ChunkedDatasetMeta meta;
  std::vector<ChunkExtent> chunks;
  std::vector<ZoneExtent> zones;  // one per chunk, partitioning dims[0]
  std::size_t total_bytes() const {
    std::size_t n = 0;
    for (const auto& c : chunks) n += static_cast<std::size_t>(c.size);
    return n;
  }
};

class IoTool {
 public:
  IoTool(const IoTool&) = delete;
  IoTool& operator=(const IoTool&) = delete;

  // One row of the library table; opaque outside io_tool.cpp.
  struct Profile;

  std::string name() const;

  // Writes an uncompressed field as a one-dataset file; the dataset is
  // named field.name() ("data" when the field is unnamed).
  IoCost write_field(PfsSimulator& pfs, const std::string& path,
                     const Field& field, int concurrent_clients = 1) const;

  // Writes an opaque compressed blob as a one-dataset file with shape
  // metadata.
  IoCost write_blob(PfsSimulator& pfs, const std::string& path,
                    const std::string& dataset_name,
                    std::span<const std::byte> blob,
                    int concurrent_clients = 1) const;

  // Reads back the field written by write_field. Throws CorruptStream when
  // the file is not this tool's, does not hold exactly one dataset, or its
  // dtype and dims do not describe its bytes.
  Field read_field(PfsSimulator& pfs, const std::string& path) const;

  // Reads back a blob written by write_blob; InvalidArgument when the
  // file's dataset is not named `dataset_name`.
  Bytes read_blob(PfsSimulator& pfs, const std::string& path,
                  const std::string& dataset_name) const;

  // --- chunked-dataset streaming -----------------------------------------

  // Stateful chunked-dataset writer. append_zone streams one chunk
  // through the PFS append path (paying this tool's per-chunk prep plus
  // per-touched-stripe RPCs and transfer) together with the row interval
  // its payload covers; close() commits the chunk- and zone-index footer
  // and the tool's close-time metadata syncs. The zone extents must arrive
  // in order and partition the dataset's leading dimension by close() or
  // close() throws. The container is not readable until close() has run.
  class ChunkWriter {
   public:
    IoCost append_zone(std::span<const std::byte> chunk, ZoneExtent zone,
                       int concurrent_clients = 1);

    IoCost close(int concurrent_clients = 1);

    const std::string& path() const { return path_; }
    std::size_t chunks_written() const { return extents_.size(); }
    // Payload bytes appended so far (container framing excluded).
    std::size_t payload_bytes() const;
    bool closed() const { return closed_; }
    // What writing the container header cost (charged at open).
    const IoCost& open_cost() const { return open_cost_; }

   private:
    friend class IoTool;
    ChunkWriter(const IoTool* tool, PfsSimulator& pfs, std::string path,
                ChunkedDatasetMeta meta);

    const IoTool* tool_;
    PfsSimulator::AppendStream stream_;
    std::string path_;
    ChunkedDatasetMeta meta_;
    std::vector<ChunkExtent> extents_;
    std::vector<ZoneExtent> zones_;
    IoCost open_cost_;
    bool closed_ = false;
  };

  // Stateful chunked-dataset reader. Construction fetches and validates
  // the footer index with ranged reads (paying the open once, the way a
  // real reader opens the file and walks to its index); chunks are then
  // fetched one extent at a time.
  class ChunkReader {
   public:
    const ChunkIndex& index() const { return index_; }
    // What opening the container (footer + header fetches) cost.
    const IoCost& open_cost() const { return open_cost_; }

    // Fetches chunk `i` with one ranged read priced at
    // `concurrent_clients`, applies the tool's staging copy, and returns
    // exactly the bytes append_zone wrote. `cost_out`, when given,
    // receives the tool's prep pricing and the fetch's PFS time as
    // transfer.
    Bytes read_chunk(std::size_t i, IoCost* cost_out = nullptr,
                     int concurrent_clients = 1);

    // Resolves a query box to the indices of the zones it intersects.
    // Requires a region that fits the dataset dims; the covering set is
    // computed from the footer index alone — no chunk bytes are touched.
    std::vector<std::size_t> covering(const Region& region) const;

   private:
    friend class IoTool;
    ChunkReader(const IoTool* tool, PfsSimulator& pfs,
                const std::string& path, int concurrent_clients);

    const IoTool* tool_;
    PfsSimulator::ReadStream stream_;
    ChunkIndex index_;
    IoCost open_cost_;
  };

  // Opens a fresh zoned chunked container at `path` (truncating any
  // previous file) holding one chunked dataset described by `meta`: every
  // chunk is appended through append_zone with the row interval it covers,
  // and the footer commits a zone index alongside the chunk extents so
  // readers can serve partial-region queries.
  ChunkWriter open_zoned(PfsSimulator& pfs, const std::string& path,
                         ChunkedDatasetMeta meta) const;

  // Opens a closed chunked container for reading. Throws CorruptStream
  // when the container is malformed, unclosed, was written by a different
  // tool, or is not zoned (a "CIDX" footer or a version-1 header) — all
  // before any chunk is fetched.
  ChunkReader open_chunked_reader(PfsSimulator& pfs, const std::string& path,
                                  int concurrent_clients = 1) const;

 private:
  friend IoTool& io_tool(const std::string& name);
  explicit IoTool(const Profile& profile) : profile_(profile) {}
  IoCost write_dataset(PfsSimulator& pfs, const std::string& path,
                       const ChunkedDatasetMeta& meta,
                       std::span<const std::byte> data,
                       int concurrent_clients) const;

  const Profile& profile_;
};

// Registry: "HDF5"/"h5", "NetCDF"/"nc" or "ADIOS"/"bp" (case-insensitive);
// InvalidArgument for any other name.
IoTool& io_tool(const std::string& name);
const std::vector<std::string>& io_tool_names();

}  // namespace eblcio
