#include "io/io_tool.h"

#include <algorithm>
#include <cctype>
#include <cstring>

#include "common/buffer_pool.h"
#include "common/error.h"

namespace eblcio {

// A library's row: its name, its one-dataset file layout, and the cost
// constants of its write mechanism. Chunked containers share one wire
// format (below) and differ only in the cost constants.
struct IoTool::Profile {
  enum class Layout {
    kChunkTable,      // magic, version, count, meta, total, (len, bytes)...
    kHeaderThenData,  // magic, count, meta, size; then the data section
    kDataThenFooter,  // magic, data; footer index; footer start offset
  };
  const char* name;
  Layout layout;
  std::uint32_t magic;
  double prep_bandwidth_bps;  // serialization / staging throughput
  double per_item_prep_s;     // fixed prep per file, chunk, header or footer
  int header_syncs;  // NetCDF-style header rewrites (enddef + close; open each)
  int chunked_footer_rpcs;  // chunked close: index commit (RPC each)
  bool staging_copy;        // data really passes through a conversion buffer

  // Prep time for one file (or chunk, header, footer) of `bytes`.
  double prep_seconds(std::size_t bytes) const {
    return per_item_prep_s + static_cast<double>(bytes) / prep_bandwidth_bps;
  }
  // A one-dataset file commits a footer index only in the BP layout.
  int file_footer_rpcs() const {
    return layout == Layout::kDataThenFooter ? 1 : 0;
  }
};

namespace {

using Layout = IoTool::Profile::Layout;

// The libraries (Fig. 11 mechanisms). HDF5 writes chunks direct from the
// caller's buffer and commits its chunk B-tree with one RPC. Classic
// NetCDF stages all data through a single-threaded conversion buffer and
// rewrites its monolithic header on enddef and close. ADIOS/BP appends
// large sequential segments and commits one footer index at close — the
// cheapest write path of the three.
constexpr IoTool::Profile kProfiles[] = {
    {"HDF5", Layout::kChunkTable, 0x494c3548 /* "H5LI" */, 6.0e9, 2.0e-5, 0,
     1, false},
    {"NetCDF", Layout::kHeaderThenData, 0x05464443 /* "CDF\x05" */, 0.9e9,
     6.0e-5, 2, 0, true},
    {"ADIOS", Layout::kDataThenFooter, 0x4f494442 /* "BDIO" */, 8.0e9,
     1.0e-5, 0, 1, false},
};

constexpr std::uint16_t kH5Version = 1;
constexpr std::size_t kH5ChunkSize = 1u << 20;
constexpr std::uint32_t kBpFooterMagic = 0x52544f46;  // "FOTR"

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

// The classic-model conversion buffer: `data` really passes through an
// intermediate pooled copy; the caller releases it to the BufferPool.
Bytes staged_copy(std::span<const std::byte> data) {
  Bytes staged = BufferPool::global().acquire(data.size());
  staged.resize(data.size());
  std::memcpy(staged.data(), data.data(), data.size());
  return staged;
}

// The dataset metadata codec every container shares: name, dtype, rank
// (u8 in the one-dataset files, u32 in the chunked header), dims and
// string attributes.
template <typename Rank>
void append_meta(Bytes& out, const ChunkedDatasetMeta& meta) {
  append_string(out, meta.name);
  append_pod<std::uint8_t>(out, meta.dtype_code);
  append_pod<Rank>(out, static_cast<Rank>(meta.dims.size()));
  for (std::size_t d : meta.dims) append_pod<std::uint64_t>(out, d);
  append_pod<std::uint32_t>(out,
                            static_cast<std::uint32_t>(meta.attributes.size()));
  for (const auto& [k, v] : meta.attributes) {
    append_string(out, k);
    append_string(out, v);
  }
}

template <typename Rank>
ChunkedDatasetMeta read_meta(ByteReader& r) {
  ChunkedDatasetMeta meta;
  meta.name = r.read_string();
  meta.dtype_code = r.read_pod<std::uint8_t>();
  const auto ndims = r.read_pod<Rank>();
  for (Rank i = 0; i < ndims; ++i)
    meta.dims.push_back(static_cast<std::size_t>(r.read_pod<std::uint64_t>()));
  const auto nattrs = r.read_pod<std::uint32_t>();
  for (std::uint32_t i = 0; i < nattrs; ++i) {
    std::string k = r.read_string();
    meta.attributes[k] = r.read_string();
  }
  return meta;
}

// Production files hold one dataset; any other count is malformed.
void read_dataset_count(ByteReader& r, const char* tool) {
  EBLCIO_CHECK_STREAM(r.read_pod<std::uint32_t>() == 1,
                      std::string(tool) + ": file does not hold one dataset");
}

// Serializes one dataset in `p`'s layout.
Bytes encode_file(const IoTool::Profile& p, const ChunkedDatasetMeta& meta,
                  std::span<const std::byte> data) {
  Bytes out;
  append_pod<std::uint32_t>(out, p.magic);
  switch (p.layout) {
    case Layout::kChunkTable: {
      append_pod<std::uint16_t>(out, kH5Version);
      append_pod<std::uint32_t>(out, 1);
      append_meta<std::uint8_t>(out, meta);
      const std::size_t nchunks =
          (data.size() + kH5ChunkSize - 1) / kH5ChunkSize;
      append_pod<std::uint64_t>(out, data.size());
      append_pod<std::uint32_t>(out, static_cast<std::uint32_t>(nchunks));
      for (std::size_t off = 0; off < data.size(); off += kH5ChunkSize) {
        const auto chunk = data.subspan(off, std::min(kH5ChunkSize,
                                                      data.size() - off));
        append_pod<std::uint64_t>(out, chunk.size());
        append_bytes(out, chunk);
      }
      break;
    }
    case Layout::kHeaderThenData:
      append_pod<std::uint32_t>(out, 1);
      append_meta<std::uint8_t>(out, meta);
      append_pod<std::uint64_t>(out, data.size());
      append_bytes(out, data);
      break;
    case Layout::kDataThenFooter: {
      const std::uint64_t data_start = out.size();
      append_bytes(out, data);
      const std::uint64_t footer_start = out.size();
      append_pod<std::uint32_t>(out, kBpFooterMagic);
      append_pod<std::uint32_t>(out, 1);
      append_meta<std::uint8_t>(out, meta);
      append_pod<std::uint64_t>(out, data_start);
      append_pod<std::uint64_t>(out, data.size());
      append_pod<std::uint64_t>(out, footer_start);
      break;
    }
  }
  return out;
}

// Parses a file in `p`'s layout into its dataset's metadata and bytes.
// Every length and offset is checked against the bytes actually present
// before anything is sized from it.
ChunkedDatasetMeta decode_file(const IoTool::Profile& p,
                               std::span<const std::byte> bytes, Bytes& data) {
  const std::string bad = std::string(p.name) + ": ";
  ByteReader r(bytes);
  EBLCIO_CHECK_STREAM(r.read_pod<std::uint32_t>() == p.magic,
                      bad + "bad magic");
  ChunkedDatasetMeta meta;
  switch (p.layout) {
    case Layout::kChunkTable: {
      EBLCIO_CHECK_STREAM(r.read_pod<std::uint16_t>() == kH5Version,
                          bad + "bad version");
      read_dataset_count(r, p.name);
      meta = read_meta<std::uint8_t>(r);
      const auto total =
          r.read_count<std::uint64_t>(1, bad + "data size past end of file");
      const auto nchunks = r.read_pod<std::uint32_t>();
      data.reserve(static_cast<std::size_t>(total));
      for (std::uint32_t c = 0; c < nchunks; ++c) {
        const auto chunk =
            r.read_bytes(static_cast<std::size_t>(r.read_pod<std::uint64_t>()));
        data.insert(data.end(), chunk.begin(), chunk.end());
      }
      EBLCIO_CHECK_STREAM(data.size() == total, bad + "chunk size mismatch");
      break;
    }
    case Layout::kHeaderThenData: {
      read_dataset_count(r, p.name);
      meta = read_meta<std::uint8_t>(r);
      const auto size = r.read_pod<std::uint64_t>();
      const auto section = r.read_bytes(static_cast<std::size_t>(size));
      data.assign(section.begin(), section.end());
      break;
    }
    case Layout::kDataThenFooter: {
      // The footer's start offset lives in the trailing 8 bytes.
      EBLCIO_CHECK_STREAM(bytes.size() >= 12, bad + "file too small");
      std::uint64_t footer_start = 0;
      std::memcpy(&footer_start, bytes.data() + bytes.size() - 8, 8);
      EBLCIO_CHECK_STREAM(footer_start <= bytes.size() - 8,
                          bad + "bad footer offset");
      ByteReader f(bytes.subspan(static_cast<std::size_t>(footer_start)));
      EBLCIO_CHECK_STREAM(f.read_pod<std::uint32_t>() == kBpFooterMagic,
                          bad + "bad footer magic");
      read_dataset_count(f, p.name);
      meta = read_meta<std::uint8_t>(f);
      const auto offset = f.read_pod<std::uint64_t>();
      const auto size = f.read_pod<std::uint64_t>();
      EBLCIO_CHECK_STREAM(offset <= footer_start &&
                              size <= footer_start - offset,
                          bad + "segment out of range");
      const auto segment = bytes.subspan(static_cast<std::size_t>(offset),
                                         static_cast<std::size_t>(size));
      data.assign(segment.begin(), segment.end());
      break;
    }
  }
  return meta;
}

// Shared chunked-container framing. The header is written at open, chunks
// are appended raw (their extents live in the footer, so no inline
// framing), and the footer index commits at close with its own start
// offset in the trailing 8 bytes — the same locate-by-footer scheme BP
// files use, which a reader can reach with three ranged fetches.
//
// The wire format is frozen: header version 2 + "ZIDX" footer holding
// (offset, size, row_start, rows) per chunk. Version 1 (a "CIDX" footer
// without row extents) is retired; a reader refuses it as malformed.
constexpr std::uint32_t kChunkMagic = 0x4b434245;       // "EBCK"
constexpr std::uint32_t kZoneFooterMagic = 0x5844495a;  // "ZIDX"
constexpr std::uint16_t kZonedVersion = 2;

Bytes encode_chunk_header(const std::string& tool,
                          const ChunkedDatasetMeta& meta) {
  Bytes out;
  append_pod<std::uint32_t>(out, kChunkMagic);
  append_pod<std::uint16_t>(out, kZonedVersion);
  append_string(out, tool);
  append_meta<std::uint32_t>(out, meta);
  return out;
}

ChunkedDatasetMeta decode_chunk_header(std::span<const std::byte> bytes,
                                       const std::string& expected_tool) {
  ByteReader r(bytes);
  EBLCIO_CHECK_STREAM(r.read_pod<std::uint32_t>() == kChunkMagic,
                      "chunked container: bad magic");
  EBLCIO_CHECK_STREAM(r.read_pod<std::uint16_t>() == kZonedVersion,
                      "chunked container: unsupported header version");
  const std::string tool = r.read_string();
  EBLCIO_CHECK_STREAM(tool == expected_tool,
                      "chunked container was written by " + tool +
                          ", not " + expected_tool);
  return read_meta<std::uint32_t>(r);
}

Bytes encode_zone_footer(const std::vector<ChunkExtent>& extents,
                         const std::vector<ZoneExtent>& zones,
                         std::uint64_t footer_start) {
  Bytes out;
  append_pod<std::uint32_t>(out, kZoneFooterMagic);
  append_pod<std::uint64_t>(out, static_cast<std::uint64_t>(extents.size()));
  for (std::size_t i = 0; i < extents.size(); ++i) {
    append_pod<std::uint64_t>(out, extents[i].offset);
    append_pod<std::uint64_t>(out, extents[i].size);
    append_pod<std::uint64_t>(out, zones[i].row_start);
    append_pod<std::uint64_t>(out, zones[i].rows);
  }
  append_pod<std::uint64_t>(out, footer_start);
  return out;
}

}  // namespace

// --- ChunkWriter -----------------------------------------------------------

IoTool::ChunkWriter::ChunkWriter(const IoTool* tool, PfsSimulator& pfs,
                                 std::string path, ChunkedDatasetMeta meta)
    : tool_(tool),
      stream_(pfs.open_append(path)),
      path_(std::move(path)),
      meta_(std::move(meta)) {
  const Profile& profile = tool_->profile_;
  const Bytes header = encode_chunk_header(tool_->name(), meta_);
  open_cost_.prep_seconds = profile.prep_seconds(header.size());
  open_cost_.transfer_seconds = stream_.append(header).seconds;
  open_cost_.bytes_written = header.size();
}

IoCost IoTool::ChunkWriter::append_zone(std::span<const std::byte> chunk,
                                        ZoneExtent zone,
                                        int concurrent_clients) {
  EBLCIO_CHECK_ARG(!closed_, "append_zone after close: " + path_);
  EBLCIO_CHECK_ARG(zone.rows > 0, "zone covers no rows: " + path_);
  const std::uint64_t expected =
      zones_.empty() ? 0 : zones_.back().row_start + zones_.back().rows;
  EBLCIO_CHECK_ARG(zone.row_start == expected,
                   "zone extents must partition the rows in order: " + path_);
  const Profile& profile = tool_->profile_;

  IoCost cost;
  cost.prep_seconds = profile.prep_seconds(chunk.size());
  cost.bytes_written = chunk.size();

  ChunkExtent extent;
  extent.size = chunk.size();
  extent.offset = stream_.bytes_written();
  if (profile.staging_copy) {
    // The classic-model conversion buffer: the chunk really passes through
    // an intermediate copy before landing in the container. The copy is a
    // pooled buffer — append() lands the bytes in the PFS stripes, so the
    // staging allocation recycles across chunks.
    Bytes staged = staged_copy(chunk);
    cost.transfer_seconds = stream_.append(staged, concurrent_clients).seconds;
    BufferPool::global().release(std::move(staged));
  } else {
    cost.transfer_seconds = stream_.append(chunk, concurrent_clients).seconds;
  }
  extents_.push_back(extent);
  zones_.push_back(zone);
  return cost;
}

IoCost IoTool::ChunkWriter::close(int concurrent_clients) {
  EBLCIO_CHECK_ARG(!closed_, "double close: " + path_);
  const std::uint64_t covered =
      zones_.empty() ? 0 : zones_.back().row_start + zones_.back().rows;
  EBLCIO_CHECK_ARG(!meta_.dims.empty() && covered == meta_.dims[0],
                   "zone extents do not cover the dataset rows: " + path_);
  const Profile& profile = tool_->profile_;
  const PfsConfig& pfs_config = stream_.pfs().config();

  const std::uint64_t footer_start =
      static_cast<std::uint64_t>(stream_.bytes_written());
  const Bytes footer = encode_zone_footer(extents_, zones_, footer_start);
  IoCost cost;
  cost.prep_seconds = profile.prep_seconds(footer.size());
  cost.transfer_seconds =
      stream_.append(footer, concurrent_clients).seconds +
      profile.header_syncs * pfs_config.open_latency_s +
      profile.chunked_footer_rpcs * pfs_config.rpc_latency_s;
  cost.bytes_written = footer.size();
  closed_ = true;
  return cost;
}

std::size_t IoTool::ChunkWriter::payload_bytes() const {
  std::size_t n = 0;
  for (const auto& e : extents_) n += static_cast<std::size_t>(e.size);
  return n;
}

// --- ChunkReader -----------------------------------------------------------

namespace {

// A pooled ranged fetch that goes back to the BufferPool when it leaves
// scope — after parsing, and on every corrupt-container throw.
struct PooledFetch {
  Bytes data;
  ~PooledFetch() { BufferPool::global().release(std::move(data)); }
};

}  // namespace

IoTool::ChunkReader::ChunkReader(const IoTool* tool, PfsSimulator& pfs,
                                 const std::string& path,
                                 int concurrent_clients)
    : tool_(tool), stream_(pfs.open_read(path)) {
  const Profile& profile = tool_->profile_;
  const std::size_t size = stream_.size();
  EBLCIO_CHECK_STREAM(size >= 8 + 4 + 2,
                      "chunked container too small: " + path);

  // Locate the footer through its trailing start offset, then parse the
  // index and finally the header — three ranged fetches, open paid once.
  const PooledFetch tail{stream_.read(size - 8, 8, concurrent_clients).data};
  std::uint64_t footer_start = 0;
  std::memcpy(&footer_start, tail.data.data(), 8);
  EBLCIO_CHECK_STREAM(footer_start <= size - 8,
                      "chunked container: bad footer offset (unclosed "
                      "or truncated?): " + path);

  const PooledFetch footer_fetch{
      stream_
          .read(static_cast<std::size_t>(footer_start),
                size - 8 - static_cast<std::size_t>(footer_start),
                concurrent_clients)
          .data};
  const Bytes& footer = footer_fetch.data;
  ByteReader r(footer);
  EBLCIO_CHECK_STREAM(r.read_pod<std::uint32_t>() == kZoneFooterMagic,
                      "chunked container: bad footer magic: " + path);
  constexpr std::size_t entry_bytes = 32;
  const auto nchunks = r.read_pod<std::uint64_t>();
  EBLCIO_CHECK_STREAM(footer.size() >= 12 &&
                          nchunks == (footer.size() - 12) / entry_bytes &&
                          (footer.size() - 12) % entry_bytes == 0,
                      "chunked container: index size mismatch: " + path);
  index_.chunks.reserve(static_cast<std::size_t>(nchunks));
  std::uint64_t next_row = 0;
  for (std::uint64_t i = 0; i < nchunks; ++i) {
    ChunkExtent e;
    e.offset = r.read_pod<std::uint64_t>();
    e.size = r.read_pod<std::uint64_t>();
    EBLCIO_CHECK_STREAM(e.size <= footer_start && e.offset <= footer_start &&
                            e.offset + e.size <= footer_start,
                        "chunked container: chunk extent out of range: " +
                            path);
    index_.chunks.push_back(e);
    ZoneExtent z;
    z.row_start = r.read_pod<std::uint64_t>();
    z.rows = r.read_pod<std::uint64_t>();
    EBLCIO_CHECK_STREAM(z.rows > 0 && z.row_start == next_row,
                        "chunked container: zone index is not a "
                        "contiguous row partition: " + path);
    next_row = z.row_start + z.rows;
    index_.zones.push_back(z);
  }

  const std::size_t header_len =
      index_.chunks.empty()
          ? static_cast<std::size_t>(footer_start)
          : static_cast<std::size_t>(index_.chunks.front().offset);
  const PooledFetch header_fetch{
      stream_.read(0, header_len, concurrent_clients).data};
  const Bytes& header = header_fetch.data;
  index_.meta = decode_chunk_header(header, tool_->name());
  // The zone index must cover exactly the dataset's leading dimension — a
  // forged extent past the field (or short of it) fails here, before any
  // read trusts it.
  EBLCIO_CHECK_STREAM(
      !index_.meta.dims.empty() && next_row == index_.meta.dims[0],
      "chunked container: zone index does not cover the dataset: " + path);

  open_cost_.prep_seconds =
      profile.prep_seconds(footer.size() + header.size() + 8);
  open_cost_.transfer_seconds = stream_.seconds_total();
  open_cost_.bytes_written = 0;
}

Bytes IoTool::ChunkReader::read_chunk(std::size_t i, IoCost* cost_out,
                                      int concurrent_clients) {
  EBLCIO_CHECK_ARG(i < index_.chunks.size(),
                   "chunk index out of range: " + stream_.path());
  const ChunkExtent& e = index_.chunks[i];
  PfsSimulator::RangeRead fetched =
      stream_.read(static_cast<std::size_t>(e.offset),
                   static_cast<std::size_t>(e.size), concurrent_clients);
  IoCost cost;
  cost.transfer_seconds = fetched.cost.seconds;
  Bytes data = std::move(fetched.data);
  const Profile& profile = tool_->profile_;
  if (profile.staging_copy) {
    // Mirror the write path: the classic library stages fetched data
    // through its conversion buffer before handing it to the caller. The
    // drained fetch buffer goes straight back to the pool.
    Bytes staged = staged_copy(data);
    BufferPool::global().release(std::move(data));
    data = std::move(staged);
  }
  cost.prep_seconds = profile.prep_seconds(static_cast<std::size_t>(e.size));
  if (cost_out) *cost_out = cost;
  return data;
}

std::vector<std::size_t> IoTool::ChunkReader::covering(
    const Region& region) const {
  validate_region(region, index_.meta.dims);
  return covering_zones(index_.zones, region.start[0], region.shape[0]);
}

IoTool::ChunkWriter IoTool::open_zoned(PfsSimulator& pfs,
                                       const std::string& path,
                                       ChunkedDatasetMeta meta) const {
  return ChunkWriter(this, pfs, path, std::move(meta));
}

IoTool::ChunkReader IoTool::open_chunked_reader(PfsSimulator& pfs,
                                                const std::string& path,
                                                int concurrent_clients) const {
  return ChunkReader(this, pfs, path, concurrent_clients);
}

// --- one-dataset files -----------------------------------------------------

std::string IoTool::name() const { return profile_.name; }

IoCost IoTool::write_dataset(PfsSimulator& pfs, const std::string& path,
                             const ChunkedDatasetMeta& meta,
                             std::span<const std::byte> data,
                             int concurrent_clients) const {
  // A staging_copy library passes the data through its conversion buffer
  // on the way into the file.
  Bytes staged;
  if (profile_.staging_copy) {
    staged.assign(data.begin(), data.end());
    data = staged;
  }
  const Bytes encoded = encode_file(profile_, meta, data);

  IoCost cost;
  cost.prep_seconds = profile_.prep_seconds(encoded.size());
  cost.transfer_seconds =
      pfs.write_file(path, encoded, concurrent_clients).seconds +
      profile_.header_syncs * pfs.config().open_latency_s +
      profile_.file_footer_rpcs() * pfs.config().rpc_latency_s;
  cost.bytes_written = encoded.size();
  return cost;
}

IoCost IoTool::write_field(PfsSimulator& pfs, const std::string& path,
                           const Field& field, int concurrent_clients) const {
  ChunkedDatasetMeta meta;
  meta.name = field.name().empty() ? "data" : field.name();
  meta.dtype_code = field.dtype() == DType::kFloat32 ? 0 : 1;
  meta.dims = field.shape().dims_vector();
  return write_dataset(pfs, path, meta, field.bytes(), concurrent_clients);
}

IoCost IoTool::write_blob(PfsSimulator& pfs, const std::string& path,
                          const std::string& dataset_name,
                          std::span<const std::byte> blob,
                          int concurrent_clients) const {
  ChunkedDatasetMeta meta;
  meta.name = dataset_name;
  meta.dims = {blob.size()};
  meta.attributes["content"] = "eblc-compressed";
  return write_dataset(pfs, path, meta, blob, concurrent_clients);
}

Field IoTool::read_field(PfsSimulator& pfs, const std::string& path) const {
  Bytes data;
  const ChunkedDatasetMeta meta =
      decode_file(profile_, pfs.read_file(path), data);
  EBLCIO_CHECK_STREAM(meta.dtype_code <= 1,
                      name() + ": dataset is not a field");
  return field_from_bytes(meta.name, static_cast<DType>(meta.dtype_code),
                          meta.dims, data);
}

Bytes IoTool::read_blob(PfsSimulator& pfs, const std::string& path,
                        const std::string& dataset_name) const {
  Bytes data;
  const ChunkedDatasetMeta meta =
      decode_file(profile_, pfs.read_file(path), data);
  EBLCIO_CHECK_ARG(meta.name == dataset_name,
                   name() + ": no dataset named " + dataset_name);
  return data;
}

IoTool& io_tool(const std::string& name) {
  static IoTool tools[] = {IoTool(kProfiles[0]), IoTool(kProfiles[1]),
                           IoTool(kProfiles[2])};
  const std::string key = lower(name);
  if (key == "hdf5" || key == "h5") return tools[0];
  if (key == "netcdf" || key == "nc") return tools[1];
  if (key == "adios" || key == "bp") return tools[2];
  throw InvalidArgument("unknown I/O tool: " + name);
}

// The two libraries the paper benchmarks (Sec. IV-D). ADIOS is available
// via io_tool("ADIOS") as an extension but is kept out of the paper sweeps.
const std::vector<std::string>& io_tool_names() {
  static const std::vector<std::string> kNames = {"HDF5", "NetCDF"};
  return kNames;
}

}  // namespace eblcio
