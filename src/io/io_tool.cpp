#include "io/io_tool.h"

#include <algorithm>
#include <cctype>
#include <cstring>

#include "common/buffer_pool.h"
#include "common/error.h"
#include "io/adioslite.h"
#include "io/h5lite.h"
#include "io/nclite.h"

namespace eblcio {
namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
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
  append_string(out, meta.name);
  append_pod<std::uint8_t>(out, meta.dtype_code);
  append_pod<std::uint32_t>(out, static_cast<std::uint32_t>(meta.dims.size()));
  for (std::size_t d : meta.dims) append_pod<std::uint64_t>(out, d);
  append_pod<std::uint32_t>(out,
                            static_cast<std::uint32_t>(meta.attributes.size()));
  for (const auto& [k, v] : meta.attributes) {
    append_string(out, k);
    append_string(out, v);
  }
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
  ChunkedDatasetMeta meta;
  meta.name = r.read_string();
  meta.dtype_code = r.read_pod<std::uint8_t>();
  const auto ndims = r.read_pod<std::uint32_t>();
  for (std::uint32_t i = 0; i < ndims; ++i)
    meta.dims.push_back(static_cast<std::size_t>(r.read_pod<std::uint64_t>()));
  const auto nattrs = r.read_pod<std::uint32_t>();
  for (std::uint32_t i = 0; i < nattrs; ++i) {
    std::string k = r.read_string();
    meta.attributes[k] = r.read_string();
  }
  return meta;
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
  const ChunkProfile profile = tool_->chunk_profile();
  const Bytes header = encode_chunk_header(tool_->name(), meta_);
  open_cost_.prep_seconds = profile.prep_seconds(header.size());
  open_cost_.transfer_seconds = stream_.append(header).seconds;
  open_cost_.bytes_written = header.size();
}

void IoTool::ChunkWriter::enable_transport(const TransportConfig& config) {
  EBLCIO_CHECK_ARG(!closed_, "enable_transport after close: " + path_);
  EBLCIO_CHECK_ARG(transport_ == nullptr,
                   "transport already enabled: " + path_);
  staged_bytes_ = stream_.bytes_written();
  transport_ = std::make_unique<SectorWriter>(stream_, config);
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
  const ChunkProfile profile = tool_->chunk_profile();

  IoCost cost;
  cost.prep_seconds = profile.prep_seconds(chunk.size());
  cost.bytes_written = chunk.size();

  ChunkExtent extent;
  extent.size = chunk.size();
  if (transport_) {
    // Transported append: the chunk is staged into pooled sectors and
    // shipped by the doorbell task; its wire cost lands per sector in the
    // endpoint's records, priced at completion-time contention. The
    // extent's offset comes from the staging cursor — the stream's
    // bytes_written() lags while sectors are in flight. The staging
    // memcpy into sector buffers is the tool's conversion-buffer copy, so
    // staging_copy tools take no extra pass here.
    extent.offset = staged_bytes_;
    transport_->stage(extents_.size(), chunk);
    staged_bytes_ += chunk.size();
  } else if (profile.staging_copy) {
    // The classic-model conversion buffer: the chunk really passes through
    // an intermediate copy before landing in the container. The copy is a
    // pooled buffer — append() lands the bytes in the PFS stripes, so the
    // staging allocation recycles across chunks.
    extent.offset = stream_.bytes_written();
    Bytes staged = BufferPool::global().acquire(chunk.size());
    staged.resize(chunk.size());
    std::memcpy(staged.data(), chunk.data(), chunk.size());
    cost.transfer_seconds = stream_.append(staged, concurrent_clients).seconds;
    BufferPool::global().release(std::move(staged));
  } else {
    extent.offset = stream_.bytes_written();
    cost.transfer_seconds = stream_.append(chunk, concurrent_clients).seconds;
  }
  extents_.push_back(extent);
  zones_.push_back(zone);
  return cost;
}

IoCost IoTool::ChunkWriter::close(int concurrent_clients) {
  EBLCIO_CHECK_ARG(!closed_, "double close: " + path_);
  // Every staged sector must land before the footer commits (and before
  // footer_start reads the stream's byte count). A wire error surfaces
  // here, before a broken container could be sealed.
  if (transport_) transport_->drain();
  const std::uint64_t covered =
      zones_.empty() ? 0 : zones_.back().row_start + zones_.back().rows;
  EBLCIO_CHECK_ARG(!meta_.dims.empty() && covered == meta_.dims[0],
                   "zone extents do not cover the dataset rows: " + path_);
  const ChunkProfile profile = tool_->chunk_profile();
  const PfsConfig& pfs_config = stream_.pfs().config();

  const std::uint64_t footer_start =
      static_cast<std::uint64_t>(stream_.bytes_written());
  const Bytes footer = encode_zone_footer(extents_, zones_, footer_start);
  IoCost cost;
  cost.prep_seconds = profile.prep_seconds(footer.size());
  cost.transfer_seconds =
      stream_.append(footer, concurrent_clients).seconds +
      profile.close_header_syncs * pfs_config.open_latency_s +
      profile.close_footer_rpcs * pfs_config.rpc_latency_s;
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
  const ChunkProfile profile = tool_->chunk_profile();
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
  parked_.resize(index_.chunks.size());
}

IoTool::ChunkReader::~ChunkReader() {
  for (auto& p : parked_)
    if (p) BufferPool::global().release(std::move(p->data));
}

const ChunkExtent& IoTool::ChunkReader::extent(std::size_t i) const {
  EBLCIO_CHECK_ARG(i < index_.chunks.size(),
                   "chunk index out of range: " + stream_.path());
  return index_.chunks[i];
}

Bytes IoTool::ChunkReader::read_chunk(std::size_t i, IoCost* cost_out,
                                      int concurrent_clients) {
  return await_chunk(prefetch_chunk(i, concurrent_clients), i, cost_out);
}

void IoTool::ChunkReader::enable_transport(const TransportConfig& config) {
  EBLCIO_CHECK_ARG(transport_ == nullptr,
                   "transport already enabled: " + stream_.path());
  transport_ = std::make_unique<SectorReader>(stream_, config);
}

std::size_t IoTool::ChunkReader::prefetch_chunk(std::size_t i,
                                                int concurrent_clients) {
  const ChunkExtent& e = extent(i);
  if (transport_)
    return transport_->request(static_cast<std::size_t>(e.offset),
                               static_cast<std::size_t>(e.size));
  EBLCIO_CHECK_ARG(!parked_[i], "chunk prefetched twice: " + stream_.path());
  parked_[i] = stream_.read(static_cast<std::size_t>(e.offset),
                            static_cast<std::size_t>(e.size),
                            concurrent_clients);
  return i;
}

Bytes IoTool::ChunkReader::await_chunk(std::size_t handle, std::size_t i,
                                       IoCost* cost_out) {
  const ChunkExtent& e = extent(i);
  IoCost cost;
  Bytes data;
  if (transport_) {
    data = transport_->await(handle, &cost.transfer_seconds);
  } else {
    EBLCIO_CHECK_ARG(handle == i && parked_[i],
                     "await_chunk on a chunk not prefetched: " +
                         stream_.path());
    data = std::move(parked_[i]->data);
    cost.transfer_seconds = parked_[i]->cost.seconds;
    parked_[i].reset();
  }
  const ChunkProfile profile = tool_->chunk_profile();
  if (profile.staging_copy) {
    // Mirror the write path: the classic library stages fetched data
    // through its conversion buffer before handing it to the caller. The
    // drained fetch buffer goes straight back to the pool.
    Bytes staged = BufferPool::global().acquire(data.size());
    staged.resize(data.size());
    std::memcpy(staged.data(), data.data(), data.size());
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

IoTool& io_tool(const std::string& name) {
  static H5LiteTool h5;
  static NcLiteTool nc;
  static AdiosLiteTool bp;
  const std::string key = lower(name);
  if (key == "hdf5" || key == "h5") return h5;
  if (key == "netcdf" || key == "nc") return nc;
  if (key == "adios" || key == "bp") return bp;
  throw InvalidArgument("unknown I/O tool: " + name);
}

// The two libraries the paper benchmarks (Sec. IV-D). ADIOS is available
// via io_tool("ADIOS") as an extension but is kept out of the paper sweeps.
const std::vector<std::string>& io_tool_names() {
  static const std::vector<std::string> kNames = {"HDF5", "NetCDF"};
  return kNames;
}

}  // namespace eblcio
