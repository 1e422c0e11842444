#include "compressors/zone.h"

#include <algorithm>
#include <cstring>

#include "common/buffer_pool.h"
#include "common/error.h"
#include "compressors/chunking.h"
#include "core/sweep.h"

namespace eblcio {
namespace {

// Checks that `extents` is a contiguous partition of rows [0, d0) with one
// entry per blob — the only layout compress() emits and the container
// accepts.
void check_zoned(const ZonedField& zoned) {
  EBLCIO_CHECK_ARG(!zoned.dims.empty(), "zoned field has no dims");
  EBLCIO_CHECK_ARG(zoned.extents.size() == zoned.blobs.size(),
                   "zone extent/blob count mismatch");
  EBLCIO_CHECK_STREAM(!zoned.extents.empty(), "zoned field holds no zones");
  std::size_t next = 0;
  for (const ZoneExtent& e : zoned.extents) {
    EBLCIO_CHECK_STREAM(e.rows > 0 && e.row_start == next,
                        "zone extents are not a contiguous row partition");
    next += static_cast<std::size_t>(e.rows);
  }
  EBLCIO_CHECK_STREAM(next == zoned.dims[0],
                      "zone extents do not cover the field");
}

template <typename T>
void scatter_impl(const NdArray<T>& zone, std::size_t zone_row_start,
                  const Region& region, NdArray<T>& out) {
  const int nd = out.ndims();
  const std::size_t r0 = region.start[0];
  const std::size_t lo = std::max(r0, zone_row_start);
  const std::size_t hi =
      std::min(r0 + region.shape[0], zone_row_start + zone.shape().dim(0));
  if (lo >= hi) return;

  if (nd == 1) {
    std::memcpy(out.data() + (lo - r0),
                zone.data() + (lo - zone_row_start), (hi - lo) * sizeof(T));
    return;
  }

  const auto zs = zone.shape().strides();
  const auto os = out.shape().strides();
  const int last = nd - 1;
  const std::size_t run = region.shape[last];
  const std::size_t run_off = region.start[last];
  const std::size_t m1_count = nd >= 3 ? region.shape[1] : 1;
  const std::size_t m1_start = nd >= 3 ? region.start[1] : 0;
  const std::size_t m2_count = nd >= 4 ? region.shape[2] : 1;
  const std::size_t m2_start = nd >= 4 ? region.start[2] : 0;

  for (std::size_t g = lo; g < hi; ++g) {
    const T* zrow = zone.data() + (g - zone_row_start) * zs[0];
    T* orow = out.data() + (g - r0) * os[0];
    for (std::size_t i1 = 0; i1 < m1_count; ++i1)
      for (std::size_t i2 = 0; i2 < m2_count; ++i2) {
        const T* src = zrow + (nd >= 3 ? (m1_start + i1) * zs[1] : 0) +
                       (nd >= 4 ? (m2_start + i2) * zs[2] : 0) +
                       run_off * zs[last];
        T* dst = orow + (nd >= 3 ? i1 * os[1] : 0) +
                 (nd >= 4 ? i2 * os[2] : 0);
        std::memcpy(dst, src, run * sizeof(T));
      }
  }
}

// Copies all of `part` into `out` starting at element `offset`.
template <typename T>
void copy_run(const Field& part, std::size_t offset, Field& out) {
  const NdArray<T>& src = part.as<T>();
  std::memcpy(out.as<T>().data() + offset, src.data(), src.size_bytes());
}

// Checks zone `i`'s blob header against the zone it claims to be: a blob
// swapped in from elsewhere (or a forged extent) must fail cleanly here,
// before anything is decoded or lands in a caller-visible Field.
void check_zone_header(const ZonedField& zoned, std::size_t i) {
  const BlobHeader header = peek_header(zoned.blobs[i]);
  EBLCIO_CHECK_STREAM(header.dtype == zoned.dtype,
                      "zone blob dtype mismatch");
  EBLCIO_CHECK_STREAM(
      header.dims.size() == zoned.dims.size() &&
          header.dims[0] == static_cast<std::size_t>(zoned.extents[i].rows),
      "zone blob shape does not match its extent");
  for (std::size_t d = 1; d < header.dims.size(); ++d)
    EBLCIO_CHECK_STREAM(header.dims[d] == zoned.dims[d],
                        "zone blob shape does not match the field");
}

Field decode_zone(const ZonedField& zoned, std::size_t i) {
  check_zone_header(zoned, i);
  return decompress_any(zoned.blobs[i], 1);
}

}  // namespace

std::vector<ZoneExtent> zone_extents(std::size_t d0, int zones) {
  EBLCIO_CHECK_ARG(zones >= 1, "zone count must be positive");
  const int n = static_cast<int>(
      std::min<std::size_t>(d0, static_cast<std::size_t>(zones)));
  std::vector<ZoneExtent> out;
  out.reserve(static_cast<std::size_t>(n));
  std::size_t start = 0;
  for (int z = 0; z < n; ++z) {
    const std::size_t rows = slab_rows(d0, n, z);
    out.push_back({start, rows});
    start += rows;
  }
  return out;
}

void ZonedField::recycle() {
  for (Bytes& b : blobs) BufferPool::global().release(std::move(b));
  blobs.clear();
  extents.clear();
}

void scatter_zone_into_region(const Field& zone, std::size_t zone_row_start,
                              const Region& region, Field& out) {
  if (out.dtype() == DType::kFloat32)
    scatter_impl<float>(zone.as<float>(), zone_row_start, region,
                        out.as<float>());
  else
    scatter_impl<double>(zone.as<double>(), zone_row_start, region,
                         out.as<double>());
}

Region zone_part_of_region(const Region& region, const ZoneExtent& zone) {
  const auto zone_start = static_cast<std::size_t>(zone.row_start);
  const std::size_t lo = std::max(region.start[0], zone_start);
  const std::size_t hi =
      std::min(region.start[0] + region.shape[0],
               zone_start + static_cast<std::size_t>(zone.rows));
  EBLCIO_CHECK_ARG(lo < hi, "zone holds none of the region's rows");
  Region part = region;
  part.start[0] = lo - zone_start;
  part.shape[0] = hi - lo;
  return part;
}

void copy_zone_part_into_region(const Field& part, const ZoneExtent& zone,
                                const Region& region, Field& out) {
  const Region want = zone_part_of_region(region, zone);
  EBLCIO_CHECK_STREAM(part.dtype() == out.dtype() &&
                          part.shape().dims_vector() == want.shape,
                      "decoded zone part does not match its box");
  const std::size_t offset =
      (static_cast<std::size_t>(zone.row_start) + want.start[0] -
       region.start[0]) *
      (out.num_elements() / region.shape[0]);
  if (out.dtype() == DType::kFloat32)
    copy_run<float>(part, offset, out);
  else
    copy_run<double>(part, offset, out);
}

ZoneCompressor::ZoneCompressor(std::string codec, int zones)
    : codec_(std::move(codec)), zones_(zones) {
  EBLCIO_CHECK_ARG(zones_ >= 1, "zone count must be positive");
}

ZonedField ZoneCompressor::compress(const Field& field,
                                    const CompressOptions& opt,
                                    bool parallel) const {
  Compressor& comp = compressor(codec_);

  // One absolute bound from the whole field's value range: per-zone bounds
  // would differ (each zone sees a different range) and the merged
  // reconstruction would diverge from the unzoned path.
  CompressOptions zone_opt = opt;
  zone_opt.mode = BoundMode::kAbsolute;
  zone_opt.error_bound = absolute_bound_for(field, opt);
  zone_opt.threads = 1;  // parallelism is across zones, not within

  ZonedField zoned;
  zoned.name = field.name();
  zoned.codec = comp.name();
  zoned.dtype = field.dtype();
  zoned.dims = field.shape().dims_vector();
  zoned.extents = zone_extents(field.shape().dim(0), zones_);

  auto slabs = split_slabs(field, zones_);
  EBLCIO_CHECK(slabs.size() == zoned.extents.size(),
               "zone/slab split disagreement");

  std::vector<std::size_t> cells(slabs.size());
  for (std::size_t i = 0; i < cells.size(); ++i) cells[i] = i;
  SweepOptions sweep;
  sweep.parallel = parallel;
  auto report = sweep_grid(
      std::move(cells),
      [&](const std::size_t& i, SweepCellContext&) {
        return comp.compress(slabs[i], zone_opt);
      },
      sweep);
  report.rethrow_first_error();

  zoned.blobs.resize(report.cells.size());
  for (auto& cell : report.cells) zoned.blobs[cell.index] = std::move(*cell.result);
  return zoned;
}

Field ZoneCompressor::decompress_all(const ZonedField& zoned, bool parallel) {
  check_zoned(zoned);

  std::vector<std::size_t> cells(zoned.zones());
  for (std::size_t i = 0; i < cells.size(); ++i) cells[i] = i;
  SweepOptions sweep;
  sweep.parallel = parallel;
  auto report = sweep_grid(
      std::move(cells),
      [&](const std::size_t& i, SweepCellContext&) {
        return decode_zone(zoned, i);
      },
      sweep);
  report.rethrow_first_error();

  std::vector<Field> zones(report.cells.size());
  for (auto& cell : report.cells) zones[cell.index] = std::move(*cell.result);
  return merge_slabs(zones, zoned.dims, zoned.name);
}

Field ZoneCompressor::decompress_region(const ZonedField& zoned,
                                        const Region& region, bool parallel) {
  check_zoned(zoned);
  validate_region(region, zoned.dims);

  const std::vector<std::size_t> covering =
      covering_zones(zoned.extents, region.start[0], region.shape[0]);
  EBLCIO_CHECK(!covering.empty(), "region has no covering zones");

  Shape shape{std::span<const std::size_t>(region.shape)};
  Field out = zoned.dtype == DType::kFloat32
                  ? Field(zoned.name, NdArray<float>(shape))
                  : Field(zoned.name, NdArray<double>(shape));

  SweepOptions sweep;
  sweep.parallel = parallel;
  auto report = sweep_grid(
      covering,
      [&](const std::size_t& zone, SweepCellContext&) {
        check_zone_header(zoned, zone);
        return decompress_region_any(
            zoned.blobs[zone], zone_part_of_region(region, zoned.extents[zone]),
            1);
      },
      sweep);
  report.rethrow_first_error();

  for (auto& cell : report.cells)
    copy_zone_part_into_region(*cell.result, zoned.extents[cell.cell], region,
                               out);
  return out;
}

}  // namespace eblcio
