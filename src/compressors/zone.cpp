#include "compressors/zone.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "common/error.h"
#include "compressors/chunking.h"

namespace eblcio {
namespace {

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

void scatter_zone_into_region(const Field& zone, std::size_t zone_row_start,
                              const Region& region, Field& out) {
  out.visit([&](auto& arr) {
    using T = std::remove_reference_t<decltype(*arr.data())>;
    scatter_impl<T>(zone.as<T>(), zone_row_start, region, arr);
  });
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
  copy_into(part.bytes(), out, offset);
}

}  // namespace eblcio
