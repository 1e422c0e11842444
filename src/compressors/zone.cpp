#include "compressors/zone.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <type_traits>

#include "common/error.h"
#include "compressors/chunking.h"

namespace eblcio {

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

template <typename T>
void crop_box(const T* src, std::span<const std::size_t> dims,
              const Region& box, T* dst) {
  // The box padded to four dimensions, slowest first; one memcpy per run
  // along the fastest axis.
  const int pad = 4 - box.ndims();
  std::array<std::size_t, 4> lo{}, len{1, 1, 1, 1}, ext{1, 1, 1, 1};
  for (int i = 0; i < box.ndims(); ++i) {
    lo[pad + i] = box.start[i];
    len[pad + i] = box.shape[i];
    ext[pad + i] = dims[i];
  }
  const std::size_t s2 = ext[3], s1 = s2 * ext[2], s0 = s1 * ext[1];
  for (std::size_t c0 = 0; c0 < len[0]; ++c0)
    for (std::size_t c1 = 0; c1 < len[1]; ++c1)
      for (std::size_t c2 = 0; c2 < len[2]; ++c2) {
        std::memcpy(dst,
                    src + (lo[0] + c0) * s0 + (lo[1] + c1) * s1 +
                        (lo[2] + c2) * s2 + lo[3],
                    len[3] * sizeof(T));
        dst += len[3];
      }
}

template void crop_box<float>(const float*, std::span<const std::size_t>,
                              const Region&, float*);
template void crop_box<double>(const double*, std::span<const std::size_t>,
                               const Region&, double*);

void crop_into(const Field& src, const Region& box, Field& out,
               std::size_t offset) {
  const std::vector<std::size_t> dims = src.shape().dims_vector();
  out.visit([&](auto& arr) {
    using T = std::remove_reference_t<decltype(*arr.data())>;
    crop_box<T>(src.as<T>().data(), dims, box, arr.data() + offset);
  });
}

void scatter_zone_into_region(const Field& zone, std::size_t zone_row_start,
                              const Region& region, Field& out) {
  const std::size_t r0 = region.start[0];
  const std::size_t lo = std::max(r0, zone_row_start);
  const std::size_t hi =
      std::min(r0 + region.shape[0], zone_row_start + zone.shape().dim(0));
  if (lo >= hi) return;
  Region part = region;
  part.start[0] = lo - zone_row_start;
  part.shape[0] = hi - lo;
  crop_into(zone, part, out, (lo - r0) * (out.num_elements() / region.shape[0]));
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

}  // namespace eblcio
