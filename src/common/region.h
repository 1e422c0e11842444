// Query boxes and zone extents for partial-region reads.
//
// A Region is an axis-aligned box inside a field's index space (the shape
// of a serving-scale analysis query). A ZoneExtent is one zone's row
// interval along dimension 0 — zones shard the slowest-varying dimension,
// exactly like the chunking slabs, so a region's covering set is the set
// of zones whose row interval intersects the region's dim-0 interval.
// Both types live in common/ because the compressors (zone sharding) and
// the io layer (container zone index) share them without depending on
// each other.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"

namespace eblcio {

// An axis-aligned query box: start[d] .. start[d] + shape[d] per dimension.
struct Region {
  std::vector<std::size_t> start;
  std::vector<std::size_t> shape;

  int ndims() const { return static_cast<int>(shape.size()); }
  std::size_t num_elements() const {
    std::size_t n = 1;
    for (std::size_t s : shape) n *= s;
    return n;
  }
};

// Throws InvalidArgument unless `region` is a non-empty box that lies
// entirely inside a field shaped `dims`.
inline void validate_region(const Region& region,
                            const std::vector<std::size_t>& dims) {
  EBLCIO_CHECK_ARG(region.start.size() == dims.size() &&
                       region.shape.size() == dims.size(),
                   "region rank does not match field rank");
  for (std::size_t d = 0; d < dims.size(); ++d) {
    EBLCIO_CHECK_ARG(region.shape[d] > 0, "region is empty along dimension " +
                                              std::to_string(d));
    EBLCIO_CHECK_ARG(region.start[d] < dims[d] &&
                         region.shape[d] <= dims[d] - region.start[d],
                     "region exceeds field extent along dimension " +
                         std::to_string(d));
  }
}

// True when `region` is the whole of a field shaped `dims`.
inline bool is_whole_region(const Region& region,
                            const std::vector<std::size_t>& dims) {
  for (const std::size_t s : region.start)
    if (s != 0) return false;
  return region.shape == dims;
}

// One zone's interval along dimension 0 of the full field.
struct ZoneExtent {
  std::uint64_t row_start = 0;
  std::uint64_t rows = 0;

  friend bool operator==(const ZoneExtent& a, const ZoneExtent& b) {
    return a.row_start == b.row_start && a.rows == b.rows;
  }
};

// Indices of the zones whose row interval intersects
// [row_start, row_start + rows). Extents are contiguous and sorted (the
// form zone_extents/append_zone produce), so the covering set is one
// contiguous run of indices.
inline std::vector<std::size_t> covering_zones(
    const std::vector<ZoneExtent>& extents, std::size_t row_start,
    std::size_t rows) {
  std::vector<std::size_t> out;
  const std::size_t row_end = row_start + rows;
  for (std::size_t i = 0; i < extents.size(); ++i) {
    const std::size_t a = static_cast<std::size_t>(extents[i].row_start);
    const std::size_t b = a + static_cast<std::size_t>(extents[i].rows);
    if (a < row_end && row_start < b) out.push_back(i);
  }
  return out;
}

}  // namespace eblcio
