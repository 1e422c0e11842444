// Zone geometry: the arithmetic behind zone-sharded containers.
//
// The paper's checkpoint experiments compress and restore whole fields;
// at serving scale an analysis client wants a small subregion and should
// not pay for decoding the whole thing. Following the SZ3 zone-compressor
// design, the streamed write shards a field into zones along its
// slowest-varying dimension and appends each zone to a zoned container as
// an independent, self-describing codec blob (core/pipeline.h,
// io/io_tool.h). The container's footer index then lets a region read
// fetch and decode only the zones covering its box.
//
// Zone extents use the exact slab_rows distribution of the chunking layer
// (compressors/chunking.h), and every zone is compressed at the absolute
// bound derived from the *whole* field, so the merged reconstruction is
// bit-identical to the unzoned chunked path. This file holds the extent
// math and the crops that place a decoded zone, or the part of one, into
// a region.
//
// A read places each covering zone with one windowed decompress_into
// (compressors/compressor.h): the window is the zone's part of the region
// (zone_part_of_region), whole or partial, and the codec writes it
// straight into the part's rows of one output allocated unfilled. That is
// safe under the decode-into contract: every destination element is
// written exactly once (the covering zones' parts tile the region, and
// each decoder writes each element of its window once), and no decoder
// reads an element before writing it.
#pragma once

#include <span>
#include <vector>

#include "common/field.h"
#include "common/region.h"

namespace eblcio {

// The zone row distribution for a field with leading extent `d0`: at most
// `zones` contiguous extents matching slab_rows (fewer when d0 is small).
std::vector<ZoneExtent> zone_extents(std::size_t d0, int zones);

// Copies `box` of the dense row-major array `src` shaped `dims` into
// `dst`, densely in the box's own row-major order. The box must lie
// inside `dims` (validate_region).
template <typename T>
void crop_box(const T* src, std::span<const std::size_t> dims,
              const Region& box, T* dst);

// Copies `box` of `src` (in src's coordinates) into `out` from element
// `offset` on: the box's rows, when out's extents past dimension 0 are
// the box's. The crop of the full-decode fallback (decode_window_into).
void crop_into(const Field& src, const Region& box, Field& out,
               std::size_t offset);

// Copies the intersection of `zone` (rows [zone_row_start, ...) of the full
// field) and `region` into `out` (shaped region.shape). Used by the
// end-to-end replay's serial region reference.
void scatter_zone_into_region(const Field& zone, std::size_t zone_row_start,
                              const Region& region, Field& out);

// The rows of `region` that fall in `zone`, as a box in the zone's own
// coordinates (dims 1..n are the region's). Throws InvalidArgument when
// the zone holds none of the region's rows.
Region zone_part_of_region(const Region& region, const ZoneExtent& zone);

}  // namespace eblcio
