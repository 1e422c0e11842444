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
// math and the copies that place a decoded zone, or the decoded part of
// one, into a region.
//
// A read places a zone its region holds whole with decompress_into
// (compressors/compressor.h): the codec decodes straight into the zone's
// rows of one output allocated unfilled. That is safe under the
// decode-into contract: every destination element is written exactly once
// (the covering zones' parts tile the region, and each decoder writes each
// of its elements once), and no decoder reads an element before writing
// it. A zone only partly inside the region decodes its part alone
// (decompress_region_any) and copy_zone_part_into_region copies it in.
#pragma once

#include <vector>

#include "common/field.h"
#include "common/region.h"

namespace eblcio {

// The zone row distribution for a field with leading extent `d0`: at most
// `zones` contiguous extents matching slab_rows (fewer when d0 is small).
std::vector<ZoneExtent> zone_extents(std::size_t d0, int zones);

// Copies the intersection of `zone` (rows [zone_row_start, ...) of the full
// field) and `region` into `out` (shaped region.shape). Used by the serial
// region reference and the default windowed decode (a full decode cropped
// to its box).
void scatter_zone_into_region(const Field& zone, std::size_t zone_row_start,
                              const Region& region, Field& out);

// The rows of `region` that fall in `zone`, as a box in the zone's own
// coordinates (dims 1..n are the region's). Throws InvalidArgument when
// the zone holds none of the region's rows.
Region zone_part_of_region(const Region& region, const ZoneExtent& zone);

// Copies `part` — the zone_part_of_region box of `zone`, decoded — into
// `out` (shaped region.shape). Dims 1..n already match the region, so the
// part is one contiguous run of `out`. Throws CorruptStream when the part's
// dtype or shape is not the one asked for.
void copy_zone_part_into_region(const Field& part, const ZoneExtent& zone,
                                const Region& region, Field& out);

}  // namespace eblcio
