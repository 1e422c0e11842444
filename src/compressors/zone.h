// Zone-sharded compression: the serving-scale read layer.
//
// The paper's checkpoint experiments compress and restore whole fields;
// at serving scale an analysis client wants a small subregion and should
// not pay for decoding the whole thing. Following the SZ3 zone-compressor
// design, a field is sharded into zones along its slowest-varying
// dimension — each zone independently compressed with its own quantizer
// stream and entropy tables (automatic: every zone is a self-describing
// codec blob) — so full-field decode parallelism is embarrassing and a
// region query decodes only its covering zones.
//
// Zone extents use the exact slab_rows distribution of the chunking layer
// (compressors/chunking.h), and every zone is compressed at the absolute
// bound derived from the *whole* field, so the merged reconstruction is
// bit-identical to the unzoned chunked/streamed path.
#pragma once

#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/field.h"
#include "common/region.h"
#include "compressors/compressor.h"

namespace eblcio {

// The zone row distribution for a field with leading extent `d0`: at most
// `zones` contiguous extents matching slab_rows (fewer when d0 is small).
std::vector<ZoneExtent> zone_extents(std::size_t d0, int zones);

// A zone-sharded compressed field: per-zone self-describing codec blobs
// plus the extents that place them.
struct ZonedField {
  std::string name;
  std::string codec;
  DType dtype = DType::kFloat32;
  std::vector<std::size_t> dims;  // full-field dims
  std::vector<ZoneExtent> extents;
  std::vector<Bytes> blobs;  // blobs[i] covers extents[i]

  std::size_t zones() const { return blobs.size(); }
  std::size_t compressed_bytes() const {
    std::size_t n = 0;
    for (const Bytes& b : blobs) n += b.size();
    return n;
  }
  // Returns every blob's allocation to the BufferPool (blobs are cleared).
  void recycle();
};

// Copies the intersection of `zone` (rows [zone_row_start, ...) of the full
// field) and `region` into `out` (shaped region.shape). Used by both the
// parallel region decode and the serial reference so they are identical by
// construction.
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

class ZoneCompressor {
 public:
  // `zones` is the requested shard count (clamped to the field's leading
  // extent at compress time).
  ZoneCompressor(std::string codec, int zones);

  const std::string& codec() const { return codec_; }
  int zones() const { return zones_; }

  // Shards `field` and compresses every zone as an independent task on the
  // shared executor (sweep_grid fan-out; serial when parallel = false).
  // The bound is converted to an absolute bound from the whole field first,
  // so all zones honour one bound and the reconstruction matches the
  // unzoned path bit for bit.
  ZonedField compress(const Field& field, const CompressOptions& opt,
                      bool parallel = true) const;

  // Decodes every zone (independent tasks when parallel) and merges them
  // into the full field. Bit-identical between parallel and serial.
  static Field decompress_all(const ZonedField& zoned, bool parallel = true);

  // Decodes only the zones covering `region`, each through the windowed
  // decode of its part of the box (decompress_region_any), and assembles
  // the region field. Throws InvalidArgument when the region falls outside
  // the field.
  static Field decompress_region(const ZonedField& zoned, const Region& region,
                                 bool parallel = true);

 private:
  std::string codec_;
  int zones_;
};

}  // namespace eblcio
