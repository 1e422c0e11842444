// Domain-decomposition parallelism for compressors.
//
// The OpenMP modes of SZ3/QoZ/SZx (and our fallback for others) split the
// field into contiguous slabs along its slowest-varying dimension, compress
// each slab independently with the codec's serial kernel, and concatenate
// the per-slab payloads behind a chunk table. Decompression parallelizes
// the same way. This mirrors how the reference implementations parallelize
// (block/chunk independence), including the small compression-ratio loss
// from per-chunk entropy tables.
#pragma once

#include <functional>
#include <vector>

#include "common/bytes.h"
#include "common/field.h"
#include "common/region.h"
#include "compressors/compressor.h"

namespace eblcio {

// Codec kernels operate on header+payload; the chunk container owns the
// framing. The header passed to a kernel carries the dims of the (sub)field
// it must handle and the absolute error bound for the *whole* field. A
// compress kernel's `recon` is the caller's reconstruction slot
// (Compressor::compress): non-null only for the single layout, and a
// kernel that builds no reconstruction leaves it empty.
//
// A decompress kernel decodes into the header.num_elements() elements of
// header.dtype that start at element `offset` of `out` (the caller has
// checked they are there). Its contract is what lets the output start
// unfilled: it writes every one of those elements exactly once, reads none
// before writing it, and touches nothing else in `out`. Kernels of
// different chunks run concurrently on disjoint rows.
using PayloadCompressFn = std::function<Bytes(
    const Field& field, const BlobHeader& header, Field* recon)>;
using PayloadDecompressFn =
    std::function<void(const BlobHeader& header,
                       std::span<const std::byte> payload, Field& out,
                       std::size_t offset)>;

// Payload layout tags written immediately after the BlobHeader.
inline constexpr std::uint8_t kLayoutSingle = 0;
inline constexpr std::uint8_t kLayoutChunked = 1;

// Splits `field` into at most `nchunks` slabs along dimension 0 (each slab
// keeps full extent in the remaining dimensions). Returns fewer chunks when
// dim0 is too small to split. Row distribution is deterministic so the
// decompressor can recompute slab shapes.
std::vector<Field> split_slabs(const Field& field, int nchunks);

// Rows assigned to slab `c` of `nchunks` when splitting extent `d0`.
std::size_t slab_rows(std::size_t d0, int nchunks, int c);

// Rows [zone.row_start, + zone.rows) of `field` as a field of their own:
// the slab split_slabs cuts there. The streamed write's lanes extract
// their zones through it.
Field extract_slab(const Field& field, const ZoneExtent& zone);

// Reassembles slabs split by split_slabs into one field shaped `dims`:
// the end-to-end replay uses it. The decoders do not; their kernels write
// their rows of one output.
Field merge_slabs(const std::vector<Field>& slabs,
                  const std::vector<std::size_t>& dims,
                  const std::string& name);

// Compresses with slab parallelism: runs `kernel` on each slab as tasks on
// the shared executor (at most opt.threads concurrent slab tasks). Falls
// back to a single chunk when opt.threads <= 1 or the field cannot be
// split; only that single chunk's kernel is handed `recon`.
Bytes compress_chunked(const BlobHeader& header, const Field& field,
                       const CompressOptions& opt,
                       const PayloadCompressFn& kernel,
                       Field* recon = nullptr);

// Decodes `window` of a blob produced by compress_chunked (either layout)
// into rows of `out` (Compressor::decompress_into's contract), each
// chunk's kernel writing its own rows (at most `threads` at once), through
// decode_window_into. Throws CorruptStream before writing anything when
// check_decode_target refuses `out` or the chunk table is malformed.
// Returns the elements decoded.
std::size_t decompress_chunked_into(
    std::span<const std::byte> blob, int threads,
    const PayloadDecompressFn& kernel, Field& out, std::size_t row_start,
    const Window& window = std::nullopt);

}  // namespace eblcio
