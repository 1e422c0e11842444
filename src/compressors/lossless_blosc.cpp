#include "compressors/lossless_blosc.h"

#include "codec/lz77.h"
#include "codec/shuffle.h"
#include "compressors/lossless_common.h"

namespace eblcio {

Bytes BloscLikeCompressor::compress(const Field& field,
                                    const CompressOptions& opt,
                                    Field* /*recon*/) {
  Bytes out;
  lossless_header(name(), field, opt).encode(out);
  const Bytes shuffled =
      shuffle_bytes(field.bytes(), dtype_size(field.dtype()));
  // Blosc trades ratio for speed: a shallow match search is part of the
  // imitation (and of why Blosc lands between zstd and fpzip in Fig. 1).
  LzOptions lz_opt;
  lz_opt.max_probes = 8;
  Bytes payload = lz_compress(shuffled, lz_opt);
  append_bytes(out, payload);
  return out;
}

std::size_t BloscLikeCompressor::decompress_into(
    std::span<const std::byte> blob, Field& out, std::size_t row_start,
    const Window& window, int /*threads*/) {
  return decompress_raw_into(
      blob, out, row_start, window,
      [](const BlobHeader& header, std::span<const std::byte> p) {
        return unshuffle_bytes(lz_decompress(p), dtype_size(header.dtype));
      });
}

}  // namespace eblcio
