#include "compressors/lossless_blosc.h"

#include "codec/lz77.h"
#include "codec/shuffle.h"
#include "compressors/lossless_common.h"

namespace eblcio {

Bytes BloscLikeCompressor::compress(const Field& field,
                                    const CompressOptions& opt) {
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

Field BloscLikeCompressor::decompress(std::span<const std::byte> blob,
                                      int /*threads*/) {
  ByteReader r(blob);
  const BlobHeader header = BlobHeader::decode(r);
  const Bytes shuffled = lz_decompress(r.remaining());
  const Bytes raw = unshuffle_bytes(shuffled, dtype_size(header.dtype));
  return field_from_bytes(header.codec, header.dtype, header.dims, raw);
}

}  // namespace eblcio
