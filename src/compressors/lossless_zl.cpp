#include "compressors/lossless_zl.h"

#include "codec/lz77.h"
#include "compressors/lossless_common.h"

namespace eblcio {

Bytes ZlCompressor::compress(const Field& field, const CompressOptions& opt,
                             Field* /*recon*/) {
  Bytes out;
  lossless_header(name(), field, opt).encode(out);
  Bytes payload = lz_compress(field.bytes());
  append_bytes(out, payload);
  return out;
}

std::size_t ZlCompressor::decompress_into(
    std::span<const std::byte> blob, Field& out, std::size_t row_start,
    const Window& window, int /*threads*/) {
  return decompress_raw_into(
      blob, out, row_start, window,
      [](const BlobHeader&, std::span<const std::byte> p) {
        return lz_decompress(p);
      });
}

}  // namespace eblcio
