#include "compressors/lossless_zl.h"

#include "codec/lz77.h"
#include "compressors/lossless_common.h"

namespace eblcio {

Bytes ZlCompressor::compress(const Field& field, const CompressOptions& opt) {
  Bytes out;
  lossless_header(name(), field, opt).encode(out);
  Bytes payload = lz_compress(field.bytes());
  append_bytes(out, payload);
  return out;
}

Field ZlCompressor::decompress(std::span<const std::byte> blob,
                               int /*threads*/) {
  ByteReader r(blob);
  const BlobHeader header = BlobHeader::decode(r);
  const Bytes raw = lz_decompress(r.remaining());
  return field_from_bytes(header.codec, header.dtype, header.dims, raw);
}

}  // namespace eblcio
