// Shared plumbing for the lossless baselines: header construction, and the
// decode-into step of the codecs whose payload decodes to the field's raw
// bytes.
#pragma once

#include "common/error.h"
#include "compressors/compressor.h"

namespace eblcio {

inline BlobHeader lossless_header(const std::string& codec,
                                  const Field& field,
                                  const CompressOptions& opt) {
  BlobHeader h;
  h.codec = codec;
  h.dtype = field.dtype();
  h.dims = field.shape().dims_vector();
  h.abs_error_bound = 0.0;
  h.requested_mode = opt.mode;
  h.requested_bound = 0.0;
  return h;
}

// Decodes a lossless blob into rows [row_start, row_start + dims[0]) of
// `out`: checks the blob fits them, runs decode(header, payload) for the
// field's raw bytes, and copies those into the rows. Throws CorruptStream,
// before writing, unless they are exactly the header's element bytes.
template <typename Decode>
void decompress_raw_into(std::span<const std::byte> blob, Field& out,
                         std::size_t row_start, Decode&& decode) {
  ByteReader r(blob);
  const BlobHeader header = BlobHeader::decode(r);
  const std::size_t offset = check_decode_target(header, out, row_start);
  const Bytes raw = decode(header, r.remaining());
  EBLCIO_CHECK_STREAM(raw.size() == header.num_elements() *
                                         dtype_size(header.dtype),
                      "lossless payload does not match its header");
  copy_into(raw, out, offset);
}

}  // namespace eblcio
