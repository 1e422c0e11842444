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

// Decodes `window` of a lossless blob into rows of `out`
// (Compressor::decompress_into's contract) through decode_window_into:
// runs decode(header, payload) for the field's raw bytes and copies those
// into place. Throws CorruptStream unless they are exactly the header's
// element bytes.
template <typename Decode>
std::size_t decompress_raw_into(std::span<const std::byte> blob, Field& out,
                                std::size_t row_start, const Window& window,
                                Decode&& decode) {
  ByteReader r(blob);
  const BlobHeader header = BlobHeader::decode(r);
  return decode_window_into(
      header, out, row_start, window, [&](Field& dst, std::size_t offset) {
        const Bytes raw = decode(header, r.remaining());
        EBLCIO_CHECK_STREAM(raw.size() == header.num_elements() *
                                               dtype_size(header.dtype),
                            "lossless payload does not match its header");
        copy_into(raw, dst, offset);
      });
}

}  // namespace eblcio
