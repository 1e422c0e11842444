#include "compressors/sz3.h"

#include "common/error.h"
#include "compressors/chunking.h"
#include "compressors/interp_core.h"

namespace eblcio {
namespace {

Bytes sz3_payload_compress(const Field& field, const BlobHeader& header,
                           Field* recon) {
  InterpConfig config;  // flat bounds, cubic interpolation, auto anchors
  const InterpEncoding enc =
      interp_compress(field, header.abs_error_bound, config, recon);
  return interp_payload_encode(config, enc);
}

}  // namespace

Bytes Sz3Compressor::compress(const Field& field, const CompressOptions& opt,
                              Field* recon) {
  EBLCIO_CHECK_ARG(opt.mode != BoundMode::kLossless,
                   "SZ3 is an error-bounded lossy compressor");
  return compress_chunked(lossy_header(name(), field, opt), field, opt,
                          sz3_payload_compress, recon);
}

std::size_t Sz3Compressor::decompress_into(std::span<const std::byte> blob,
                                           Field& out, std::size_t row_start,
                                           const Window& window, int threads) {
  return decompress_chunked_into(blob, threads, interp_payload_decompress,
                                 out, row_start, window);
}

}  // namespace eblcio
