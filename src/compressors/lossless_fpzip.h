// fpzip-class lossless floating-point baseline (Lindstrom & Isenburg,
// TVCG'06): k-d Lorenzo prediction in a monotonic integer mapping of the
// IEEE bit patterns, with residuals coded as (bit-length class, raw bits).
#pragma once

#include "compressors/compressor.h"

namespace eblcio {

class FpzipLikeCompressor : public Compressor {
 public:
  std::string name() const override { return "fpzip"; }
  CompressorCaps caps() const override {
    CompressorCaps c;
    c.lossless = true;
    return c;
  }

  Bytes compress(const Field& field, const CompressOptions& opt,
                 Field* recon) override;
  std::size_t decompress_into(std::span<const std::byte> blob, Field& out,
                              std::size_t row_start, const Window& window,
                              int threads) override;
};

}  // namespace eblcio
