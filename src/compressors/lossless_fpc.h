// FPC-class lossless baseline (Burtscher & Ratanaworabhan, ToC'09):
// dueling FCM / DFCM hash-table predictors over the 64-bit words of the
// data stream, XOR residuals, leading-zero-byte encoding.
#pragma once

#include "compressors/compressor.h"

namespace eblcio {

class FpcCompressor : public Compressor {
 public:
  std::string name() const override { return "FPC"; }
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
