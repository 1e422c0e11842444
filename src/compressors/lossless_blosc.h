// C-Blosc2-class lossless baseline: byte-shuffle filter + fast LZ.
//
// The shuffle transposes element bytes so the slowly-varying exponent bytes
// of IEEE floats become contiguous runs, which LZ then compresses — Blosc's
// core trick, and why it modestly beats plain LZ on float data in Fig. 1.
#pragma once

#include "compressors/compressor.h"

namespace eblcio {

class BloscLikeCompressor : public Compressor {
 public:
  std::string name() const override { return "C-Blosc2"; }
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
