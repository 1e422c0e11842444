// SZx-class ultrafast error-bounded lossy compressor.
//
// Mirrors SZx's design (Yu et al., HPDC'22): fixed-size 1D blocks of 128
// values, constant-block detection, and per-block leading-bit analysis that
// stores each value as a truncated fixed-point offset from the block
// minimum. One pass, no entropy coding — very fast, moderate ratios, which
// is exactly the trade-off the paper measures (lowest energy, lowest CR).
//
// Parallel mode: fully data-parallel in both directions via slab chunking
// (blocks are independent), matching SZx's strong OpenMP scaling in Fig. 10.
#pragma once

#include "compressors/compressor.h"

namespace eblcio {

class SzxCompressor : public Compressor {
 public:
  std::string name() const override { return "SZx"; }
  CompressorCaps caps() const override {
    CompressorCaps c;
    c.parallel_dims_mask = 0xF;
    c.parallel_decompress = true;
    return c;
  }

  Bytes compress(const Field& field, const CompressOptions& opt,
                 Field* recon) override;
  std::size_t decompress_into(std::span<const std::byte> blob, Field& out,
                              std::size_t row_start, const Window& window,
                              int threads) override;
};

}  // namespace eblcio
