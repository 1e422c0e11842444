// SZ3-class interpolation-based error-bounded lossy compressor.
//
// Uses the multi-level dynamic spline interpolation predictor
// (interp_core.h) with a flat per-level error bound, followed by the
// Huffman + lossless backend — the SZ3 pipeline described in Sec. II-B of
// the paper. Compared with SZ2 it stores no regression coefficients, which
// is what buys its higher ratios at loose bounds.
//
// Parallel mode: slab domain decomposition, parallel in both directions —
// SZ3 is one of the two strong scalers in the paper's Fig. 10.
#pragma once

#include "compressors/compressor.h"

namespace eblcio {

class Sz3Compressor : public Compressor {
 public:
  std::string name() const override { return "SZ3"; }
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
