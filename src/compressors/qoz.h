// QoZ-class quality-oriented error-bounded lossy compressor.
//
// QoZ (Liu et al., SC'22) builds on the SZ3 interpolation engine with
// quality-oriented refinements, which we reproduce:
//  * a denser exactly-stored anchor grid that stops error propagation,
//  * level-wise error-bound tuning (tighter bounds at coarse levels, since
//    coarse-level errors are amplified by every finer level),
//  * an auto-tuning pass that trials candidate configurations on a sampled
//    sub-region and picks the best quality/ratio trade-off — the extra
//    passes are why QoZ costs more energy than SZ3 in the paper's Fig. 7
//    while delivering higher PSNR at the same bound (its off-trend position
//    in Fig. 9).
//
// Like the reference implementation, QoZ rejects 1D inputs (paper Sec.
// IV-C: "QoZ is not capable of compressing 1D data").
#pragma once

#include "compressors/compressor.h"

namespace eblcio {

class QozCompressor : public Compressor {
 public:
  std::string name() const override { return "QoZ"; }
  CompressorCaps caps() const override {
    CompressorCaps c;
    c.min_dims = 2;  // no 1D support
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
