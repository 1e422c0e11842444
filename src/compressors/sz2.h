// SZ2-class prediction-based error-bounded lossy compressor.
//
// Follows the published SZ 2.x design (Liang et al., Big Data'18): the field
// is partitioned into small multi-dimensional blocks; each block selects
// between a k-d Lorenzo predictor (on reconstructed values) and a linear
// regression plane (2D/3D blocks), residuals are quantized on a 2*eb grid
// with a 65536-entry code alphabet, unpredictable points are stored exactly,
// and the code stream is entropy-coded with canonical Huffman followed by
// the deflate-class lossless backend (the "Huffman + Zstd" pipeline).
//
// Parallel mode mirrors the reference OpenMP implementation's structure —
// prediction/quantization is data-parallel per slab but the Huffman +
// lossless stage over the global code stream is serial, which is why SZ2
// "does not scale based on thread counts" in the paper's Fig. 10. Like the
// reference, the parallel mode rejects 1D and 4D inputs (Sec. IV-C).
#pragma once

#include "compressors/compressor.h"

namespace eblcio {

class Sz2Compressor : public Compressor {
 public:
  std::string name() const override { return "SZ2"; }
  CompressorCaps caps() const override {
    CompressorCaps c;
    c.parallel_dims_mask = 0b0110;  // OpenMP mode: 2D and 3D only
    c.parallel_decompress = true;   // reconstruction only; entropy is serial
    return c;
  }

  Bytes compress(const Field& field, const CompressOptions& opt,
                 Field* recon) override;
  // Reconstructs only the blocks in the window's lower cone of each slab
  // the window touches (see compressors/README.md, "Decode").
  std::size_t decompress_into(std::span<const std::byte> blob, Field& out,
                              std::size_t row_start, const Window& window,
                              int threads) override;
};

}  // namespace eblcio
