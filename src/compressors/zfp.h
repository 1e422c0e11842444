// ZFP-class transform-based error-bounded compressor (fixed-accuracy mode).
//
// Faithful re-implementation of the published scheme (Lindstrom, TVCG'14):
//  * data partitioned into 4^d blocks (d = 1..3; 4D fields are handled as a
//    stack of 3D slices along their slowest dimension, the standard way to
//    apply ZFP to field-stacked data like S3D),
//  * block-floating-point conversion to 62-bit fixed point against the
//    block's common exponent,
//  * the ZFP non-orthogonal lifted transform applied per dimension,
//  * coefficients reordered by total degree and mapped to negabinary,
//  * group-tested embedded bit-plane coding, planes truncated at the
//    precision implied by the absolute tolerance (zfp's fixed-accuracy
//    `precision = emax - minexp + 2(d+1)` rule).
//
// Parallel mode mirrors zfp 1.0's OpenMP execution policy: *compression
// only* is parallel (independent block ranges into separate byte-aligned
// sub-streams); decompression is always serial. This asymmetry is what
// makes ZFP's OpenMP energy curve flat in the paper's Fig. 10.
#pragma once

#include "compressors/compressor.h"

namespace eblcio {

class ZfpCompressor : public Compressor {
 public:
  std::string name() const override { return "ZFP"; }
  CompressorCaps caps() const override {
    CompressorCaps c;
    c.parallel_dims_mask = 0xF;
    c.parallel_decompress = false;  // zfp OpenMP: compression only
    return c;
  }

  Bytes compress(const Field& field, const CompressOptions& opt,
                 Field* recon) override;
  std::size_t decompress_into(std::span<const std::byte> blob, Field& out,
                              std::size_t row_start, const Window& window,
                              int threads) override;
};

}  // namespace eblcio
