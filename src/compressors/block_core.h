// Block-structured prediction+quantization engine — the SZ2 kernel family,
// factored out of sz2.cpp so the composable codec framework can drive it
// with any (predictor, quantizer) pair while SZ2 itself stays a thin
// framing layer over the kLorenzoRegression configuration.
//
// The engine walks the field in SZ2's canonical block order (256 / 16x16 /
// 6^3 / 6^4 blocks), predicts every element from the *reconstruction*
// buffer (so compress and decompress see bit-identical predictions), and
// quantizes residuals to radius-32768 codes. Unpredictable elements emit
// code 0 and their exact value in the `unpred` stream.
//
// Bit-exactness contract: block_compress(kLorenzoRegression, kLinearRecip)
// reproduces the pre-refactor SZ2 slab encoding byte-for-byte — the 17
// pinned reference blobs in tests/test_reference_blobs.cpp enforce this.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/field.h"
#include "common/region.h"
#include "compressors/components.h"
#include "compressors/compressor.h"

namespace eblcio {

// Prediction modes of the block engine. kLorenzoRegression is the legacy
// SZ2 behaviour (per-block choice between Lorenzo and a regression plane
// for 2D/3D, pure Lorenzo otherwise); the rest pin one predictor for every
// block, which is what the composed framework's predictor axis selects.
enum class BlockPredictor : std::uint8_t {
  kLorenzoRegression = 0,
  kLorenzo1 = 1,
  kLorenzo2 = 2,
  kRegression = 3,
};

// One slab's encoding, stream-per-stream (the caller owns framing and the
// entropy stage). Identical layout to SZ2's historical SlabEncoding.
struct BlockEncoding {
  std::vector<std::uint32_t> codes;  // one per element, canonical order
  Bytes mode_bits;  // 1 bit per block: regression plane used?
  Bytes coeffs;     // RegressionCoeffs for regression blocks, in order
  Bytes unpred;     // raw T values for unpredictable points, in order
};

// Compresses one field (or slab). `quant_param` is the quantizer's
// field-dependent parameter (see make_quantizer); pass 0 for the linear
// quantizers. The encoder predicts from the values the decoder will
// reconstruct. When `recon` is non-null that buffer is built as the field
// moved into it (no copy), holding exactly what block_decompress of the
// encoding yields, byte for byte; otherwise it lives in pooled scratch.
BlockEncoding block_compress(const Field& field, double abs_eb,
                             BlockPredictor pred, QuantizerId quant,
                             double quant_param, Field* recon = nullptr);

// Reconstructs the field `header` describes from streams produced by
// block_compress with the same (dims, abs_eb, pred, quant, quant_param)
// into the header.num_elements() elements of header.dtype that start at
// element `offset` of `out`. Writes each of them exactly once and reads
// none before writing it (chunking.h's kernel contract), so `out` may
// start unfilled. Throws CorruptStream on truncated or inconsistent
// streams.
void block_decompress_into(const BlobHeader& header, BlockPredictor pred,
                           QuantizerId quant, double quant_param,
                           std::span<const std::uint32_t> codes,
                           std::span<const std::byte> mode_bits,
                           ByteReader& coeffs, ByteReader& unpred, Field& out,
                           std::size_t offset);

// The same reconstruction as a field of its own, named header.codec.
Field block_decompress(const BlobHeader& header, BlockPredictor pred,
                       QuantizerId quant, double quant_param,
                       std::span<const std::uint32_t> codes,
                       std::span<const std::byte> mode_bits,
                       ByteReader& coeffs, ByteReader& unpred);

// Windowed decode: writes the values inside `box` (in the coordinates of
// header.dims), bit-identical to block_decompress followed by a crop, to
// the box.num_elements() elements of header.dtype that start at element
// `offset` of `out`, in the box's row-major order. Reconstructs only the
// box's lower cone [0, hi) rounded up to whole blocks, in pooled scratch;
// the streams of the other blocks are skipped, not decoded. A box that is
// the whole field decodes straight into `out`. Every stream's total
// demand is checked first, so it throws exactly when block_decompress
// throws on the same streams (InvalidArgument when the box lies outside
// header.dims). Returns the number of elements reconstructed.
std::size_t block_decompress_region(const BlobHeader& header,
                                    BlockPredictor pred, QuantizerId quant,
                                    double quant_param,
                                    std::span<const std::uint32_t> codes,
                                    std::span<const std::byte> mode_bits,
                                    ByteReader& coeffs, ByteReader& unpred,
                                    const Region& box, Field& out,
                                    std::size_t offset);

// Reconstructs nothing; throws CorruptStream exactly when block_decompress
// would throw on these streams. Lets a windowed reader skip a whole slab
// without weakening validation.
void block_check_streams(const BlobHeader& header, BlockPredictor pred,
                         std::span<const std::uint32_t> codes,
                         std::span<const std::byte> mode_bits,
                         const ByteReader& coeffs, const ByteReader& unpred);

}  // namespace eblcio
