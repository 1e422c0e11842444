// Multi-level multidimensional interpolation engine shared by SZ3 and QoZ.
//
// Implements the SZ3 prediction scheme (Zhao et al., ICDE'21): values on a
// coarse power-of-two anchor grid are stored exactly; each refinement level
// halves the stride, predicting the new grid points by cubic (or linear)
// spline interpolation along one dimension at a time from already-
// reconstructed neighbours, then quantizing the residual. QoZ reuses the
// same engine with per-level error-bound tuning and a denser anchor grid.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/field.h"
#include "compressors/components.h"
#include "compressors/compressor.h"

namespace eblcio {

struct InterpConfig {
  // Anchor-grid stride (power of two). 0 = auto: smallest power of two
  // >= every dimension (a single anchor when dims are powers of two).
  std::size_t anchor_stride = 0;
  // Per-level error-bound multiplier: eb(level) = abs_eb * pow(level_gamma,
  // level - 1) with gamma <= 1 tightening coarse levels (QoZ); 1.0 = SZ3.
  double level_gamma = 1.0;
  // Cubic (4-point) vs linear (2-point) interpolation.
  bool cubic = true;
  // Quantizer component for the residual stage. The default reproduces
  // the legacy SZ3/QoZ pipeline exactly; the composed framework selects
  // others. NOT serialized by interp_payload_encode (the legacy SZ3/QoZ
  // payload is frozen) — composed blobs carry these in their own payload.
  QuantizerId quantizer = QuantizerId::kLinearRecip;
  double quant_param = 0.0;  // field-dependent parameter (log: peak |x|)
};

struct InterpEncoding {
  std::vector<std::uint32_t> codes;  // quantization codes, traversal order
  Bytes anchors;                      // exact anchor values (raw T)
  Bytes unpred;                       // exact unpredictable values (raw T)
  std::uint32_t alphabet_size = 0;
};

// Compresses one field (or slab); deterministic traversal so decompression
// can mirror it from (dims, abs_eb, config) alone. The encoder predicts
// from the values the decoder will reconstruct; when `recon` is non-null
// that buffer is moved into it (no copy), holding exactly what
// interp_decompress of the encoding yields, byte for byte — a tuner can
// score a trial without decoding it.
InterpEncoding interp_compress(const Field& field, double abs_eb,
                               const InterpConfig& config,
                               Field* recon = nullptr);

// Reconstructs the field `header` describes from an InterpEncoding
// produced with identical (dims, abs_eb, config) into the
// header.num_elements() elements of header.dtype that start at element
// `offset` of `out`. Writes each of them exactly once and reads none
// before writing it (chunking.h's kernel contract), so `out` may start
// unfilled. Throws CorruptStream on a stream that ends early or runs long.
void interp_decompress_into(const BlobHeader& header,
                            const InterpConfig& config,
                            std::span<const std::uint32_t> codes,
                            std::span<const std::byte> anchors,
                            std::span<const std::byte> unpred, Field& out,
                            std::size_t offset);

// The same reconstruction as a field of its own, named header.codec.
Field interp_decompress(const BlobHeader& header, const InterpConfig& config,
                        std::span<const std::uint32_t> codes,
                        std::span<const std::byte> anchors,
                        std::span<const std::byte> unpred);

// Serialization helpers shared by SZ3 and QoZ: payload =
//   [config] [ncodes] [anchors] [unpred] [code stream backend blob].
Bytes interp_payload_encode(const InterpConfig& config,
                            const InterpEncoding& enc);
struct InterpPayload {
  InterpConfig config;
  std::vector<std::uint32_t> codes;
  std::span<const std::byte> anchors;
  std::span<const std::byte> unpred;
};
InterpPayload interp_payload_decode(std::span<const std::byte> payload);

// Decodes one SZ3 or QoZ payload (interp_payload_encode's layout) into
// `out` at element `offset`: the payload kernel both codecs hand to
// decompress_chunked_into.
void interp_payload_decompress(const BlobHeader& header,
                               std::span<const std::byte> payload, Field& out,
                               std::size_t offset);

}  // namespace eblcio
