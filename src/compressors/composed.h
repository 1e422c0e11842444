// Composable predictor x quantizer x encoder codec framework.
//
// Every error-bounded pipeline in the SZ family is the same three stages —
// predict, quantize the residual, entropy-encode the codes — hard-wired
// per codec. This seam makes each stage a pluggable component selected at
// construction time (the SZ3 SZ_General_Compressor shape): a
// ComposedCompressor is one point of the predictor x quantizer x encoder
// grid, registered under the codec name
//
//   composed:<predictor>+<quantizer>+<encoder>
//
// e.g. "composed:lorenzo1+linear-recip+huffman-lz" (the SZ2-equivalent
// Lorenzo path) or "composed:interp-cubic+log+raw". Blobs are
// self-describing: the standard BlobHeader carries the composed codec name
// and each chunk payload repeats the component triple, so decompress_any()
// reconstructs a Field from the blob alone and a forged or mismatched
// component id is detected as CorruptStream before any payload is touched.
//
// The compressor(name) registry materializes composed configurations on
// demand — any of the grid's combinations is sweepable by name through
// advise_compression and the bench harness without prior registration.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "compressors/chunking.h"
#include "compressors/components.h"
#include "compressors/compressor.h"

namespace eblcio {

struct ComposedConfig {
  PredictorId predictor = PredictorId::kLorenzo1;
  QuantizerId quantizer = QuantizerId::kLinearRecip;
  EncoderId encoder = EncoderId::kHuffmanLz;

  friend bool operator==(const ComposedConfig&,
                         const ComposedConfig&) = default;
};

// "composed:<pred>+<quant>+<enc>" for the triple.
std::string composed_codec_name(const ComposedConfig& config);

// Inverse of composed_codec_name; nullopt when `name` is not a well-formed
// composed codec name (wrong prefix, unknown component, wrong arity).
std::optional<ComposedConfig> parse_composed_codec_name(
    const std::string& name);

// The full grid, predictor-major — kNumPredictors * kNumQuantizers *
// kNumEncoders configurations.
std::vector<ComposedConfig> all_composed_configs();

class ComposedCompressor : public Compressor {
 public:
  explicit ComposedCompressor(const ComposedConfig& config);

  std::string name() const override { return name_; }
  CompressorCaps caps() const override;
  Bytes compress(const Field& field, const CompressOptions& opt,
                 Field* recon) override;
  std::size_t decompress_into(std::span<const std::byte> blob, Field& out,
                              std::size_t row_start, const Window& window,
                              int threads) override;

 private:
  // The chunk decode kernel: checks the payload's component header and
  // code stream against config_, then reconstructs into its rows.
  PayloadDecompressFn kernel() const;

  ComposedConfig config_;
  std::string name_;
};

}  // namespace eblcio
