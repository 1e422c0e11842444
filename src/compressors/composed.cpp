#include "compressors/composed.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "compressors/backend.h"
#include "compressors/block_core.h"
#include "compressors/chunking.h"
#include "compressors/interp_core.h"

namespace eblcio {
namespace {

// Composed chunk payloads open with a component header so every chunk is
// independently self-describing (and forgeries are caught before any
// stream is parsed): [u8 version][u8 pred][u8 quant][u8 enc][f64 param].
constexpr std::uint8_t kComposedVersion = 1;

bool is_interp(PredictorId p) {
  return p == PredictorId::kInterpLinear || p == PredictorId::kInterpCubic;
}

BlockPredictor block_predictor_for(PredictorId p) {
  switch (p) {
    case PredictorId::kLorenzo1: return BlockPredictor::kLorenzo1;
    case PredictorId::kLorenzo2: return BlockPredictor::kLorenzo2;
    case PredictorId::kRegression: return BlockPredictor::kRegression;
    default: break;
  }
  throw InvalidArgument("not a block-family predictor");
}

InterpConfig interp_config_for(const ComposedConfig& c, double quant_param) {
  InterpConfig cfg;  // auto anchor stride, gamma 1.0 (the SZ3 defaults)
  cfg.cubic = c.predictor == PredictorId::kInterpCubic;
  cfg.quantizer = c.quantizer;
  cfg.quant_param = quant_param;
  return cfg;
}

// Wire tags each encoder component may legitimately emit (huffman-lz picks
// the smaller of its two stages per stream).
bool backend_tag_matches(EncoderId enc, std::uint8_t tag) {
  switch (enc) {
    case EncoderId::kHuffman: return tag == kBackendHuffmanCanonical;
    case EncoderId::kHuffmanLut: return tag == kBackendHuffman;
    case EncoderId::kHuffmanLz:
      return tag == kBackendHuffman || tag == kBackendHuffmanLz;
    case EncoderId::kLz: return tag == kBackendLzRaw;
    case EncoderId::kRaw: return tag == kBackendRaw;
  }
  return false;
}

void write_component_header(Bytes& out, const ComposedConfig& c,
                            double quant_param) {
  out.reserve(out.size() + 12);
  append_pod<std::uint8_t>(out, kComposedVersion);
  append_pod<std::uint8_t>(out, static_cast<std::uint8_t>(c.predictor));
  append_pod<std::uint8_t>(out, static_cast<std::uint8_t>(c.quantizer));
  append_pod<std::uint8_t>(out, static_cast<std::uint8_t>(c.encoder));
  append_pod<double>(out, quant_param);
}

// Reads and fully validates the component header: ids must be in range
// AND equal to the configuration this compressor was built with — a blob
// whose payload names a different triple than its BlobHeader codec string
// is corrupt, not merely misrouted.
double read_component_header(ByteReader& r, const ComposedConfig& expect) {
  EBLCIO_CHECK_STREAM(r.read_pod<std::uint8_t>() == kComposedVersion,
                      "composed: bad payload version");
  const auto pred = r.read_pod<std::uint8_t>();
  const auto quant = r.read_pod<std::uint8_t>();
  const auto enc = r.read_pod<std::uint8_t>();
  EBLCIO_CHECK_STREAM(pred < kNumPredictors, "composed: bad predictor id");
  EBLCIO_CHECK_STREAM(quant < kNumQuantizers, "composed: bad quantizer id");
  EBLCIO_CHECK_STREAM(enc < kNumEncoders, "composed: bad encoder id");
  EBLCIO_CHECK_STREAM(
      static_cast<PredictorId>(pred) == expect.predictor &&
          static_cast<QuantizerId>(quant) == expect.quantizer &&
          static_cast<EncoderId>(enc) == expect.encoder,
      "composed: component/payload mismatch");
  const double quant_param = r.read_pod<double>();
  EBLCIO_CHECK_STREAM(std::isfinite(quant_param),
                      "composed: bad quantizer parameter");
  return quant_param;
}

// Decodes the encoder blob, checking its wire tag against the declared
// encoder component first (decode_code_stream would accept any valid tag).
std::vector<std::uint32_t> decode_codes_checked(ByteReader& r,
                                                EncoderId enc) {
  const auto rest = r.remaining();
  EBLCIO_CHECK_STREAM(!rest.empty(), "composed: missing code stream");
  EBLCIO_CHECK_STREAM(
      backend_tag_matches(enc, static_cast<std::uint8_t>(rest[0])),
      "composed: encoder/payload mismatch");
  return decode_code_stream(r);
}

// The quantizer's field-dependent parameter, computed once over the whole
// field (not per chunk, so serial and chunked blobs quantize identically).
double quant_param_for(QuantizerId q, const Field& field) {
  if (q != QuantizerId::kLog) return 0.0;
  const auto range = field.value_range();
  return std::max(std::fabs(range.min), std::fabs(range.max));
}

}  // namespace

std::string composed_codec_name(const ComposedConfig& config) {
  std::string name = "composed:";
  name += predictor_name(config.predictor);
  name += '+';
  name += quantizer_name(config.quantizer);
  name += '+';
  name += encoder_name(config.encoder);
  return name;
}

std::optional<ComposedConfig> parse_composed_codec_name(
    const std::string& name) {
  constexpr std::string_view kPrefix = "composed:";
  std::string_view s(name);
  if (!s.starts_with(kPrefix)) return std::nullopt;
  s.remove_prefix(kPrefix.size());

  const auto plus1 = s.find('+');
  if (plus1 == std::string_view::npos) return std::nullopt;
  const auto plus2 = s.find('+', plus1 + 1);
  if (plus2 == std::string_view::npos) return std::nullopt;
  if (s.find('+', plus2 + 1) != std::string_view::npos) return std::nullopt;

  const auto pred = parse_predictor(s.substr(0, plus1));
  const auto quant = parse_quantizer(s.substr(plus1 + 1, plus2 - plus1 - 1));
  const auto enc = parse_encoder(s.substr(plus2 + 1));
  if (!pred || !quant || !enc) return std::nullopt;
  return ComposedConfig{*pred, *quant, *enc};
}

std::vector<ComposedConfig> all_composed_configs() {
  std::vector<ComposedConfig> grid;
  grid.reserve(static_cast<std::size_t>(kNumPredictors) * kNumQuantizers *
               kNumEncoders);
  for (int p = 0; p < kNumPredictors; ++p)
    for (int q = 0; q < kNumQuantizers; ++q)
      for (int e = 0; e < kNumEncoders; ++e)
        grid.push_back(ComposedConfig{static_cast<PredictorId>(p),
                                      static_cast<QuantizerId>(q),
                                      static_cast<EncoderId>(e)});
  return grid;
}

ComposedCompressor::ComposedCompressor(const ComposedConfig& config)
    : config_(config), name_(composed_codec_name(config)) {}

CompressorCaps ComposedCompressor::caps() const {
  // Every component pair handles 1D-4D; chunked slab parallelism applies
  // uniformly (the framework has no per-dimensionality OpenMP gaps to
  // mirror, unlike the reference SZ2 binary).
  CompressorCaps c;
  c.lossless = false;
  c.min_dims = 1;
  c.max_dims = 4;
  c.parallel_dims_mask = 0xF;
  c.parallel_decompress = true;
  return c;
}

Bytes ComposedCompressor::compress(const Field& field,
                                   const CompressOptions& opt,
                                   Field* /*recon*/) {
  EBLCIO_CHECK_ARG(opt.mode != BoundMode::kLossless,
                   "composed codecs are error-bounded lossy compressors");

  const BlobHeader header = lossy_header(name_, field, opt);

  const double quant_param = quant_param_for(config_.quantizer, field);

  return compress_chunked(
      header, field, opt,
      [this, quant_param](const Field& slab, const BlobHeader& hdr,
                          Field* /*recon*/) {
        Bytes payload;
        write_component_header(payload, config_, quant_param);
        if (is_interp(config_.predictor)) {
          const InterpEncoding enc = interp_compress(
              slab, hdr.abs_error_bound,
              interp_config_for(config_, quant_param));
          append_pod<std::uint64_t>(payload, enc.codes.size());
          append_sized(payload, enc.anchors);
          append_sized(payload, enc.unpred);
          Bytes code_blob =
              encode_codes_with(config_.encoder, enc.codes, kQuantAlphabet);
          append_bytes(payload, code_blob);
          BufferPool::global().release(std::move(code_blob));
        } else {
          const BlockEncoding enc = block_compress(
              slab, hdr.abs_error_bound,
              block_predictor_for(config_.predictor), config_.quantizer,
              quant_param);
          append_pod<std::uint64_t>(payload, enc.codes.size());
          append_sized(payload, enc.mode_bits);
          append_sized(payload, enc.coeffs);
          append_sized(payload, enc.unpred);
          Bytes code_blob =
              encode_codes_with(config_.encoder, enc.codes, kQuantAlphabet);
          append_bytes(payload, code_blob);
          BufferPool::global().release(std::move(code_blob));
        }
        return payload;
      });
}

std::size_t ComposedCompressor::decompress_into(
    std::span<const std::byte> blob, Field& out, std::size_t row_start,
    const Window& window, int threads) {
  return decompress_chunked_into(blob, threads, kernel(), out, row_start,
                                 window);
}

PayloadDecompressFn ComposedCompressor::kernel() const {
  return [this](const BlobHeader& hdr, std::span<const std::byte> payload,
                Field& out, std::size_t offset) {
    ByteReader r(payload);
    const double quant_param = read_component_header(r, config_);
    if (is_interp(config_.predictor)) {
      const auto ncodes = r.read_pod<std::uint64_t>();
      const auto anchors = read_sized(r);
      const auto unpred = read_sized(r);
      const auto codes = decode_codes_checked(r, config_.encoder);
      EBLCIO_CHECK_STREAM(codes.size() == ncodes,
                          "composed: code count mismatch");
      interp_decompress_into(hdr, interp_config_for(config_, quant_param),
                             codes, anchors, unpred, out, offset);
      return;
    }
    const auto ncodes = r.read_pod<std::uint64_t>();
    // Block payloads carry one code per element; a mismatched count
    // can only be corruption.
    EBLCIO_CHECK_STREAM(ncodes == hdr.num_elements(),
                        "composed: code count mismatch");
    const auto mode_bits = read_sized(r);
    const auto coeffs_bytes = read_sized(r);
    const auto unpred_bytes = read_sized(r);
    const auto codes = decode_codes_checked(r, config_.encoder);
    EBLCIO_CHECK_STREAM(codes.size() == ncodes,
                        "composed: code count mismatch");
    ByteReader coeffs(coeffs_bytes);
    ByteReader unpred(unpred_bytes);
    block_decompress_into(hdr, block_predictor_for(config_.predictor),
                          config_.quantizer, quant_param, codes, mode_bits,
                          coeffs, unpred, out, offset);
  };
}

}  // namespace eblcio
