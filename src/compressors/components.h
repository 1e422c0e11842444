// Component vocabulary for the composable codec framework
// (compressors/composed.h): wire-stable identifiers for the prediction,
// quantization, and encoding stages an error-bounded pipeline is built
// from, plus the name tables that turn a component triple into a codec
// string ("composed:lorenzo1+linear+huffman") and back.
//
// This header is deliberately free-standing (no compressor/backend
// includes) so every stage implementation — backend.h, block_core.h,
// interp_core.h — can name components without include cycles.
//
// Wire stability: the numeric values below are serialized into composed
// blob payloads. Add new components at the END of an enum; never renumber
// or remove entries (see src/compressors/README.md).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/error.h"
#include "compressors/quantizer.h"

namespace eblcio {

// Shared quantization-code geometry: every composed pipeline (and the
// legacy SZ2/SZ3/QoZ paths) uses radius-32768 codes, so the entropy stage
// always sees the same 65537-symbol alphabet with code 0 reserved for
// "unpredictable, stored exactly".
inline constexpr std::uint32_t kQuantRadius = 32768;
inline constexpr std::uint32_t kQuantAlphabet = 2 * kQuantRadius + 1;

enum class PredictorId : std::uint8_t {
  kLorenzo1 = 0,      // 1-layer Lorenzo stencil (SZ2's non-regression path)
  kLorenzo2 = 1,      // 2-layer Lorenzo stencil (quadratic extrapolation)
  kRegression = 2,    // per-block least-squares plane (SZ2's other mode)
  kInterpLinear = 3,  // multi-level linear interpolation (SZ3 family)
  kInterpCubic = 4,   // multi-level cubic interpolation (SZ3 default)
};
inline constexpr int kNumPredictors = 5;

enum class QuantizerId : std::uint8_t {
  kLinear = 0,       // linear grid, correctly-rounded divide
  kLinearRecip = 1,  // linear grid, reciprocal multiply (production SZ path)
  kLog = 2,          // sign-symmetric log-domain grid
};
inline constexpr int kNumQuantizers = 3;

enum class EncoderId : std::uint8_t {
  kHuffman = 0,     // canonical Huffman (wire tag 4), LUT decode
  kHuffmanLut = 1,  // canonical Huffman (wire tag 0), LUT decode
  kHuffmanLz = 2,   // Huffman then LZ77, smaller of the two (legacy SZ)
  kLz = 3,          // LZ77 over width-packed raw codes
  kRaw = 4,         // width-packed raw codes, no entropy stage
};
inline constexpr int kNumEncoders = 5;

// --- name tables -----------------------------------------------------------

inline std::string_view predictor_name(PredictorId p) {
  switch (p) {
    case PredictorId::kLorenzo1: return "lorenzo1";
    case PredictorId::kLorenzo2: return "lorenzo2";
    case PredictorId::kRegression: return "regression";
    case PredictorId::kInterpLinear: return "interp-linear";
    case PredictorId::kInterpCubic: return "interp-cubic";
  }
  throw InvalidArgument("bad predictor id");
}

inline std::string_view quantizer_name(QuantizerId q) {
  switch (q) {
    case QuantizerId::kLinear: return "linear";
    case QuantizerId::kLinearRecip: return "linear-recip";
    case QuantizerId::kLog: return "log";
  }
  throw InvalidArgument("bad quantizer id");
}

inline std::string_view encoder_name(EncoderId e) {
  switch (e) {
    case EncoderId::kHuffman: return "huffman";
    case EncoderId::kHuffmanLut: return "huffman-lut";
    case EncoderId::kHuffmanLz: return "huffman-lz";
    case EncoderId::kLz: return "lz";
    case EncoderId::kRaw: return "raw";
  }
  throw InvalidArgument("bad encoder id");
}

inline std::optional<PredictorId> parse_predictor(std::string_view s) {
  for (int i = 0; i < kNumPredictors; ++i) {
    const auto id = static_cast<PredictorId>(i);
    if (s == predictor_name(id)) return id;
  }
  return std::nullopt;
}

inline std::optional<QuantizerId> parse_quantizer(std::string_view s) {
  for (int i = 0; i < kNumQuantizers; ++i) {
    const auto id = static_cast<QuantizerId>(i);
    if (s == quantizer_name(id)) return id;
  }
  return std::nullopt;
}

inline std::optional<EncoderId> parse_encoder(std::string_view s) {
  for (int i = 0; i < kNumEncoders; ++i) {
    const auto id = static_cast<EncoderId>(i);
    if (s == encoder_name(id)) return id;
  }
  return std::nullopt;
}

// --- quantizer construction ------------------------------------------------

// Uniform constructor facade over the quantizer types (they differ in
// whether they take the field-dependent parameter): lets kernels templated
// over the quantizer type build per-level instances from (eb, param) pairs.
// `param` is the quantizer's field-dependent parameter — peak magnitude for
// the log quantizer, ignored by the linear ones — and travels in the
// composed blob payload so decode rebuilds the identical instance.
template <typename Q>
Q make_quantizer(double abs_eb, double param, std::uint32_t radius);

template <>
inline LinearQuantizer make_quantizer<LinearQuantizer>(double abs_eb, double,
                                                       std::uint32_t radius) {
  return LinearQuantizer(abs_eb, radius);
}

template <>
inline DivLinearQuantizer make_quantizer<DivLinearQuantizer>(
    double abs_eb, double, std::uint32_t radius) {
  return DivLinearQuantizer(abs_eb, radius);
}

template <>
inline LogQuantizer make_quantizer<LogQuantizer>(double abs_eb, double param,
                                                 std::uint32_t radius) {
  return LogQuantizer(abs_eb, param, radius);
}

// Runtime -> compile-time quantizer dispatch: invokes fn with a quantizer
// instance whose static type identifies the component, and returns fn's
// result. The per-stage kernels instantiate once per quantizer type, so
// the id is resolved exactly once per (de)compression call, never per
// element.
template <typename Fn>
auto with_quantizer(QuantizerId id, double abs_eb, double param, Fn&& fn) {
  switch (id) {
    case QuantizerId::kLinear:
      return fn(make_quantizer<DivLinearQuantizer>(abs_eb, param,
                                                   kQuantRadius));
    case QuantizerId::kLinearRecip:
      return fn(make_quantizer<LinearQuantizer>(abs_eb, param, kQuantRadius));
    case QuantizerId::kLog:
      return fn(make_quantizer<LogQuantizer>(abs_eb, param, kQuantRadius));
  }
  throw InvalidArgument("bad quantizer id");
}

}  // namespace eblcio
