#include "compressors/compressor.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <mutex>

#include "common/error.h"
#include "compressors/composed.h"
#include "compressors/lossless_blosc.h"
#include "compressors/lossless_fpc.h"
#include "compressors/lossless_fpzip.h"
#include "compressors/lossless_zl.h"
#include "compressors/qoz.h"
#include "compressors/sz2.h"
#include "compressors/sz3.h"
#include "compressors/szx.h"
#include "compressors/zone.h"
#include "compressors/zfp.h"

namespace eblcio {
namespace {

constexpr std::uint32_t kBlobMagic = 0x4f49424cu;  // "LBIO"

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

}  // namespace

bool Compressor::supports(const Field& field,
                          const CompressOptions& opt) const {
  const CompressorCaps c = caps();
  const int d = field.ndims();
  if (d < c.min_dims || d > c.max_dims) return false;
  if (opt.threads > 1 && !(c.parallel_dims_mask & (1u << (d - 1))))
    return false;
  if (opt.mode == BoundMode::kLossless && !c.lossless) return false;
  return true;
}

Field Compressor::decompress(std::span<const std::byte> blob, int threads) {
  const BlobHeader header = peek_header(blob);
  Field out = unfilled_field(header.codec, header.dtype,
                             Shape{std::span<const std::size_t>(header.dims)});
  decompress_into(blob, out, 0, std::nullopt, threads);
  return out;
}

void BlobHeader::encode(Bytes& out) const {
  append_pod<std::uint32_t>(out, kBlobMagic);
  append_string(out, codec);
  append_pod<std::uint8_t>(out, static_cast<std::uint8_t>(dtype));
  append_pod<std::uint8_t>(out, static_cast<std::uint8_t>(dims.size()));
  for (auto d : dims) append_pod<std::uint64_t>(out, d);
  append_pod<double>(out, abs_error_bound);
  append_pod<std::uint8_t>(out, static_cast<std::uint8_t>(requested_mode));
  append_pod<double>(out, requested_bound);
}

BlobHeader BlobHeader::decode(ByteReader& r) {
  EBLCIO_CHECK_STREAM(r.read_pod<std::uint32_t>() == kBlobMagic,
                      "bad blob magic");
  BlobHeader h;
  h.codec = r.read_string();
  const auto dtype = r.read_pod<std::uint8_t>();
  EBLCIO_CHECK_STREAM(dtype <= static_cast<std::uint8_t>(DType::kFloat64),
                      "bad blob dtype");
  h.dtype = static_cast<DType>(dtype);
  const int nd = r.read_pod<std::uint8_t>();
  EBLCIO_CHECK_STREAM(nd >= 1 && nd <= kMaxDims, "bad blob dims");
  for (int i = 0; i < nd; ++i)
    h.dims.push_back(static_cast<std::size_t>(r.read_pod<std::uint64_t>()));
  EBLCIO_CHECK_STREAM(checked_num_elements(h.dims, dtype_size(h.dtype)),
                      "bad blob dims: zero extent or element count "
                      "overflow");
  h.abs_error_bound = r.read_pod<double>();
  const auto mode = r.read_pod<std::uint8_t>();
  EBLCIO_CHECK_STREAM(mode <= static_cast<std::uint8_t>(BoundMode::kLossless),
                      "bad blob bound mode");
  h.requested_mode = static_cast<BoundMode>(mode);
  h.requested_bound = r.read_pod<double>();
  return h;
}

double absolute_bound_for(const Field& field, const CompressOptions& opt) {
  switch (opt.mode) {
    case BoundMode::kAbsolute:
      return opt.error_bound;
    case BoundMode::kValueRangeRel: {
      // A NaN first element or an infinity makes the span non-finite, and
      // no finite bound follows from it.
      const double span = field.value_range().span();
      if (!std::isfinite(span))
        throw Unsupported("value-range bound of a non-finite value range");
      return opt.error_bound * span;
    }
    case BoundMode::kLossless:
      return 0.0;
  }
  throw InvalidArgument("bad bound mode");
}

BlobHeader lossy_header(const std::string& codec, const Field& field,
                        const CompressOptions& opt) {
  BlobHeader h;
  h.codec = codec;
  h.dtype = field.dtype();
  h.dims = field.shape().dims_vector();
  h.abs_error_bound = absolute_bound_for(field, opt);
  h.requested_mode = opt.mode;
  h.requested_bound = opt.error_bound;
  return h;
}

Compressor& compressor(const std::string& name) {
  static std::map<std::string, std::unique_ptr<Compressor>> registry = [] {
    std::map<std::string, std::unique_ptr<Compressor>> m;
    auto add = [&m](std::unique_ptr<Compressor> c) {
      m[lower(c->name())] = std::move(c);
    };
    add(std::make_unique<Sz2Compressor>());
    add(std::make_unique<Sz3Compressor>());
    add(std::make_unique<ZfpCompressor>());
    add(std::make_unique<QozCompressor>());
    add(std::make_unique<SzxCompressor>());
    add(std::make_unique<ZlCompressor>());
    add(std::make_unique<BloscLikeCompressor>());
    add(std::make_unique<FpzipLikeCompressor>());
    add(std::make_unique<FpcCompressor>());
    return m;
  }();
  const std::string key = lower(name);
  auto it = registry.find(key);
  if (it != registry.end()) return *it->second;

  // Composed configurations are materialized on demand: any point of the
  // predictor x quantizer x encoder grid is addressable by name without
  // prior registration. std::map nodes are stable, so returned references
  // stay valid as the dynamic registry grows.
  if (const auto config = parse_composed_codec_name(key)) {
    static std::mutex mutex;
    static std::map<std::string, std::unique_ptr<ComposedCompressor>>
        composed_registry;
    std::lock_guard<std::mutex> lock(mutex);
    auto& slot = composed_registry[key];
    if (!slot) slot = std::make_unique<ComposedCompressor>(*config);
    return *slot;
  }
  throw InvalidArgument("unknown compressor: " + name);
}

const std::vector<std::string>& eblc_names() {
  static const std::vector<std::string> kNames = {"SZ2", "SZ3", "ZFP", "QoZ",
                                                  "SZx"};
  return kNames;
}

const std::vector<std::string>& lossless_names() {
  static const std::vector<std::string> kNames = {"zstd", "C-Blosc2", "fpzip",
                                                  "FPC"};
  return kNames;
}

std::vector<std::string> all_compressor_names() {
  std::vector<std::string> names = eblc_names();
  const auto& ll = lossless_names();
  names.insert(names.end(), ll.begin(), ll.end());
  return names;
}

Field decompress_any(std::span<const std::byte> blob, int threads) {
  ByteReader r(blob);
  const BlobHeader h = BlobHeader::decode(r);
  return compressor(h.codec).decompress(blob, threads);
}

std::size_t check_decode_target(const BlobHeader& header, const Field& out,
                                std::size_t row_start, const Window& window) {
  if (window) validate_region(*window, header.dims);
  const std::vector<std::size_t>& want = window ? window->shape : header.dims;
  const std::vector<std::size_t> dims = out.shape().dims_vector();
  EBLCIO_CHECK_STREAM(
      header.dtype == out.dtype() && want.size() == dims.size() &&
          std::equal(want.begin() + 1, want.end(), dims.begin() + 1) &&
          row_start <= dims[0] && want[0] <= dims[0] - row_start,
      "blob does not fit its destination rows");
  return row_start * (out.num_elements() / dims[0]);
}

std::size_t decode_window_into(const BlobHeader& header, Field& out,
                               std::size_t row_start, const Window& window,
                               const DecodeRowsFn& decode_rows) {
  const std::size_t offset =
      check_decode_target(header, out, row_start, window);
  if (!window || is_whole_region(*window, header.dims)) {
    decode_rows(out, offset);
  } else {
    Field full = unfilled_field(
        header.codec, header.dtype,
        Shape{std::span<const std::size_t>(header.dims)});
    decode_rows(full, 0);
    crop_into(full, *window, out, offset);
  }
  return header.num_elements();
}

std::size_t decompress_into_any(std::span<const std::byte> blob, Field& out,
                                std::size_t row_start, const Window& window,
                                int threads) {
  return compressor(peek_header(blob).codec)
      .decompress_into(blob, out, row_start, window, threads);
}

BlobHeader peek_header(std::span<const std::byte> blob) {
  ByteReader r(blob);
  return BlobHeader::decode(r);
}

}  // namespace eblcio
