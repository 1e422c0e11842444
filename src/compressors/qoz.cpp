#include "compressors/qoz.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.h"
#include "compressors/chunking.h"
#include "compressors/interp_core.h"
#include "metrics/error_stats.h"

namespace eblcio {
namespace {

// Candidate level-gamma settings trialed by the auto-tuner. gamma < 1
// tightens coarse-level bounds (QoZ's level-wise error control).
constexpr std::array<double, 3> kGammaCandidates = {1.0, 0.7, 0.5};

InterpConfig qoz_base_config() {
  InterpConfig c;
  c.anchor_stride = 64;  // dense anchor grid, stored exactly
  c.cubic = true;
  return c;
}

// Extracts a centered sample sub-field (up to 48 per dimension) used by the
// tuning trials.
template <typename T>
Field sample_region(const Field& field) {
  const NdArray<T>& arr = field.as<T>();
  const Shape& s = arr.shape();
  const int nd = s.ndims();
  std::vector<std::size_t> dims(nd), start(nd);
  for (int d = 0; d < nd; ++d) {
    dims[d] = std::min<std::size_t>(s.dim(d), 48);
    start[d] = (s.dim(d) - dims[d]) / 2;
  }
  NdArray<T> sample(Shape{std::span<const std::size_t>(dims)});
  const auto src_strides = s.strides();
  const auto dst_strides = sample.shape().strides();
  std::array<std::size_t, kMaxDims> c{};
  const std::size_t total = sample.num_elements();
  for (std::size_t lin = 0; lin < total; ++lin) {
    std::size_t rem = lin;
    std::size_t src = 0;
    for (int d = 0; d < nd; ++d) {
      c[d] = rem / dst_strides[d];
      rem %= dst_strides[d];
      src += (start[d] + c[d]) * src_strides[d];
    }
    sample[lin] = arr.data()[src];
  }
  return Field(field.name(), std::move(sample));
}

// Trials each gamma candidate on the sample and returns the config with the
// best quality/size score: highest compression ratio among candidates within
// 1 dB of the best PSNR observed.
InterpConfig tune_config(const Field& field, double abs_eb) {
  Field sample = field.dtype() == DType::kFloat32
                     ? sample_region<float>(field)
                     : sample_region<double>(field);

  struct Trial {
    InterpConfig config;
    double psnr = 0.0;
    double bits_per_value = 64.0;
  };
  std::vector<Trial> trials;
  BlobHeader sample_header;
  sample_header.codec = "QoZ";
  sample_header.dtype = sample.dtype();
  sample_header.dims = sample.shape().dims_vector();
  sample_header.abs_error_bound = abs_eb;

  for (double gamma : kGammaCandidates) {
    Trial t;
    t.config = qoz_base_config();
    t.config.level_gamma = gamma;
    const InterpEncoding enc = interp_compress(sample, abs_eb, t.config);
    const Bytes payload = interp_payload_encode(t.config, enc);
    Field recon = interp_decompress(sample_header, t.config,
                                    std::span(enc.codes), enc.anchors,
                                    enc.unpred);
    const ErrorStats st = compute_error_stats(sample, recon);
    t.psnr = st.psnr_db;
    t.bits_per_value = 8.0 * static_cast<double>(payload.size()) /
                       static_cast<double>(sample.num_elements());
    trials.push_back(t);
  }

  double best_psnr = 0.0;
  for (const Trial& t : trials) best_psnr = std::max(best_psnr, t.psnr);
  const Trial* best = &trials.front();
  for (const Trial& t : trials)
    if (t.psnr >= best_psnr - 1.0 &&
        t.bits_per_value < best->bits_per_value)
      best = &t;
  return best->config;
}

Bytes qoz_payload_compress(const Field& field, const BlobHeader& header,
                           const CompressOptions&) {
  const InterpConfig config = tune_config(field, header.abs_error_bound);
  const InterpEncoding enc =
      interp_compress(field, header.abs_error_bound, config);
  return interp_payload_encode(config, enc);
}

}  // namespace

Bytes QozCompressor::compress(const Field& field, const CompressOptions& opt) {
  EBLCIO_CHECK_ARG(opt.mode != BoundMode::kLossless,
                   "QoZ is an error-bounded lossy compressor");
  if (field.ndims() < 2)
    throw Unsupported("QoZ is not capable of compressing 1D data");
  return compress_chunked(lossy_header(name(), field, opt), field, opt,
                          qoz_payload_compress);
}

Field QozCompressor::decompress(std::span<const std::byte> blob,
                                int threads) {
  return decompress_chunked(blob, threads, interp_payload_decompress);
}

}  // namespace eblcio
