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

// Trials each gamma candidate on the sample and returns the config with the
// best quality/size score: highest compression ratio among candidates within
// 1 dB of the best PSNR observed.
InterpConfig tune_config(const Field& field, double abs_eb) {
  const Field sample = centered_sample(field, 48);

  struct Trial {
    InterpConfig config;
    double psnr = 0.0;
    double bits_per_value = 64.0;
  };
  std::vector<Trial> trials;
  for (double gamma : kGammaCandidates) {
    Trial t;
    t.config = qoz_base_config();
    t.config.level_gamma = gamma;
    // The encoder's own reconstruction is what decoding the trial would
    // give, so the trial is scored without a decode.
    Field recon;
    const InterpEncoding enc =
        interp_compress(sample, abs_eb, t.config, &recon);
    const Bytes payload = interp_payload_encode(t.config, enc);
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
                           Field* recon) {
  const InterpConfig config = tune_config(field, header.abs_error_bound);
  const InterpEncoding enc =
      interp_compress(field, header.abs_error_bound, config, recon);
  return interp_payload_encode(config, enc);
}

}  // namespace

Bytes QozCompressor::compress(const Field& field, const CompressOptions& opt,
                              Field* recon) {
  EBLCIO_CHECK_ARG(opt.mode != BoundMode::kLossless,
                   "QoZ is an error-bounded lossy compressor");
  if (field.ndims() < 2)
    throw Unsupported("QoZ is not capable of compressing 1D data");
  return compress_chunked(lossy_header(name(), field, opt), field, opt,
                          qoz_payload_compress, recon);
}

std::size_t QozCompressor::decompress_into(std::span<const std::byte> blob,
                                           Field& out, std::size_t row_start,
                                           const Window& window, int threads) {
  return decompress_chunked_into(blob, threads, interp_payload_decompress,
                                 out, row_start, window);
}

}  // namespace eblcio
