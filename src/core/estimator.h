// zPerf-class gray-box compression estimation (the paper's ref. [51], Wang
// et al., ToC'23, and the CR-modeling line of its ref. [39]).
//
// Predicts compression ratio for a (codec, bound) pair from cheap sampled
// statistics of the field — no full compression run. Used to pre-screen
// sweeps and by capacity planning ("how many devices will I need?") where
// compressing petabytes to find out is not an option.
//
// Models (all operating on a strided sample of the field):
//  * SZ-family (SZ2/SZ3/QoZ): predict Lorenzo residuals on the sample,
//    quantize at the bound, and measure the empirical entropy of the code
//    histogram — bits/value ≈ H(codes) + side-channel overhead.
//  * SZx: per-block range statistics give the truncated-width distribution.
//  * ZFP: per-block leading exponents give the fixed-accuracy plane count
//    (emax - minexp + 2(d+1)) and the group-test overhead.
//
// Reentrancy / thread-safety (audited): estimation is a pure function of
// its inputs — no shared RNG, no shared scratch buffers, no mutable
// statics. estimate_ratio may be called concurrently, and a RatioSample
// (immutable once taken) may be shared by any number of concurrent grid
// cells; estimate_ratio_grid relies on exactly that.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/field.h"
#include "core/sweep.h"

namespace eblcio {

struct RatioEstimate {
  double bits_per_value = 0.0;
  double predicted_ratio = 0.0;
  std::size_t sampled_values = 0;
};

// Field statistics shared by every cell of a pre-screen sweep: taking the
// sample (and the O(N) value-range scan) once per field instead of once
// per (codec, bound) cell is what makes grid estimation cheap. Immutable
// after take(); safe to share across threads.
struct RatioSample {
  std::vector<double> values;  // contiguous-rows sample of the field
  std::size_t row_len = 1;
  double value_span = 0.0;     // max - min of the full field
  int raw_bits = 32;           // uncompressed bits per value
  int ndims = 1;

  static RatioSample take(const Field& field,
                          std::size_t max_sample = 262144);
};

// Estimates the compression ratio of `codec` on `field` at value-range
// relative bound `eb_rel`. `max_sample` caps the number of sampled values.
RatioEstimate estimate_ratio(const Field& field, const std::string& codec,
                             double eb_rel, std::size_t max_sample = 262144);

// Same estimate from a pre-taken sample (the per-cell work of a grid).
RatioEstimate estimate_ratio(const RatioSample& sample,
                             const std::string& codec, double eb_rel);

// One cell of a codec×bound pre-screen grid.
struct RatioGridEntry {
  std::string codec;
  double eb_rel = 0.0;
  RatioEstimate estimate;  // valid iff ok
  bool ok = false;
  std::string error;       // why the cell failed (unknown codec, bad bound)
};

// Pre-screens the codec×bound grid through the estimator, sampling the
// field once and fanning the cells out per `options` (default: parallel on
// sweep threads). Entries come back in domain (codec-major) order;
// `on_entry` streams them in that same order with running progress. A
// failing cell (e.g. a codec with no ratio model) is reported in its
// entry's `error` and never aborts the rest of the grid.
std::vector<RatioGridEntry> estimate_ratio_grid(
    const Field& field, const std::vector<std::string>& codecs,
    const std::vector<double>& bounds, std::size_t max_sample = 262144,
    const SweepOptions& options = {},
    const std::function<void(const RatioGridEntry&, std::size_t done,
                             std::size_t total)>& on_entry = nullptr);

}  // namespace eblcio
