// Compression advisor: the "actionable takeaways" engine from the paper's
// discussion (Sec. VII) turned into an API. Given a field, a quality floor
// and an optimization objective, it trials the EBLC suite on a sampled
// sub-region and recommends compressor + error bound.
//
// Reentrancy / thread-safety (audited): advise_compression may be called
// concurrently from any threads, and its internal codec×bound trials run
// as concurrent sweep cells by default. This is safe because every trial
// owns its state: the sampled sub-region is built once and then only read,
// codec singletons from compressors/compressor.h are stateless across
// calls, each cell constructs its own PowercapMonitor (itself lock-
// protected), and scores/sorting happen after the sweep on the caller's
// thread. The sweep starts the tightest-bound trials first (they are the
// slowest), but that only changes when a trial runs: candidate order in
// the report is deterministic, because cells are collected and streamed in
// domain (codec-major, bound-minor) order and stable-sorted by score, so
// equal-score ties never depend on execution interleaving.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/field.h"
#include "core/experiment.h"

namespace eblcio {

enum class Objective {
  kMinEnergy,   // favour SZx/ZFP-style cheap compression
  kMaxRatio,    // favour SZ3/QoZ-style aggressive reduction
  kBalanced,    // ratio per joule
};

struct AdvisorConstraints {
  double psnr_min_db = 60.0;           // Eq. 5 floor
  Objective objective = Objective::kBalanced;
  std::vector<double> error_bounds = {1e-1, 1e-2, 1e-3, 1e-4, 1e-5};
  std::vector<std::string> codecs;     // empty = all five EBLCs
  std::string cpu = "9480";
  // Sweep execution: trials fan out as cells on sweep threads (one per
  // executor worker) by default; parallel = false runs them in order on the
  // calling thread (identical results — cells are independent and
  // deterministic apart from measured kernel time).
  bool parallel = true;
  // When set, each trial's compression is timed under the Sec. IV-C
  // repetition protocol and the mean kernel time feeds the energy model.
  std::optional<RepeatConfig> repeat;
};

struct AdvisorCandidate {
  std::string codec;
  double error_bound = 0.0;
  double ratio = 0.0;
  double psnr_db = 0.0;
  double compress_j = 0.0;   // on the sample, platform-modeled
  double score = 0.0;
  bool feasible = false;     // meets the PSNR floor
};

struct AdvisorReport {
  std::vector<AdvisorCandidate> candidates;  // sorted by descending score
  // The winner (first feasible candidate); empty codec if none feasible.
  AdvisorCandidate recommendation;
};

// Streaming hook: called once per evaluated (codec, bound) trial, in
// domain order, with running progress — incremental tables hang off this.
// `done`/`total` count trials, including ones a codec rejected.
using AdvisorProgressFn = std::function<void(
    const AdvisorCandidate& candidate, std::size_t done, std::size_t total)>;

// Trials every (codec, bound) pair on a centered sample of `field` (fast)
// and ranks them under the constraints. Trials execute as a grid sweep on
// sweep threads (see core/sweep.h and constraints.parallel). A trial scores
// its PSNR on the reconstruction the codec's encoder builds inside the
// timed compress (Compressor::compress's `recon`), which for SZ2, SZ3 and
// QoZ is byte for byte what decoding the blob gives, so those trials skip
// the decode; ZFP and SZx trials still decode their blobs.
AdvisorReport advise_compression(const Field& field,
                                 const AdvisorConstraints& constraints,
                                 const AdvisorProgressFn& on_trial = nullptr);

}  // namespace eblcio
