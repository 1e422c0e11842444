#include "core/decision.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/timer.h"
#include "compressors/compressor.h"
#include "core/sweep.h"
#include "energy/powercap_monitor.h"
#include "metrics/error_stats.h"

namespace eblcio {
namespace {

double candidate_score(const AdvisorCandidate& c, Objective objective) {
  if (!c.feasible) return -1.0;
  switch (objective) {
    case Objective::kMinEnergy:
      return c.compress_j > 0 ? 1.0 / c.compress_j : 0.0;
    case Objective::kMaxRatio:
      return c.ratio;
    case Objective::kBalanced:
      return c.compress_j > 0 ? c.ratio / c.compress_j : c.ratio;
  }
  return 0.0;
}

// One (codec, bound) trial of the advisor grid.
struct TrialCell {
  Compressor* comp = nullptr;
  double error_bound = 0.0;
  // Trials slow down as the bound tightens (more quantization levels, more
  // unpredictable values, longer code streams: the paper's runtime trend),
  // so the parallel sweep starts the tightest bounds first.
  double cost() const {
    return error_bound > 0.0 ? -std::log10(error_bound) : 0.0;
  }
};

}  // namespace

AdvisorReport advise_compression(const Field& field,
                                 const AdvisorConstraints& constraints,
                                 const AdvisorProgressFn& on_trial) {
  // Shared read-only inputs of every cell: the sample is built once here
  // and only read by the trials (see the header's reentrancy note). A
  // centered sample (at most 64 per axis) keeps the advisor cheap even on
  // production-size fields.
  const Field sample = centered_sample(field, 64);
  const CpuModel& cpu = cpu_model(constraints.cpu);
  const std::vector<std::string>& codecs =
      constraints.codecs.empty() ? eblc_names() : constraints.codecs;

  std::vector<TrialCell> cells;
  for (const std::string& name : codecs) {
    Compressor& comp = compressor(name);
    for (double eb : constraints.error_bounds) {
      CompressOptions opt;
      opt.mode = BoundMode::kValueRangeRel;
      opt.error_bound = eb;
      if (!comp.supports(sample, opt)) continue;
      cells.push_back({&comp, eb});
    }
  }

  SweepOptions sweep;
  sweep.parallel = constraints.parallel;
  sweep.repeat = constraints.repeat;

  const std::size_t total = cells.size();
  std::size_t done = 0;  // mutated only by the serialized in-order emitter
  auto sweep_report = sweep_grid(
      std::move(cells),
      [&](const TrialCell& cell,
          SweepCellContext& ctx) -> std::optional<AdvisorCandidate> {
        CompressOptions opt;
        opt.mode = BoundMode::kValueRangeRel;
        opt.error_bound = cell.error_bound;

        AdvisorCandidate c;
        c.codec = cell.comp->name();
        c.error_bound = cell.error_bound;
        try {
          Bytes blob;
          Field recon;
          auto one_compress = [&] {
            recon = Field();  // compress wants an empty slot
            return timed_s(
                [&] { blob = cell.comp->compress(sample, opt, &recon); });
          };
          const double t = constraints.repeat
                               ? ctx.repeat(one_compress).mean
                               : one_compress();
          // SZ2, SZ3 and QoZ hand back their encoder's reconstruction,
          // byte for byte the decode; only the others' blobs are decoded.
          if (recon.ndims() == 0) recon = cell.comp->decompress(blob, 1);
          const ErrorStats st = compute_error_stats(sample, recon);
          c.ratio = compression_ratio(sample.size_bytes(), blob.size());
          c.psnr_db = st.psnr_db;
          PowercapMonitor monitor(cpu);
          c.compress_j = monitor.record_compute("compress", t, 1).joules;
          c.feasible = st.psnr_db >= constraints.psnr_min_db;
        } catch (const Unsupported&) {
          return std::nullopt;  // codec rejected the cell; not a candidate
        }
        c.score = candidate_score(c, constraints.objective);
        return c;
      },
      sweep,
      [&](const SweepCell<TrialCell, std::optional<AdvisorCandidate>>& cell) {
        ++done;
        if (on_trial && cell.result && *cell.result)
          on_trial(**cell.result, done, total);
      });
  // Trial errors other than Unsupported keep their old throw semantics;
  // the sweep merely guaranteed the rest of the grid still evaluated.
  sweep_report.rethrow_first_error();

  AdvisorReport report;
  for (auto& cell : sweep_report.cells)
    if (cell.result && *cell.result)
      report.candidates.push_back(std::move(**cell.result));

  // stable_sort over the domain-ordered candidates: equal scores keep
  // codec-major order no matter how the sweep interleaved.
  std::stable_sort(report.candidates.begin(), report.candidates.end(),
                   [](const AdvisorCandidate& a, const AdvisorCandidate& b) {
                     return a.score > b.score;
                   });
  for (const auto& c : report.candidates)
    if (c.feasible) {
      report.recommendation = c;
      break;
    }
  return report;
}

}  // namespace eblcio
