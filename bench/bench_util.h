// Shared infrastructure for the paper-reproduction bench binaries.
//
// Every bench binary regenerates one table or figure of the paper. They
// share: dataset construction at a bench-friendly scale (--scale raises it
// toward paper size), the Sec. IV-C repetition protocol, grid execution on
// the sweep engine (core/sweep.h), and streamed table output. Flags common
// to every grid bench:
//   --scale=<f>   multiply default working dimensions (default 1.0; the
//                 default working size is the catalogue's shrunken size)
//   --reps=<n>    repetition budget per measurement (default 1; the paper
//                 used up to 25, stopping early on a tight 95% CI)
//   --seed=<n>    generator seed
//   --serial      evaluate the grid in order on the calling thread instead
//                 of batching cells on sweep threads
//   --verify      after the sweep, re-run the identical grid serially and
//                 require the rendered rows to match bit-for-bit
//   --jobs=<n>    cap concurrently-batched cells (0 = one sweep thread per
//                 executor worker)
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "common/cli.h"
#include "common/field.h"
#include "common/format.h"
#include "common/table.h"
#include "core/experiment.h"
#include "core/pipeline.h"
#include "core/sweep.h"
#include "data/dataset.h"

namespace eblcio::bench {

struct BenchEnv {
  double scale = 1.0;
  int reps = 1;
  std::uint64_t seed = 42;
  bool serial = false;  // --serial: in-order grid on the calling thread
  bool verify = false;  // --verify: cross-check sweep against a serial rerun
  int jobs = 0;         // --jobs: cap concurrently-batched cells

  static BenchEnv from_cli(const CliArgs& args) {
    BenchEnv env;
    env.scale = args.get_double("scale", 1.0);
    env.reps = args.get_int("reps", 1);
    env.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
    env.serial = args.get_bool("serial", false);
    env.verify = args.get_bool("verify", false);
    env.jobs = args.get_int("jobs", 0);
    return env;
  }

  // The Sec. IV-C protocol for this bench's --reps budget (shared clamp:
  // core/experiment.h::repeat_protocol).
  RepeatConfig repeat_config() const { return repeat_protocol(reps); }

  // Sweep-engine options for a grid bench: --serial degrades to the
  // in-order code path, --jobs bounds concurrently-runnable cells, and a
  // --reps budget > 1 engages ctx.repeat with the shared protocol.
  SweepOptions sweep_options() const {
    SweepOptions opt;
    opt.parallel = !serial;
    opt.max_tasks = jobs;
    if (reps > 1) opt.repeat = repeat_config();
    return opt;
  }
};

// Generates (and caches per-process) a data set at env.scale times its
// default working size. Thread-safe: sweep cells may call it concurrently.
const Field& bench_dataset(const std::string& name, const BenchEnv& env);

// The paper's error-bound sweep (Figs. 5/7/11): 1e-1 .. 1e-5.
const std::vector<double>& paper_bounds();

// The Sec. IV-C strong-scaling thread sweep: 1, 2, 4, ..., 64.
const std::vector<int>& paper_thread_sweep();

// The four Table-II data sets in figure order.
const std::vector<std::string>& paper_datasets();

// Standard header line for a bench binary.
void print_bench_header(const std::string& id, const std::string& title,
                        const BenchEnv& env);

// Repeated measurement of a compression pipeline cell, reusing the
// pipeline runner. The number of runs follows the shared repetition
// protocol (up to env.reps, stopping early on a tight 95% CI); the record
// kept carries the fastest host compress and the fastest host decompress
// of those runs, each taken on its own (see keep_fastest_times), with
// quality and size deterministic across runs. When called from a sweep
// cell, pass `ctx` so the repetitions run under the sweep's configured
// protocol. Thread-safe and memoized per (field, codec, bound, threads):
// concurrent cells sharing a key block on one measurement and all observe
// bit-identical records — which is what makes --verify's sweep-vs-serial
// comparison exact even for measured quantities.
CompressionRecord measure_compression(const Field& field,
                                      const PipelineConfig& config,
                                      const BenchEnv& env,
                                      const SweepCellContext* ctx = nullptr);

// Folds one more run of the same cell into `kept`: each host time becomes
// the smaller of the two, so a compress-only column (Fig. 12's c+w) gets
// the fastest compress even when another run had the fastest sum.
void keep_fastest_times(CompressionRecord& kept, const CompressionRecord& run);

// ---------------------------------------------------------------------------
// Grid-bench scaffolding: streamed tables and the sweep/verify driver.
// ---------------------------------------------------------------------------

// Incremental TextTable: the frame and header print on construction and
// each row prints (and flushes) the moment it is added, so partially
// complete grids render while later cells are still running. Column widths
// are fixed up front from the header (never below `min_width`), which is
// what makes streaming possible; a cell longer than its column overflows
// that row rather than re-aligning the table. finish() closes the frame.
class StreamedTable {
 public:
  explicit StreamedTable(std::vector<std::string> header,
                         std::ostream& os = default_stream(),
                         std::size_t min_width = 10);

  void add_row(std::vector<std::string> cells);  // prints immediately
  // Inserts a horizontal rule before the next added row.
  void add_rule();
  // Prints the closing rule; further rows are an error.
  void finish();

  std::size_t rows() const { return rows_; }

 private:
  static std::ostream& default_stream();

  std::vector<std::string> header_;
  std::vector<std::size_t> width_;
  std::ostream& os_;
  std::size_t rows_ = 0;
  bool pending_rule_ = false;
  bool finished_ = false;
};

// Outcome of run_grid_bench: the sweep statistics plus the --verify
// cross-check result.
struct GridRunSummary {
  SweepStats stats;
  bool serial = false;           // the main run used --serial
  bool verified = false;         // --verify was requested
  bool verify_trivial = false;   // --serial made the rerun a no-op check
  bool verify_ok = false;        // every rendered row matched bit-for-bit
  std::size_t verify_cells = 0;
  std::size_t verify_mismatches = 0;

  // Process exit status for a bench: nonzero iff --verify ran and failed.
  int exit_code() const { return verified && !verify_ok ? 1 : 0; }
};

// Standard trailer: cell counts, wall vs summed cell time, verify verdict.
void print_grid_summary(const GridRunSummary& summary);

namespace detail {
std::string join_fragment(const std::vector<std::string>& fragment);
}

// ---------------------------------------------------------------------------
// Machine-readable bench output: a minimal insertion-ordered JSON builder.
// ---------------------------------------------------------------------------

// Tiny JSON object builder for BENCH_*.json emission (micro_codecs writes
// BENCH_codecs.json through it; the perf-regression smoke in CI diffs that
// file against bench/baselines/). Keys keep insertion order so diffs stay
// readable; values are numbers, strings, or nested objects.
class JsonObject {
 public:
  JsonObject& set(const std::string& key, double value);
  JsonObject& set(const std::string& key, std::uint64_t value);
  JsonObject& set(const std::string& key, const std::string& value);
  JsonObject& set(const std::string& key, const JsonObject& value);
  // Merges value's entries into the object already under `key` (an entry
  // of the same name is replaced, others are appended), or sets `key` to
  // `value` when it holds none.
  JsonObject& merge(const std::string& key, const JsonObject& value);

  // Renders with 2-space indentation and a trailing newline at top level.
  std::string dump(int indent = 0) const;

 private:
  struct Entry {
    std::string key;
    std::string scalar;              // a rendered number or string, or
    std::vector<JsonObject> object;  // a nested object, its one element
  };
  std::vector<Entry> entries_;
};

// Writes `json.dump()` to `path` (truncating), stamped with nproc,
// optimize, ndebug, compiler and the CMake build_type, the host and build
// keys scripts/check_perf_baseline.py refuses to gate across: merged into
// the document's own "meta" object when it has one, else a trailing
// "meta". Returns false on I/O error.
bool write_json_file(const std::string& path, const JsonObject& json);

// The one driver every grid bench runs through.
//
// Executes `eval(cell, ctx)` over the whole domain on the sweep engine
// (parallel unless env.serial), renders each completed cell with
// `render(cell, result) -> row fragment`, and hands the fragments to
// `on_row` serialized and in domain order — benches assemble streamed
// tables there. With env.verify the identical grid re-runs in order on the
// calling thread and every cell's rendered fragment must match the sweep's
// bit-for-bit (`verify_view`, when given, projects the fragment down to
// its deterministic columns first — host-measured wall-clock columns are
// legitimately run-to-run noise; everything else must be exact).
//
// Cell failures follow sweep semantics: isolated per slot, skipped by the
// streaming callback, and rethrown here once the grid settles.
template <typename Cell, typename Eval, typename Render>
GridRunSummary run_grid_bench(
    std::vector<Cell> cells, const BenchEnv& env, Eval eval, Render render,
    const std::type_identity_t<std::function<void(
        const Cell&, std::size_t, const std::vector<std::string>&)>>& on_row,
    const std::type_identity_t<std::function<std::string(
        const Cell&, const std::vector<std::string>&)>>& verify_view =
        nullptr) {
  using Result = std::invoke_result_t<Eval&, const Cell&, SweepCellContext&>;
  const auto view = [&](const Cell& cell,
                        const std::vector<std::string>& fragment) {
    return verify_view ? verify_view(cell, fragment)
                       : detail::join_fragment(fragment);
  };

  GridRunSummary summary;
  summary.serial = env.serial;
  std::vector<std::string> streamed(cells.size());
  const SweepOptions options = env.sweep_options();
  const auto report = sweep_grid(
      std::move(cells), eval, options,
      [&](const SweepCell<Cell, Result>& c) {
        if (!c.ok()) return;  // failures rethrow below; nothing to render
        const std::vector<std::string> fragment = render(c.cell, *c.result);
        streamed[c.index] = view(c.cell, fragment);
        if (on_row) on_row(c.cell, c.index, fragment);
      });
  report.rethrow_first_error();
  summary.stats = report.stats;
  if (!env.verify) return summary;

  summary.verified = true;
  if (env.serial) {
    // The main run already was the serial path; a rerun would compare
    // serial against serial. Report it as trivially passing.
    summary.verify_trivial = true;
    summary.verify_ok = true;
    return summary;
  }
  SweepOptions ref_options = options;
  ref_options.parallel = false;
  std::vector<Cell> again;
  again.reserve(report.cells.size());
  for (const auto& c : report.cells) again.push_back(c.cell);
  const auto ref = sweep_grid(std::move(again), eval, ref_options);
  ref.rethrow_first_error();
  summary.verify_ok = true;
  summary.verify_cells = ref.cells.size();
  for (const auto& c : ref.cells) {
    if (!c.ok()) continue;
    if (view(c.cell, render(c.cell, *c.result)) != streamed[c.index]) {
      summary.verify_ok = false;
      ++summary.verify_mismatches;
    }
  }
  return summary;
}

}  // namespace eblcio::bench
