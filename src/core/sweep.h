// Generic grid-sweep engine — the one way every paper-scale grid fans out
// its independent cells.
//
// The paper's headline artifacts are grids: the Sec. VII advisor trials a
// codec×bound table, capacity planning pre-screens the same grid through
// the gray-box estimator (ref. [51]), and the Sec. IV-E experiment sweeps
// node×rank worlds. Every cell is independent, so a sweep takes a cell
// domain (any vector of descriptors), a per-cell evaluation functor, and
// options, and runs the cells on threads the sweep owns (the calling
// thread among them; SweepOptions::max_tasks sets how many), each taking
// the next unstarted cell. Cells start in domain order, except that a
// parallel sweep over a cell type with a `cost()` member starts the
// costliest cells first (a stable sort: equal costs keep domain order),
// so the slowest cells of an uneven grid do not start last. Cells are not
// executor tasks, so a cell may wait on pool work (a streamed pipeline's
// codec lanes) without holding a pool worker.
//
// Guarantees, regardless of how execution interleaves:
//  * results land in *domain order* (cell i's outcome is slot i, and its
//    context's index() is i), and the optional on-cell-complete callback
//    streams outcomes in that same order, whatever order the cells started
//    in — partial tables render incrementally and deterministically;
//  * one failing cell never aborts the grid: its exception is captured in
//    its slot (callers inspect, or rethrow_first_error());
//  * a throwing on-cell callback aborts the grid: cells not yet started
//    are not evaluated, and the callback's exception rethrows once the
//    running cells settle;
//  * the per-cell repetition protocol (core/experiment.h) is available
//    through the cell context, configured once per sweep, and produces
//    bit-for-bit the statistics the serial path produces.
//
// options.parallel = false degrades to an in-order run on the calling
// thread through the same code path — that is what makes serial/parallel
// equivalence directly testable.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <exception>
#include <functional>
#include <numeric>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/experiment.h"

namespace eblcio {

struct SweepOptions {
  bool parallel = true;  // false = in-order on the calling thread
  // Caps the cells running at once: the sweep runs its cells on
  // min(cells, max_tasks) threads, the calling thread included (<= 0:
  // Executor::global().concurrency() threads). Bound this when cells are
  // heavyweight (each holds its own working set while it runs).
  int max_tasks = 0;
  // Engages ctx.repeat() with this protocol; cells may also call
  // ctx.repeat() without it and get the default RepeatConfig. Grid
  // benches build this from their --reps budget via
  // core/experiment.h::repeat_protocol (see
  // bench/bench_util.h::BenchEnv::sweep_options).
  std::optional<RepeatConfig> repeat;
};

// Handed to the evaluation functor; read-only view of one cell's slot in
// the running sweep.
class SweepCellContext {
 public:
  SweepCellContext(std::size_t index, const RepeatConfig& repeat)
      : index_(index), repeat_(repeat) {}

  std::size_t index() const { return index_; }

  // Runs `sample` under the sweep's repetition protocol (Sec. IV-C: up to
  // max_runs, or until the 95% CI tightens) and returns the statistics.
  RepeatedStats repeat(const std::function<double()>& sample) const {
    return run_repeated(sample, repeat_);
  }

 private:
  std::size_t index_;
  const RepeatConfig& repeat_;
};

// Per-cell outcome of the type-erased layer.
struct SweepCellStatus {
  std::size_t index = 0;
  std::exception_ptr error;  // the cell threw; isolated to this slot
  double seconds = 0.0;      // host wall clock of this evaluation
  bool ok() const { return !error; }
};

struct SweepStats {
  std::size_t cells = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  double wall_s = 0.0;        // whole-grid host wall clock
  double cell_seconds = 0.0;  // summed per-cell wall clock
};

// A cell type whose cells declare a relative cost (any unit, never NaN;
// larger = slower). A parallel sweep starts such cells costliest first.
template <typename Cell>
concept CostedCell = requires(const Cell& c) {
  { c.cost() } -> std::convertible_to<double>;
};

namespace detail {
// Type-erased engine: evaluates eval(i, ctx) for i in [0, n), streaming
// on_cell(status) in index order (on_cell may be null). A parallel sweep
// starts the cells in `claim_order` (a permutation of [0, n); empty =
// domain order); a serial one ignores it. Cell exceptions are captured
// per status. An exception thrown by on_cell itself aborts the sweep:
// later callbacks are suppressed, unstarted cells are not run, and the
// first callback exception rethrows from run_sweep once in-flight cells
// settle — the same observable behavior in serial and parallel mode.
SweepStats run_sweep(std::size_t n,
                     const std::function<void(std::size_t, SweepCellContext&)>& eval,
                     const std::function<void(const SweepCellStatus&)>& on_cell,
                     const SweepOptions& options,
                     std::span<const std::size_t> claim_order);
}  // namespace detail

// One cell of a typed sweep: the descriptor plus its outcome.
template <typename Cell, typename Result>
struct SweepCell {
  std::size_t index = 0;
  Cell cell{};
  std::optional<Result> result;  // engaged iff the cell completed
  std::exception_ptr error;      // engaged iff the cell threw
  double seconds = 0.0;          // host wall clock of the evaluation
  bool ok() const { return result.has_value(); }
};

template <typename Cell, typename Result>
struct SweepReport {
  std::vector<SweepCell<Cell, Result>> cells;  // always in domain order
  SweepStats stats;

  void rethrow_first_error() const {
    for (const auto& c : cells)
      if (c.error) std::rethrow_exception(c.error);
  }
};

// Evaluates eval(cell, ctx) -> Result over every cell of the domain and
// returns the outcomes in domain order; in parallel mode a CostedCell
// domain starts costliest first. `on_cell` (optional) is invoked
// once per cell — including failed ones — serialized and in
// domain order, as soon as every earlier cell has also resolved; this is
// the streaming hook incremental tables build on (the figure/table
// benches consume it through bench/bench_util.h::run_grid_bench, which
// adds the --serial/--verify/--jobs conventions on top). Serialization
// means callbacks never overlap and need no locking of their own; a
// callback that throws aborts the sweep with the semantics documented on
// detail::run_sweep. (The callback parameter is non-deduced, so call
// sites pass bare lambdas.)
template <typename Cell, typename Eval,
          typename Result = std::invoke_result_t<Eval&, const Cell&,
                                                 SweepCellContext&>>
SweepReport<Cell, Result> sweep_grid(
    std::vector<Cell> cells, Eval eval, const SweepOptions& options = {},
    const std::type_identity_t<
        std::function<void(const SweepCell<Cell, Result>&)>>& on_cell =
        nullptr) {
  static_assert(!std::is_void_v<Result>,
                "sweep cells must return a value; use bool for effect-only "
                "cells");
  SweepReport<Cell, Result> report;
  report.cells.resize(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    report.cells[i].index = i;
    report.cells[i].cell = std::move(cells[i]);
  }
  auto eval_erased = [&](std::size_t i, SweepCellContext& ctx) {
    const Cell& cell = report.cells[i].cell;
    report.cells[i].result.emplace(eval(cell, ctx));
  };
  auto emit = [&](const SweepCellStatus& st) {
    SweepCell<Cell, Result>& c = report.cells[st.index];
    c.error = st.error;
    c.seconds = st.seconds;
    if (on_cell) on_cell(c);
  };
  std::vector<std::size_t> claim_order;
  if constexpr (CostedCell<Cell>) {
    if (options.parallel) {
      std::vector<double> cost;
      for (const auto& c : report.cells)
        cost.push_back(static_cast<double>(c.cell.cost()));
      claim_order.resize(cost.size());
      std::iota(claim_order.begin(), claim_order.end(), std::size_t{0});
      std::stable_sort(claim_order.begin(), claim_order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return cost[a] > cost[b];
                       });
    }
  }
  report.stats = detail::run_sweep(report.cells.size(), eval_erased, emit,
                                   options, claim_order);
  return report;
}

}  // namespace eblcio
