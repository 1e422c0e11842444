#include "core/sweep.h"

#include <atomic>
#include <mutex>

#include "common/timer.h"

namespace eblcio {
namespace detail {
namespace {

// Serializes completions and releases the on-cell callback strictly in
// index order: cell i's status is buffered until every j < i has resolved.
// The emit cursor advances *before* the callback runs, so a throwing
// callback cannot double-emit a cell. The first callback exception is
// captured (not propagated mid-grid): it suppresses every later callback,
// keeps unstarted cells from running (via aborted()), and rethrows from
// run_sweep once the grid has settled — identically in serial and parallel
// mode.
class OrderedEmitter {
 public:
  OrderedEmitter(std::size_t n,
                 const std::function<void(const SweepCellStatus&)>& on_cell)
      : statuses_(n), done_(n, 0), on_cell_(on_cell) {}

  void complete(SweepCellStatus st, SweepStats& stats) {
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t i = st.index;
    if (st.error)
      ++stats.failed;
    else
      ++stats.completed;
    stats.cell_seconds += st.seconds;
    statuses_[i] = std::move(st);
    done_[i] = 1;
    while (next_ < done_.size() && done_[next_]) {
      const SweepCellStatus& ready = statuses_[next_];
      ++next_;
      if (on_cell_ && !callback_error_) {
        try {
          on_cell_(ready);
        } catch (...) {
          callback_error_ = std::current_exception();
          aborted_.store(true, std::memory_order_relaxed);
        }
      }
    }
  }

  bool aborted() const { return aborted_.load(std::memory_order_relaxed); }

  void rethrow_callback_error() const {
    if (callback_error_) std::rethrow_exception(callback_error_);
  }

 private:
  std::mutex mu_;
  std::size_t next_ = 0;
  std::vector<SweepCellStatus> statuses_;
  std::vector<char> done_;
  const std::function<void(const SweepCellStatus&)>& on_cell_;
  std::exception_ptr callback_error_;
  std::atomic<bool> aborted_{false};
};

}  // namespace

SweepStats run_sweep(
    std::size_t n,
    const std::function<void(std::size_t, SweepCellContext&)>& eval,
    const std::function<void(const SweepCellStatus&)>& on_cell,
    const SweepOptions& options) {
  SweepStats stats;
  stats.cells = n;
  if (n == 0) return stats;

  const RepeatConfig repeat = options.repeat.value_or(RepeatConfig{});
  OrderedEmitter emitter(n, on_cell);
  WallTimer sweep_timer;

  auto eval_one = [&](std::size_t i) {
    SweepCellStatus st;
    st.index = i;
    if (!emitter.aborted()) {
      SweepCellContext ctx(i, repeat);
      WallTimer timer;
      try {
        eval(i, ctx);
      } catch (...) {
        st.error = std::current_exception();
      }
      st.seconds = timer.elapsed_s();
    }
    emitter.complete(std::move(st), stats);
  };

  if (!options.parallel) {
    for (std::size_t i = 0; i < n; ++i) eval_one(i);
  } else {
    parallel_for(n, options.max_tasks, eval_one,
                 options.executor ? *options.executor : Executor::global());
  }

  stats.wall_s = sweep_timer.elapsed_s();
  emitter.rethrow_callback_error();
  return stats;
}

}  // namespace detail
}  // namespace eblcio
