#include "parallel/lanes.h"

#include <algorithm>
#include <exception>
#include <thread>
#include <vector>

#include "common/error.h"
#include "parallel/executor.h"

namespace eblcio {

// --- CoreBudget --------------------------------------------------------------

CoreBudget& CoreBudget::global() {
  static CoreBudget budget([] {
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    return std::min(Executor::global().concurrency(), std::max(hw, 1));
  }());
  return budget;
}

CoreBudget::CoreBudget(int slots) : slots_(slots) {
  EBLCIO_CHECK_ARG(slots >= 1, "core budget needs at least one slot");
}

void CoreBudget::acquire() {
  std::unique_lock<std::mutex> lock(mu_);
  const std::uint64_t ticket = next_ticket_++;
  cv_.wait(lock, [&] { return ticket == serving_ && held_ < slots_; });
  ++serving_;
  cv_.notify_all();  // the next ticket may fit in a remaining slot
  ++held_;
  peak_ = std::max(peak_, held_);
}

void CoreBudget::release() {
  std::lock_guard<std::mutex> lock(mu_);
  --held_;
  cv_.notify_all();
}

int CoreBudget::held() const {
  std::lock_guard<std::mutex> lock(mu_);
  return held_;
}

int CoreBudget::peak() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_;
}

void CoreBudget::reset_peak() {
  std::lock_guard<std::mutex> lock(mu_);
  peak_ = held_;
}

CoreBudget::Slot::Slot(CoreBudget& budget) : budget_(&budget) {
  budget_->acquire();
}

CoreBudget::Slot::~Slot() { budget_->release(); }

int codec_lanes(int threads) {
  return std::max(1, CoreBudget::global().slots() / std::max(1, threads));
}

// --- run_ordered_lanes -------------------------------------------------------

namespace {

// Lane bookkeeping of one run_ordered_lanes call. Slabs [0, queued_) are
// admitted; [0, dispatched_) have been handed to a lane task. A lane task
// that finishes dispatches the next admitted slab itself, so lanes never
// wait on one another.
class LaneLoop {
 public:
  LaneLoop(std::size_t n, int lanes, const std::function<void(std::size_t)>& lane)
      : lane_(lane), lanes_(lanes), done_(n, 0) {}

  // Settles the loop on every exit path: no lane task may outlive the
  // stages it references.
  ~LaneLoop() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      stopped_ = true;
      cv_.wait(lock, [&] { return running_ == 0; });
    }
    try {
      group_.wait();
    } catch (...) {
      // Lane tasks capture their own exceptions; nothing can surface here.
    }
  }

  // Admits slabs up to (excluding) `upto` and dispatches what fits.
  void admit(std::size_t upto) {
    std::vector<std::size_t> launch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      queued_ = std::max(queued_, std::min(upto, done_.size()));
      pump_locked(launch);
    }
    spawn(launch);
  }

  void wait_dispatched(std::size_t count) {
    wait_for([&] { return dispatched_ >= count; });
  }
  void wait_done(std::size_t i) {
    wait_for([&] { return done_[i] != 0; });
  }
  // Waits for every admitted slab, then rethrows a lane's failure.
  void finish() {
    wait_for([&] { return finished_ == queued_ && running_ == 0; });
  }

 private:
  void pump_locked(std::vector<std::size_t>& launch) {
    while (!stopped_ && !error_ && running_ < lanes_ &&
           dispatched_ < queued_) {
      launch.push_back(dispatched_++);
      ++running_;
    }
    if (!launch.empty()) cv_.notify_all();
  }

  // Submits outside the mutex: a full injection queue may block submit().
  void spawn(const std::vector<std::size_t>& launch) {
    for (const std::size_t i : launch) group_.run([this, i] { run_lane(i); });
  }

  void run_lane(std::size_t i) {
    std::exception_ptr err;
    try {
      lane_(i);
    } catch (...) {
      err = std::current_exception();
    }
    std::vector<std::size_t> launch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (err && !error_) error_ = err;
      done_[i] = 1;
      ++finished_;
      --running_;
      pump_locked(launch);
      cv_.notify_all();
    }
    spawn(launch);
  }

  template <typename Pred>
  void wait_for(Pred ready) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return ready() || (error_ && running_ == 0); });
    if (error_) std::rethrow_exception(error_);
  }

  const std::function<void(std::size_t)>& lane_;
  const int lanes_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<char> done_;
  std::size_t queued_ = 0;
  std::size_t dispatched_ = 0;
  std::size_t finished_ = 0;
  int running_ = 0;
  bool stopped_ = false;
  std::exception_ptr error_;
  // Declared last: destroyed first, after the destructor body settled it.
  TaskGroup group_;
};

}  // namespace

void run_ordered_lanes(std::size_t n, int lanes, std::size_t queue_depth,
                       const LaneStages& stages) {
  EBLCIO_CHECK_ARG(lanes >= 1, "lane count must be positive");
  EBLCIO_CHECK_ARG(static_cast<bool>(stages.lane), "lane stage is required");
  EBLCIO_CHECK_ARG(!(stages.source && stages.sink),
                   "a lane loop has a source or a sink, not both");
  if (Executor::global().on_worker())
    throw Error(
        "run_ordered_lanes called on an executor worker: its waits would "
        "hold the worker; run the pipeline on a thread of its own");
  if (n == 0) return;
  LaneLoop loop(n, lanes, stages.lane);
  if (stages.sink) {
    const std::size_t window = static_cast<std::size_t>(lanes) + queue_depth;
    loop.admit(window);
    for (std::size_t i = 0; i < n; ++i) {
      loop.wait_done(i);
      loop.admit(i + 1 + window);  // the sink takes slab i
      stages.sink(i);
    }
  } else {
    const std::size_t window = 1 + queue_depth;
    for (std::size_t i = 0; i < n; ++i) {
      if (i >= window) loop.wait_dispatched(i - window + 1);
      if (stages.source) stages.source(i);
      loop.admit(i + 1);
    }
  }
  loop.finish();
}

}  // namespace eblcio
