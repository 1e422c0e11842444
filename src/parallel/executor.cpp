#include "parallel/executor.h"

#include <algorithm>
#include <exception>
#include <functional>

#include "common/error.h"
#include "common/rng.h"
#include "common/timer.h"

namespace eblcio {
thread_local Executor* Executor::tl_executor_ = nullptr;
thread_local Executor::Worker* Executor::tl_worker_ = nullptr;

Executor::Executor(int threads, std::size_t queue_capacity)
    : base_workers_(threads > 0
                        ? threads
                        : std::max(2u, std::thread::hardware_concurrency())),
      queue_capacity_(queue_capacity) {
  EBLCIO_CHECK_ARG(queue_capacity >= 1, "queue capacity must be positive");
  for (int i = 0; i < base_workers_; ++i)
    slots_.push_back(std::make_unique<Worker>());
  for (auto& w : slots_)
    threads_.emplace_back([this, w = w.get()] { worker_loop(w); });
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_.store(true);
  }
  wake_cv_.notify_all();
  inj_not_full_.notify_all();
  for (auto& t : threads_) t.join();
}

Executor& Executor::global() {
  static Executor ex;
  return ex;
}

void Executor::worker_loop(Worker* self) {
  tl_executor_ = this;
  tl_worker_ = self;
  while (true) {
    Task task;
    if (try_pop_local(self, task) || try_pop_injection(task) ||
        try_steal(self, task)) {
      run_task(task);
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mu_);
    if (stop_.load()) break;
    if (queued_.load() == 0)
      wake_cv_.wait(lock,
                    [&] { return stop_.load() || queued_.load() > 0; });
  }
  tl_executor_ = nullptr;
  tl_worker_ = nullptr;
}

void Executor::run_task(Task& task) {
  WallTimer timer;
  std::exception_ptr err;
  running_.fetch_add(1);
  try {
    task.fn();
  } catch (...) {
    err = std::current_exception();
  }
  task_seconds_.fetch_add(timer.elapsed_s());
  tasks_completed_.fetch_add(1);
  // Before finish(): a waiter that sees its group done sees the task gone.
  running_.fetch_sub(1);
  if (task.group) task.group->finish(err);
}

void Executor::submit(Task task) {
  if (on_worker()) {
    // Pool thread: push to the owner's deque (LIFO end). Local pushes are
    // not bounded — task recursion depth bounds them naturally, and
    // blocking a worker on its own queue would deadlock nested groups.
    {
      std::lock_guard<std::mutex> lock(tl_worker_->mu);
      tl_worker_->deque.push_back(std::move(task));
    }
    queued_.fetch_add(1);
    notify_one_worker();
    return;
  }
  std::unique_lock<std::mutex> lock(inj_mu_);
  if (injection_.size() >= queue_capacity_) {
    submit_waits_.fetch_add(1);
    inj_not_full_.wait(lock, [&] {
      return injection_.size() < queue_capacity_ || stop_.load();
    });
  }
  if (stop_.load()) {
    // Executor is shutting down: the task will never run, but the group's
    // pending count must still resolve or its waiter spins forever.
    lock.unlock();
    if (task.group)
      task.group->finish(std::make_exception_ptr(
          Error("task dropped: executor is shutting down")));
    return;
  }
  injection_.push_back(std::move(task));
  lock.unlock();
  queued_.fetch_add(1);
  notify_one_worker();
}

bool Executor::try_pop_local(Worker* self, Task& out) {
  std::lock_guard<std::mutex> lock(self->mu);
  if (self->deque.empty()) return false;
  out = std::move(self->deque.back());
  self->deque.pop_back();
  queued_.fetch_sub(1);
  return true;
}

bool Executor::try_pop_injection(Task& out) {
  std::lock_guard<std::mutex> lock(inj_mu_);
  if (injection_.empty()) return false;
  out = std::move(injection_.front());
  injection_.pop_front();
  queued_.fetch_sub(1);
  inj_not_full_.notify_one();
  return true;
}

bool Executor::try_steal(const Worker* self, Task& out) {
  const int nworkers = static_cast<int>(slots_.size());
  // Randomized victim selection: scanning upward from slot 0 made every
  // thief hammer worker 0's deque lock first, so under fan-out from one
  // producer all thieves serialized on the same mutex. A per-thread random
  // starting slot spreads the scan pressure uniformly across victims; the
  // circular scan still visits every worker, so no queued task is ever
  // missed.
  static thread_local Rng steal_rng(
      0x9e3779b97f4a7c15ULL ^
      static_cast<std::uint64_t>(
          std::hash<std::thread::id>{}(std::this_thread::get_id())));
  const int start = static_cast<int>(
      steal_rng.next_below(static_cast<std::uint64_t>(nworkers)));
  for (int k = 0; k < nworkers; ++k) {
    const int i = start + k < nworkers ? start + k : start + k - nworkers;
    Worker* victim = slots_[i].get();
    if (victim == self) continue;
    std::lock_guard<std::mutex> lock(victim->mu);
    if (victim->deque.empty()) continue;
    out = std::move(victim->deque.front());  // FIFO end: oldest task
    victim->deque.pop_front();
    queued_.fetch_sub(1);
    steals_.fetch_add(1);
    return true;
  }
  return false;
}

bool Executor::try_acquire_of_group(const TaskGroup* group, Task& out) {
  // Scan every queue for a task of `group` (newest-first in the helper's
  // own deque, oldest-first elsewhere). Tasks of other groups are left in
  // place: they may block on progress only this thread can make.
  auto take_from = [&](Worker* w, bool from_back) {
    std::lock_guard<std::mutex> lock(w->mu);
    auto& dq = w->deque;
    for (std::size_t k = 0; k < dq.size(); ++k) {
      const std::size_t i = from_back ? dq.size() - 1 - k : k;
      if (dq[i].group != group) continue;
      out = std::move(dq[i]);
      dq.erase(dq.begin() + static_cast<std::ptrdiff_t>(i));
      queued_.fetch_sub(1);
      return true;
    }
    return false;
  };
  if (on_worker() && take_from(tl_worker_, true)) return true;
  {
    std::lock_guard<std::mutex> lock(inj_mu_);
    for (std::size_t i = 0; i < injection_.size(); ++i) {
      if (injection_[i].group != group) continue;
      out = std::move(injection_[i]);
      injection_.erase(injection_.begin() + static_cast<std::ptrdiff_t>(i));
      queued_.fetch_sub(1);
      inj_not_full_.notify_one();
      return true;
    }
  }
  const int nworkers = static_cast<int>(slots_.size());
  // Randomized starting victim, same rationale as try_steal: a helper
  // that always scans up from slot 0 would contend on worker 0's lock.
  static thread_local Rng acquire_rng(
      0xd1b54a32d192ed03ULL ^
      static_cast<std::uint64_t>(
          std::hash<std::thread::id>{}(std::this_thread::get_id())));
  const int start = static_cast<int>(
      acquire_rng.next_below(static_cast<std::uint64_t>(nworkers)));
  for (int k = 0; k < nworkers; ++k) {
    const int i = start + k < nworkers ? start + k : start + k - nworkers;
    Worker* victim = slots_[i].get();
    if (victim == tl_worker_) continue;
    if (take_from(victim, false)) {
      steals_.fetch_add(1);
      return true;
    }
  }
  return false;
}

void Executor::notify_one_worker() {
  std::lock_guard<std::mutex> lock(wake_mu_);
  wake_cv_.notify_one();
}

ExecutorStats Executor::stats() const {
  ExecutorStats s;
  s.tasks_completed = tasks_completed_.load();
  s.task_seconds = task_seconds_.load();
  s.steals = steals_.load();
  s.pod_local_steals = s.steals;
  s.help_runs = help_runs_.load();
  s.submit_waits = submit_waits_.load();
  s.queued = queued_.load();
  s.running = running_.load();
  return s;
}

// --- TaskGroup -------------------------------------------------------------

TaskGroup::~TaskGroup() {
  if (pending_.load() > 0) {
    try {
      wait();
    } catch (...) {
      // Destructor must not throw; call wait() explicitly to observe errors.
    }
  }
}

void TaskGroup::run(std::function<void()> fn) {
  pending_.fetch_add(1);
  ex_->submit(Executor::Task{std::move(fn), this});
}

bool TaskGroup::help_one() {
  Executor::Task task;
  if (!ex_->try_acquire_of_group(this, task)) return false;
  ex_->help_runs_.fetch_add(1);
  ex_->run_task(task);
  return true;
}

void TaskGroup::wait() {
  while (pending_.load() > 0) {
    if (help_one()) continue;
    std::unique_lock<std::mutex> lock(mu_);
    if (pending_.load() == 0) break;
    // Woken on every task completion; re-scan for queued work then.
    cv_.wait_for(lock, std::chrono::milliseconds(50));
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (error_) {
    std::exception_ptr err = error_;
    error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void TaskGroup::finish(std::exception_ptr err) {
  // One critical section, notify included: the waiter may observe
  // pending_ == 0 lock-free and destroy the group the moment we release
  // mu_, so no member may be touched after the unlock.
  std::lock_guard<std::mutex> lock(mu_);
  if (err && !error_) error_ = err;
  pending_.fetch_sub(1);
  cv_.notify_all();
}

// --- parallel_for ----------------------------------------------------------

void parallel_for(std::size_t n, int max_tasks,
                  const std::function<void(std::size_t)>& body,
                  Executor& ex) {
  if (n == 0) return;
  if (n == 1) {
    body(0);
    return;
  }
  const std::size_t ntasks =
      max_tasks <= 0 ? n
                     : std::min<std::size_t>(
                           n, static_cast<std::size_t>(max_tasks));
  TaskGroup group(ex);
  for (std::size_t t = 0; t < ntasks; ++t) {
    const std::size_t lo = n * t / ntasks;
    const std::size_t hi = n * (t + 1) / ntasks;
    group.run([&body, lo, hi] {
      for (std::size_t i = lo; i < hi; ++i) body(i);
    });
  }
  group.wait();
}

}  // namespace eblcio
