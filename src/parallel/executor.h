// Shared work-stealing task executor — the one concurrency substrate for
// the whole library.
//
// The slab codecs and the codec lanes of the streamed pipelines submit
// their tasks here. One process-wide pool (Executor::global()) owns a
// fixed set of worker threads, so repeated codec calls reuse warm threads
// instead of re-spawning, and per-task wall-clock accounting is available
// in one place for the energy layer and benches.
//
// Structure: each worker owns a deque (LIFO for its own pushes, FIFO for
// thieves); external submissions land in a bounded injection queue whose
// capacity provides backpressure. Threads that wait on a TaskGroup help
// execute queued tasks instead of sleeping, which makes nested groups
// (a task submitting subtasks and waiting on them) deadlock-free.
//
// The rule that keeps a fixed pool live: a pool task never waits on
// anything outside its own TaskGroup. Work that waits on other threads —
// a grid-sweep cell running a streamed pipeline — runs on threads of its
// own (core/sweep.h), never as a pool task. The one bounded exception is
// a codec lane waiting for a CoreBudget slot (parallel/lanes.h says why
// that wait always ends).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace eblcio {

struct ExecutorStats {
  std::uint64_t tasks_completed = 0;
  double task_seconds = 0.0;       // summed per-task wall clock
  std::uint64_t steals = 0;        // tasks taken from another worker's deque
  std::uint64_t help_runs = 0;     // tasks run inline by a waiting thread
  std::uint64_t submit_waits = 0;  // submissions throttled by backpressure
  // Kept only because the end-to-end benchmark reads them, with the values
  // of a pool that is one locality domain: every steal is local
  // (pod_local_steals == steals) and no task carries a placement hint
  // (placed_local == placed_remote == 0).
  std::uint64_t pod_local_steals = 0;
  std::uint64_t placed_local = 0;
  std::uint64_t placed_remote = 0;
  // Snapshot occupancy: tasks waiting in any queue, and tasks executing.
  // Both are 0 once every submitted task has run (a drained executor).
  std::size_t queued = 0;
  int running = 0;
  double avg_task_seconds() const {
    return tasks_completed ? task_seconds / tasks_completed : 0.0;
  }
};

class TaskGroup;

class Executor {
 public:
  // threads <= 0 picks the hardware concurrency (at least 2 so producer/
  // consumer pipelines overlap even on one-core hosts). queue_capacity
  // bounds the external injection queue; full-queue submissions block.
  explicit Executor(int threads = 0, std::size_t queue_capacity = 4096);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  // Process-wide pool shared by the codecs and the streamed pipelines.
  static Executor& global();

  // Worker count, fixed for the executor's lifetime.
  int concurrency() const { return base_workers_; }

  // True on the calling thread iff it is one of this executor's workers.
  bool on_worker() const { return tl_executor_ == this && tl_worker_; }

  ExecutorStats stats() const;

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
  };

  struct Worker {
    std::mutex mu;
    std::deque<Task> deque;
  };

  void worker_loop(Worker* self);
  void run_task(Task& task);
  void submit(Task task);  // local push for pool threads, else injection
  bool try_pop_local(Worker* self, Task& out);
  bool try_pop_injection(Task& out);
  bool try_steal(const Worker* self, Task& out);
  // Acquire used by helping waiters: takes only tasks belonging to
  // `group`. Helpers must never run arbitrary tasks — an unrelated task
  // that blocks on the helper's own progress (a lane waiting for a
  // CoreBudget slot the helper's stack holds) would deadlock on its stack.
  bool try_acquire_of_group(const TaskGroup* group, Task& out);
  void notify_one_worker();

  // Worker context of the current thread (null off-pool).
  static thread_local Executor* tl_executor_;
  static thread_local Worker* tl_worker_;

  const int base_workers_;
  const std::size_t queue_capacity_;

  // Every worker is built before any thread starts, so stealers scan the
  // fixed-size slot array without locking it.
  std::vector<std::unique_ptr<Worker>> slots_;
  std::vector<std::thread> threads_;

  std::mutex inj_mu_;
  std::condition_variable inj_not_full_;
  std::deque<Task> injection_;

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<std::size_t> queued_{0};
  std::atomic<bool> stop_{false};

  // Stats.
  std::atomic<std::uint64_t> tasks_completed_{0};
  std::atomic<double> task_seconds_{0.0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> help_runs_{0};
  std::atomic<std::uint64_t> submit_waits_{0};
  std::atomic<int> running_{0};
};

// A set of tasks submitted together and awaited together. wait() helps the
// pool execute queued tasks *of this group* while it is unfinished, then
// rethrows the first exception any task raised. Groups nest: a pool task
// may create and wait on its own group. (Helping is group-scoped on
// purpose: running an arbitrary task inline could pick up one that blocks
// on the waiter's own progress and deadlock the stack.)
class TaskGroup {
 public:
  explicit TaskGroup(Executor& ex = Executor::global()) : ex_(&ex) {}
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  Executor& executor() const { return *ex_; }

  // Submits one task. Blocks when the executor's injection queue is full
  // (backpressure), unless called from a pool worker (local push).
  void run(std::function<void()> fn);

  // Waits for every submitted task, executing this group's queued tasks
  // while waiting. Rethrows the first captured exception.
  void wait();

  // Runs one still-queued task of this group on the calling thread.
  // Returns false when none is queued (every task is running or done).
  bool help_one();

  std::size_t pending() const { return pending_.load(); }

 private:
  friend class Executor;
  void finish(std::exception_ptr err);

  Executor* ex_;
  std::atomic<std::size_t> pending_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  std::exception_ptr error_;
};

// Runs body(i) for i in [0, n) as executor tasks and waits. At most
// max_tasks tasks are created, each a block of consecutive indices run in
// order, submitted in block order; max_tasks <= 0 means one task per
// index. The calling thread helps execute; n == 1 runs inline.
void parallel_for(std::size_t n, int max_tasks,
                  const std::function<void(std::size_t)>& body,
                  Executor& ex = Executor::global());

}  // namespace eblcio
