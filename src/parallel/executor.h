// Shared work-stealing task executor — the one concurrency substrate for
// the whole library.
//
// Every parallel site (slab codecs, grid sweeps, codec lanes, the
// streaming compress→write pipeline) used to spin its own threads or
// OpenMP teams; they now all submit tasks here. One process-wide pool
// (Executor::global()) owns the worker threads, so repeated experiment
// cells reuse warm threads instead of re-spawning, and per-task wall-clock
// accounting is available in one place for the energy layer and benches.
//
// Structure: each worker owns a deque (LIFO for its own pushes, FIFO for
// thieves); external submissions land in a bounded injection queue whose
// capacity provides backpressure. Threads that wait on a TaskGroup help
// execute queued tasks instead of sleeping, which makes nested groups
// (a task submitting subtasks and waiting on them) deadlock-free. Tasks
// that legitimately block — a codec lane waiting for a CoreBudget slot —
// declare it with BlockingScope, and the pool temporarily grows a
// replacement worker so blocked tasks never starve runnable ones.
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
  std::uint64_t pod_local_steals = 0;   // steals from a same-pod victim
  std::uint64_t pod_remote_steals = 0;  // steals that crossed a pod boundary
  std::uint64_t help_runs = 0;     // tasks run inline by a waiting thread
  std::uint64_t submit_waits = 0;  // submissions throttled by backpressure
  // Pod-hinted tasks, classified where they *ran*: local means on a worker
  // of the hinted pod — or inline on a waiting off-pool thread, which owns
  // the fan-out's buffers and so never crosses a memory node. Remote means
  // a worker of another pod executed it (a cross-pod steal moved it).
  // Every hinted task lands in exactly one bucket, so
  // placed_local + placed_remote equals the number of hinted submissions.
  std::uint64_t placed_local = 0;
  std::uint64_t placed_remote = 0;
  // Replacement workers started since construction (the base workers
  // excluded): one per BlockingScope the live workers could not cover.
  std::uint64_t spawned = 0;
  int workers = 0;                 // workers currently alive
  int pods = 0;                    // locality pods the workers split into
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
  // pods <= 0 auto-detects the machine's NUMA node count (1 when sysfs is
  // unavailable); pods > 0 forces that many locality pods. Workers split
  // into contiguous pods and thieves scan same-pod victims before crossing
  // a pod boundary, so under plentiful work tasks tend to stay on the
  // memory node that spawned them; cross-pod stealing still happens
  // whenever a pod runs dry, so no task is ever stranded.
  explicit Executor(int threads = 0, std::size_t queue_capacity = 4096,
                    int pods = 0);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  // Process-wide pool shared by codecs, pipelines, and sweeps.
  static Executor& global();

  // Base worker count (excludes temporary replacements for blocked tasks).
  int concurrency() const { return base_workers_; }

  // Number of locality pods the workers are partitioned into.
  int pods() const { return npods_; }

  ExecutorStats stats() const;

  // Declares that the current pool task may block outside the executor's
  // control (condition variables, channels, message recv). While the scope
  // is alive the pool keeps an extra worker so runnable tasks still make
  // progress; constructed outside a pool thread it is a no-op. Throws
  // Error when the pool's hard worker cap prevents covering the blocked
  // task — deadlock would be the alternative.
  class BlockingScope {
   public:
    BlockingScope();
    ~BlockingScope();
    BlockingScope(const BlockingScope&) = delete;
    BlockingScope& operator=(const BlockingScope&) = delete;

   private:
    Executor* ex_;
  };

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
    // Locality pod this task's working set lives on; -1 = no preference.
    // Hinted tasks are *placed* onto a worker of that pod (see submit);
    // stealing is unchanged, so work conservation holds regardless.
    int pod_hint = -1;
  };

  struct Worker {
    std::mutex mu;
    std::deque<Task> deque;
    int pod = 0;  // locality pod; fixed at slot creation
  };

  static int detect_pods();    // NUMA node count from sysfs; 1 on failure
  int pod_of_slot(int slot) const;
  // Contiguous base-worker slot range [begin, end) forming pod `pod`
  // (non-empty: pods are clamped to the base worker count).
  int pod_slot_begin(int pod) const;
  int pod_slot_end(int pod) const;
  bool spawn_worker_locked();  // requires spawn_mu_; false at the hard cap
  void worker_loop(Worker* self, int slot);
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
  void begin_blocking();
  void end_blocking();

  // Worker context of the current thread (null off-pool).
  static thread_local Executor* tl_executor_;
  static thread_local Worker* tl_worker_;

  const int base_workers_;
  const std::size_t queue_capacity_;
  const int max_workers_;
  const int npods_;

  // Worker slots are pre-sized so stealers can scan without locking the
  // slot array; slots [0, alive_workers_) are populated.
  std::vector<std::unique_ptr<Worker>> slots_;
  std::atomic<int> published_workers_{0};

  std::mutex spawn_mu_;
  std::vector<std::thread> threads_;
  std::atomic<int> alive_workers_{0};
  std::atomic<int> target_workers_{0};

  // Slot indices of retired replacement workers, available for reuse. Own
  // lock so a spawner holding spawn_mu_ can join a retiring thread without
  // a lock cycle.
  std::mutex free_mu_;
  std::vector<int> free_slots_;

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
  std::atomic<std::uint64_t> pod_local_steals_{0};
  std::atomic<std::uint64_t> pod_remote_steals_{0};
  std::atomic<std::uint64_t> help_runs_{0};
  std::atomic<std::uint64_t> submit_waits_{0};
  std::atomic<std::uint64_t> placed_local_{0};
  std::atomic<std::uint64_t> placed_remote_{0};
  std::atomic<std::uint64_t> spawned_{0};  // every spawn, base workers too
  std::atomic<int> running_{0};

  // Round-robin cursor per pod for hinted placement (allocated to npods_).
  std::unique_ptr<std::atomic<std::uint32_t>[]> pod_rr_;
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

  // Submits one task with a locality-pod placement hint: the task is
  // enqueued onto a worker of pod `pod_hint % pods()` so its working set
  // stays on the memory node that owns it. pod_hint < 0 = no preference.
  // Hinted placement bypasses the injection queue (like a local push), so
  // callers should use it for bounded fan-outs, not unbounded streams.
  void run(std::function<void()> fn, int pod_hint);

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
// max_tasks tasks are created (consecutive-index blocks); max_tasks <= 0
// means one task per index. The calling thread helps execute. Blocks map
// to locality pods deterministically (block t -> pod t*pods/ntasks) and
// are submitted pod-interleaved so every pod is fed from the first few
// submissions.
void parallel_for(std::size_t n, int max_tasks,
                  const std::function<void(std::size_t)>& body,
                  Executor& ex = Executor::global());

// Submission order for a hinted fan-out of `ntasks` blocks over `npods`
// pods (block t hinted to pod t*npods/ntasks): round-robins across the
// pods' block ranges, so every pod receives a task within the first
// `npods` submissions. Emitting one pod's whole batch before the next
// pod's first task would let the idle pods' workers wake to empty deques
// and cross-steal the early batch, defeating placement at the start of
// every fan-out. Identity order when npods <= 1.
std::vector<std::size_t> pod_interleaved_order(std::size_t ntasks,
                                               int npods);

}  // namespace eblcio
