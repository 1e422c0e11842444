// Shared executor tests: stress, nesting, exception propagation, blocking
// scopes, backpressure, and accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <semaphore>
#include <thread>
#include <vector>

#include "common/error.h"
#include "parallel/executor.h"

namespace eblcio {
namespace {

TEST(Executor, StressThousandTasks) {
  std::atomic<int> count{0};
  std::atomic<long long> sum{0};
  TaskGroup group;
  for (int i = 0; i < 1000; ++i)
    group.run([&, i] {
      count.fetch_add(1);
      sum.fetch_add(i);
    });
  group.wait();
  EXPECT_EQ(count.load(), 1000);
  EXPECT_EQ(sum.load(), 999LL * 1000 / 2);
}

TEST(Executor, NestedGroupsFromPoolTasks) {
  // Each outer task spawns and awaits its own inner group — the shape the
  // chunked codecs produce when a streamed slab fans out again. Waiting
  // tasks help execute, so this must not deadlock even on a 1-worker pool.
  Executor ex(1);
  std::atomic<int> inner_runs{0};
  TaskGroup outer(ex);
  for (int i = 0; i < 8; ++i)
    outer.run([&] {
      TaskGroup inner(ex);
      for (int j = 0; j < 16; ++j) inner.run([&] { inner_runs.fetch_add(1); });
      inner.wait();
    });
  outer.wait();
  EXPECT_EQ(inner_runs.load(), 8 * 16);
}

TEST(Executor, ExceptionPropagatesToWaiter) {
  TaskGroup group;
  for (int i = 0; i < 32; ++i)
    group.run([i] {
      if (i == 17) throw InvalidArgument("boom");
    });
  EXPECT_THROW(group.wait(), InvalidArgument);
}

TEST(Executor, ExceptionFromNestedGroupPropagates) {
  TaskGroup outer;
  outer.run([] {
    TaskGroup inner;
    inner.run([] { throw CorruptStream("inner boom"); });
    inner.wait();  // rethrows inside the outer task
  });
  EXPECT_THROW(outer.wait(), CorruptStream);
}

TEST(Executor, GroupReusableAfterException) {
  TaskGroup group;
  group.run([] { throw Error("first"); });
  EXPECT_THROW(group.wait(), Error);
  std::atomic<int> ran{0};
  group.run([&] { ran.fetch_add(1); });
  group.wait();  // error was consumed; second wave is clean
  EXPECT_EQ(ran.load(), 1);
}

TEST(Executor, ParallelForCoversRange) {
  std::vector<int> hits(777, 0);
  parallel_for(hits.size(), 8, [&](std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 777);
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(Executor, ParallelForZeroAndOne) {
  int calls = 0;
  parallel_for(0, 4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(1, 4, [&](std::size_t i) { calls += static_cast<int>(i) + 1; });
  EXPECT_EQ(calls, 1);  // runs inline
}

TEST(Executor, ParallelForRunsOneTaskPerBlock) {
  // The fan-out shape every caller (chunked codecs, sweeps) relies on: at
  // most max_tasks tasks, each a contiguous block of consecutive indices
  // [n*t/ntasks, n*(t+1)/ntasks) run in order on one thread.
  Executor ex(4);
  for (const std::size_t n : {2u, 7u, 64u}) {
    for (const int max_tasks : {0, 1, 3, static_cast<int>(n) + 5}) {
      std::vector<std::thread::id> thread_of(n);
      std::vector<int> seq_of(n, -1);
      std::vector<int> runs(n, 0);
      std::atomic<int> seq{0};
      const auto before = ex.stats();
      parallel_for(n, max_tasks, [&](std::size_t i) {
        thread_of[i] = std::this_thread::get_id();
        seq_of[i] = seq.fetch_add(1);
        ++runs[i];
      }, ex);
      const auto after = ex.stats();
      const std::size_t ntasks =
          max_tasks <= 0 ? n
                         : std::min(n, static_cast<std::size_t>(max_tasks));
      EXPECT_EQ(after.tasks_completed - before.tasks_completed, ntasks)
          << "n " << n << " max_tasks " << max_tasks;
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(runs[i], 1) << i;
      for (std::size_t t = 0; t < ntasks; ++t) {
        const std::size_t lo = n * t / ntasks;
        const std::size_t hi = n * (t + 1) / ntasks;
        for (std::size_t i = lo + 1; i < hi; ++i) {
          EXPECT_EQ(thread_of[i], thread_of[lo])
              << "n " << n << " max_tasks " << max_tasks << " index " << i;
          EXPECT_GT(seq_of[i], seq_of[i - 1])
              << "n " << n << " max_tasks " << max_tasks << " index " << i;
        }
      }
    }
  }
}

TEST(Executor, BackpressureBoundsInjectionQueue) {
  // Tiny queue: submissions must block-and-drain rather than grow
  // unboundedly, and every task still runs exactly once.
  Executor ex(2, /*queue_capacity=*/4);
  std::atomic<int> count{0};
  TaskGroup group(ex);
  for (int i = 0; i < 200; ++i)
    group.run([&] {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      count.fetch_add(1);
    });
  group.wait();
  EXPECT_EQ(count.load(), 200);
  EXPECT_GT(ex.stats().submit_waits, 0u);
}

TEST(Executor, BlockingScopeLendsReplacementWorker) {
  // One worker; task A blocks on it until task B runs. B is submitted once
  // A is running on the worker, so A's BlockingScope must spawn a
  // replacement worker (B itself may run there or on the helping caller).
  Executor ex(1);
  const std::uint64_t spawned_before = ex.stats().spawned;
  std::binary_semaphore sent(0), started(0);
  TaskGroup group(ex);
  int value = 0, received = 0;
  group.run([&] {
    Executor::BlockingScope scope;
    started.release();
    sent.acquire();
    received = value;
  });
  started.acquire();
  group.run([&] {
    value = 42;
    sent.release();
  });
  group.wait();
  EXPECT_EQ(received, 42);
  EXPECT_GE(ex.stats().spawned - spawned_before, 1u);
}

TEST(Executor, HelpOneRunsAQueuedTaskOfItsGroupInline) {
  // The only worker is pinned, so the group's task stays queued until the
  // calling thread takes it; once it ran, nothing of the group is queued.
  Executor ex(1);
  std::atomic<bool> release{false};
  TaskGroup blocker(ex);
  blocker.run([&] {
    while (!release.load()) std::this_thread::yield();
  });
  TaskGroup group(ex);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  group.run([&] { ran_on = std::this_thread::get_id(); });
  EXPECT_TRUE(group.help_one());
  EXPECT_EQ(ran_on, caller);
  EXPECT_FALSE(group.help_one());
  EXPECT_EQ(group.pending(), 0u);
  release.store(true);
  blocker.wait();
}

TEST(Executor, StatsAccountTaskTime) {
  Executor ex(2);
  const auto before = ex.stats();
  TaskGroup group(ex);
  for (int i = 0; i < 10; ++i)
    group.run([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  group.wait();
  const auto after = ex.stats();
  EXPECT_EQ(after.tasks_completed - before.tasks_completed, 10u);
  EXPECT_GE(after.task_seconds - before.task_seconds, 0.008);
  EXPECT_GE(after.workers, 2);
}

TEST(Executor, ManyBlockingTasksAllProgress) {
  // A chain: task i waits for token i then passes token i+1 — forces every
  // task to be live at once, far beyond the base worker count.
  Executor ex(2);
  const int n = 32;
  std::vector<int> tokens(n + 1, -1);
  std::vector<std::unique_ptr<std::binary_semaphore>> links;
  for (int i = 0; i <= n; ++i)
    links.push_back(std::make_unique<std::binary_semaphore>(0));
  TaskGroup group(ex);
  for (int i = 0; i < n; ++i)
    group.run([&, i] {
      Executor::BlockingScope scope;
      links[i]->acquire();
      tokens[i + 1] = tokens[i] + 1;
      links[i + 1]->release();
    });
  tokens[0] = 0;
  links[0]->release();
  group.wait();
  links[n]->acquire();
  EXPECT_EQ(tokens[n], n);
}

TEST(Executor, RejectsZeroCapacity) {
  EXPECT_THROW(Executor(1, 0), InvalidArgument);
}

TEST(Executor, FloodFromOnePoolTaskRunsEveryTaskOnce) {
  // One pool task floods its own deque, so every other worker can only
  // get work by stealing. Every task must still run exactly once, and the
  // executor must drain completely.
  Executor ex(4);
  const int n = 5000;
  std::vector<std::atomic<int>> runs(n);
  TaskGroup outer(ex);
  outer.run([&] {
    TaskGroup inner(ex);
    for (int i = 0; i < n; ++i)
      inner.run([&, i] {
        runs[i].fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(1));
      });
    inner.wait();
  });
  outer.wait();
  for (int i = 0; i < n; ++i) EXPECT_EQ(runs[i].load(), 1) << i;
  const auto s = ex.stats();
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.running, 0);
}

}  // namespace
}  // namespace eblcio
