// Shared executor tests: stress, nesting, exception propagation, blocking
// scopes, backpressure, and accounting.
#include <gtest/gtest.h>

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

TEST(Executor, PodCountDetectsOrOverrides) {
  // Auto-detection must land on at least one pod, and never more pods
  // than workers.
  Executor auto_ex(4);
  EXPECT_GE(auto_ex.pods(), 1);
  EXPECT_LE(auto_ex.pods(), 4);
  // Explicit override wins, clamped to the worker count.
  EXPECT_EQ(Executor(4, 4096, 2).pods(), 2);
  EXPECT_EQ(Executor(2, 4096, 8).pods(), 2);
  EXPECT_EQ(Executor(4, 4096, 2).stats().pods, 2);
}

TEST(Executor, PoddedPoolCompletesFanOutAndAccountsSteals) {
  // Two pods over four workers; one producer task floods its own deque so
  // every other worker must steal. All tasks must still run exactly once
  // (cross-pod stealing keeps work conserved), and every steal is
  // classified as exactly one of pod-local / pod-remote.
  Executor ex(4, 4096, 2);
  const auto before = ex.stats();
  std::atomic<int> count{0};
  const int n = 5000;
  TaskGroup outer(ex);
  outer.run([&] {
    TaskGroup inner(ex);
    for (int i = 0; i < n; ++i)
      inner.run([&] {
        count.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(1));
      });
    inner.wait();
  });
  outer.wait();
  EXPECT_EQ(count.load(), n);
  const auto after = ex.stats();
  EXPECT_EQ(after.steals - before.steals,
            (after.pod_local_steals - before.pod_local_steals) +
                (after.pod_remote_steals - before.pod_remote_steals));
}

TEST(Executor, PodHintedPlacementIsConserved) {
  // Every hinted task is classified exactly once at run time, as pod-local
  // or pod-remote — whether it ran on a worker of the hinted pod, was
  // stolen cross-pod, or was help-run inline by the waiting submitter.
  Executor ex(4, 4096, 2);
  const auto before = ex.stats();
  std::atomic<int> count{0};
  const int n = 3000;
  TaskGroup group(ex);
  for (int i = 0; i < n; ++i)
    group.run([&] { count.fetch_add(1); }, i % 2);
  group.wait();
  EXPECT_EQ(count.load(), n);
  const auto after = ex.stats();
  EXPECT_EQ((after.placed_local - before.placed_local) +
                (after.placed_remote - before.placed_remote),
            static_cast<std::uint64_t>(n));
}

TEST(Executor, PodHintedPlacementIsMostlyLocalUnderPlentifulWork) {
  // With every worker kept busy by its own deque, cross-pod stealing is
  // rare, so hinted tasks overwhelmingly run inside their hinted pod. This
  // is the property the chunked compressors rely on: slab i's task lands
  // on the pod that owns slab i's buffers.
  Executor ex(4, 4096, 2);
  const auto before = ex.stats();
  std::atomic<unsigned> sink{0};
  const int n = 4000;
  TaskGroup group(ex);
  for (int i = 0; i < n; ++i)
    group.run(
        [&, i] {
          // A dependent LCG chain the compiler cannot fold: each task
          // costs a few microseconds, so deques build depth and workers
          // stay fed from their own pod instead of starving into steals.
          unsigned x = static_cast<unsigned>(i) + 1;
          for (int k = 0; k < 20000; ++k) x = x * 1664525u + 1013904223u;
          sink.fetch_add(x, std::memory_order_relaxed);
        },
        i % 2);
  group.wait();
  const auto after = ex.stats();
  const std::uint64_t local = after.placed_local - before.placed_local;
  const std::uint64_t remote = after.placed_remote - before.placed_remote;
  ASSERT_EQ(local + remote, static_cast<std::uint64_t>(n));
  EXPECT_GE(local, static_cast<std::uint64_t>(n) * 9 / 10)
      << "local " << local << " remote " << remote;
}

TEST(Executor, UnhintedTasksDoNotCountAsPlacements) {
  Executor ex(2, 4096, 2);
  const auto before = ex.stats();
  std::atomic<int> count{0};
  TaskGroup group(ex);
  for (int i = 0; i < 500; ++i) group.run([&] { count.fetch_add(1); });
  group.wait();
  EXPECT_EQ(count.load(), 500);
  const auto after = ex.stats();
  EXPECT_EQ(after.placed_local, before.placed_local);
  EXPECT_EQ(after.placed_remote, before.placed_remote);
}

TEST(Executor, SinglePodClassifiesAllStealsLocal) {
  Executor ex(3, 4096, 1);
  std::atomic<int> count{0};
  TaskGroup outer(ex);
  outer.run([&] {
    TaskGroup inner(ex);
    for (int i = 0; i < 2000; ++i) inner.run([&] { count.fetch_add(1); });
    inner.wait();
  });
  outer.wait();
  EXPECT_EQ(count.load(), 2000);
  const auto s = ex.stats();
  EXPECT_EQ(s.pods, 1);
  EXPECT_EQ(s.pod_remote_steals, 0u);
  EXPECT_EQ(s.pod_local_steals, s.steals);
}

}  // namespace
}  // namespace eblcio
