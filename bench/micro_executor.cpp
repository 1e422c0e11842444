// Google-benchmark micro-kernels for the shared executor: dispatch
// overhead, parallel_for fan-out, work stealing, and the streaming
// compress→write pipeline against its serial schedule.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "core/pipeline.h"
#include "core/sweep.h"
#include "data/dataset.h"
#include "io/pfs.h"
#include "parallel/executor.h"

namespace {

using namespace eblcio;

// Round-trip latency of submitting one empty task and waiting for it —
// the floor every parallel site pays per task.
void BM_DispatchSingleTask(benchmark::State& state) {
  for (auto _ : state) {
    TaskGroup group;
    group.run([] {});
    group.wait();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DispatchSingleTask);

// Amortized dispatch cost with a full batch in flight.
void BM_DispatchBatch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::atomic<int> count{0};
    TaskGroup group;
    for (int i = 0; i < n; ++i) group.run([&] { count.fetch_add(1); });
    group.wait();
    benchmark::DoNotOptimize(count.load());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DispatchBatch)->Arg(16)->Arg(256)->Arg(1024);

void BM_ParallelFor(benchmark::State& state) {
  const std::size_t n = 1 << 16;
  std::vector<double> out(n);
  for (auto _ : state) {
    parallel_for(n, static_cast<int>(state.range(0)), [&](std::size_t i) {
      out[i] = static_cast<double>(i) * 1.5;
    });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ParallelFor)->Arg(1)->Arg(4)->Arg(16);

// Steal-path pressure — the datapoint for randomized victim selection.
// One pool task floods its own deque with tiny subtasks, so every other
// worker must steal everything it runs; before the randomized starting
// slot, all thieves serialized on the lowest-numbered victim's deque lock.
// Reported counter: steals per iteration actually taken from peer deques.
void BM_StealChurn(benchmark::State& state) {
  Executor ex(4);
  const int n = 4096;
  const auto before = ex.stats();
  for (auto _ : state) {
    std::atomic<int> count{0};
    TaskGroup outer(ex);
    outer.run([&] {
      TaskGroup inner(ex);
      for (int i = 0; i < n; ++i) inner.run([&] { count.fetch_add(1); });
      inner.wait();
    });
    outer.wait();
    benchmark::DoNotOptimize(count.load());
  }
  const auto after = ex.stats();
  state.counters["steals_per_iter"] = benchmark::Counter(
      static_cast<double>(after.steals - before.steals) /
      static_cast<double>(std::max<std::int64_t>(state.iterations(), 1)));
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StealChurn);

// The sweep engine over a 25-cell grid (the advisor's codec×bound shape):
// Arg(0) = serial reference path, Arg(1) = batched on the executor. The
// cells sleep rather than spin so the overlap win is visible even on
// heavily shared CI hosts.
void BM_SweepGrid25(benchmark::State& state) {
  const bool parallel = state.range(0) != 0;
  Executor ex(8);
  SweepOptions options;
  options.parallel = parallel;
  options.executor = &ex;
  std::vector<int> cells(25);
  std::iota(cells.begin(), cells.end(), 0);
  for (auto _ : state) {
    auto report = sweep_grid(
        cells,
        [](const int& cell, SweepCellContext&) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          return cell * cell;
        },
        options);
    benchmark::DoNotOptimize(report.cells.size());
  }
  state.SetItemsProcessed(state.iterations() * 25);
}
BENCHMARK(BM_SweepGrid25)->Arg(0)->Arg(1);

const Field& stream_field() {
  static const Field f = generate_dataset_dims("NYX", {64, 64, 64}, 7);
  return f;
}

// Streaming vs serial write schedule. Reports the modeled speedup as a
// counter so `--benchmark_counters_tabular` shows the overlap win next to
// the host wall time.
void BM_StreamedCompressWrite(benchmark::State& state) {
  PipelineConfig config;
  config.codec = "SZ3";
  config.error_bound = 1e-3;
  StreamConfig stream;
  stream.slabs = static_cast<int>(state.range(0));
  double speedup = 0.0;
  for (auto _ : state) {
    PfsSimulator pfs;
    const auto rec =
        run_streamed_compress_write(stream_field(), config, pfs, stream);
    speedup = rec.serial_total_s / rec.streamed_total_s;
    benchmark::DoNotOptimize(rec.streamed_total_s);
  }
  state.counters["overlap_speedup"] = speedup;
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(
                              stream_field().size_bytes()));
}
BENCHMARK(BM_StreamedCompressWrite)->Arg(2)->Arg(8)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
