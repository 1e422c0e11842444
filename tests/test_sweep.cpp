// Sweep-engine tests: deterministic result ordering under parallel
// execution, in-order streaming, per-cell exception isolation, callback
// aborts, repetition-protocol parity with the serial path, measured
// overlap speedup, and the refactored advisor/estimator/multi-node sites.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/timer.h"
#include "core/decision.h"
#include "core/estimator.h"
#include "core/sweep.h"
#include "io/pfs.h"
#include "test_util.h"

namespace eblcio {
namespace {

using test::smooth_field_3d;

TEST(Sweep, ResultsInDomainOrderUnderParallelExecution) {
  // Later cells finish first (descending sleep), yet slots and the
  // streamed callback sequence stay in domain order.
  Executor ex(4);
  SweepOptions options;
  options.executor = &ex;
  std::vector<int> cells;
  for (int i = 0; i < 16; ++i) cells.push_back(i);

  std::vector<std::size_t> streamed;
  const auto report = sweep_grid(
      cells,
      [](const int& cell, SweepCellContext&) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds((15 - cell) % 4 * 3));
        return cell * 10;
      },
      options,
      [&](const SweepCell<int, int>& cell) { streamed.push_back(cell.index); });

  ASSERT_EQ(report.cells.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(report.cells[i].index, i);
    EXPECT_EQ(report.cells[i].cell, static_cast<int>(i));
    ASSERT_TRUE(report.cells[i].result.has_value());
    EXPECT_EQ(*report.cells[i].result, static_cast<int>(i) * 10);
  }
  ASSERT_EQ(streamed.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(streamed[i], i);
  EXPECT_EQ(report.stats.completed, 16u);
  EXPECT_EQ(report.stats.failed, 0u);
}

TEST(Sweep, MaxTasksBoundsCellTasks) {
  // max_tasks groups consecutive cells into that many executor tasks;
  // results still land, and stream, in domain order.
  Executor ex(4);
  SweepOptions options;
  options.executor = &ex;
  options.max_tasks = 3;
  std::vector<int> cells;
  for (int i = 0; i < 10; ++i) cells.push_back(i);
  std::vector<std::size_t> streamed;
  const auto before = ex.stats();
  const auto report = sweep_grid(
      cells, [](const int& cell, SweepCellContext&) { return cell + 100; },
      options,
      [&](const SweepCell<int, int>& cell) { streamed.push_back(cell.index); });
  const auto after = ex.stats();
  EXPECT_EQ(after.tasks_completed - before.tasks_completed, 3u);
  ASSERT_EQ(report.cells.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(report.cells[i].index, i);
    ASSERT_TRUE(report.cells[i].result.has_value()) << i;
    EXPECT_EQ(*report.cells[i].result, static_cast<int>(i) + 100);
  }
  ASSERT_EQ(streamed.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(streamed[i], i);
}

TEST(Sweep, SerialAndParallelEmitIdenticalSequences) {
  std::vector<int> cells;
  for (int i = 0; i < 24; ++i) cells.push_back(i * 7 + 1);

  auto run = [&](bool parallel) {
    SweepOptions options;
    options.parallel = parallel;
    std::vector<int> emitted;
    sweep_grid(
        cells,
        [](const int& cell, SweepCellContext&) { return cell * cell; },
        options,
        [&](const SweepCell<int, int>& cell) {
          emitted.push_back(*cell.result);
        });
    return emitted;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(Sweep, CellExceptionIsIsolated) {
  std::vector<int> cells;
  for (int i = 0; i < 32; ++i) cells.push_back(i);
  const auto report = sweep_grid(
      cells, [](const int& cell, SweepCellContext&) {
        if (cell == 7) throw InvalidArgument("cell 7 boom");
        return cell;
      });
  EXPECT_EQ(report.stats.failed, 1u);
  EXPECT_EQ(report.stats.completed, 31u);
  EXPECT_TRUE(report.cells[7].error != nullptr);
  EXPECT_FALSE(report.cells[7].result.has_value());
  for (std::size_t i = 0; i < 32; ++i) {
    if (i == 7) continue;
    ASSERT_TRUE(report.cells[i].result.has_value()) << i;
  }
  EXPECT_THROW(report.rethrow_first_error(), InvalidArgument);
}

TEST(Sweep, CallbackExceptionAbortsGridUniformly) {
  // A throwing on_cell stops further callbacks, skips unstarted cells, and
  // rethrows from sweep_grid — identically in serial and parallel mode.
  auto run = [&](bool parallel) {
    SweepOptions options;
    options.parallel = parallel;
    options.max_tasks = 1;  // in-order evaluation in parallel mode too
    std::vector<int> cells(8, 0);
    std::size_t emitted = 0;
    bool threw = false;
    try {
      sweep_grid(
          cells, [](const int&, SweepCellContext&) { return 1; }, options,
          [&](const SweepCell<int, int>& cell) {
            ++emitted;
            if (cell.index == 2) throw Error("consumer stop");
          });
    } catch (const Error&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
    return emitted;
  };
  EXPECT_EQ(run(false), 3u);  // cells 0..2 streamed, then the abort
  EXPECT_EQ(run(true), 3u);
}

TEST(Sweep, RepetitionStatsMatchSerialPathBitForBit) {
  // Deterministic per-cell sample streams: cell i's k-th sample is a pure
  // function of (i, k), so the Sec. IV-C statistics must be bit-identical
  // between the serial and the parallel execution of the same grid.
  RepeatConfig repeat;
  repeat.min_runs = 3;
  repeat.max_runs = 9;
  repeat.target_rel_ci = 0.02;

  auto run = [&](bool parallel) {
    SweepOptions options;
    options.parallel = parallel;
    options.repeat = repeat;
    std::vector<int> cells;
    for (int i = 0; i < 20; ++i) cells.push_back(i);
    auto report = sweep_grid(cells, [](const int& cell, SweepCellContext& ctx) {
      int k = 0;
      return ctx.repeat([cell, k]() mutable {
        ++k;
        return 100.0 + cell + 3.0 * std::sin(cell * 17.0 + k * 5.0);
      });
    }, options);
    std::vector<RepeatedStats> stats;
    for (auto& c : report.cells) stats.push_back(*c.result);
    return stats;
  };

  const auto serial = run(false);
  const auto parallel = run(true);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].runs, parallel[i].runs) << i;
    EXPECT_EQ(serial[i].mean, parallel[i].mean) << i;          // bit-for-bit
    EXPECT_EQ(serial[i].stddev, parallel[i].stddev) << i;
    EXPECT_EQ(serial[i].ci95_half, parallel[i].ci95_half) << i;
  }
}

TEST(Sweep, ParallelGridBeatsSerialWallClock) {
  // >= 20 cells of pure waiting: overlap must beat the serial path by a
  // wide margin (sleeps overlap even on a single-core host). Acceptance
  // datapoint for the unified sweep engine.
  Executor ex(8);
  std::vector<int> cells(24, 0);
  auto run = [&](bool parallel) {
    SweepOptions options;
    options.parallel = parallel;
    options.executor = &ex;
    WallTimer timer;
    auto report = sweep_grid(cells, [](const int&, SweepCellContext&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      return 1;
    }, options);
    EXPECT_EQ(report.stats.completed, 24u);
    return timer.elapsed_s();
  };
  const double serial_s = run(false);
  const double parallel_s = run(true);
  std::printf("sweep speedup over serial: %.1fx (serial %.0f ms, parallel "
              "%.0f ms, 24 cells)\n",
              serial_s / parallel_s, serial_s * 1e3, parallel_s * 1e3);
  EXPECT_LT(parallel_s, serial_s * 0.6);
}

TEST(Advisor, ParallelSweepMatchesSerialResults) {
  const Field f = smooth_field_3d(32);
  auto run = [&](bool parallel) {
    AdvisorConstraints cons;
    cons.psnr_min_db = 40.0;
    cons.parallel = parallel;
    auto report = advise_compression(f, cons);
    // Compare the deterministic fields (measured kernel *time* legitimately
    // varies run-to-run, so energies/scores may reorder equal-ratio cells).
    std::vector<std::tuple<std::string, double, double, double, bool>> rows;
    for (const auto& c : report.candidates)
      rows.push_back({c.codec, c.error_bound, c.ratio, c.psnr_db, c.feasible});
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(Advisor, StreamsTrialsInDomainOrder) {
  const Field f = smooth_field_3d(24);
  AdvisorConstraints cons;
  cons.psnr_min_db = 40.0;
  cons.codecs = {"SZ3", "SZx"};
  cons.error_bounds = {1e-2, 1e-3};
  std::vector<std::pair<std::string, double>> streamed;
  std::size_t last_done = 0;
  advise_compression(f, cons,
                     [&](const AdvisorCandidate& c, std::size_t done,
                         std::size_t total) {
                       EXPECT_GT(done, last_done);
                       last_done = done;
                       EXPECT_EQ(total, 4u);
                       streamed.push_back({c.codec, c.error_bound});
                     });
  const std::vector<std::pair<std::string, double>> want = {
      {"SZ3", 1e-2}, {"SZ3", 1e-3}, {"SZx", 1e-2}, {"SZx", 1e-3}};
  EXPECT_EQ(streamed, want);
}

TEST(Estimator, GridMatchesSingleCellCallsBitForBit) {
  const Field f = smooth_field_3d(40);
  const std::vector<std::string> codecs = {"SZ3", "ZFP", "SZx", "QoZ"};
  const std::vector<double> bounds = {1e-2, 1e-3, 1e-4};
  const auto entries = estimate_ratio_grid(f, codecs, bounds);
  ASSERT_EQ(entries.size(), codecs.size() * bounds.size());
  std::size_t k = 0;
  for (const auto& codec : codecs)
    for (double eb : bounds) {
      const RatioEstimate one = estimate_ratio(f, codec, eb);
      ASSERT_TRUE(entries[k].ok) << entries[k].error;
      EXPECT_EQ(entries[k].codec, codec);
      EXPECT_EQ(entries[k].estimate.bits_per_value, one.bits_per_value);
      EXPECT_EQ(entries[k].estimate.predicted_ratio, one.predicted_ratio);
      EXPECT_EQ(entries[k].estimate.sampled_values, one.sampled_values);
      ++k;
    }
}

TEST(Estimator, GridIsolatesUnknownCodec) {
  const Field f = smooth_field_3d(24);
  const auto entries =
      estimate_ratio_grid(f, {"SZ3", "zstd", "ZFP"}, {1e-3});
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_TRUE(entries[0].ok);
  EXPECT_FALSE(entries[1].ok);
  EXPECT_NE(entries[1].error.find("no ratio model"), std::string::npos);
  EXPECT_TRUE(entries[2].ok);
}

TEST(Pfs, WriterRegistryCountsAndPeaks) {
  PfsSimulator pfs;
  EXPECT_EQ(pfs.concurrent_writers(), 0);
  {
    PfsSimulator::WriterScope a(pfs, 3);
    EXPECT_EQ(pfs.concurrent_writers(), 3);
    {
      PfsSimulator::WriterScope b(pfs, 4);
      EXPECT_EQ(pfs.concurrent_writers(), 7);
    }
    EXPECT_EQ(pfs.concurrent_writers(), 3);
  }
  EXPECT_EQ(pfs.concurrent_writers(), 0);
  EXPECT_EQ(pfs.peak_concurrent_writers(), 7);
  pfs.reset_writer_peak();
  EXPECT_EQ(pfs.peak_concurrent_writers(), 0);
}

TEST(Pfs, ConcurrentAppendsFromManyTasksStayIntact) {
  // The PFS is now internally locked: concurrent clients writing distinct
  // files must never corrupt stripes or lose bytes.
  PfsSimulator pfs;
  parallel_for(16, 0, [&](std::size_t i) {
    Bytes data;
    for (std::size_t k = 0; k < 40000; ++k)
      data.push_back(static_cast<std::byte>((i * 131 + k) & 0xFF));
    const std::string path = "/t/file" + std::to_string(i);
    pfs.append_file(path, std::span<const std::byte>(data.data(), 16384), 16);
    pfs.append_file(path,
                    std::span<const std::byte>(data.data() + 16384,
                                               data.size() - 16384),
                    16);
  });
  for (std::size_t i = 0; i < 16; ++i) {
    const Bytes back = pfs.read_file("/t/file" + std::to_string(i));
    ASSERT_EQ(back.size(), 40000u);
    for (std::size_t k = 0; k < back.size(); ++k)
      ASSERT_EQ(back[k], static_cast<std::byte>((i * 131 + k) & 0xFF));
  }
}

TEST(MultiNode, BatchedWorldsFeedTrueWriterCountToSharedPfs) {
  // Three rank fleets as sweep cells against one PFS, each folded over its
  // ranks. Serial: worlds never overlap, so the peak registered-writer
  // count is exactly the largest fleet. Batched: the peak can only grow
  // (overlapping fleets sum) and never exceed the whole-grid fleet sum.
  const std::vector<int> fleets = {3, 5, 4};
  auto run = [&](bool parallel) {
    PfsSimulator pfs;
    SweepOptions options;
    options.parallel = parallel;
    auto report = sweep_grid(fleets, [&](const int& nranks,
                                         SweepCellContext&) {
      PfsSimulator::WriterScope fleet(pfs, nranks);
      double total = 0.0;
      for (int rank = 0; rank < nranks; ++rank) {
        const int clients = std::max(nranks, pfs.concurrent_writers());
        EXPECT_GE(clients, nranks);
        total = std::max(total, pfs.transfer_seconds(1 << 20, clients));
      }
      return total;
    }, options);
    report.rethrow_first_error();
    return pfs.peak_concurrent_writers();
  };
  EXPECT_EQ(run(false), 5);  // serial: exactly the largest fleet
  const int batched_peak = run(true);
  EXPECT_GE(batched_peak, 5);
  EXPECT_LE(batched_peak, 12);
}

}  // namespace
}  // namespace eblcio
