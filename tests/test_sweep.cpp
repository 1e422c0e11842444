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
#include "compressors/compressor.h"
#include "core/decision.h"
#include "core/estimator.h"
#include "core/pipeline.h"
#include "core/sweep.h"
#include "data/dataset.h"
#include "io/pfs.h"
#include "metrics/error_stats.h"
#include "parallel/executor.h"
#include "test_util.h"

namespace eblcio {
namespace {

using test::smooth_field_3d;

TEST(Sweep, ResultsInDomainOrderUnderParallelExecution) {
  // Later cells finish first (descending sleep), yet slots and the
  // streamed callback sequence stay in domain order.
  SweepOptions options;
  options.max_tasks = 4;
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
  // max_tasks caps the cells running at once; every cell runs exactly
  // once, and results still land, and stream, in domain order.
  SweepOptions options;
  options.max_tasks = 3;
  std::vector<int> cells;
  for (int i = 0; i < 10; ++i) cells.push_back(i);
  std::vector<std::atomic<int>> runs(cells.size());
  std::atomic<int> running{0}, peak{0};
  std::vector<std::size_t> streamed;
  const auto report = sweep_grid(
      cells,
      [&](const int& cell, SweepCellContext&) {
        const int now = running.fetch_add(1) + 1;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        runs[static_cast<std::size_t>(cell)].fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        running.fetch_sub(1);
        return cell + 100;
      },
      options,
      [&](const SweepCell<int, int>& cell) { streamed.push_back(cell.index); });
  EXPECT_GE(peak.load(), 1);
  EXPECT_LE(peak.load(), 3);
  ASSERT_EQ(report.cells.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << i;
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

// A cell that declares its cost; `id` is its domain position.
struct CostedTestCell {
  int id = 0;
  double c = 0.0;
  double cost() const { return c; }
};
static_assert(CostedCell<CostedTestCell>);
static_assert(!CostedCell<int>);

// Runs `cells` on one runner and returns the domain index of each cell in
// the order the cells started.
template <typename Cell>
std::vector<std::size_t> start_order(const std::vector<Cell>& cells,
                                     bool parallel) {
  SweepOptions options;
  options.parallel = parallel;
  options.max_tasks = 1;  // one runner: the claim order is the start order
  std::vector<std::size_t> started;
  sweep_grid(cells, [&](const Cell&, SweepCellContext& ctx) {
    started.push_back(ctx.index());
    return 0;
  }, options);
  return started;
}

TEST(Sweep, ParallelSweepStartsCostliestCellsFirst) {
  // Costs 1, 3, 3, 0, 5, 3: the costliest first, and the three cells of
  // cost 3 in domain order.
  const std::vector<double> costs = {1, 3, 3, 0, 5, 3};
  std::vector<CostedTestCell> cells;
  for (std::size_t i = 0; i < costs.size(); ++i)
    cells.push_back({static_cast<int>(i), costs[i]});
  std::vector<std::size_t> streamed;
  SweepOptions options;
  options.max_tasks = 1;
  std::vector<std::size_t> started;
  const auto report = sweep_grid(
      cells,
      [&](const CostedTestCell& cell, SweepCellContext& ctx) {
        EXPECT_EQ(ctx.index(), static_cast<std::size_t>(cell.id));
        started.push_back(ctx.index());
        return cell.id;
      },
      options,
      [&](const SweepCell<CostedTestCell, int>& cell) {
        streamed.push_back(cell.index);
      });
  EXPECT_EQ(started, (std::vector<std::size_t>{4, 1, 2, 5, 0, 3}));
  // Slots and the stream stay in domain order.
  const std::vector<std::size_t> domain = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(streamed, domain);
  ASSERT_EQ(report.cells.size(), costs.size());
  for (std::size_t i = 0; i < costs.size(); ++i) {
    EXPECT_EQ(report.cells[i].index, i);
    EXPECT_EQ(report.cells[i].cell.id, static_cast<int>(i));
    ASSERT_TRUE(report.cells[i].result.has_value());
    EXPECT_EQ(*report.cells[i].result, static_cast<int>(i));
  }
}

TEST(Sweep, SerialSweepsAndUncostedCellsStartInDomainOrder) {
  std::vector<CostedTestCell> costed;
  for (int i = 0; i < 6; ++i) costed.push_back({i, static_cast<double>(i)});
  const std::vector<std::size_t> domain = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(start_order(costed, /*parallel=*/false), domain);
  const std::vector<int> plain = {5, 4, 3, 2, 1, 0};
  EXPECT_EQ(start_order(plain, /*parallel=*/true), domain);
  EXPECT_EQ(start_order(plain, /*parallel=*/false), domain);
  // The costed parallel run for contrast: its claim order is reversed.
  EXPECT_EQ(start_order(costed, /*parallel=*/true),
            (std::vector<std::size_t>{5, 4, 3, 2, 1, 0}));
}

TEST(Sweep, ThrowingCallbackStopsCostOrderedClaims) {
  // Costs 3, 5, 1, 4, 2 start cells 1, 3, 0, 4, 2. Cell 0 completes third
  // and releases the stream of cells 0 and 1; the callback throws on cell
  // 1, so cells 4 and 2 never start.
  const std::vector<double> costs = {3, 5, 1, 4, 2};
  std::vector<CostedTestCell> cells;
  for (std::size_t i = 0; i < costs.size(); ++i)
    cells.push_back({static_cast<int>(i), costs[i]});
  SweepOptions options;
  options.max_tasks = 1;
  std::vector<std::size_t> started, streamed;
  EXPECT_THROW(
      sweep_grid(
          cells,
          [&](const CostedTestCell&, SweepCellContext& ctx) {
            started.push_back(ctx.index());
            return 0;
          },
          options,
          [&](const SweepCell<CostedTestCell, int>& cell) {
            streamed.push_back(cell.index);
            if (cell.index == 1) throw Error("consumer stop");
          }),
      Error);
  EXPECT_EQ(started, (std::vector<std::size_t>{1, 3, 0}));
  EXPECT_EQ(streamed, (std::vector<std::size_t>{0, 1}));
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
  std::vector<int> cells(24, 0);
  auto run = [&](bool parallel) {
    SweepOptions options;
    options.parallel = parallel;
    options.max_tasks = 8;
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

TEST(Sweep, CellsRunningStreamedPipelinesComplete) {
  // Twice as many parallel cells as pool workers, each a client that
  // dumps and restarts a field through the laned streamed pipelines on
  // its own PFS. Cells run on sweep threads, so their lane waits never
  // hold a pool worker; every field matches its serial run bit for bit.
  const std::size_t n =
      2 * static_cast<std::size_t>(Executor::global().concurrency());
  std::vector<int> cells(n);
  for (std::size_t i = 0; i < n; ++i) cells[i] = static_cast<int>(i);
  auto run = [&](bool parallel) {
    SweepOptions options;
    options.parallel = parallel;
    auto report = sweep_grid(cells, [](const int& cell, SweepCellContext&) {
      Field f = smooth_field_3d(24);
      f.set_name("cell" + std::to_string(cell));
      PipelineConfig config;
      config.codec = cell % 2 ? "ZFP" : "SZ3";
      StreamConfig stream;
      stream.slabs = 6;
      PfsSimulator pfs;
      const auto w = run_streamed_compress_write(f, config, pfs, stream);
      const auto r = run_streamed_read(pfs, w.path, config, stream);
      return std::make_pair(pfs.read_file(w.path), r.field);
    }, options);
    report.rethrow_first_error();
    return report;
  };
  const auto serial = run(false);
  const auto parallel = run(true);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& [sbytes, sfield] = *serial.cells[i].result;
    const auto& [pbytes, pfield] = *parallel.cells[i].result;
    EXPECT_TRUE(std::equal(sbytes.begin(), sbytes.end(), pbytes.begin(),
                           pbytes.end()))
        << i;
    EXPECT_EQ(sfield.shape(), pfield.shape()) << i;
    EXPECT_TRUE(std::equal(sfield.bytes().begin(), sfield.bytes().end(),
                           pfield.bytes().begin(), pfield.bytes().end()))
        << i;
  }
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

// SZ2, SZ3 and QoZ trials score the encoder's reconstruction instead of
// decoding their blobs; every trial of the default grid must still read
// exactly what compress -> decompress -> compute_error_stats gives.
TEST(Advisor, TrialsEqualCompressDecompressScores) {
  const Field f = generate_dataset_dims("NYX", {64, 64, 64}, 100);
  const Field sample = centered_sample(f, 64);
  AdvisorConstraints cons;
  cons.parallel = false;
  const AdvisorReport report = advise_compression(f, cons);
  ASSERT_EQ(report.candidates.size(),
            eblc_names().size() * cons.error_bounds.size());
  for (const AdvisorCandidate& c : report.candidates) {
    SCOPED_TRACE(c.codec + " eb " + std::to_string(c.error_bound));
    CompressOptions opt;
    opt.error_bound = c.error_bound;
    Compressor& comp = compressor(c.codec);
    const Bytes blob = comp.compress(sample, opt);
    const ErrorStats st =
        compute_error_stats(sample, comp.decompress(blob, 1));
    EXPECT_EQ(c.ratio, compression_ratio(sample.size_bytes(), blob.size()));
    EXPECT_EQ(c.psnr_db, st.psnr_db);
  }
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
