// Tests for the shared grid-bench scaffolding (bench/bench_util.h): flag
// parsing into BenchEnv/SweepOptions, streamed-row ordering and table
// formatting, serial-vs-sweep bit-parity through run_grid_bench's verify
// path, the memoized measure_compression returning identical records
// to concurrent cells and keeping the fastest compress and decompress,
// and the host/build stamp on every BENCH_*.json.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table.h"

namespace eblcio {
namespace {

using bench::BenchEnv;
using bench::GridRunSummary;
using bench::StreamedTable;

BenchEnv env_from(std::vector<std::string> argv_strings) {
  argv_strings.insert(argv_strings.begin(), "test_bench");
  std::vector<char*> argv;
  for (std::string& s : argv_strings) argv.push_back(s.data());
  const CliArgs args(static_cast<int>(argv.size()), argv.data());
  return BenchEnv::from_cli(args);
}

TEST(BenchUtilFlags, DefaultsAndParsing) {
  const BenchEnv def = env_from({});
  EXPECT_EQ(def.scale, 1.0);
  EXPECT_EQ(def.reps, 1);
  EXPECT_FALSE(def.serial);
  EXPECT_FALSE(def.verify);
  EXPECT_EQ(def.jobs, 0);

  const BenchEnv env = env_from(
      {"--scale=0.5", "--reps=5", "--seed=7", "--serial", "--verify",
       "--jobs=4"});
  EXPECT_EQ(env.scale, 0.5);
  EXPECT_EQ(env.reps, 5);
  EXPECT_EQ(env.seed, 7u);
  EXPECT_TRUE(env.serial);
  EXPECT_TRUE(env.verify);
  EXPECT_EQ(env.jobs, 4);
}

TEST(BenchUtilFlags, SweepOptionsReflectFlags) {
  const BenchEnv env = env_from({"--serial", "--jobs=3", "--reps=5"});
  const SweepOptions opt = env.sweep_options();
  EXPECT_FALSE(opt.parallel);
  EXPECT_EQ(opt.max_tasks, 3);
  ASSERT_TRUE(opt.repeat.has_value());
  EXPECT_EQ(opt.repeat->min_runs, 3);
  EXPECT_EQ(opt.repeat->max_runs, 5);

  // A single-rep budget does not engage the protocol (it needs >= 2 runs).
  EXPECT_FALSE(env_from({}).sweep_options().repeat.has_value());
}

TEST(BenchUtilFlags, RepeatConfigUsesSharedProtocolClamp) {
  // BenchEnv::repeat_config is repeat_protocol: never below the 2 runs a
  // CI needs, warm-up capped at 3, budget respected.
  const RepeatConfig one = env_from({"--reps=1"}).repeat_config();
  EXPECT_EQ(one.min_runs, 2);
  EXPECT_EQ(one.max_runs, 2);
  const RepeatConfig two = env_from({"--reps=2"}).repeat_config();
  EXPECT_EQ(two.min_runs, 2);
  EXPECT_EQ(two.max_runs, 2);
  const RepeatConfig paper = env_from({"--reps=25"}).repeat_config();
  EXPECT_EQ(paper.min_runs, 3);
  EXPECT_EQ(paper.max_runs, 25);
}

TEST(PaperGrids, ThreadSweepMatchesPaper) {
  const auto& sweep = bench::paper_thread_sweep();
  ASSERT_EQ(sweep.size(), 7u);
  EXPECT_EQ(sweep.front(), 1);
  EXPECT_EQ(sweep.back(), 64);
  for (std::size_t i = 1; i < sweep.size(); ++i)
    EXPECT_EQ(sweep[i], sweep[i - 1] * 2);  // powers of two (Sec. IV-C)
}

TEST(StreamedTableTest, MatchesTextTableFrameWhenCellsFit) {
  // With cells no wider than the (min_width-padded) header, the streamed
  // output is byte-identical to TextTable's — same frame, same alignment.
  const std::vector<std::string> header = {"a column xx", "b column yy"};
  TextTable reference(header);
  std::ostringstream streamed;
  StreamedTable table(header, streamed, 10);
  for (int r = 0; r < 3; ++r) {
    const std::vector<std::string> row = {"r" + std::to_string(r), "v"};
    reference.add_row(row);
    table.add_row(row);
    if (r == 1) {
      reference.add_rule();
      table.add_rule();
    }
  }
  table.finish();
  EXPECT_EQ(streamed.str(), reference.to_string());
  EXPECT_EQ(table.rows(), 3u);
}

TEST(StreamedTableTest, RowsAppearIncrementally) {
  std::ostringstream os;
  StreamedTable table({"h"}, os);
  const std::size_t after_header = os.str().size();
  table.add_row({"first"});
  EXPECT_GT(os.str().size(), after_header);
  EXPECT_NE(os.str().find("first"), std::string::npos);
  // finish() is idempotent.
  table.finish();
  const std::string closed = os.str();
  table.finish();
  EXPECT_EQ(os.str(), closed);
}

TEST(GridBench, StreamsRowsInDomainOrderUnderParallelExecution) {
  BenchEnv env;  // parallel, no verify
  std::vector<int> cells;
  for (int i = 0; i < 24; ++i) cells.push_back(i);

  std::vector<std::size_t> order;
  std::vector<std::string> rendered;
  const GridRunSummary summary = bench::run_grid_bench(
      cells,
      env,
      [](const int& cell, SweepCellContext&) { return cell * cell; },
      [](const int& cell, const int& result) {
        return std::vector<std::string>{std::to_string(cell),
                                        std::to_string(result)};
      },
      [&](const int&, std::size_t index,
          const std::vector<std::string>& fragment) {
        order.push_back(index);
        rendered.push_back(fragment[1]);
      });
  ASSERT_EQ(order.size(), cells.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
    EXPECT_EQ(rendered[i], std::to_string(static_cast<int>(i * i)));
  }
  EXPECT_EQ(summary.stats.completed, cells.size());
  EXPECT_FALSE(summary.verified);
  EXPECT_EQ(summary.exit_code(), 0);
}

TEST(GridBench, VerifyPassesForDeterministicCells) {
  BenchEnv env;
  env.verify = true;
  std::vector<int> cells = {3, 1, 4, 1, 5, 9, 2, 6};
  const GridRunSummary summary = bench::run_grid_bench(
      cells, env,
      [](const int& cell, SweepCellContext&) { return 7 * cell + 1; },
      [](const int&, const int& result) {
        return std::vector<std::string>{std::to_string(result)};
      },
      nullptr);
  EXPECT_TRUE(summary.verified);
  EXPECT_FALSE(summary.verify_trivial);
  EXPECT_TRUE(summary.verify_ok);
  EXPECT_EQ(summary.verify_cells, cells.size());
  EXPECT_EQ(summary.exit_code(), 0);
}

TEST(GridBench, VerifyCatchesNondeterminismAndVerifyViewExcludesIt) {
  // A cell whose rendered row depends on execution count differs between
  // the sweep and the serial rerun: full-fragment comparison must fail,
  // and a verify_view projecting the fragment to its deterministic column
  // must pass — the mechanism benches with wall-clock columns rely on.
  std::atomic<int> calls{0};
  auto eval = [&](const int& cell, SweepCellContext&) {
    return std::pair<int, int>(cell, calls.fetch_add(1));
  };
  auto render = [](const int&, const std::pair<int, int>& r) {
    return std::vector<std::string>{std::to_string(r.first),
                                    std::to_string(r.second)};
  };
  std::vector<int> cells = {10, 20, 30, 40};

  BenchEnv env;
  env.verify = true;
  const GridRunSummary full =
      bench::run_grid_bench(cells, env, eval, render, nullptr);
  EXPECT_TRUE(full.verified);
  EXPECT_FALSE(full.verify_ok);
  EXPECT_GT(full.verify_mismatches, 0u);
  EXPECT_EQ(full.exit_code(), 1);

  const GridRunSummary projected = bench::run_grid_bench(
      cells, env, eval, render, nullptr,
      [](const int&, const std::vector<std::string>& fragment) {
        return fragment[0];  // drop the execution-order column
      });
  EXPECT_TRUE(projected.verify_ok);
  EXPECT_EQ(projected.exit_code(), 0);
}

TEST(GridBench, SerialRunMarksVerifyTrivial) {
  BenchEnv env;
  env.serial = true;
  env.verify = true;
  std::vector<int> cells = {1, 2, 3};
  const GridRunSummary summary = bench::run_grid_bench(
      cells, env, [](const int& c, SweepCellContext&) { return c; },
      [](const int&, const int& r) {
        return std::vector<std::string>{std::to_string(r)};
      },
      nullptr);
  EXPECT_TRUE(summary.verified);
  EXPECT_TRUE(summary.verify_trivial);
  EXPECT_TRUE(summary.verify_ok);
  EXPECT_EQ(summary.stats.cells, 3u);
}

TEST(GridBench, CellFailureRethrowsAfterSettling) {
  BenchEnv env;
  std::vector<int> cells = {0, 1, 2, 3};
  EXPECT_THROW(
      bench::run_grid_bench(
          cells, env,
          [](const int& cell, SweepCellContext&) {
            if (cell == 2) throw std::runtime_error("cell 2 failed");
            return cell;
          },
          [](const int&, const int& r) {
            return std::vector<std::string>{std::to_string(r)};
          },
          nullptr),
      std::runtime_error);
}

TEST(GridBench, RepeatStatsBitParityBetweenSerialAndSweep) {
  // ctx.repeat with a deterministic sample must produce bit-identical
  // statistics on the serial and parallel paths (the sweep engine already
  // guarantees this; the grid bench driver must preserve it end to end).
  auto eval = [](const int& cell, SweepCellContext& ctx) {
    int i = 0;
    const RepeatedStats st =
        ctx.repeat([&]() { return static_cast<double>(cell + (i++ % 3)); });
    return st;
  };
  auto render = [](const int&, const RepeatedStats& st) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.17g|%.17g|%.17g|%d", st.mean,
                  st.stddev, st.ci95_half, st.runs);
    return std::vector<std::string>{buf};
  };
  std::vector<int> cells = {2, 4, 8, 16, 32};

  BenchEnv env;
  env.reps = 5;
  env.verify = true;  // sweep vs serial rerun, full-fragment comparison
  const GridRunSummary summary =
      bench::run_grid_bench(cells, env, eval, render, nullptr);
  EXPECT_TRUE(summary.verify_ok);
  EXPECT_EQ(summary.verify_mismatches, 0u);
}

TEST(BenchUtilMeasure, ConcurrentCellsSharingAKeyGetIdenticalRecords) {
  // Eight sweep cells measure the same (field, codec, bound) key at once;
  // the per-key once-flag must hand every cell the same memoized record,
  // or --verify could never be exact for measured quantities.
  BenchEnv env;
  env.scale = 0.05;  // tiny working set: this is a scheduling test
  const Field& f = bench::bench_dataset("CESM", env);

  std::vector<int> cells = {0, 1, 2, 3, 4, 5, 6, 7};
  auto eval = [&](const int&, SweepCellContext& ctx) {
    PipelineConfig cfg;
    cfg.codec = "SZx";
    cfg.error_bound = 1e-2;
    return bench::measure_compression(f, cfg, env, &ctx);
  };
  auto render = [](const int&, const CompressionRecord& rec) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%zu|%.17g|%.17g|%.17g",
                  rec.compressed_bytes, rec.ratio, rec.host_compress_s,
                  rec.host_decompress_s);
    return std::vector<std::string>{buf};
  };
  std::set<std::string> distinct;
  const GridRunSummary summary = bench::run_grid_bench(
      cells, env, eval, render,
      [&](const int&, std::size_t, const std::vector<std::string>& fragment) {
        distinct.insert(fragment[0]);
      });
  EXPECT_EQ(summary.stats.completed, cells.size());
  EXPECT_EQ(distinct.size(), 1u);
}

TEST(BenchUtilMeasure, KeepsFastestCompressAndDecompressSeparately) {
  // Run A has the faster compress, run B the faster decompress: the kept
  // record takes one column from each, in either order, so a
  // compress-only column is not tied to the run with the fastest sum.
  CompressionRecord a;
  a.compressed_bytes = 1234;
  a.ratio = 8.0;
  a.host_compress_s = 1.0;
  a.host_decompress_s = 3.0;
  CompressionRecord b = a;
  b.host_compress_s = 2.0;
  b.host_decompress_s = 0.5;

  CompressionRecord kept = a;
  bench::keep_fastest_times(kept, b);
  EXPECT_EQ(kept.host_compress_s, 1.0);
  EXPECT_EQ(kept.host_decompress_s, 0.5);
  EXPECT_EQ(kept.compressed_bytes, 1234u);
  EXPECT_EQ(kept.ratio, 8.0);

  kept = b;
  bench::keep_fastest_times(kept, a);
  EXPECT_EQ(kept.host_compress_s, 1.0);
  EXPECT_EQ(kept.host_decompress_s, 0.5);
}

TEST(BenchJson, WriteStampsHostAndBuildMeta) {
  bench::JsonObject doc;
  doc.set("bench", std::string("stamp"));
  const std::string path = ::testing::TempDir() + "bench_stamp.json";
  ASSERT_TRUE(bench::write_json_file(path, doc));
  std::ifstream in(path);
  std::stringstream body;
  body << in.rdbuf();
  const std::string text = body.str();
  EXPECT_NE(text.find("\"bench\": \"stamp\""), std::string::npos);
  for (const char* key : {"\"meta\": {", "\"nproc\": ", "\"optimize\": ",
                          "\"ndebug\": ", "\"compiler\": "})
    EXPECT_NE(text.find(key), std::string::npos) << key;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace eblcio
