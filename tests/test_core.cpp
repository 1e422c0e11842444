// Core framework tests: the 25-rep/95%-CI protocol, the Sec. III benefit
// conditions, the measured pipeline, and the compression advisor.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "common/rng.h"
#include "compressors/compressor.h"
#include "core/decision.h"
#include "core/experiment.h"
#include "core/pipeline.h"
#include "core/tradeoff.h"
#include "parallel/executor.h"
#include "test_util.h"

namespace eblcio {
namespace {

using test::smooth_field_3d;

TEST(Experiment, TCriticalValues) {
  EXPECT_NEAR(t_critical_95(2), 12.706, 1e-3);
  EXPECT_NEAR(t_critical_95(5), 2.776, 1e-3);
  EXPECT_NEAR(t_critical_95(25), 2.064, 1e-3);
  EXPECT_NEAR(t_critical_95(1000), 1.96, 1e-3);
}

TEST(Experiment, StopsEarlyOnStableSamples) {
  int calls = 0;
  const auto st = run_repeated([&] {
    ++calls;
    return 100.0;  // zero variance
  });
  EXPECT_EQ(st.runs, 3);  // min_runs
  EXPECT_EQ(calls, 3);
  EXPECT_DOUBLE_EQ(st.mean, 100.0);
  EXPECT_DOUBLE_EQ(st.ci95_half, 0.0);
}

TEST(Experiment, CapsAtTwentyFiveRuns) {
  Rng rng(1);
  int calls = 0;
  const auto st = run_repeated([&] {
    ++calls;
    return rng.normal() * 1000.0;  // hopelessly noisy
  });
  EXPECT_EQ(st.runs, 25);  // the paper's cap
  EXPECT_EQ(calls, 25);
}

TEST(Experiment, ComputesSaneStatistics) {
  // Alternating 9/11: mean 10, sd ~1.
  int i = 0;
  RepeatConfig cfg;
  cfg.target_rel_ci = 1e-9;  // force all runs
  const auto st = run_repeated([&] { return (i++ % 2) ? 11.0 : 9.0; }, cfg);
  EXPECT_NEAR(st.mean, 10.0, 0.1);
  EXPECT_NEAR(st.stddev, 1.0, 0.05);
  EXPECT_GT(st.ci95_half, 0.0);
}

TEST(Tradeoff, AllThreeConditionsRequired) {
  TradeoffMeasurement m;
  m.compress_seconds = 1.0;
  m.compress_joules = 100.0;
  m.write_compressed_seconds = 0.1;
  m.write_compressed_joules = 10.0;
  m.write_original_seconds = 5.0;
  m.write_original_joules = 500.0;
  m.psnr_db = 80.0;

  auto v = evaluate_tradeoff(m, 60.0);
  EXPECT_TRUE(v.time_beneficial);
  EXPECT_TRUE(v.energy_beneficial);
  EXPECT_TRUE(v.quality_acceptable);
  EXPECT_TRUE(v.beneficial());

  // Fail quality only (Eq. 5).
  v = evaluate_tradeoff(m, 90.0);
  EXPECT_FALSE(v.quality_acceptable);
  EXPECT_FALSE(v.beneficial());

  // Fail energy only (Eq. 4): expensive compression.
  m.compress_joules = 1000.0;
  v = evaluate_tradeoff(m, 60.0);
  EXPECT_FALSE(v.energy_beneficial);
  EXPECT_TRUE(v.time_beneficial);
  EXPECT_FALSE(v.beneficial());
}

TEST(Tradeoff, ReductionRatios) {
  TradeoffMeasurement m;
  m.compress_joules = 40.0;
  m.write_compressed_joules = 10.0;
  m.write_original_joules = 1000.0;
  m.write_compressed_seconds = 0.01;
  m.write_original_seconds = 1.0;
  const auto v = evaluate_tradeoff(m, 0.0);
  EXPECT_DOUBLE_EQ(v.io_energy_reduction, 100.0);
  EXPECT_DOUBLE_EQ(v.total_energy_reduction, 20.0);
  EXPECT_DOUBLE_EQ(v.io_time_reduction, 100.0);
}

TEST(Pipeline, CompressionRecordIsConsistent) {
  PipelineConfig cfg;
  cfg.codec = "SZx";
  cfg.error_bound = 1e-3;
  const Field f = smooth_field_3d(32);
  const auto rec = run_compression(f, cfg);
  EXPECT_EQ(rec.codec, "SZx");
  EXPECT_EQ(rec.original_bytes, f.size_bytes());
  EXPECT_GT(rec.compressed_bytes, 0u);
  EXPECT_GT(rec.ratio, 1.0);
  EXPECT_GT(rec.compress_j, 0.0);
  EXPECT_GT(rec.decompress_j, 0.0);
  EXPECT_LE(rec.quality.max_rel_error, 1e-3 * (1 + 1e-9));
  // Platform time = host time / 1.35 on the default 9480.
  EXPECT_LT(rec.compress_s, rec.host_compress_s);
}

TEST(Pipeline, BlobOutAvoidsRecompression) {
  PipelineConfig cfg;
  cfg.codec = "SZx";
  const Field f = smooth_field_3d(24);
  Bytes blob;
  run_compression(f, cfg, &blob);
  EXPECT_GT(blob.size(), 0u);
  EXPECT_EQ(peek_header(blob).codec, "SZx");
}

// Strong scaling (paper Sec. IV-C, Fig. 10): the bench's cells run
// through run_compression at 1..64 threads.
class StrongScaling : public ::testing::TestWithParam<std::string> {};

TEST_P(StrongScaling, BoundHoldsAtEveryThreadCount) {
  const Field f = smooth_field_3d(40);
  for (int threads : {1, 2, 8}) {
    PipelineConfig cfg;
    cfg.codec = GetParam();
    cfg.error_bound = 1e-3;
    cfg.threads = threads;
    const auto rec = run_compression(f, cfg);
    EXPECT_LE(rec.quality.max_abs_error, 1e-3 * rec.quality.value_range)
        << GetParam() << " threads=" << threads;
    EXPECT_GT(rec.ratio, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllEblcs, StrongScaling,
                         ::testing::Values("SZ2", "SZ3", "ZFP", "QoZ",
                                           "SZx"));

TEST(Pipeline, ParallelCellsDispatchExecutorTasks) {
  // Parallel cells run slab tasks on the shared executor, which accounts
  // them; serial cells dispatch none.
  const Field f = smooth_field_3d(24);
  const auto delta = [&](int threads) {
    PipelineConfig cfg;
    cfg.codec = "SZx";
    cfg.threads = threads;
    const ExecutorStats before = Executor::global().stats();
    run_compression(f, cfg);
    const ExecutorStats after = Executor::global().stats();
    return std::pair(after.tasks_completed - before.tasks_completed,
                     after.task_seconds - before.task_seconds);
  };
  EXPECT_EQ(delta(1).first, 0u);
  const auto [tasks, seconds] = delta(4);
  EXPECT_GT(tasks, 0u);
  EXPECT_GT(seconds, 0.0);
}

TEST(Pipeline, SzxParallelIsNotPathological) {
  // Quantitative speedup factors belong to the Fig. 10 bench (this host is
  // shared, so wall-clock ratios are too noisy for a hard unit assertion).
  // Here we only guard against a pathological parallel path: 8 threads must
  // not be meaningfully slower than serial on a sizeable field.
  const Field f = smooth_field_3d(96);
  auto best = [&](int threads) {
    PipelineConfig cfg;
    cfg.codec = "SZx";
    cfg.threads = threads;
    double t = 1e9;
    for (int i = 0; i < 3; ++i)
      t = std::min(t, run_compression(f, cfg).host_compress_s);
    return t;
  };
  EXPECT_LT(best(8), best(1) * 1.5);
}

TEST(Pipeline, WriteRecordEvaluatesTradeoff) {
  PipelineConfig cfg;
  cfg.codec = "SZ3";
  cfg.error_bound = 1e-2;
  cfg.psnr_min_db = 20.0;
  PfsSimulator pfs;
  // Large enough that transfer (not open latency) dominates the write.
  const Field f = smooth_field_3d(128);
  const auto rec = run_compress_write(f, cfg, pfs);
  // Compressed write must be far cheaper than the original write.
  EXPECT_GT(rec.verdict.io_energy_reduction, 5.0);
  EXPECT_TRUE(rec.verdict.quality_acceptable);
  // Files actually landed on the PFS.
  EXPECT_EQ(pfs.list_files().size(), 2u);
}

TEST(Pipeline, NetCdfWritesCostMore) {
  PipelineConfig h5cfg, nccfg;
  h5cfg.codec = nccfg.codec = "SZx";
  h5cfg.io_library = "HDF5";
  nccfg.io_library = "NetCDF";
  PfsSimulator pfs;
  const Field f = smooth_field_3d(32);
  const auto h5 = run_compress_write(f, h5cfg, pfs);
  const auto nc = run_compress_write(f, nccfg, pfs);
  EXPECT_GT(nc.write_original_j, h5.write_original_j * 1.5);
}

TEST(Advisor, RecommendsFeasibleCandidate) {
  const Field f = smooth_field_3d(48);
  AdvisorConstraints cons;
  cons.psnr_min_db = 50.0;
  const auto report = advise_compression(f, cons);
  EXPECT_FALSE(report.candidates.empty());
  ASSERT_FALSE(report.recommendation.codec.empty());
  EXPECT_GE(report.recommendation.psnr_db, 50.0);
  EXPECT_GT(report.recommendation.ratio, 1.0);
}

TEST(Advisor, ObjectiveChangesRanking) {
  const Field f = smooth_field_3d(48);
  AdvisorConstraints energy_cons;
  energy_cons.objective = Objective::kMinEnergy;
  energy_cons.psnr_min_db = 40.0;
  AdvisorConstraints ratio_cons;
  ratio_cons.objective = Objective::kMaxRatio;
  ratio_cons.psnr_min_db = 40.0;
  const auto e = advise_compression(f, energy_cons);
  const auto r = advise_compression(f, ratio_cons);
  // Max-ratio recommendation should compress at least as hard.
  EXPECT_GE(r.recommendation.ratio, e.recommendation.ratio * 0.99);
}

TEST(Advisor, ImpossibleFloorYieldsNoRecommendation) {
  const Field f = smooth_field_3d(24);
  AdvisorConstraints cons;
  cons.psnr_min_db = 1e9;
  const auto report = advise_compression(f, cons);
  EXPECT_TRUE(report.recommendation.codec.empty());
}

}  // namespace
}  // namespace eblcio
