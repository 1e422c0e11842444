// End-to-end integration tests: generate a data set, compress it, write it
// through an I/O library to the PFS, read it back, decompress, verify the
// bound — the full loop a scientist's checkpoint/restart takes. Also a
// compact multi-node fleet folded over its ranks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "common/timer.h"
#include "compressors/compressor.h"
#include "core/pipeline.h"
#include "data/dataset.h"
#include "io/io_tool.h"
#include "metrics/error_stats.h"
#include "parallel/executor.h"

namespace eblcio {
namespace {

struct Scenario {
  std::string dataset;
  std::vector<std::size_t> dims;
  std::string codec;
  std::string io;
  double eb;
};

class EndToEnd : public ::testing::TestWithParam<Scenario> {};

TEST_P(EndToEnd, CheckpointRestartLoop) {
  const Scenario& sc = GetParam();
  const Field original = generate_dataset_dims(sc.dataset, sc.dims, 33);

  CompressOptions opt;
  opt.mode = BoundMode::kValueRangeRel;
  opt.error_bound = sc.eb;
  Compressor& comp = compressor(sc.codec);
  const Bytes blob = comp.compress(original, opt);

  // Checkpoint: write blob through the I/O library onto the PFS.
  PfsSimulator pfs;
  IoTool& tool = io_tool(sc.io);
  const std::string path = "/ckpt/" + sc.dataset;
  tool.write_blob(pfs, path, original.name(), blob);

  // Restart: read back, decode whoever wrote it, verify the bound.
  const Bytes back = tool.read_blob(pfs, path, original.name());
  ASSERT_EQ(back.size(), blob.size());
  const Field restored = decompress_any(back);
  EXPECT_EQ(restored.shape(), original.shape());
  EXPECT_TRUE(check_value_range_bound(original, restored, sc.eb))
      << sc.dataset << "/" << sc.codec << "/" << sc.io;
}

INSTANTIATE_TEST_SUITE_P(
    DatasetsCodecsLibraries, EndToEnd,
    ::testing::Values(
        Scenario{"NYX", {32, 32, 32}, "SZ3", "HDF5", 1e-3},
        Scenario{"NYX", {32, 32, 32}, "ZFP", "NetCDF", 1e-3},
        Scenario{"CESM", {4, 48, 96}, "SZ2", "HDF5", 1e-4},
        Scenario{"CESM", {4, 48, 96}, "QoZ", "NetCDF", 1e-2},
        Scenario{"HACC", {80000}, "SZx", "HDF5", 1e-3},
        Scenario{"HACC", {80000}, "SZ3", "NetCDF", 1e-4},
        Scenario{"S3D", {3, 20, 20, 20}, "ZFP", "HDF5", 1e-3},
        Scenario{"S3D", {3, 20, 20, 20}, "SZx", "NetCDF", 1e-5},
        Scenario{"ISABEL", {8, 40, 40}, "SZ3", "HDF5", 1e-3},
        Scenario{"QMCPack", {24, 24, 24}, "SZ2", "HDF5", 1e-3}));

TEST(EndToEndLossless, ArchiveLoop) {
  const Field original = generate_dataset_dims("EXAFEL", {2, 96, 96}, 4);
  PfsSimulator pfs;
  for (const std::string& codec : lossless_names()) {
    CompressOptions opt;
    opt.mode = BoundMode::kLossless;
    const Bytes blob = compressor(codec).compress(original, opt);
    io_tool("HDF5").write_blob(pfs, "/arch/" + codec, "img", blob);
    const Field back = decompress_any(
        io_tool("HDF5").read_blob(pfs, "/arch/" + codec, "img"));
    const auto st = compute_error_stats(original, back);
    EXPECT_EQ(st.max_abs_error, 0.0) << codec;
  }
}

TEST(EndToEndMultiNode, RanksCompressAndWriteConcurrently) {
  // A miniature Fig. 12: every rank compresses its copy of the field and
  // writes it to a shared PFS as one executor task; the fleet's wall time
  // folds compute + contended I/O over the ranks. Ranks never wait on
  // anything outside their own task, so they can run as pool tasks.
  const int kRanks = 8;
  const Field field = generate_dataset_dims("NYX", {24, 24, 24}, 9);
  PfsSimulator pfs;
  std::vector<double> comp_s(kRanks, 0.0), write_s(kRanks, 0.0);

  parallel_for(kRanks, 0, [&](std::size_t rank) {
    CompressOptions opt;
    opt.error_bound = 1e-3;
    Compressor& comp = compressor("SZ3");

    WallTimer timer;
    const Bytes blob = comp.compress(field, opt);
    comp_s[rank] = timer.elapsed_s();
    write_s[rank] =
        pfs.write_file("/dump/rank" + std::to_string(rank), blob, kRanks)
            .seconds;
  });

  double wall = 0.0;
  for (int r = 0; r < kRanks; ++r)
    wall = std::max(wall, comp_s[r] + write_s[r]);

  // All ranks produced a file; the fleet took simulated time.
  EXPECT_EQ(pfs.list_files().size(), static_cast<std::size_t>(kRanks));
  EXPECT_GT(wall, 0.0);

  // Every rank's dump decodes within bound.
  const Field check = decompress_any(pfs.read_file("/dump/rank3"));
  EXPECT_TRUE(check_value_range_bound(field, check, 1e-3));
}

TEST(EndToEndPipeline, FullSweepSmall) {
  // A miniature Fig. 11 cell for every codec on a small NYX field.
  const Field f = generate_dataset_dims("NYX", {32, 32, 32}, 13);
  PfsSimulator pfs;
  for (const std::string& codec : eblc_names()) {
    PipelineConfig cfg;
    cfg.codec = codec;
    cfg.error_bound = 1e-3;
    cfg.psnr_min_db = 0.0;
    const auto rec = run_compress_write(f, cfg, pfs);
    EXPECT_GT(rec.compression.ratio, 1.0) << codec;
    EXPECT_TRUE(rec.verdict.quality_acceptable) << codec;
    EXPECT_GT(rec.verdict.io_energy_reduction, 1.0) << codec;
  }
}

}  // namespace
}  // namespace eblcio
