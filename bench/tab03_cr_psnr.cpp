// Table III — Select EBLC Statistics (compression ratio and PSNR) for
// SZ3 / ZFP / SZx on NYX, HACC and S3D at REL bounds 1e-1, 1e-3, 1e-5.
//
// The dataset×bound×codec grid (3×3×3 = 27 cells) runs as a sweep on
// sweep threads; each table row streams the moment its three codec
// cells resolve. --serial, --verify and --reps behave as documented in
// bench/README.md.
#include <cstdio>

#include "bench_util.h"
#include "compressors/compressor.h"
#include "metrics/error_stats.h"

using namespace eblcio;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const auto env = bench::BenchEnv::from_cli(args);
  args.reject_unknown();
  bench::print_bench_header(
      "Table III", "Select EBLC statistics (CR and PSNR)", env);

  const std::vector<std::string> datasets = {"NYX", "HACC", "S3D"};
  const std::vector<double> bounds = {1e-1, 1e-3, 1e-5};
  const std::vector<std::string> codecs = {"SZ3", "ZFP", "SZx"};

  struct Cell {
    std::string dataset;
    double eb = 0.0;
    std::string codec;
  };
  const std::size_t per_row = codecs.size();
  const std::size_t per_dataset = bounds.size() * per_row;
  std::vector<Cell> cells;
  for (const std::string& dataset : datasets) {
    bench::bench_dataset(dataset, env);  // generate before the cells race
    for (double eb : bounds)
      for (const std::string& codec : codecs)
        cells.push_back({dataset, eb, codec});
  }

  auto eval = [&](const Cell& cell, SweepCellContext& ctx) {
    PipelineConfig cfg;
    cfg.codec = cell.codec;
    cfg.error_bound = cell.eb;
    return bench::measure_compression(bench::bench_dataset(cell.dataset, env),
                                      cfg, env, &ctx);
  };
  auto render = [](const Cell&, const CompressionRecord& rec) {
    return std::vector<std::string>{fmt_double(rec.ratio, 2),
                                    fmt_double(rec.quality.psnr_db, 2)};
  };

  bench::StreamedTable table({"Data Set", "REL", "SZ3 CR", "SZ3 PSNR",
                              "ZFP CR", "ZFP PSNR", "SZx CR", "SZx PSNR"});
  std::vector<std::string> row;
  const auto summary = bench::run_grid_bench(
      std::move(cells), env, eval, render,
      [&](const Cell& cell, std::size_t index,
          const std::vector<std::string>& fragment) {
        const std::size_t in_dataset = index % per_dataset;
        if (index % per_row == 0)
          row = {in_dataset == 0 ? cell.dataset : "", fmt_error_bound(cell.eb)};
        row.insert(row.end(), fragment.begin(), fragment.end());
        if (row.size() == 2 + 2 * per_row) {
          table.add_row(row);
          if (in_dataset + per_row == per_dataset) table.add_rule();
        }
      });
  table.finish();
  bench::print_grid_summary(summary);

  std::printf(
      "\nExpected shape (paper Tab. III): SZ3 achieves by far the highest\n"
      "ratios at loose bounds (NYX 1E-01 is extreme: ~1e5 in the paper);\n"
      "SZx trades ratio for speed (lowest CR); HACC compresses worst of\n"
      "the three sets at tight bounds (CR -> ~2-3); PSNR rises ~20 dB per\n"
      "decade of bound for every codec.\n");
  return summary.exit_code();
}
