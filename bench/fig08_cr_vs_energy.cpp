// Fig. 8 — Compression ratio against total (comp + decomp) energy for a
// field of S3D across error bounds and compressors, Intel Xeon CPU MAX
// 9480. Emitted as one series per compressor.
//
// The codec×bound grid (5×5 = 25 cells) runs as a sweep on the shared
// executor; each row streams the moment its cell resolves. --serial,
// --verify and --reps behave as documented in bench/README.md.
#include <cstdio>

#include "bench_util.h"
#include "compressors/compressor.h"

using namespace eblcio;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const auto env = bench::BenchEnv::from_cli(args);
  args.reject_unknown();
  bench::print_bench_header(
      "Fig. 8", "Compression ratio vs total energy, S3D, MAX 9480", env);

  const Field& f = bench::bench_dataset("S3D", env);
  struct Cell {
    std::string codec;
    double eb = 0.0;
  };
  const std::size_t per_series = bench::paper_bounds().size();
  std::vector<Cell> cells;
  for (const std::string& codec : eblc_names())
    for (double eb : bench::paper_bounds()) cells.push_back({codec, eb});

  auto eval = [&](const Cell& cell, SweepCellContext& ctx) {
    PipelineConfig cfg;
    cfg.codec = cell.codec;
    cfg.error_bound = cell.eb;
    cfg.cpu = "9480";
    return bench::measure_compression(f, cfg, env, &ctx);
  };
  auto render = [](const Cell& cell, const CompressionRecord& rec) {
    return std::vector<std::string>{cell.codec, fmt_error_bound(cell.eb),
                                    fmt_double(rec.ratio, 2),
                                    fmt_double(rec.total_j(), 2)};
  };

  bench::StreamedTable table({"Compressor", "REL Bound", "Compression Ratio",
                              "Total Energy (J)"});
  const auto summary = bench::run_grid_bench(
      std::move(cells), env, eval, render,
      [&](const Cell&, std::size_t index,
          const std::vector<std::string>& fragment) {
        table.add_row(fragment);
        if ((index + 1) % per_series == 0) table.add_rule();
      });
  table.finish();
  bench::print_grid_summary(summary);

  std::printf(
      "\nExpected shape (paper Fig. 8): an inverse frontier — higher\n"
      "compression ratios (looser bounds) cost less energy; SZx sits at\n"
      "the low-energy/low-ratio end, SZ3/QoZ reach the highest ratios,\n"
      "and within each compressor energy falls as CR rises.\n");
  return summary.exit_code();
}
