// Fig. 7 — Energy consumption of the EBLCs in serial mode across the four
// data sets and the three Table-I CPUs. Each cell is compression energy +
// decompression energy (the paper's stacked bars), derived from really
// measured kernel runtimes dilated onto each platform's power model.
//
// The cpu×dataset×bound×codec grid (3×4×5×5 = 300 cells) runs as a sweep
// on sweep threads; every platform's energy derives from the same
// memoized host measurement (cells sharing a kernel key block on one
// measurement), so tables stream per (CPU, dataset) while the grid is
// still running and --verify is exact even for the measured columns.
#include <cstdio>
#include <optional>

#include "bench_util.h"
#include "compressors/compressor.h"
#include "energy/powercap_monitor.h"

using namespace eblcio;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const auto env = bench::BenchEnv::from_cli(args);
  args.reject_unknown();
  bench::print_bench_header(
      "Fig. 7", "Serial comp+decomp energy across data sets and CPUs", env);

  struct Cell {
    std::string cpu;
    std::string generation;
    std::string dataset;
    double eb = 0.0;
    std::string codec;
  };
  const std::vector<std::string>& codecs = eblc_names();
  const std::size_t per_row = codecs.size();
  const std::size_t per_dataset = bench::paper_bounds().size() * per_row;
  const std::size_t per_cpu = bench::paper_datasets().size() * per_dataset;
  std::vector<Cell> cells;
  for (const std::string& dataset : bench::paper_datasets())
    bench::bench_dataset(dataset, env);  // generate before the cells race
  for (const CpuModel& cpu : cpu_catalog())
    for (const std::string& dataset : bench::paper_datasets())
      for (double eb : bench::paper_bounds())
        for (const std::string& codec : codecs)
          cells.push_back({cpu.name, cpu.generation, dataset, eb, codec});

  struct CellOut {
    bool supported = false;
    CompressionRecord rec;
  };
  auto eval = [&](const Cell& cell, SweepCellContext& ctx) {
    const Field& f = bench::bench_dataset(cell.dataset, env);
    CompressOptions opt;
    opt.error_bound = cell.eb;
    CellOut out;
    out.supported = compressor(cell.codec).supports(f, opt);
    if (!out.supported) return out;
    PipelineConfig cfg;
    cfg.codec = cell.codec;
    cfg.error_bound = cell.eb;
    cfg.cpu = cell.cpu;
    out.rec = bench::measure_compression(f, cfg, env, &ctx);
    return out;
  };
  auto render = [](const Cell&, const CellOut& out) {
    return std::vector<std::string>{
        out.supported ? fmt_double(out.rec.compress_j, 1) + "/" +
                            fmt_double(out.rec.decompress_j, 1)
                      : "n/a"};
  };

  std::optional<bench::StreamedTable> table;
  std::vector<std::string> row;
  const auto summary = bench::run_grid_bench(
      std::move(cells), env, eval, render,
      [&](const Cell& cell, std::size_t index,
          const std::vector<std::string>& fragment) {
        if (index % per_cpu == 0)
          std::printf("\n=== %s (%s) ===\n", cell.cpu.c_str(),
                      cell.generation.c_str());
        if (index % per_dataset == 0) {
          if (table) table->finish();
          std::printf("\n(%s)\n", cell.dataset.c_str());
          table.emplace(std::vector<std::string>{
              "REL Bound", "SZ2 c/d (J)", "SZ3 c/d (J)", "ZFP c/d (J)",
              "QoZ c/d (J)", "SZx c/d (J)"});
        }
        if (index % per_row == 0) row = {fmt_error_bound(cell.eb)};
        row.insert(row.end(), fragment.begin(), fragment.end());
        if (row.size() == 1 + per_row) table->add_row(row);
      });
  if (table) table->finish();
  bench::print_grid_summary(summary);

  std::printf(
      "\nExpected shape (paper Fig. 7): energy rises as bounds tighten\n"
      "(marked between 1E-03 and 1E-05); SZx lowest energy, ZFP\n"
      "competitive on CESM; larger data sets (HACC, S3D) cost the most;\n"
      "the Sapphire Rapids MAX 9480 is the most energy-efficient platform\n"
      "and the Cascade Lake 8260M the least.\n");
  return summary.exit_code();
}
