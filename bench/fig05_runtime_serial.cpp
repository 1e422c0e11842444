// Fig. 5 — Runtime of compression + decompression across EBLCs, data sets
// and relative error bounds on the Intel Xeon CPU MAX 9480.
//
// The dataset×bound×codec grid (4×5×5 = 100 cells) runs as a sweep on
// sweep threads (bench_util.h::run_grid_bench over core/sweep.h); each
// table row streams out the moment its five codec cells have resolved.
// --serial evaluates the cells in order on this thread, --verify proves
// the batched rows bit-identical to a serial rerun (host measurements are
// memoized per cell key, so even timing columns are exact), and --reps
// engages the shared Sec. IV-C repetition protocol per cell.
#include <cstdio>
#include <optional>

#include "bench_util.h"
#include "compressors/compressor.h"

using namespace eblcio;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const auto env = bench::BenchEnv::from_cli(args);
  args.reject_unknown();
  bench::print_bench_header(
      "Fig. 5",
      "Comp+decomp runtime vs REL bound, serial, Intel Xeon CPU Max 9480",
      env);

  struct Cell {
    std::string dataset;
    double eb = 0.0;
    std::string codec;
  };
  const std::vector<std::string>& codecs = eblc_names();
  const std::size_t per_row = codecs.size();
  const std::size_t per_dataset = bench::paper_bounds().size() * per_row;
  std::vector<Cell> cells;
  for (const std::string& dataset : bench::paper_datasets()) {
    bench::bench_dataset(dataset, env);  // generate before the cells race
    for (double eb : bench::paper_bounds())
      for (const std::string& codec : codecs) cells.push_back({dataset, eb, codec});
  }

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
    cfg.cpu = "9480";
    out.rec = bench::measure_compression(f, cfg, env, &ctx);
    return out;
  };
  auto render = [](const Cell&, const CellOut& out) {
    return std::vector<std::string>{
        out.supported ? fmt_double(out.rec.total_s(), 3) : "n/a"};
  };

  std::optional<bench::StreamedTable> table;
  std::vector<std::string> row;
  const auto summary = bench::run_grid_bench(
      std::move(cells), env, eval, render,
      [&](const Cell& cell, std::size_t index,
          const std::vector<std::string>& fragment) {
        if (index % per_dataset == 0) {
          if (table) table->finish();
          const Field& f = bench::bench_dataset(cell.dataset, env);
          std::printf("\n(%s)  %s, %s\n", cell.dataset.c_str(),
                      fmt_dims(f.shape().dims_vector()).c_str(),
                      human_bytes(f.size_bytes()).c_str());
          table.emplace(std::vector<std::string>{"REL Error Bound", "SZ2 (s)",
                                                 "SZ3 (s)", "ZFP (s)",
                                                 "QoZ (s)", "SZx (s)"});
        }
        if (index % per_row == 0) row = {fmt_error_bound(cell.eb)};
        row.insert(row.end(), fragment.begin(), fragment.end());
        if (row.size() == 1 + per_row) table->add_row(row);
      });
  if (table) table->finish();
  bench::print_grid_summary(summary);

  std::printf(
      "\nExpected shape (paper Fig. 5): runtime rises as the bound\n"
      "tightens, sharply between 1E-03 and 1E-05; SZx is the fastest\n"
      "compressor throughout; larger sets (HACC, S3D) cost the most.\n");
  return summary.exit_code();
}
