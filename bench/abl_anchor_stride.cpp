// Ablation — QoZ anchor-grid density and level-wise bound tightening
// (DESIGN.md §5): anchor stride x level gamma sweep, showing the
// quality/ratio trade-off behind QoZ's design.
//
// The stride×gamma grid (4×3 = 12 cells) runs as a sweep on the shared
// executor; rows stream as cells resolve. Every cell is a pure function
// of its inputs, so --verify compares all columns bit-for-bit.
#include <cstdio>

#include "bench_util.h"
#include "compressors/interp_core.h"
#include "metrics/error_stats.h"

using namespace eblcio;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const auto env = bench::BenchEnv::from_cli(args);
  const double eb = args.get_double("eb", 1e-3);
  args.reject_unknown();
  bench::print_bench_header(
      "Ablation", "QoZ anchor stride x level gamma (NYX, REL 1e-3)", env);

  const Field& f = bench::bench_dataset("NYX", env);
  const double abs_eb = eb * f.value_range().span();

  struct Cell {
    std::size_t stride = 0;
    double gamma = 1.0;
  };
  const std::vector<double> gammas = {1.0, 0.7, 0.5};
  std::vector<Cell> cells;
  for (std::size_t stride : {std::size_t{16}, std::size_t{64},
                             std::size_t{256}, std::size_t{0}})
    for (double gamma : gammas) cells.push_back({stride, gamma});

  struct CellOut {
    double ratio = 0.0;
    ErrorStats stats;
  };
  auto eval = [&](const Cell& cell, SweepCellContext&) {
    InterpConfig config;
    config.anchor_stride = cell.stride;
    config.level_gamma = cell.gamma;
    const InterpEncoding enc = interp_compress(f, abs_eb, config);
    const Bytes payload = interp_payload_encode(config, enc);

    BlobHeader header;
    header.codec = "QoZ";
    header.dtype = f.dtype();
    header.dims = f.shape().dims_vector();
    header.abs_error_bound = abs_eb;
    const Field recon = interp_decompress(header, config, enc.codes,
                                          enc.anchors, enc.unpred);
    CellOut out;
    out.ratio = compression_ratio(f.size_bytes(), payload.size());
    out.stats = compute_error_stats(f, recon);
    return out;
  };
  auto render = [](const Cell& cell, const CellOut& out) {
    return std::vector<std::string>{
        cell.stride == 0 ? "auto" : std::to_string(cell.stride),
        fmt_double(cell.gamma, 1), fmt_double(out.ratio, 2),
        fmt_double(out.stats.psnr_db, 2),
        fmt_double(out.stats.max_rel_error, 8)};
  };

  bench::StreamedTable table(
      {"anchor stride", "gamma", "ratio", "PSNR (dB)", "max rel err"});
  const auto summary = bench::run_grid_bench(
      std::move(cells), env, eval, render,
      [&](const Cell&, std::size_t index,
          const std::vector<std::string>& fragment) {
        table.add_row(fragment);
        if ((index + 1) % gammas.size() == 0) table.add_rule();
      });
  table.finish();
  bench::print_grid_summary(summary);

  std::printf(
      "\nReading: tighter coarse-level bounds (gamma < 1) raise PSNR at a\n"
      "small ratio cost; denser anchors stop error propagation the same\n"
      "way but pay exact-storage overhead — the two QoZ levers.\n");
  return summary.exit_code();
}
