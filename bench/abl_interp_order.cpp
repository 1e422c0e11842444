// Ablation — interpolation order in the SZ3/QoZ engine (DESIGN.md §5.3):
// cubic (4-point) vs linear (2-point) prediction, per data set and bound.
//
// The dataset×bound×order grid (3×2×2 = 12 cells) runs as a sweep on
// sweep threads; rows stream as cells resolve. --verify compares the
// deterministic columns (ratio, PSNR) bit-for-bit; the compress-time
// column is excluded — wall clock is run-to-run noise.
#include <cstdio>

#include "bench_util.h"
#include "common/timer.h"
#include "compressors/interp_core.h"
#include "metrics/error_stats.h"

using namespace eblcio;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const auto env = bench::BenchEnv::from_cli(args);
  args.reject_unknown();
  bench::print_bench_header(
      "Ablation", "SZ3 interpolation order: cubic vs linear", env);

  struct Cell {
    std::string dataset;
    double eb = 0.0;
    bool cubic = true;
  };
  const std::size_t per_dataset = 2 * 2;  // bounds × orders
  std::vector<Cell> cells;
  for (const std::string& dataset : {"CESM", "NYX", "S3D"}) {
    bench::bench_dataset(dataset, env);  // generate before the cells race
    for (double eb : {1e-2, 1e-4})
      for (bool cubic : {true, false}) cells.push_back({dataset, eb, cubic});
  }

  struct CellOut {
    double ratio = 0.0;
    double psnr_db = 0.0;
    double t_comp = 0.0;
  };
  auto eval = [&](const Cell& cell, SweepCellContext&) {
    const Field& f = bench::bench_dataset(cell.dataset, env);
    InterpConfig config;
    config.cubic = cell.cubic;
    const double abs_eb = cell.eb * f.value_range().span();

    InterpEncoding enc;
    CellOut out;
    out.t_comp = timed_s([&] { enc = interp_compress(f, abs_eb, config); });
    const Bytes payload = interp_payload_encode(config, enc);

    BlobHeader header;
    header.codec = "SZ3";
    header.dtype = f.dtype();
    header.dims = f.shape().dims_vector();
    header.abs_error_bound = abs_eb;
    const Field recon = interp_decompress(header, config, enc.codes,
                                          enc.anchors, enc.unpred);
    out.ratio = compression_ratio(f.size_bytes(), payload.size());
    out.psnr_db = compute_error_stats(f, recon).psnr_db;
    return out;
  };
  auto render = [](const Cell& cell, const CellOut& out) {
    return std::vector<std::string>{
        cell.dataset, fmt_error_bound(cell.eb),
        cell.cubic ? "cubic" : "linear", fmt_double(out.ratio, 2),
        fmt_double(out.psnr_db, 2), fmt_double(out.t_comp, 3)};
  };
  // Columns 0..4 are pure functions of the cell; 5 is a host timing.
  const std::size_t kDeterministicCols = 5;

  bench::StreamedTable table(
      {"Dataset", "REL", "order", "ratio", "PSNR (dB)", "compress (s)"});
  const auto summary = bench::run_grid_bench(
      std::move(cells), env, eval, render,
      [&](const Cell&, std::size_t index,
          const std::vector<std::string>& fragment) {
        table.add_row(fragment);
        if ((index + 1) % per_dataset == 0) table.add_rule();
      },
      [&](const Cell&, const std::vector<std::string>& fragment) {
        return bench::detail::join_fragment(
            {fragment.begin(), fragment.begin() + kDeterministicCols});
      });
  table.finish();
  bench::print_grid_summary(summary);

  std::printf(
      "\nReading: cubic interpolation buys a better ratio on smooth fields\n"
      "for a small time overhead — SZ3's dynamic-spline design choice.\n");
  return summary.exit_code();
}
