// Ablation — entropy-stage choices for the SZ-family code stream
// (DESIGN.md §5.1/§5.2): raw 16-bit codes vs Huffman vs Huffman + the
// deflate-class lossless backend ("Huffman + Zstd" in the papers).
// Quantifies what each stage buys per data set and bound.
//
// The dataset×bound grid (2×2 = 4 cells) runs as a sweep on the shared
// executor; rows stream as cells resolve. --verify compares the
// deterministic columns (code counts, stage sizes) bit-for-bit; the two
// host-timing columns are excluded — wall clock is run-to-run noise.
#include <cstdio>

#include "bench_util.h"
#include "codec/huffman.h"
#include "codec/lz77.h"
#include "common/timer.h"
#include "compressors/interp_core.h"

using namespace eblcio;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const auto env = bench::BenchEnv::from_cli(args);
  args.reject_unknown();
  bench::print_bench_header(
      "Ablation", "SZ-family entropy stage: raw vs Huffman vs Huffman+LZ",
      env);

  struct Cell {
    std::string dataset;
    double eb = 0.0;
  };
  std::vector<Cell> cells;
  for (const std::string& dataset : {"CESM", "NYX"}) {
    bench::bench_dataset(dataset, env);  // generate before the cells race
    for (double eb : {1e-2, 1e-4}) cells.push_back({dataset, eb});
  }

  struct CellOut {
    std::size_t codes = 0;
    double raw_mb = 0.0;
    double huff_mb = 0.0;
    double lz_mb = 0.0;
    double t_huff = 0.0;
    double t_lz = 0.0;
  };
  auto eval = [&](const Cell& cell, SweepCellContext&) {
    const Field& f = bench::bench_dataset(cell.dataset, env);
    InterpConfig config;
    const InterpEncoding enc =
        interp_compress(f, cell.eb * f.value_range().span(), config);

    CellOut out;
    out.codes = enc.codes.size();
    out.raw_mb = 2.0 * static_cast<double>(enc.codes.size()) / 1e6;
    Bytes huff;
    out.t_huff = timed_s(
        [&] { huff = huffman_encode(enc.codes, enc.alphabet_size); });
    Bytes lz;
    out.t_lz = timed_s([&] { lz = lz_compress(huff); });
    out.huff_mb = huff.size() / 1e6;
    out.lz_mb = lz.size() / 1e6;
    return out;
  };
  auto render = [](const Cell& cell, const CellOut& out) {
    return std::vector<std::string>{
        cell.dataset,          fmt_error_bound(cell.eb),
        std::to_string(out.codes), fmt_double(out.raw_mb, 2),
        fmt_double(out.huff_mb, 2), fmt_double(out.lz_mb, 2),
        fmt_double(out.t_huff, 3),  fmt_double(out.t_lz, 3)};
  };
  // Columns 0..5 are pure functions of the cell; 6..7 are host timings.
  const std::size_t kDeterministicCols = 6;

  bench::StreamedTable table({"Dataset", "REL", "codes", "raw16 (MB)",
                              "huff (MB)", "huff+lz (MB)", "huff t(s)",
                              "lz t(s)"});
  const auto summary = bench::run_grid_bench(
      std::move(cells), env, eval, render,
      [&](const Cell&, std::size_t, const std::vector<std::string>& fragment) {
        table.add_row(fragment);
      },
      [&](const Cell&, const std::vector<std::string>& fragment) {
        return bench::detail::join_fragment(
            {fragment.begin(), fragment.begin() + kDeterministicCols});
      });
  table.finish();
  bench::print_grid_summary(summary);

  std::printf(
      "\nReading: Huffman does the heavy lifting (codes cluster near the\n"
      "zero-residual center); the LZ pass adds a modest extra squeeze on\n"
      "structured code streams for extra time — the design point SZ2/SZ3\n"
      "chose (Huffman + Zstd) and this library mirrors.\n");
  return summary.exit_code();
}
