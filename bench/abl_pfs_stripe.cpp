// Ablation — PFS striping and the Fig. 12 contention knee (DESIGN.md §5.4):
// sweeps stripe_count and client counts to show the 256->512-core jump of
// uncompressed I/O is robust across striping choices.
//
// Each stripe count is one sweep cell (its private PfsSimulator evaluates
// all client counts); rows stream as cells resolve. The contention model
// is a pure function of its inputs, so --verify compares every column
// bit-for-bit.
#include <cstdio>

#include "bench_util.h"
#include "io/pfs.h"

using namespace eblcio;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const auto env = bench::BenchEnv::from_cli(args);
  const std::size_t bytes =
      static_cast<std::size_t>(args.get_int("mb", 32)) << 20;
  args.reject_unknown();
  bench::print_bench_header(
      "Ablation", "PFS stripe count vs contention (per-client write time)",
      env);

  const std::vector<int> clients = {1, 16, 64, 128, 256, 512};
  std::vector<int> stripe_counts = {1, 4, 8, 16};

  auto eval = [&](const int& stripe_count, SweepCellContext&) {
    PfsConfig cfg;
    cfg.stripe_count = stripe_count;
    PfsSimulator pfs(cfg);
    std::vector<double> seconds;
    seconds.reserve(clients.size());
    for (int c : clients) seconds.push_back(pfs.transfer_seconds(bytes, c));
    return seconds;
  };
  auto render = [&](const int& stripe_count,
                    const std::vector<double>& seconds) {
    std::vector<std::string> row = {std::to_string(stripe_count)};
    double t256 = 0.0, t512 = 0.0;
    for (std::size_t i = 0; i < clients.size(); ++i) {
      row.push_back(fmt_double(seconds[i], 4));
      if (clients[i] == 256) t256 = seconds[i];
      if (clients[i] == 512) t512 = seconds[i];
    }
    row.push_back(fmt_double(t512 / t256, 2));
    return row;
  };

  bench::StreamedTable table({"stripe_count", "1 cli (s)", "16 (s)",
                              "64 (s)", "128 (s)", "256 (s)", "512 (s)",
                              "knee 512/256"});
  const auto summary = bench::run_grid_bench(
      std::move(stripe_counts), env, eval, render,
      [&](const int&, std::size_t, const std::vector<std::string>& fragment) {
        table.add_row(fragment);
      });
  table.finish();
  bench::print_grid_summary(summary);

  std::printf(
      "\nReading: once aggregate demand exceeds OST capacity (hundreds of\n"
      "clients), per-client time doubles from 256 to 512 clients for every\n"
      "stripe width — the Fig. 12 knee is a capacity effect, not a\n"
      "striping artifact. Wider stripes only help the low-contention end.\n");
  return summary.exit_code();
}
