// Fig. 10 — Energy consumption of the EBLCs in OpenMP mode across data
// sets and CPUs at a fixed REL bound of 1e-3, threads 1..64 in powers of
// two (strong scaling). Parallel kernels really execute, and each cell
// charges node_power_w(threads) over the host's wall time. Thread counts
// above the host's cores oversubscribe it, so past them the wall time stops
// falling while the charged power keeps rising: the energy tail rises
// where the paper's plateaus. ROADMAP's "Project Fig. 10's strong scaling
// onto the platform's cores" item tracks the fix.
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "compressors/compressor.h"

using namespace eblcio;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  auto env = bench::BenchEnv::from_cli(args);
  const double eb = args.get_double("eb", 1e-3);
  args.reject_unknown();
  bench::print_bench_header(
      "Fig. 10", "OpenMP comp+decomp energy vs threads (REL 1e-3)", env);

  for (const CpuModel& cpu : cpu_catalog()) {
    std::printf("\n=== %s ===\n", cpu.name.c_str());
    for (const std::string& dataset : bench::paper_datasets()) {
      const Field& f = bench::bench_dataset(dataset, env);
      std::printf("\n(%s)\n", dataset.c_str());
      TextTable t({"Threads", "SZ2 c/d (J)", "SZ3 c/d (J)", "ZFP c/d (J)",
                   "QoZ c/d (J)", "SZx c/d (J)"});
      for (int threads : bench::paper_thread_sweep()) {
        std::vector<std::string> row = {std::to_string(threads)};
        for (const std::string& codec : eblc_names()) {
          CompressOptions opt;
          opt.error_bound = eb;
          opt.threads = threads;
          if (!compressor(codec).supports(f, opt)) {
            row.push_back("n/a");
            continue;
          }
          PipelineConfig cfg;
          cfg.codec = codec;
          cfg.error_bound = eb;
          cfg.threads = threads;
          cfg.cpu = cpu.name;
          const auto rec = bench::measure_compression(f, cfg, env);
          row.push_back(fmt_double(rec.compress_j, 1) + "/" +
                        fmt_double(rec.decompress_j, 1));
        }
        t.add_row(row);
      }
      t.print(std::cout);
    }
  }

  std::printf(
      "\nExpected shape (paper Fig. 10): energy falls with thread count\n"
      "then plateaus; SZx and SZ3 scale best (paper: up to ~6x reduction\n"
      "at 64 threads on S3D); ZFP barely benefits because its OpenMP mode\n"
      "parallelizes compression only (decompression stays serial); SZ2 is\n"
      "limited by its serial Huffman stage and skips 1D/4D data (n/a).\n");
  return 0;
}
