// Fig. 11 — Energy of writing each data set to the Lustre-class PFS with
// HDF5 and NetCDF, post-compression for every EBLC and bound, against the
// uncompressed "Original" baseline. Intel Xeon CPU MAX 9480.
//
// Also prints the Sec. VII headline: the S3D/SZ2/1e-3 I/O energy-reduction
// factor (262.5x in the paper).
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "compressors/compressor.h"
#include "core/tradeoff.h"
#include "energy/powercap_monitor.h"
#include "io/io_tool.h"

using namespace eblcio;

namespace {

struct WriteEnergy {
  double seconds = 0.0;
  double joules = 0.0;
};

WriteEnergy energy_of(const IoCost& cost, const CpuModel& cpu) {
  PowercapMonitor mon(cpu);
  const auto prep = mon.record_compute("prep", cost.prep_seconds, 1);
  const auto io = mon.record_io("io", cost.transfer_seconds);
  return {prep.seconds + io.seconds, prep.joules + io.joules};
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const auto env = bench::BenchEnv::from_cli(args);
  args.reject_unknown();
  bench::print_bench_header(
      "Fig. 11", "Write energy to PFS: compressed vs Original (MAX 9480)",
      env);

  const CpuModel& cpu = cpu_model("9480");
  double headline_reduction = 0.0;

  for (const std::string& io_name : io_tool_names()) {
    IoTool& tool = io_tool(io_name);
    std::printf("\n=== %s ===\n", io_name.c_str());
    for (const std::string& dataset : bench::paper_datasets()) {
      const Field& f = bench::bench_dataset(dataset, env);
      PfsSimulator pfs;

      const WriteEnergy orig = energy_of(
          tool.write_field(pfs, "/pfs/" + dataset + ".orig", f), cpu);

      std::printf("\n(%s)  Original: %s J (%s)\n", dataset.c_str(),
                  fmt_double(orig.joules, 3).c_str(),
                  fmt_seconds(orig.seconds).c_str());
      TextTable t({"REL Bound", "SZ2 (J)", "SZ3 (J)", "ZFP (J)", "QoZ (J)",
                   "SZx (J)"});
      for (double eb : bench::paper_bounds()) {
        std::vector<std::string> row = {fmt_error_bound(eb)};
        for (const std::string& codec : eblc_names()) {
          CompressOptions opt;
          opt.error_bound = eb;
          if (!compressor(codec).supports(f, opt)) {
            row.push_back("n/a");
            continue;
          }
          const Bytes blob = compressor(codec).compress(f, opt);
          const WriteEnergy we = energy_of(
              tool.write_blob(pfs, "/pfs/" + dataset + "." + codec,
                              dataset, blob),
              cpu);
          row.push_back(fmt_double(we.joules, 3));
          if (io_name == "HDF5" && dataset == "S3D" && codec == "SZ2" &&
              eb == 1e-3) {
            headline_reduction = orig.joules / we.joules;
          }
        }
        t.add_row(row);
      }
      t.print(std::cout);
    }
  }

  // Streamed cells: the same write, but pushed through the container's
  // chunked-dataset API on the fetch→decompress/compress→write pipelines,
  // so slab i compresses while the container writes slab i-1 (and, on
  // restart, the PFS fetch of slab i overlaps decompression of slab i-1).
  std::printf("\n=== streamed cells (chunk API, SZ3, REL 1E-03) ===\n");
  TextTable st({"IoTool", "Dataset", "write strm (s)", "write serial (s)",
                "read strm (s)", "read serial (s)", "overlap saved (s)"});
  for (const std::string& io_name : io_tool_names()) {
    for (const std::string& dataset : bench::paper_datasets()) {
      const Field& f = bench::bench_dataset(dataset, env);
      PfsSimulator pfs;
      PipelineConfig cfg;
      cfg.codec = "SZ3";
      cfg.error_bound = 1e-3;
      cfg.cpu = cpu.name;
      cfg.io_library = io_name;
      const auto wrec = run_streamed_compress_write(f, cfg, pfs);
      const auto rrec = run_streamed_read(pfs, wrec.path, cfg);
      st.add_row({io_name, dataset, fmt_double(wrec.streamed_total_s, 4),
                  fmt_double(wrec.serial_total_s, 4),
                  fmt_double(rrec.streamed_total_s, 4),
                  fmt_double(rrec.serial_total_s, 4),
                  fmt_double(wrec.overlap_saving_s() +
                                 rrec.overlap_saving_s(), 4)});
    }
    st.add_rule();
  }
  st.print(std::cout);

  std::printf(
      "\nSec. VII headline — S3D, SZ2, REL 1E-03, HDF5: I/O energy\n"
      "reduction %.1fx vs uncompressed (paper reports 262.5x at paper-size\n"
      "S3D; the factor grows with --scale as transfer dominates latency).\n",
      headline_reduction);
  std::printf(
      "\nExpected shape (paper Fig. 11): compression cuts write energy for\n"
      "every cell; savings are largest for big data sets (>=1 order of\n"
      "magnitude for S3D) and smallest for CESM at tight bounds; energy\n"
      "rises as bounds tighten; HDF5 beats NetCDF throughout (paper: 4.3x\n"
      "for HACC/SZx/1E-03).\n");
  return 0;
}
