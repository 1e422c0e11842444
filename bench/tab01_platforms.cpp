// Table I — Summary of Node Specifications, plus the calibrated power-model
// parameters this library attaches to each platform (DESIGN.md §2).
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "energy/cpu_model.h"

using namespace eblcio;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const auto env = bench::BenchEnv::from_cli(args);
  args.reject_unknown();
  bench::print_bench_header("Table I", "Summary of Node Specifications", env);

  TextTable t({"System", "Intel CPU Model", "Cores", "RAM", "CPU TDP",
               "idle W/pkg", "W/core", "speed", "IO W"});
  for (const CpuModel& cpu : cpu_catalog()) {
    t.add_row({cpu.system, cpu.name, std::to_string(cpu.cores), cpu.memory,
               fmt_double(cpu.tdp_w, 0) + "W", fmt_double(cpu.idle_w, 0),
               fmt_double(cpu.active_core_w, 1),
               fmt_double(cpu.speed_factor, 2),
               fmt_double(cpu.io_interface_w, 0)});
  }
  t.print(std::cout);

  std::printf(
      "\nFirst three columns reproduce the paper's Table I; the remaining\n"
      "columns are this library's calibrated platform parameters (power\n"
      "model endpoints and host-to-platform speed dilation).\n");
  return 0;
}
