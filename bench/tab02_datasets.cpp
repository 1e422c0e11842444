// Table II — Data Sets for Benchmarking Lossy Compressors: paper dimensions
// and storage sizes, plus the synthetic working size this run would use.
#include <cstdio>
#include <iostream>

#include "bench_util.h"

using namespace eblcio;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const auto env = bench::BenchEnv::from_cli(args);
  args.reject_unknown();
  bench::print_bench_header("Table II",
                            "Data Sets for Benchmarking Lossy Compressors",
                            env);

  TextTable t({"Data Set", "Dimensions (paper)", "Storage Size (paper)",
               "Precision", "Working dims (this run)", "Working size"});
  for (const std::string& name : bench::paper_datasets()) {
    const DatasetSpec& spec = dataset_spec(name);
    std::size_t paper_elems = 1;
    for (auto d : spec.paper_dims) paper_elems *= d;
    const std::size_t paper_bytes = paper_elems * dtype_size(spec.dtype);

    const double working_scale =
        std::min(1.0, env.scale / spec.default_shrink);
    const auto wdims = scaled_dims(spec, working_scale);
    std::size_t welems = 1;
    for (auto d : wdims) welems *= d;

    t.add_row({spec.name, fmt_dims(spec.paper_dims), human_bytes(paper_bytes),
               spec.dtype == DType::kFloat32 ? "Float" : "Double",
               fmt_dims(wdims), human_bytes(welems * dtype_size(spec.dtype))});
  }
  t.print(std::cout);

  std::printf(
      "\nPaper columns match Table II exactly (CESM 673.9MB, HACC 1046.9MB,\n"
      "NYX 536.9MB, S3D 10490.4MB). Working sizes are the seeded synthetic\n"
      "stand-ins this run compresses; use --scale to grow toward paper "
      "size.\n");
  return 0;
}
