// Fig. 13 — Serial comp+decomp energy for NYX inflated by 1..5x per
// dimension (cubic growth in bytes), Intel Xeon Platinum 8260M, REL 1e-3.
// Reproduces the paper's inflation methodology: multilinear upsampling with
// sub-grid dither preserves the field's statistical character.
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "compressors/compressor.h"
#include "data/inflate.h"

using namespace eblcio;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const auto env = bench::BenchEnv::from_cli(args);
  const double eb = args.get_double("eb", 1e-3);
  const int base = args.get_int("base", 48);
  const int max_factor = args.get_int("max-factor", 5);
  args.reject_unknown();
  bench::print_bench_header(
      "Fig. 13", "Serial energy vs inflated NYX size (Platinum 8260M)", env);

  const Field base_field = generate_dataset_dims(
      "NYX",
      {static_cast<std::size_t>(base), static_cast<std::size_t>(base),
       static_cast<std::size_t>(base)},
      env.seed);

  TextTable t({"Factor", "Size", "SZ2 c/d (J)", "SZ3 c/d (J)", "ZFP c/d (J)",
               "QoZ c/d (J)", "SZx c/d (J)"});
  std::vector<double> sz3_j_per_byte;
  for (int factor = 1; factor <= max_factor; ++factor) {
    const Field f = inflate_field(base_field, factor);
    std::vector<std::string> row = {std::to_string(factor) + "x",
                                    human_bytes(f.size_bytes())};
    for (const std::string& codec : eblc_names()) {
      PipelineConfig cfg;
      cfg.codec = codec;
      cfg.error_bound = eb;
      cfg.cpu = "8260M";
      // No cache reuse across factors: field names match but dims differ,
      // which the memo key includes.
      const auto rec = bench::measure_compression(f, cfg, env);
      row.push_back(fmt_double(rec.compress_j, 1) + "/" +
                    fmt_double(rec.decompress_j, 1));
      if (codec == "SZ3")
        sz3_j_per_byte.push_back(rec.total_j() /
                                 static_cast<double>(f.size_bytes()));
    }
    t.add_row(row);
  }
  t.print(std::cout);

  if (sz3_j_per_byte.size() >= 2) {
    std::printf(
        "\nThroughput check: SZ3 energy per byte stays ~constant across\n"
        "sizes (%.3g -> %.3g J/MB), i.e. energy scales ~linearly with data\n"
        "size — the paper's Fig. 13 conclusion.\n",
        sz3_j_per_byte.front() * 1e6, sz3_j_per_byte.back() * 1e6);
  }
  return 0;
}
