// Quickstart: the five-minute tour of the eblcio public API.
//
//   1. Generate (or bring) a scientific field.
//   2. Compress it with an error-bounded lossy compressor.
//   3. Decompress and verify the error bound.
//   4. Ask "was it worth it?" — the paper's Sec. III conditions.
//
// Build & run:  ./examples/quickstart [--codec=SZ3] [--eb=1e-3]
#include <cstdio>
#include <iostream>

#include "common/cli.h"
#include "common/format.h"
#include "compressors/compressor.h"
#include "core/pipeline.h"
#include "data/dataset.h"
#include "io/pfs.h"
#include "metrics/error_stats.h"

using namespace eblcio;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string codec = args.get("codec", "SZ3");
  const double eb = args.get_double("eb", 1e-3);
  args.reject_unknown();

  // 1. A 128^3 slice of the NYX cosmology benchmark (synthetic stand-in).
  const Field field = generate_dataset_dims("NYX", {128, 128, 128});
  std::printf("field: %s, %s, %s\n", field.name().c_str(),
              fmt_dims(field.shape().dims_vector()).c_str(),
              human_bytes(field.size_bytes()).c_str());

  // 2. Compress with a value-range relative error bound.
  CompressOptions opt;
  opt.mode = BoundMode::kValueRangeRel;
  opt.error_bound = eb;
  const Bytes blob = compressor(codec).compress(field, opt);
  std::printf("%s @ eb=%s: %s -> %s  (ratio %.1fx)\n", codec.c_str(),
              fmt_error_bound(eb).c_str(),
              human_bytes(field.size_bytes()).c_str(),
              human_bytes(blob.size()).c_str(),
              compression_ratio(field.size_bytes(), blob.size()));

  // 3. Decompress (any blob is self-describing) and verify the bound.
  const Field recon = decompress_any(blob);
  const ErrorStats st = compute_error_stats(field, recon);
  std::printf("reconstruction: PSNR %.1f dB, max rel error %.2e (bound %s)\n",
              st.psnr_db, st.max_rel_error, fmt_error_bound(eb).c_str());
  std::printf("bound satisfied: %s\n",
              check_value_range_bound(field, recon, eb) ? "yes" : "NO");

  // 4. The paper's question: is compress-then-write cheaper than writing
  //    the original? (time, energy, and quality must all win — Eqs. 3-5.)
  PfsSimulator pfs;
  PipelineConfig cfg;
  cfg.codec = codec;
  cfg.error_bound = eb;
  cfg.psnr_min_db = 40.0;
  const WriteRecord rec = run_compress_write(field, cfg, pfs);
  std::printf(
      "\nto compress or not to compress (HDF5 -> Lustre, Xeon MAX 9480):\n"
      "  compress:        %.3f J, %s\n"
      "  write compressed: %.3f J, %s\n"
      "  write original:   %.3f J, %s\n"
      "  I/O energy reduction: %.1fx   verdict: %s\n",
      rec.compression.compress_j, fmt_seconds(rec.compression.compress_s).c_str(),
      rec.write_compressed_j, fmt_seconds(rec.write_compressed_s).c_str(),
      rec.write_original_j, fmt_seconds(rec.write_original_s).c_str(),
      rec.verdict.io_energy_reduction,
      rec.verdict.beneficial() ? "compress" : "do not compress");
  return 0;
}
