// Micro-kernels for the codec substrate: bitstream, Huffman, LZ77, shuffle,
// quantizer, the field value range every value-range-relative bound reads,
// and end-to-end single-codec throughput (SZ2, SZ3, ZFP) on a fixed field.
// These are the building-block numbers behind every figure bench.
//
// Unlike the figure benches this binary is a perf harness: each kernel runs
// --reps times and the best (least-noisy) wall time is reported, as a text
// table and as machine-readable BENCH_codecs.json (see --json). A gated
// row and the in-run referee it is normalized by run in alternation, rep
// by rep. CI's Release leg runs it and fails when a gated kernel (the
// Huffman coders, the NYX SZ3 slab decode, the row quantizer,
// sz2_roundtrip, lz_compress, value_range) regresses more than 25% against
// bench/baselines/BENCH_codecs.json, normalized by an in-run reference or
// by the memcpy calibration row to damp machine-to-machine variance
// (scripts/check_perf_baseline.py; see src/codec/README.md for how to
// refresh the baseline).
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "codec/bitstream.h"
#include "codec/huffman.h"
#include "codec/lz77.h"
#include "codec/shuffle.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/timer.h"
#include "compressors/compressor.h"
#include "compressors/interp_core.h"
#include "compressors/quantizer.h"
#include "data/dataset.h"
#include "metrics/error_stats.h"

namespace {

using namespace eblcio;

// SZ-style quantization-code stream: 2^18 symbols, normal around the
// 65537-alphabet center (the distribution the SZ2/SZ3 entropy stage sees).
std::vector<std::uint32_t> code_stream() {
  Rng rng(2);
  std::vector<std::uint32_t> syms(1 << 18);
  for (auto& s : syms) {
    const double g = rng.normal() * 12.0;
    s = static_cast<std::uint32_t>(std::clamp(32768.0 + g, 0.0, 65536.0));
  }
  return syms;
}

// Low-entropy quantizer-code stream: geometric symbol distribution over a
// 64-symbol alphabet, so typical canonical code lengths are <= 5 bits. This
// is the regime the Huffman LUT packs up to four codes per table slot for;
// the `huffman_decode_lowent` row makes that win visible and gateable
// (normalized in-run by `huffman_decode_reference_lowent`).
std::vector<std::uint32_t> code_stream_lowent() {
  Rng rng(6);
  std::vector<std::uint32_t> syms(1 << 18);
  for (auto& s : syms) {
    std::uint32_t v = 0;
    while (v < 63 && rng.next_double() < 0.5) ++v;
    s = v;
  }
  return syms;
}

// The quantization codes SZ3 entropy-codes for one NYX 24x192x192 slab at
// value-range-relative 1e-3: the stream a checkpoint restart decodes, and
// the `huffman_decode_sz3` row's input (normalized in-run by
// `huffman_decode_reference_sz3` over the same blob).
InterpEncoding sz3_slab_codes() {
  const Field slab = generate_dataset_dims("NYX", {24, 192, 192}, 7);
  CompressOptions opt;
  opt.error_bound = 1e-3;
  return interp_compress(slab, absolute_bound_for(slab, opt), InterpConfig{});
}

// The rows of the last interpolation pass SZ3 runs on one NYX 24x192x192
// slab at value-range-relative 1e-3: the d3 midpoints (odd c3) of every
// (c1, c2) row, each predicted as interp_core predicts it — the cubic
// spline over the slab's SZ3 reconstruction, linear or one-sided at the
// edges. This pass quantizes half of the slab's elements, at the full
// bound. The `quantize_rows` row runs LinearQuantizer::quantize_row (the
// entry the CPU selects) over them, `quantize_rows_reference` per-element
// quantize<float>, which normalizes it in-run.
struct QuantRows {
  std::vector<float> x;
  std::vector<double> pred;
  std::size_t row_len = 0;
  double eb = 0.0;
};

QuantRows sz3_slab_rows() {
  const std::size_t n1 = 24, n2 = 192, n3 = 192;
  const Field slab = generate_dataset_dims("NYX", {n1, n2, n3}, 7);
  CompressOptions opt;
  opt.error_bound = 1e-3;
  QuantRows rows;
  rows.eb = absolute_bound_for(slab, opt);
  Field recon;
  (void)interp_compress(slab, rows.eb, InterpConfig{}, &recon);
  const float* data = slab.as<float>().data();
  const float* r = recon.as<float>().data();
  rows.row_len = n3 / 2;
  for (std::size_t row = 0; row < n1 * n2; ++row) {
    const float* x = data + row * n3;
    const float* f = r + row * n3;
    for (std::size_t c3 = 1; c3 < n3; c3 += 2) {
      const auto at = [&](std::size_t k) { return static_cast<double>(f[k]); };
      double p;
      if (c3 >= 3 && c3 + 3 < n3)
        p = (-at(c3 - 3) + 9.0 * at(c3 - 1) + 9.0 * at(c3 + 1) - at(c3 + 3)) /
            16.0;
      else if (c3 + 1 < n3)
        p = 0.5 * (at(c3 - 1) + at(c3 + 1));
      else
        p = at(c3 - 1);
      rows.x.push_back(x[c3]);
      rows.pred.push_back(p);
    }
  }
  return rows;
}

// Mixed runs/low-entropy segments: the corpus the LZ rows have always used.
Bytes lz_corpus() {
  Rng rng(3);
  Bytes data;
  for (int seg = 0; seg < 64; ++seg) {
    const std::size_t len = 1024 + rng.next_below(4096);
    if (seg % 3 == 0) {
      data.insert(data.end(), len,
                  static_cast<std::byte>(rng.next_below(256)));
    } else {
      for (std::size_t i = 0; i < len; ++i)
        data.push_back(static_cast<std::byte>(rng.next_below(16) * 17));
    }
  }
  return data;
}

const Field& micro_field() {
  static const Field f = generate_dataset_dims("NYX", {64, 64, 64}, 7);
  return f;
}

struct KernelResult {
  std::string name;
  double seconds = 0.0;   // best-of-reps wall time
  double bytes = 0.0;     // payload bytes per run (0 = not byte-oriented)
  double items = 0.0;     // symbols/elements per run (0 = n/a)
  double mbps() const { return bytes > 0 ? bytes / seconds / 1e6 : 0.0; }
  double msyms() const { return items > 0 ? items / seconds / 1e6 : 0.0; }
};

// The wall time of one run of `fn`. The volatile sink defeats dead-code
// elimination across all kernels.
volatile std::size_t g_sink = 0;

template <typename F>
double time_once(F& fn) {
  WallTimer t;
  g_sink = g_sink + fn();
  return t.elapsed_s();
}

// Runs `fn` reps times, keeping the fastest wall time.
template <typename F>
KernelResult run_kernel(const std::string& name, int reps, double bytes,
                        double items, F&& fn) {
  KernelResult r{name, 1e30, bytes, items};
  for (int i = 0; i < reps; ++i)
    r.seconds = std::min(r.seconds, time_once(fn));
  return r;
}

// A gated row and its in-run referee, run in alternation rep by rep (row,
// referee, row, referee, ...), each keeping its fastest wall time, so a
// slow phase of the host lands on both halves of the pair the gate
// divides. Appends the row, then the referee.
template <typename F, typename G>
void run_pair(std::vector<KernelResult>& rows, const std::string& name,
              const std::string& referee, int reps, double bytes,
              double items, F&& fn, G&& ref) {
  KernelResult a{name, 1e30, bytes, items};
  KernelResult b{referee, 1e30, bytes, items};
  for (int i = 0; i < reps; ++i) {
    a.seconds = std::min(a.seconds, time_once(fn));
    b.seconds = std::min(b.seconds, time_once(ref));
  }
  rows.push_back(a);
  rows.push_back(b);
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const int reps = std::max(1, args.get_int("reps", 5));
  const std::string json_path = args.get("json", "BENCH_codecs.json");
  args.reject_unknown();

  std::printf("micro_codecs: codec-substrate kernels, best of %d reps\n",
              reps);

  const auto syms = code_stream();
  const Bytes huff_blob = huffman_encode(syms, 65537);
  const auto syms_lowent = code_stream_lowent();
  const Bytes huff_blob_lowent = huffman_encode(syms_lowent, 64);
  const InterpEncoding sz3_codes = sz3_slab_codes();
  const QuantRows qrows = sz3_slab_rows();
  const Bytes huff_blob_sz3 =
      huffman_encode(sz3_codes.codes, sz3_codes.alphabet_size);
  const Bytes corpus = lz_corpus();
  const Bytes lz_blob = lz_compress(corpus);
  const Field& field = micro_field();
  const auto field_bytes = std::as_bytes(field.as<float>().span());
  CompressOptions copt;
  copt.error_bound = 1e-3;
  Compressor& sz2 = compressor("SZ2");
  const Bytes sz2_blob = sz2.compress(field, copt);
  Compressor& sz3 = compressor("SZ3");
  const Bytes sz3_blob = sz3.compress(field, copt);
  Compressor& zfp = compressor("ZFP");
  const Bytes zfp_blob = zfp.compress(field, copt);

  std::vector<KernelResult> rows;

  // Calibration: large memcpy, the machine's streaming-copy speed. The CI
  // baseline check divides kernel throughput by this row.
  {
    Bytes dst(field_bytes.size());
    rows.push_back(run_kernel(
        "memcpy", reps, static_cast<double>(field_bytes.size()), 0, [&] {
          std::memcpy(dst.data(), field_bytes.data(), field_bytes.size());
          return static_cast<std::size_t>(dst[0]);
        }));
  }

  // The value range over the same bytes as the memcpy row, which
  // normalizes it: one vector min/max pass should run near copy speed.
  rows.push_back(run_kernel(
      "value_range", reps, static_cast<double>(field_bytes.size()), 0, [&] {
        const Field::Range r = field.value_range();
        return static_cast<std::size_t>(r.max > r.min);
      }));

  run_pair(
      rows, "huffman_encode", "huffman_encode_reference", reps, 0,
      static_cast<double>(syms.size()),
      [&] { return huffman_encode(syms, 65537).size(); },
      [&] { return huffman_encode_reference(syms, 65537).size(); });
  run_pair(
      rows, "huffman_encode_lowent", "huffman_encode_reference_lowent", reps,
      0, static_cast<double>(syms_lowent.size()),
      [&] { return huffman_encode(syms_lowent, 64).size(); },
      [&] { return huffman_encode_reference(syms_lowent, 64).size(); });
  run_pair(
      rows, "huffman_decode", "huffman_decode_reference", reps, 0,
      static_cast<double>(syms.size()),
      [&] { return huffman_decode(huff_blob).size(); },
      [&] { return huffman_decode_reference(huff_blob).size(); });

  run_pair(
      rows, "huffman_decode_lowent", "huffman_decode_reference_lowent", reps,
      0, static_cast<double>(syms_lowent.size()),
      [&] { return huffman_decode(huff_blob_lowent).size(); },
      [&] { return huffman_decode_reference(huff_blob_lowent).size(); });

  run_pair(
      rows, "huffman_decode_sz3", "huffman_decode_reference_sz3", reps, 0,
      static_cast<double>(sz3_codes.codes.size()),
      [&] { return huffman_decode(huff_blob_sz3).size(); },
      [&] { return huffman_decode_reference(huff_blob_sz3).size(); });

  rows.push_back(run_kernel(
      "lz_compress", reps, static_cast<double>(corpus.size()), 0,
      [&] { return lz_compress(corpus).size(); }));
  rows.push_back(run_kernel(
      "lz_decompress", reps, static_cast<double>(corpus.size()), 0,
      [&] { return lz_decompress(lz_blob).size(); }));

  rows.push_back(run_kernel(
      "shuffle", reps, static_cast<double>(field_bytes.size()), 0,
      [&] { return shuffle_bytes(field_bytes, 4).size(); }));
  {
    const Bytes shuffled = shuffle_bytes(field_bytes, 4);
    rows.push_back(run_kernel(
        "unshuffle", reps, static_cast<double>(field_bytes.size()), 0,
        [&] { return unshuffle_bytes(shuffled, 4).size(); }));
  }

  // Quantizer inner loop: quantize a synthetic residual stream against a
  // rolling prediction — the SZ-family per-element hot path in isolation.
  {
    Rng rng(11);
    std::vector<double> values(1 << 18);
    for (auto& v : values) v = rng.normal();
    rows.push_back(run_kernel(
        "quantize", reps, 0, static_cast<double>(values.size()), [&] {
          const LinearQuantizer quant(1e-3, 32768);
          double pred = 0.0;
          std::size_t codes = 0;
          for (double v : values) {
            double r = 0.0;
            codes += quant.quantize<float>(v, pred, &r);
            pred = r;
          }
          return codes;
        }));
  }

  // The row kernel against its per-element referee, over the same rows.
  std::vector<std::uint32_t> row_codes(qrows.x.size());
  std::vector<float> row_recon(qrows.x.size());
  std::vector<std::uint32_t> ref_codes(qrows.x.size());
  std::vector<float> ref_recon(qrows.x.size());
  {
    const LinearQuantizer quant(qrows.eb);
    const auto items = static_cast<double>(qrows.x.size());
    run_pair(
        rows, "quantize_rows", "quantize_rows_reference", reps, 0, items,
        [&] {
          std::size_t zeros = 0;
          for (std::size_t i = 0; i < qrows.x.size(); i += qrows.row_len)
            zeros += quant.quantize_row<float>(
                qrows.x.data() + i, qrows.pred.data() + i, qrows.row_len,
                row_codes.data() + i, row_recon.data() + i);
          return zeros;
        },
        [&] {
          std::size_t zeros = 0;
          for (std::size_t i = 0; i < qrows.x.size(); ++i) {
            const double v = qrows.x[i];
            double r = v;
            ref_codes[i] = quant.quantize<float>(v, qrows.pred[i], &r);
            ref_recon[i] = static_cast<float>(r);
            zeros += ref_codes[i] == 0;
          }
          return zeros;
        });
  }

  const double fb = static_cast<double>(field.size_bytes());
  rows.push_back(run_kernel("sz2_compress", reps, fb, 0, [&] {
    return sz2.compress(field, copt).size();
  }));
  rows.push_back(run_kernel("sz2_decompress", reps, fb, 0, [&] {
    return sz2.decompress(sz2_blob, 1).size_bytes();
  }));
  rows.push_back(run_kernel("sz2_roundtrip", reps, fb, 0, [&] {
    const Bytes b = sz2.compress(field, copt);
    return sz2.decompress(b, 1).size_bytes();
  }));
  rows.push_back(run_kernel("sz3_compress", reps, fb, 0, [&] {
    return sz3.compress(field, copt).size();
  }));
  rows.push_back(run_kernel("sz3_decompress", reps, fb, 0, [&] {
    return sz3.decompress(sz3_blob, 1).size_bytes();
  }));
  rows.push_back(run_kernel("zfp_compress", reps, fb, 0, [&] {
    return zfp.compress(field, copt).size();
  }));
  rows.push_back(run_kernel("zfp_decompress", reps, fb, 0, [&] {
    return zfp.decompress(zfp_blob, 1).size_bytes();
  }));

  // Round-trip sanity while we're here: the bench must never publish
  // numbers for a broken codec path.
  if (huffman_decode(huff_blob) != syms ||
      huffman_decode_reference(huff_blob) != syms) {
    std::fprintf(stderr, "FATAL: huffman round trip mismatch\n");
    return 1;
  }
  if (huffman_encode_reference(syms, 65537) != huff_blob ||
      huffman_encode_reference(syms_lowent, 64) != huff_blob_lowent) {
    std::fprintf(stderr, "FATAL: encoder/reference blob mismatch\n");
    return 1;
  }
  if (huffman_decode(huff_blob_lowent) != syms_lowent ||
      huffman_decode_reference(huff_blob_lowent) != syms_lowent) {
    std::fprintf(stderr, "FATAL: low-entropy huffman round trip mismatch\n");
    return 1;
  }
  if (huffman_decode(huff_blob_sz3) != sz3_codes.codes ||
      huffman_decode_reference(huff_blob_sz3) != sz3_codes.codes) {
    std::fprintf(stderr, "FATAL: sz3 slab huffman round trip mismatch\n");
    return 1;
  }
  if (row_codes != ref_codes || row_recon != ref_recon) {
    std::fprintf(stderr, "FATAL: quantize_row differs from quantize<float>\n");
    return 1;
  }
  if (!check_value_range_bound(field, zfp.decompress(zfp_blob, 1),
                               copt.error_bound)) {
    std::fprintf(stderr, "FATAL: zfp round trip exceeds its bound\n");
    return 1;
  }
  if (!check_value_range_bound(field, sz3.decompress(sz3_blob, 1),
                               copt.error_bound)) {
    std::fprintf(stderr, "FATAL: sz3 round trip exceeds its bound\n");
    return 1;
  }
  if (lz_decompress(lz_blob) != corpus) {
    std::fprintf(stderr, "FATAL: lz round trip mismatch\n");
    return 1;
  }
  if (unshuffle_bytes(shuffle_bytes(field_bytes, 4), 4) !=
      Bytes(field_bytes.begin(), field_bytes.end())) {
    std::fprintf(stderr, "FATAL: shuffle round trip mismatch\n");
    return 1;
  }

  bench::StreamedTable table({"kernel", "best (ms)", "MB/s", "Msym/s"});
  for (const auto& r : rows) {
    table.add_row({r.name, fmt_double(r.seconds * 1e3, 3),
                   r.bytes > 0 ? fmt_double(r.mbps(), 1) : "-",
                   r.items > 0 ? fmt_double(r.msyms(), 1) : "-"});
  }
  table.finish();

  if (!json_path.empty()) {
    bench::JsonObject kernels;
    for (const auto& r : rows) {
      bench::JsonObject k;
      k.set("seconds", r.seconds);
      if (r.bytes > 0) k.set("mbps", r.mbps());
      if (r.items > 0) k.set("msyms_per_s", r.msyms());
      kernels.set(r.name, k);
    }
    bench::JsonObject doc;
    doc.set("schema", std::uint64_t{1});
    doc.set("bench", std::string("micro_codecs"));
    doc.set("reps", static_cast<std::uint64_t>(reps));
    doc.set("kernels", kernels);
    if (!bench::write_json_file(json_path, doc)) {
      std::fprintf(stderr, "FATAL: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
