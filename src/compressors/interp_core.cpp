#include "compressors/interp_core.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <type_traits>

#include "common/error.h"
#include "compressors/backend.h"
#include "compressors/components.h"
#include "compressors/quantizer.h"

namespace eblcio {
namespace {

constexpr std::uint32_t kRadius = 32768;

// Uniform 4D view with leading unit dimensions.
struct Grid {
  std::array<std::size_t, 4> dim{1, 1, 1, 1};
  std::array<std::size_t, 4> stride{};
  int real_dims = 1;

  static Grid from_dims(const std::vector<std::size_t>& dims) {
    Grid g;
    g.real_dims = static_cast<int>(dims.size());
    const int pad = 4 - g.real_dims;
    for (int i = 0; i < g.real_dims; ++i) g.dim[pad + i] = dims[i];
    std::size_t acc = 1;
    for (int d = 3; d >= 0; --d) {
      g.stride[d] = acc;
      acc *= g.dim[d];
    }
    return g;
  }

  std::size_t num_elements() const {
    return dim[0] * dim[1] * dim[2] * dim[3];
  }
  std::size_t max_dim() const {
    return std::max(std::max(dim[0], dim[1]), std::max(dim[2], dim[3]));
  }
};

std::size_t auto_anchor_stride(const Grid& g) {
  return std::bit_ceil(g.max_dim());
}

// Interpolates along dimension `d` at position `c` (coord c[d] is the
// midpoint between known grid points at distance `h`). The buffer holds T
// values (each exactly T-representable); every operand widens to double
// before any arithmetic, so predictions match the all-double original
// bit for bit.
template <typename T>
double interp_predict(const Grid& g, const T* recon,
                      const std::array<std::size_t, 4>& c, int d,
                      std::size_t h, bool cubic, std::size_t lin) {
  const std::size_t cd = c[d];
  const std::size_t nd = g.dim[d];
  const std::size_t sd = g.stride[d];
  const bool has_l1 = cd >= h;
  const bool has_r1 = cd + h < nd;
  if (cubic && cd >= 3 * h && cd + 3 * h < nd) {
    const double fm3 = static_cast<double>(recon[lin - 3 * h * sd]);
    const double fm1 = static_cast<double>(recon[lin - h * sd]);
    const double fp1 = static_cast<double>(recon[lin + h * sd]);
    const double fp3 = static_cast<double>(recon[lin + 3 * h * sd]);
    return (-fm3 + 9.0 * fm1 + 9.0 * fp1 - fp3) / 16.0;
  }
  if (has_l1 && has_r1)
    return 0.5 * (static_cast<double>(recon[lin - h * sd]) +
                  static_cast<double>(recon[lin + h * sd]));
  if (has_l1) return static_cast<double>(recon[lin - h * sd]);
  if (has_r1) return static_cast<double>(recon[lin + h * sd]);
  return 0.0;
}

// Visits every interpolation target in deterministic order, one piece of a
// d3 row at a time. The visitor is called as f(coords, row_base, dim, half,
// level, c3, step3, n) and handles the n targets c3, c3+step3, ... of the
// row; a row longer than kRowChunk targets arrives in consecutive pieces,
// so every row buffer the callbacks keep is bounded. The element order
// (and hence every code/unpredictable stream) is identical to the
// per-element traversal this replaces. Handing out whole rows lets the
// callbacks hoist the per-level quantizer and the boundary predicate
// (constant along the row when d < 3) out of the element loop.
//
// Within one (s, d) pass, targets sit at odd multiples of h along dim d
// while their interpolation neighbours sit at even multiples (previous
// levels): no target of a pass is a neighbour of another target of the
// same pass, so the pass is data-independent and row batching is safe.
template <typename F>
void traverse(const Grid& g, std::size_t anchor_stride, F&& f) {
  int level = 0;
  {
    std::size_t s = anchor_stride;
    while (s > 1) {
      ++level;
      s >>= 1;
    }
  }
  for (std::size_t s = anchor_stride; s > 1; s >>= 1, --level) {
    const std::size_t h = s / 2;
    for (int d = 0; d < 4; ++d) {
      if (g.dim[d] == 1) continue;
      if (h >= g.dim[d]) continue;  // no midpoints along this dim yet
      // Iteration steps: dims refined earlier this round advance by h,
      // later dims by s, dimension d starts at h and advances by s.
      std::array<std::size_t, 4> start{}, step{};
      for (int e = 0; e < 4; ++e) {
        start[e] = (e == d) ? h : 0;
        step[e] = (e < d) ? h : s;
      }
      step[d] = s;
      // Targets per d3 row: start[3] < dim[3] (dimension 3 starts at
      // h < dim[3], the others at 0).
      const std::size_t row_n = (g.dim[3] - start[3] + step[3] - 1) / step[3];
      std::array<std::size_t, 4> c{};
      for (c[0] = start[0]; c[0] < g.dim[0]; c[0] += step[0])
        for (c[1] = start[1]; c[1] < g.dim[1]; c[1] += step[1])
          for (c[2] = start[2]; c[2] < g.dim[2]; c[2] += step[2]) {
            // The d3 stride is 1, so the innermost index advances by
            // step[3] without re-deriving it from the coordinates.
            const std::size_t base = c[0] * g.stride[0] +
                                     c[1] * g.stride[1] +
                                     c[2] * g.stride[2];
            for (std::size_t i = 0; i < row_n; i += kRowChunk)
              f(c, base, d, h, level, start[3] + i * step[3], step[3],
                std::min(kRowChunk, row_n - i));
          }
    }
  }
}

// Row-batched predictions for a pass refining d < 3: the interp_predict
// predicate depends only on c[d], h and dim[d] — constant along the d3
// row — so each boundary case becomes its own branch-free sweep over the
// row's n targets from c3. Expression-for-expression the same arithmetic
// as interp_predict, so predictions are bit-identical.
template <typename T>
void interp_predict_row(const Grid& g, const T* recon,
                        const std::array<std::size_t, 4>& c, int d,
                        std::size_t h, bool cubic, std::size_t base,
                        std::size_t c3, std::size_t step3, std::size_t n,
                        double* pred) {
  const std::size_t off = h * g.stride[d];
  const std::size_t cd = c[d];
  const std::size_t nd = g.dim[d];
  const std::size_t end3 = c3 + n * step3;
  std::size_t i = 0;
  if (cubic && cd >= 3 * h && cd + 3 * h < nd) {
    const std::size_t off3 = 3 * off;
    for (; c3 < end3; c3 += step3, ++i) {
      const std::size_t lin = base + c3;
      const double fm3 = static_cast<double>(recon[lin - off3]);
      const double fm1 = static_cast<double>(recon[lin - off]);
      const double fp1 = static_cast<double>(recon[lin + off]);
      const double fp3 = static_cast<double>(recon[lin + off3]);
      pred[i] = (-fm3 + 9.0 * fm1 + 9.0 * fp1 - fp3) / 16.0;
    }
  } else if (cd >= h && cd + h < nd) {
    for (; c3 < end3; c3 += step3, ++i) {
      const std::size_t lin = base + c3;
      pred[i] = 0.5 * (static_cast<double>(recon[lin - off]) +
                       static_cast<double>(recon[lin + off]));
    }
  } else if (cd >= h) {
    for (; c3 < end3; c3 += step3, ++i)
      pred[i] = static_cast<double>(recon[base + c3 - off]);
  } else if (cd + h < nd) {
    for (; c3 < end3; c3 += step3, ++i)
      pred[i] = static_cast<double>(recon[base + c3 + off]);
  } else {
    std::fill_n(pred, n, 0.0);
  }
}

// Predictions for a pass refining d == 3: the predicate varies with c3,
// but the cubic window [3h, n3-3h) is one contiguous middle range — the
// few edge targets go through the per-element helper, the interior gets a
// tight data-independent sweep. Predicate tests match interp_predict's
// exactly, so every element lands in the same branch with the same
// arithmetic.
template <typename T>
void interp_predict_row_d3(const Grid& g, const T* recon,
                           std::array<std::size_t, 4> c, std::size_t h,
                           bool cubic, std::size_t base, std::size_t c3,
                           std::size_t step3, std::size_t n, double* pred) {
  const std::size_t n3 = g.dim[3];
  const std::size_t end3 = c3 + n * step3;  // past the piece's last target
  std::size_t i = 0;
  // Each segment ends at one precomputed bound, so the interior sweep has
  // a single exit and vectorizes.
  if (cubic) {
    for (const std::size_t lo = std::min(end3, 3 * h); c3 < lo;
         c3 += step3, ++i) {
      c[3] = c3;
      pred[i] = interp_predict(g, recon, c, 3, h, cubic, base + c3);
    }
    // c3 >= 3h here, so c3 < hi is interp_predict's c3 + 3h < n3.
    for (const std::size_t hi = std::min(end3, n3 > 3 * h ? n3 - 3 * h : 0);
         c3 < hi; c3 += step3, ++i) {
      const std::size_t lin = base + c3;
      const double fm3 = static_cast<double>(recon[lin - 3 * h]);
      const double fm1 = static_cast<double>(recon[lin - h]);
      const double fp1 = static_cast<double>(recon[lin + h]);
      const double fp3 = static_cast<double>(recon[lin + 3 * h]);
      pred[i] = (-fm3 + 9.0 * fm1 + 9.0 * fp1 - fp3) / 16.0;
    }
  } else {
    // Linear window: targets start at c3 = h, so only the right edge
    // needs the per-element fallback; c3 < hi is c3 + h < n3.
    for (const std::size_t hi = std::min(end3, n3 - h); c3 < hi;
         c3 += step3, ++i) {
      const std::size_t lin = base + c3;
      pred[i] = 0.5 * (static_cast<double>(recon[lin - h]) +
                       static_cast<double>(recon[lin + h]));
    }
  }
  for (; c3 < end3; c3 += step3, ++i) {
    c[3] = c3;
    pred[i] = interp_predict(g, recon, c, 3, h, cubic, base + c3);
  }
}

// Dispatches a row piece to the d < 3 uniform-predicate sweep or the
// d == 3 segmented sweep.
template <typename T>
void predict_row(const Grid& g, const T* recon,
                 const std::array<std::size_t, 4>& c, int d, std::size_t h,
                 bool cubic, std::size_t base, std::size_t c3,
                 std::size_t step3, std::size_t n, double* pred) {
  if (d < 3)
    interp_predict_row(g, recon, c, d, h, cubic, base, c3, step3, n, pred);
  else
    interp_predict_row_d3(g, recon, c, h, cubic, base, c3, step3, n, pred);
}

double level_eb(double abs_eb, double gamma, int level) {
  // gamma < 1 tightens coarse (high) levels; bound capped at abs_eb so the
  // overall guarantee holds at every level.
  double eb = abs_eb * std::pow(gamma, level - 1);
  return std::min(eb, abs_eb);
}

// Per-level error bounds, precomputed once per (de)compression so the hot
// loop avoids pow().
std::array<double, 64> level_eb_table(double abs_eb, double gamma) {
  std::array<double, 64> t{};
  for (int l = 0; l < 64; ++l) t[l] = level_eb(abs_eb, gamma, l);
  return t;
}

// Per-level quantizers built once: the constructor's reciprocal divide
// would otherwise be paid per row.
template <typename Q>
std::vector<Q> level_quantizers(double abs_eb, const InterpConfig& config) {
  const auto leb = level_eb_table(abs_eb, config.level_gamma);
  std::vector<Q> quants;
  quants.reserve(leb.size());
  for (double eb : leb)
    quants.push_back(make_quantizer<Q>(eb, config.quant_param, kRadius));
  return quants;
}

// Anchors: exact values on the coarse grid, visited in stream order as
// f(lin). Returns how many there are.
template <typename F>
std::size_t for_each_anchor(const Grid& g, std::size_t anchor_stride, F&& f) {
  std::size_t count = 0;
  std::array<std::size_t, 4> a{};
  for (a[0] = 0; a[0] < g.dim[0]; a[0] += anchor_stride)
    for (a[1] = 0; a[1] < g.dim[1]; a[1] += anchor_stride)
      for (a[2] = 0; a[2] < g.dim[2]; a[2] += anchor_stride)
        for (a[3] = 0; a[3] < g.dim[3]; a[3] += anchor_stride, ++count)
          f(a[0] * g.stride[0] + a[1] * g.stride[1] + a[2] * g.stride[2] +
            a[3]);
  return count;
}

// Each row piece: gather its strided inputs, quantize them against the
// predictions in one quantize_row call, scatter the reconstruction, and
// append the code-0 values to the unpredictable stream in order.
template <typename T, typename Q>
InterpEncoding compress_impl(const NdArray<T>& arr, double abs_eb,
                             const InterpConfig& config, Field* recon_out) {
  const Grid g = Grid::from_dims(arr.shape().dims_vector());
  const std::size_t anchor_stride =
      config.anchor_stride ? config.anchor_stride : auto_anchor_stride(g);
  EBLCIO_CHECK_ARG(std::has_single_bit(anchor_stride),
                   "anchor stride must be a power of two");
  const T* data = arr.data();

  InterpEncoding enc;
  enc.alphabet_size = 2 * kRadius + 1;
  // recon entries are anchors or quantizer round-trips: exactly
  // T-representable, so storing T halves the buffer bandwidth with
  // bit-identical reads. Each holds the value the decoder will write; the
  // anchors and the traversal write every element once, before any
  // prediction reads it, so the buffer starts unfilled.
  NdArray<T> recon(arr.shape(), kUnfilled);
  const std::size_t anchors =
      for_each_anchor(g, anchor_stride, [&](std::size_t lin) {
        append_pod<T>(enc.anchors, data[lin]);
        recon[lin] = data[lin];
      });
  // One code per element that is not an anchor.
  enc.codes.resize(g.num_elements() - anchors);
  std::uint32_t* code_dst = enc.codes.data();

  const std::vector<Q> quants = level_quantizers<Q>(abs_eb, config);
  std::array<double, kRowChunk> pred;
  std::array<T, kRowChunk> xs, rs;

  traverse(g, anchor_stride,
           [&](const std::array<std::size_t, 4>& c, std::size_t base, int d,
               std::size_t h, int level, std::size_t c3, std::size_t step3,
               std::size_t n) {
             predict_row(g, recon.data(), c, d, h, config.cubic, base, c3,
                         step3, n, pred.data());
             const std::size_t first = base + c3;
             for (std::size_t i = 0; i < n; ++i)
               xs[i] = data[first + i * step3];
             const bool any_zero = quants[level].template quantize_row<T>(
                 xs.data(), pred.data(), n, code_dst, rs.data());
             for (std::size_t i = 0; i < n; ++i)
               recon[first + i * step3] = rs[i];
             if (any_zero)
               for (std::size_t i = 0; i < n; ++i)
                 if (code_dst[i] == 0) append_pod<T>(enc.unpred, xs[i]);
             code_dst += n;
           });
  if (recon_out) *recon_out = Field("recon", std::move(recon));
  return enc;
}

// Reconstructs into `recon`, the output itself. With a power-of-two
// anchor stride the anchors and the traversal's targets partition the
// grid, so every element is written exactly once; predictions read only
// anchors and values of earlier passes, so none reads an element before it
// is written and the output may start unfilled. Each row piece checks the
// code stream once, recovers the piece in one recover_row call, scatters
// it, and then, only if some code is 0, overwrites those slots from the
// unpredictable stream in order.
template <typename T, typename Q>
void decompress_impl(const BlobHeader& header, const InterpConfig& config,
                     std::span<const std::uint32_t> codes,
                     std::span<const std::byte> anchors,
                     std::span<const std::byte> unpred, T* recon) {
  const Grid g = Grid::from_dims(header.dims);
  const std::size_t anchor_stride =
      config.anchor_stride ? config.anchor_stride : auto_anchor_stride(g);
  // Any other stride leaves elements unwritten and predicts from them.
  EBLCIO_CHECK_STREAM(std::has_single_bit(anchor_stride),
                      "interp: anchor stride is not a power of two");

  ByteReader anchor_r(anchors);
  ByteReader unpred_r(unpred);
  for_each_anchor(g, anchor_stride, [&](std::size_t lin) {
    recon[lin] = anchor_r.read_pod<T>();
  });

  const std::vector<Q> quants =
      level_quantizers<Q>(header.abs_error_bound, config);
  std::array<double, kRowChunk> pred;
  std::array<T, kRowChunk> rs;
  std::size_t code_idx = 0;

  traverse(g, anchor_stride,
           [&](const std::array<std::size_t, 4>& c, std::size_t base, int d,
               std::size_t h, int level, std::size_t c3, std::size_t step3,
               std::size_t n) {
             EBLCIO_CHECK_STREAM(n <= codes.size() - code_idx,
                                 "interp: code stream underrun");
             // Predictions read only previous-level recon values, so
             // computing the whole piece up front (including slots that
             // turn out unpredictable, where the value goes unused) is
             // safe.
             predict_row(g, recon, c, d, h, config.cubic, base, c3, step3, n,
                         pred.data());
             const std::uint32_t* cs = codes.data() + code_idx;
             code_idx += n;
             quants[level].template recover_row<T>(cs, pred.data(), n,
                                                   rs.data());
             const std::size_t first = base + c3;
             int zeros = 0;
             for (std::size_t i = 0; i < n; ++i) {
               recon[first + i * step3] = rs[i];
               zeros += cs[i] == 0;
             }
             if (zeros)
               for (std::size_t i = 0; i < n; ++i)
                 if (cs[i] == 0)
                   recon[first + i * step3] = unpred_r.read_pod<T>();
           });
  EBLCIO_CHECK_STREAM(code_idx == codes.size(),
                      "interp: code stream overrun");
}

}  // namespace

InterpEncoding interp_compress(const Field& field, double abs_eb,
                               const InterpConfig& config, Field* recon) {
  return with_quantizer(
      config.quantizer, abs_eb, config.quant_param, [&](auto proto) {
        using Q = decltype(proto);
        return field.visit([&](const auto& arr) {
          using T = std::remove_cvref_t<decltype(*arr.data())>;
          return compress_impl<T, Q>(arr, abs_eb, config, recon);
        });
      });
}

void interp_decompress_into(const BlobHeader& header,
                            const InterpConfig& config,
                            std::span<const std::uint32_t> codes,
                            std::span<const std::byte> anchors,
                            std::span<const std::byte> unpred, Field& out,
                            std::size_t offset) {
  with_quantizer(
      config.quantizer, header.abs_error_bound, config.quant_param,
      [&](auto proto) {
        out.visit([&](auto& arr) {
          decompress_impl<std::remove_reference_t<decltype(*arr.data())>,
                          decltype(proto)>(header, config, codes, anchors,
                                           unpred, arr.data() + offset);
        });
      });
}

Field interp_decompress(const BlobHeader& header, const InterpConfig& config,
                        std::span<const std::uint32_t> codes,
                        std::span<const std::byte> anchors,
                        std::span<const std::byte> unpred) {
  Field out = unfilled_field(header.codec, header.dtype,
                             Shape{std::span<const std::size_t>(header.dims)});
  interp_decompress_into(header, config, codes, anchors, unpred, out, 0);
  return out;
}

Bytes interp_payload_encode(const InterpConfig& config,
                            const InterpEncoding& enc) {
  Bytes out;
  append_pod<std::uint64_t>(out, config.anchor_stride);
  append_pod<double>(out, config.level_gamma);
  append_pod<std::uint8_t>(out, config.cubic ? 1 : 0);
  append_pod<std::uint64_t>(out, enc.codes.size());
  append_sized(out, enc.anchors);
  append_sized(out, enc.unpred);
  Bytes code_blob = encode_code_stream(enc.codes, enc.alphabet_size);
  append_bytes(out, code_blob);
  BufferPool::global().release(std::move(code_blob));
  return out;
}

InterpPayload interp_payload_decode(std::span<const std::byte> payload) {
  ByteReader r(payload);
  InterpPayload p;
  p.config.anchor_stride = r.read_pod<std::uint64_t>();
  p.config.level_gamma = r.read_pod<double>();
  p.config.cubic = r.read_pod<std::uint8_t>() != 0;
  const auto ncodes = r.read_pod<std::uint64_t>();
  p.anchors = read_sized(r);
  p.unpred = read_sized(r);
  p.codes = decode_code_stream(r);
  EBLCIO_CHECK_STREAM(p.codes.size() == ncodes,
                      "interp: code count mismatch");
  return p;
}

void interp_payload_decompress(const BlobHeader& header,
                               std::span<const std::byte> payload, Field& out,
                               std::size_t offset) {
  const InterpPayload p = interp_payload_decode(payload);
  interp_decompress_into(header, p.config, p.codes, p.anchors, p.unpred, out,
                         offset);
}

}  // namespace eblcio
