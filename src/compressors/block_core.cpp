#include "compressors/block_core.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/buffer_pool.h"
#include "common/error.h"
#include "common/region.h"
#include "compressors/zone.h"

namespace eblcio {
namespace {

// All fields are processed through a uniform 4D view: leading dimensions of
// extent 1 are prepended, and the Lorenzo inclusion-exclusion masks over
// size-1 dimensions vanish naturally.
struct Geometry {
  std::array<std::size_t, 4> dim{1, 1, 1, 1};
  std::array<std::size_t, 4> stride{};
  std::array<std::size_t, 4> block{1, 1, 1, 1};   // block edge per dim
  std::array<std::size_t, 4> nblocks{1, 1, 1, 1}; // block grid
  int real_dims = 1;
  std::vector<unsigned> lorenzo_masks;  // nonzero masks over real dims

  static Geometry from_dims(const std::vector<std::size_t>& dims) {
    Geometry g;
    g.real_dims = static_cast<int>(dims.size());
    const int pad = 4 - g.real_dims;
    for (int i = 0; i < g.real_dims; ++i) g.dim[pad + i] = dims[i];

    // Block edges per dimensionality, as in SZ2 (256 / 16x16 / 6^3).
    static constexpr std::array<std::array<std::size_t, 4>, 4> kEdges{{
        {1, 1, 1, 256},
        {1, 1, 16, 16},
        {1, 6, 6, 6},
        {6, 6, 6, 6},
    }};
    g.block = kEdges[g.real_dims - 1];

    std::size_t acc = 1;
    for (int d = 3; d >= 0; --d) {
      g.stride[d] = acc;
      acc *= g.dim[d];
    }
    for (int d = 0; d < 4; ++d)
      g.nblocks[d] = (g.dim[d] + g.block[d] - 1) / g.block[d];

    // Lorenzo neighbour masks: subsets of the real dimensions.
    for (unsigned mask = 1; mask < 16; ++mask) {
      bool ok = true;
      for (int d = 0; d < 4; ++d)
        if ((mask & (1u << d)) && g.dim[d] == 1) ok = false;
      if (ok) g.lorenzo_masks.push_back(mask);
    }
    return g;
  }

  std::size_t num_elements() const {
    return dim[0] * dim[1] * dim[2] * dim[3];
  }
  std::size_t total_blocks() const {
    return nblocks[0] * nblocks[1] * nblocks[2] * nblocks[3];
  }
};

// The Lorenzo stencil for one row (fixed c0..c2, c3 varying): the (offset,
// sign) pairs of every mask whose neighbours exist, in mask order — the
// same accumulation order as walking lorenzo_masks and skipping the
// out-of-range ones, so predictions are bit-identical to the per-element
// mask walk this replaces. Rows split into a head stencil (first element
// when its c3 coordinate is 0) and a tail stencil (c3 > 0); hoisting the
// boundary logic here leaves the per-element loop a fused multiply-add
// sweep over precomputed offsets.
struct RowStencil {
  std::array<std::pair<std::size_t, double>, 15> head_terms;
  std::array<std::pair<std::size_t, double>, 15> tail_terms;
  int head_n = 0;
  int tail_n = 0;
  // Tail terms before the first offset-1 term (the {d3} mask). Only an
  // offset-1 gather reads a value written earlier in the *same* row —
  // every other offset is at least stride[2] = dim[3] >= ext3, i.e. a row
  // completed by an earlier visit — so the leading split_n terms of every
  // element's sum are independent of the reconstruction feedback chain
  // and can be pre-accumulated for the whole row (in term order, hence
  // bit-identically) before the sequential sweep.
  int split_n = 0;
};

RowStencil row_stencil(const Geometry& g,
                       const std::array<std::size_t, 4>& row) {
  RowStencil st;
  for (unsigned mask : g.lorenzo_masks) {
    bool valid_fixed = true;  // dims 0..2 (fixed along the row)
    std::size_t off = 0;
    for (int d = 0; d < 3; ++d) {
      if (!(mask & (1u << d))) continue;
      if (row[d] == 0) {
        valid_fixed = false;
        break;
      }
      off += g.stride[d];
    }
    if (!valid_fixed) continue;
    const bool touches_d3 = (mask & (1u << 3)) != 0;
    if (touches_d3) off += g.stride[3];
    const double sign = (std::popcount(mask) & 1) ? 1.0 : -1.0;
    st.tail_terms[st.tail_n++] = {off, sign};
    if (!touches_d3) st.head_terms[st.head_n++] = {off, sign};
  }
  st.split_n = st.tail_n;
  for (int k = 0; k < st.tail_n; ++k)
    if (st.tail_terms[k].first == 1) {
      st.split_n = k;
      break;
    }
  return st;
}

// Prediction from a row stencil: sign-weighted neighbour sum over either
// the reconstruction buffer (double) or raw samples (T). Multiplying by
// the exact +-1.0 sign equals the branchy add/subtract bit-for-bit.
//
// The compile-time-N body lets the compiler fully unroll and schedule the
// gather+fma chain; the runtime wrapper dispatches on the term counts a
// Lorenzo stencil can actually have on interior rows (1/3/7/15 for
// 1D/2D/3D/4D). Identical sequential accumulation order, so the dispatch
// is bit-invisible.
template <int N, typename V>
inline double stencil_predict_n(
    const std::array<std::pair<std::size_t, double>, 15>& terms,
    const V* vals, std::size_t lin) {
  double pred = 0.0;
  for (int k = 0; k < N; ++k)
    pred += terms[k].second *
            static_cast<double>(vals[lin - terms[k].first]);
  return pred;
}

template <typename V>
inline double stencil_predict(
    const std::array<std::pair<std::size_t, double>, 15>& terms, int n,
    const V* vals, std::size_t lin) {
  switch (n) {
    case 7: return stencil_predict_n<7>(terms, vals, lin);
    case 3: return stencil_predict_n<3>(terms, vals, lin);
    case 15: return stencil_predict_n<15>(terms, vals, lin);
    case 1: return stencil_predict_n<1>(terms, vals, lin);
    default: break;
  }
  double pred = 0.0;
  for (int k = 0; k < n; ++k)
    pred += terms[k].second *
            static_cast<double>(vals[lin - terms[k].first]);
  return pred;
}

// Continues a prediction sum from `pred` over terms [k0, k0+N): the
// feedback-dependent suffix of a split row sweep. Same sequential
// accumulation as stencil_predict picking up at index k0, so
// prefix-then-suffix equals the one-pass sum bit-for-bit.
template <int N, typename V>
inline double stencil_accum_n(
    double pred, const std::array<std::pair<std::size_t, double>, 15>& terms,
    int k0, const V* vals, std::size_t lin) {
  for (int k = 0; k < N; ++k)
    pred += terms[k0 + k].second *
            static_cast<double>(vals[lin - terms[k0 + k].first]);
  return pred;
}

template <typename V>
inline double stencil_accum(
    double pred, const std::array<std::pair<std::size_t, double>, 15>& terms,
    int k0, int n, const V* vals, std::size_t lin) {
  switch (n - k0) {  // suffix counts per dimensionality: 4/2/1/8 hot
    case 4: return stencil_accum_n<4>(pred, terms, k0, vals, lin);
    case 2: return stencil_accum_n<2>(pred, terms, k0, vals, lin);
    case 1: return stencil_accum_n<1>(pred, terms, k0, vals, lin);
    case 8: return stencil_accum_n<8>(pred, terms, k0, vals, lin);
    case 0: return pred;
    default: break;
  }
  for (int k = k0; k < n; ++k)
    pred += terms[k].second *
            static_cast<double>(vals[lin - terms[k].first]);
  return pred;
}

// row_stencil only reads `row` through row[d] == 0 tests, so a stencil is
// fully determined by the 4-bit zero-pattern of the row base — 16
// possibilities. Rebuilding per boundary row was ~16% of compress-slab
// time; this table replaces ~8k rebuilds per 64^3 field with a lookup.
// The entry contents are byte-identical to a fresh row_stencil call, so
// predictions are unchanged. Index 0 (no zero coordinate) is the full
// interior stencil; rows in size-1 dimensions always carry their zero
// bit, and those dimensions never appear in lorenzo_masks, so the lookup
// stays consistent for them too.
struct StencilCache {
  std::array<RowStencil, 16> by_sig;

  explicit StencilCache(const Geometry& g) {
    for (unsigned sig = 0; sig < 16; ++sig) {
      std::array<std::size_t, 4> fake_row;
      for (int d = 0; d < 4; ++d)
        fake_row[d] = (sig & (1u << d)) ? 0 : 1;
      by_sig[sig] = row_stencil(g, fake_row);
    }
  }

  static unsigned signature(const std::array<std::size_t, 4>& row) {
    unsigned sig = 0;
    for (int d = 0; d < 4; ++d)
      if (row[d] == 0) sig |= 1u << d;
    return sig;
  }

  const RowStencil& for_row(const std::array<std::size_t, 4>& row) const {
    return by_sig[signature(row)];
  }

  // Visits one d3 row of Lorenzo predictions: head stencil for the global
  // first element (nothing behind it along d3), tail for the rest.
  // Exactly the split the original SZ2 walker performed inline.
  //
  // The tail sweep is split at the stencil's first offset-1 term: the
  // leading split_n terms read rows finished by earlier visits, so their
  // partial sums are computed for the whole row up front — off the
  // reconstruction feedback chain, where the CPU pipelines them freely —
  // and only the suffix (the {d3} term and the masks behind it) stays on
  // the element-to-element dependency path. Prefix and suffix accumulate
  // in the original term order from the original 0.0 seed, so every
  // prediction is bit-identical to the fused per-element sum; with the
  // 3D interior stencil this shortens the carried chain from 7 dependent
  // adds to 4.
  //
  // fn returns the double value of the reconstruction it just stored
  // (exactly (double)recon[lin]: the stored value is V-representable, so
  // the round trip through V is an identity). The offset-1 gather — the
  // only term that reads the element written one iteration ago — uses
  // that carried value instead of reloading recon, which takes the
  // store-to-load forward plus a widening convert off the feedback
  // chain. The product is numerically the same either way.
  template <typename V, typename Fn>
  void visit_row(const Geometry& g, const std::array<std::size_t, 4>& row,
                 std::size_t base, std::size_t ext3, const V* recon,
                 Fn&& fn) const {
    const RowStencil& st = for_row(row);
    std::size_t c3 = 0;
    double carried = 0.0;
    if (row[3] == 0 && g.dim[3] > 1 && ext3 > 0) {
      carried =
          fn(base, stencil_predict(st.head_terms, st.head_n, recon, base));
      c3 = 1;
    } else if (st.split_n < st.tail_n && ext3 > 0) {
      // A tail stencil only carries an offset-1 term when the coordinate
      // along that dimension is nonzero, so the element one slot back
      // exists and was written by an earlier row or block.
      carried = static_cast<double>(recon[base - 1]);
    }
    double pre[256];  // rows are at most the largest block edge long
    for (std::size_t i = c3; i < ext3; ++i)
      pre[i] = stencil_predict(st.tail_terms, st.split_n, recon, base + i);
    if (st.split_n < st.tail_n) {
      for (; c3 < ext3; ++c3) {
        const std::size_t lin = base + c3;
        // Same association as the fused sum: prefix, then the offset-1
        // term, then the remaining suffix terms in order.
        double pred = pre[c3] + st.tail_terms[st.split_n].second * carried;
        pred = stencil_accum(pred, st.tail_terms, st.split_n + 1, st.tail_n,
                             recon, lin);
        carried = fn(lin, pred);
      }
    } else {
      for (; c3 < ext3; ++c3) fn(base + c3, pre[c3]);
    }
  }
};

// --- 2-layer Lorenzo -------------------------------------------------------
//
// The order-2 Lorenzo predictor extrapolates from a 2-deep neighbour cube:
// for offsets k in {0,1,2}^d \ {0}, the neighbour at distance k carries
// coefficient (-1)^(|k|_1 + 1) * prod_d C(2, k_d) — the expansion of
// 1 - prod_d (1 - E_d^-1)^2 where E_d^-1 shifts back along dim d. In 1D
// this is the familiar 2*x[i-1] - x[i-2] linear extrapolation; the
// coefficients sum to 1 in every dimensionality. Neighbours that fall
// outside the field are dropped with their coefficients kept, the same
// boundary convention as the 1-layer stencil above.
struct L2RowStencil {
  // Up to 3^4 - 1 = 80 terms; head0 applies at global d3 coordinate 0,
  // head1 at coordinate 1 (no / only distance-1 neighbours along d3),
  // tail from coordinate 2 on.
  std::array<std::pair<std::size_t, double>, 80> head0_terms;
  std::array<std::pair<std::size_t, double>, 80> head1_terms;
  std::array<std::pair<std::size_t, double>, 80> tail_terms;
  int head0_n = 0;
  int head1_n = 0;
  int tail_n = 0;
};

template <typename V>
inline double l2_predict(
    const std::array<std::pair<std::size_t, double>, 80>& terms, int n,
    const V* vals, std::size_t lin) {
  double pred = 0.0;
  for (int k = 0; k < n; ++k)
    pred += terms[k].second *
            static_cast<double>(vals[lin - terms[k].first]);
  return pred;
}

// Like StencilCache, keyed by how deep each *fixed* dimension's row base
// sits: min(row[d], 2) per dim 0..2 -> base-3 signature, 27 entries. The
// varying d3 depth is handled by the head0/head1/tail split inside each
// entry.
struct Stencil2Cache {
  std::array<L2RowStencil, 27> by_sig;

  explicit Stencil2Cache(const Geometry& g) {
    static constexpr std::array<double, 3> kBinom{1.0, 2.0, 1.0};
    for (unsigned sig = 0; sig < 27; ++sig) {
      std::array<std::size_t, 3> depth{sig / 9 % 3, sig / 3 % 3, sig % 3};
      L2RowStencil& st = by_sig[sig];
      std::array<std::size_t, 4> k{};
      for (k[0] = 0; k[0] <= 2; ++k[0])
        for (k[1] = 0; k[1] <= 2; ++k[1])
          for (k[2] = 0; k[2] <= 2; ++k[2])
            for (k[3] = 0; k[3] <= 2; ++k[3]) {
              const std::size_t order = k[0] + k[1] + k[2] + k[3];
              if (order == 0) continue;
              bool valid = true;
              std::size_t off = 0;
              double coeff = (order & 1) ? 1.0 : -1.0;
              for (int d = 0; d < 4; ++d) {
                if (k[d] == 0) continue;
                // Fixed dims: the row base must be at least k[d] deep.
                // All dims: a size-1 dimension has no neighbours.
                if ((d < 3 && depth[d] < k[d]) || g.dim[d] == 1) {
                  valid = false;
                  break;
                }
                off += k[d] * g.stride[d];
                coeff *= kBinom[k[d]];
              }
              if (!valid) continue;
              st.tail_terms[st.tail_n++] = {off, coeff};
              if (k[3] <= 1) st.head1_terms[st.head1_n++] = {off, coeff};
              if (k[3] == 0) st.head0_terms[st.head0_n++] = {off, coeff};
            }
    }
  }

  static unsigned signature(const std::array<std::size_t, 4>& row) {
    unsigned sig = 0;
    for (int d = 0; d < 3; ++d)
      sig = sig * 3 + static_cast<unsigned>(std::min<std::size_t>(row[d], 2));
    return sig;
  }

  template <typename V, typename Fn>
  void visit_row(const Geometry& g, const std::array<std::size_t, 4>& row,
                 std::size_t base, std::size_t ext3, const V* recon,
                 Fn&& fn) const {
    const L2RowStencil& st = by_sig[signature(row)];
    std::size_t c3 = 0;
    if (g.dim[3] > 1) {
      // Block origins along d3 are multiples of the block edge, so only
      // the first block's rows can contain the global coordinates 0 and 1.
      if (row[3] == 0 && c3 < ext3) {
        fn(base, l2_predict(st.head0_terms, st.head0_n, recon, base));
        ++c3;
      }
      if (row[3] + c3 == 1 && c3 < ext3) {
        fn(base + c3,
           l2_predict(st.head1_terms, st.head1_n, recon, base + c3));
        ++c3;
      }
    }
    for (; c3 < ext3; ++c3) {
      const std::size_t lin = base + c3;
      fn(lin, l2_predict(st.tail_terms, st.tail_n, recon, lin));
    }
  }
};

struct RegressionCoeffs {
  float b0 = 0.f;
  std::array<float, 4> slope{};  // per uniform-4D dim (zeros for unit dims)
};

// Kernel state shared between the per-block passes.
struct BlockRef {
  std::array<std::size_t, 4> origin;
  std::array<std::size_t, 4> extent;
};

// Enumerates blocks in row-major block-grid order. Every Lorenzo neighbour
// (distance 1 or 2, any dim subset) lives at coordinates componentwise <=
// the element's with at least one strictly smaller, so lexicographic block
// order + row-major order inside a block visits each neighbour before its
// dependent — for both stencil orders.
std::vector<BlockRef> enumerate_blocks(const Geometry& g) {
  std::vector<BlockRef> blocks;
  blocks.reserve(g.total_blocks());
  std::array<std::size_t, 4> b{};
  for (b[0] = 0; b[0] < g.nblocks[0]; ++b[0])
    for (b[1] = 0; b[1] < g.nblocks[1]; ++b[1])
      for (b[2] = 0; b[2] < g.nblocks[2]; ++b[2])
        for (b[3] = 0; b[3] < g.nblocks[3]; ++b[3]) {
          BlockRef ref;
          for (int d = 0; d < 4; ++d) {
            ref.origin[d] = b[d] * g.block[d];
            ref.extent[d] =
                std::min(g.block[d], g.dim[d] - ref.origin[d]);
          }
          blocks.push_back(ref);
        }
  return blocks;
}

// Linear index of the row base (c3 = 0) for local row coords `c` inside
// `blk`; the d3 stride is 1 by construction, so rows advance unit-stride.
inline std::size_t row_base(const Geometry& g, const BlockRef& blk,
                            const std::array<std::size_t, 4>& c) {
  return (blk.origin[0] + c[0]) * g.stride[0] +
         (blk.origin[1] + c[1]) * g.stride[1] +
         (blk.origin[2] + c[2]) * g.stride[2] + blk.origin[3];
}

// Least-squares plane fit over a block of raw values. The data-independent
// moments (element count, coordinate sums, squared-coordinate sums) are
// sums of small integers — exact in double in any order — so they come
// from closed forms; only the data moments accumulate per element, in the
// original element-then-dimension order so sum_x / sum_ux stay
// bit-identical to the fused loop this replaces.
template <typename T>
RegressionCoeffs fit_regression(const Geometry& g, const T* data,
                                const BlockRef& blk) {
  RegressionCoeffs rc;
  const double n = static_cast<double>(blk.extent[0] * blk.extent[1] *
                                       blk.extent[2] * blk.extent[3]);
  std::array<double, 4> sum_u{}, sum_uu{};
  for (int d = 0; d < 4; ++d) {
    const double e = static_cast<double>(blk.extent[d]);
    const double others = n / e;
    // sum over c_d of c_d, and of c_d^2, times the count of other coords.
    sum_u[d] = others * (e * (e - 1.0) / 2.0);
    sum_uu[d] = others * ((e - 1.0) * e * (2.0 * e - 1.0) / 6.0);
  }

  double sum_x = 0.0;
  std::array<double, 4> sum_ux{};
  std::array<std::size_t, 4> c{};
  for (c[0] = 0; c[0] < blk.extent[0]; ++c[0])
    for (c[1] = 0; c[1] < blk.extent[1]; ++c[1])
      for (c[2] = 0; c[2] < blk.extent[2]; ++c[2]) {
        std::size_t lin = row_base(g, blk, c);
        const double u0 = static_cast<double>(c[0]);
        const double u1 = static_cast<double>(c[1]);
        const double u2 = static_cast<double>(c[2]);
        for (c[3] = 0; c[3] < blk.extent[3]; ++c[3], ++lin) {
          const double x = static_cast<double>(data[lin]);
          sum_x += x;
          sum_ux[0] += u0 * x;
          sum_ux[1] += u1 * x;
          sum_ux[2] += u2 * x;
          sum_ux[3] += static_cast<double>(c[3]) * x;
        }
      }
  const double mean_x = sum_x / n;
  double b0 = mean_x;
  for (int d = 0; d < 4; ++d) {
    const double mean_u = sum_u[d] / n;
    const double var_u = sum_uu[d] / n - mean_u * mean_u;
    const double cov = sum_ux[d] / n - mean_u * mean_x;
    const double slope = var_u > 1e-12 ? cov / var_u : 0.0;
    rc.slope[d] = static_cast<float>(slope);
    b0 -= slope * mean_u;
  }
  rc.b0 = static_cast<float>(b0);
  return rc;
}

// Decides the per-block predictor by comparing sampled absolute residuals
// of raw-data Lorenzo vs. the regression plane (SZ2's selection heuristic).
template <typename T>
bool regression_wins(const Geometry& g, const StencilCache& stencils,
                     const T* data, const BlockRef& blk,
                     const RegressionCoeffs& rc) {
  double err_lorenzo = 0.0, err_reg = 0.0;
  std::array<std::size_t, 4> c{};
  for (c[0] = 0; c[0] < blk.extent[0]; ++c[0])
    for (c[1] = 0; c[1] < blk.extent[1]; ++c[1])
      for (c[2] = 0; c[2] < blk.extent[2]; c[2] += 2) {
        const std::array<std::size_t, 4> row{
            blk.origin[0] + c[0], blk.origin[1] + c[1],
            blk.origin[2] + c[2], blk.origin[3]};
        const RowStencil& st = stencils.for_row(row);
        // regression_predict association: ((b0+s0c0)+s1c1)+s2c2, then +s3c3.
        const double reg_row =
            ((rc.b0 + static_cast<double>(rc.slope[0]) *
                          static_cast<double>(c[0])) +
             static_cast<double>(rc.slope[1]) * static_cast<double>(c[1])) +
            static_cast<double>(rc.slope[2]) * static_cast<double>(c[2]);
        const std::size_t base = row_base(g, blk, c);
        for (c[3] = 0; c[3] < blk.extent[3]; c[3] += 2) {  // sample stride 2
          const std::size_t lin = base + c[3];
          const double x = static_cast<double>(data[lin]);
          // Raw-data Lorenzo residual (approximation to the real residual).
          const bool head = row[3] + c[3] == 0 && g.dim[3] > 1;
          const double pred =
              head ? stencil_predict(st.head_terms, st.head_n, data, lin)
                   : stencil_predict(st.tail_terms, st.tail_n, data, lin);
          err_lorenzo += std::fabs(x - pred);
          err_reg +=
              std::fabs(x - (reg_row + static_cast<double>(rc.slope[3]) *
                                           static_cast<double>(c[3])));
        }
      }
  return err_reg < err_lorenzo;
}

// Walks one block in canonical element order, computing every element's
// prediction (regression plane or Lorenzo stencil over `recon`) and
// invoking fn(lin, pred) — except for regression rows, which are handed
// whole to reg_row_fn(base, pred, n) with the row's n predictions filled
// in, because the regression plane has no reconstruction feedback: the
// callee processes the row with one row-kernel call.
// Compress and decompress both iterate through this single walker: the
// round-trip contract requires the two sides to evaluate predictions
// bit-identically, so the shared code path makes that symmetry structural
// rather than maintained by hand (the callbacks are the only
// side-specific part — quantize+record vs recover+materialize). The
// stencil cache type selects the Lorenzo order (StencilCache = 1-layer,
// Stencil2Cache = 2-layer); its visit_row owns the head/tail split.
template <typename T, typename Cache, typename Fn, typename RegRowFn>
void walk_block_predictions(const Geometry& g, const BlockRef& blk,
                            const Cache& stencils, bool reg,
                            const RegressionCoeffs& rc, const T* recon,
                            Fn&& fn, RegRowFn&& reg_row_fn) {
  std::array<std::size_t, 4> c{};
  for (c[0] = 0; c[0] < blk.extent[0]; ++c[0])
    for (c[1] = 0; c[1] < blk.extent[1]; ++c[1])
      for (c[2] = 0; c[2] < blk.extent[2]; ++c[2]) {
        // Per-element work is hoisted to the row: the linear index
        // advances unit-stride, the predictor branch resolves once, and
        // boundary handling collapses into the precomputed stencils.
        const std::size_t base = row_base(g, blk, c);
        const std::size_t ext3 = blk.extent[3];
        if (reg) {
          // regression association: ((b0+s0c0)+s1c1)+s2c2, then +s3c3.
          const double reg_row =
              ((rc.b0 + static_cast<double>(rc.slope[0]) *
                            static_cast<double>(c[0])) +
               static_cast<double>(rc.slope[1]) *
                   static_cast<double>(c[1])) +
              static_cast<double>(rc.slope[2]) * static_cast<double>(c[2]);
          const double s3 = static_cast<double>(rc.slope[3]);
          double pred[256];  // rows are at most the largest block edge long
          for (std::size_t k = 0; k < ext3; ++k)
            pred[k] = reg_row + s3 * static_cast<double>(k);
          reg_row_fn(base, pred, ext3);
        } else {
          const std::array<std::size_t, 4> row{
              blk.origin[0] + c[0], blk.origin[1] + c[1],
              blk.origin[2] + c[2], blk.origin[3]};
          stencils.visit_row(g, row, base, ext3, recon, fn);
        }
      }
}

// Which blocks use the regression plane, given the predictor mode.
// kLorenzoRegression restricts the per-block choice to 2D/3D exactly as
// SZ2 does; kRegression fits every block; the pure Lorenzo modes none.
bool regression_allowed(BlockPredictor pred, int real_dims) {
  switch (pred) {
    case BlockPredictor::kLorenzoRegression:
      return real_dims == 2 || real_dims == 3;
    case BlockPredictor::kRegression:
      return true;
    default:
      return false;
  }
}

// Reconstruction scratch backed by the global BufferPool. The block
// kernels run once per slab/zone, and a fresh multi-megabyte vector per
// call is typically served straight from the OS by the allocator — an
// mmap round trip plus a page fault for every 4 KiB touched, paid again
// on every call. Recycling the allocation keeps the scratch's pages
// resident across calls. Pooled buffers come back cleared, so resize()
// zero-fills exactly like the value-initialized vector it replaces.
template <typename V>
class PooledScratch {
 public:
  explicit PooledScratch(std::size_t n)
      : buf_(BufferPool::global().acquire(n * sizeof(V))) {
    buf_.resize(n * sizeof(V));
  }
  ~PooledScratch() { BufferPool::global().release(std::move(buf_)); }
  PooledScratch(const PooledScratch&) = delete;
  PooledScratch& operator=(const PooledScratch&) = delete;
  V* data() { return reinterpret_cast<V*>(buf_.data()); }

 private:
  Bytes buf_;
};

template <typename T, typename Q, typename Cache>
BlockEncoding compress_impl(const NdArray<T>& arr, const Q& quant,
                            BlockPredictor pred, Field* recon_out) {
  const Geometry g = Geometry::from_dims(arr.shape().dims_vector());
  const T* data = arr.data();
  const bool reg_allowed = regression_allowed(pred, g.real_dims);
  const bool reg_always = pred == BlockPredictor::kRegression;

  BlockEncoding enc;
  enc.codes.resize(g.num_elements());
  std::uint32_t* code_dst = enc.codes.data();
  // recon holds values the decompressor materializes: every entry is the
  // T-cast of a prediction+residual, hence exactly T-representable — storing
  // T halves the buffer bandwidth with bit-identical reads. A caller that
  // keeps it gets it as its own array, which starts unfilled: the block
  // walk writes every element before any prediction reads it, as the
  // decoder's walk does in its unfilled output.
  using ReconT = T;
  std::optional<PooledScratch<ReconT>> recon_scratch;
  NdArray<ReconT> recon_kept;
  if (recon_out)
    recon_kept = NdArray<ReconT>(arr.shape(), kUnfilled);
  else
    recon_scratch.emplace(g.num_elements());
  ReconT* const recon =
      recon_out ? recon_kept.data() : recon_scratch->data();

  // All boundary stencils precomputed once; rows index by depth signature.
  const Cache stencils(g);

  const auto blocks = enumerate_blocks(g);
  enc.mode_bits.assign((blocks.size() + 7) / 8, std::byte{0});

  for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
    const BlockRef& blk = blocks[bi];
    RegressionCoeffs rc;
    bool reg = false;
    if (reg_allowed) {
      rc = fit_regression(g, data, blk);
      if (reg_always) {
        reg = true;
      } else if constexpr (std::is_same_v<Cache, StencilCache>) {
        // Per-block selection compares against the 1-layer stencil (the
        // legacy mode is only ever instantiated with it).
        reg = regression_wins(g, stencils, data, blk, rc);
      }
      if (reg) {
        enc.mode_bits[bi / 8] |= static_cast<std::byte>(1u << (bi % 8));
        append_pod(enc.coeffs, rc);
      }
    }
    walk_block_predictions(
        g, blk, stencils, reg, rc, recon,
        [&](std::size_t lin, double pred_v) {
          const double x = static_cast<double>(data[lin]);
          double r = 0.0;
          const std::uint32_t code =
              quant.template quantize<T>(x, pred_v, &r);
          if (code == 0) {
            append_pod<T>(enc.unpred, static_cast<T>(x));
            r = x;
          }
          recon[lin] = static_cast<ReconT>(r);
          *code_dst++ = code;
          // r is exactly T-representable (quantize stores the double of a
          // T-cast; the unpredictable path stores the double of a T datum),
          // so this is (double)recon[lin] without re-reading the store.
          return r;
        },
        // Regression rows: one row-kernel call, then, only if some code is
        // 0, a scan for the unpredictable slots so the exact-value stream
        // stays in canonical element order.
        [&](std::size_t base, const double* pred_row, std::size_t n) {
          if (quant.template quantize_row<T>(data + base, pred_row, n,
                                             code_dst, recon + base))
            for (std::size_t k = 0; k < n; ++k)
              if (code_dst[k] == 0) append_pod<T>(enc.unpred, data[base + k]);
          code_dst += n;
        });
  }
  if (recon_out) *recon_out = Field("recon", std::move(recon_kept));
  return enc;
}

bool block_is_regression(std::span<const std::byte> mode_bits,
                         std::size_t bi) {
  return (static_cast<unsigned>(mode_bits[bi / 8]) >> (bi % 8)) & 1u;
}

// Everything block_decompress reads from the streams of a slab shaped `g`,
// checked against what the streams hold: the mode bits, one code per
// element, one exact value per code-0 element among those, and one
// coefficient record per regression block. The full decode reads the
// streams incrementally and throws at the first underrun, so this up-front
// check throws exactly when it would.
void check_stream_demand(const Geometry& g, bool reg_allowed,
                         std::size_t value_size,
                         std::span<const std::uint32_t> codes,
                         std::span<const std::byte> mode_bits,
                         std::size_t coeff_bytes, std::size_t unpred_bytes) {
  const std::size_t nblocks = g.total_blocks();
  EBLCIO_CHECK_STREAM(mode_bits.size() >= (nblocks + 7) / 8,
                      "block: truncated block mode bits");
  const std::size_t n = g.num_elements();
  EBLCIO_CHECK_STREAM(codes.size() >= n, "block: code stream underrun");
  const auto unpred_count = static_cast<std::size_t>(
      std::count(codes.begin(), codes.begin() + n, 0u));
  EBLCIO_CHECK_STREAM(unpred_count <= unpred_bytes / value_size,
                      "block: unpredictable-value stream underrun");
  if (!reg_allowed) return;
  std::size_t reg_blocks = 0;
  for (std::size_t bi = 0; bi < nblocks; ++bi)
    reg_blocks += block_is_regression(mode_bits, bi);
  EBLCIO_CHECK_STREAM(reg_blocks <= coeff_bytes / sizeof(RegressionCoeffs),
                      "block: regression coefficient stream underrun");
}

// Reconstructs the blocks of a slab shaped `g` that lie inside `cone`, a
// box [0, cone.dim) of whole blocks (clipped to the slab), into `out`, a
// buffer shaped like the cone. With cone == g this is the full decode.
//
// Lorenzo predictions read only neighbours at lower or equal coordinates
// on every axis and regression blocks read none, so the cone's values
// depend on nothing outside it. Its blocks have the same origins and
// extents in both geometries, and the stencils carry no upper-side
// boundary term, so walking them over the cone-shaped buffer reproduces
// every prediction bit for bit. Blocks outside the cone are skipped in
// canonical order: their codes, their exact values (one per code 0) and
// their coefficient record advance the stream positions without being
// reconstructed. The walk ends at the cone's last block.
template <typename T, typename Q, typename Cache>
void reconstruct_blocks(const Geometry& g, const Geometry& cone,
                        const Q& quant, bool reg_allowed,
                        std::span<const std::uint32_t> codes,
                        std::span<const std::byte> mode_bits,
                        ByteReader& coeffs, ByteReader& unpred, T* out) {
  const auto blocks = enumerate_blocks(g);
  EBLCIO_CHECK_STREAM(mode_bits.size() >= (blocks.size() + 7) / 8,
                      "block: truncated block mode bits");
  if (blocks.empty()) return;
  // Linear index of the cone's last block in the slab's block grid.
  std::size_t last = 0;
  for (int d = 0; d < 4; ++d)
    last = last * g.nblocks[d] + (cone.nblocks[d] - 1);

  // All boundary stencils precomputed once; rows index by depth signature.
  const Cache stencils(cone);
  std::size_t code_idx = 0;
  std::size_t skipped_from = 0;  // first code of the pending skipped run

  for (std::size_t bi = 0; bi <= last; ++bi) {
    const BlockRef& blk = blocks[bi];
    const bool reg = reg_allowed && block_is_regression(mode_bits, bi);
    // The whole block's codes must be present before any element is
    // consumed (stricter-earlier version of the per-element underrun
    // check; same exception on corrupt streams).
    std::size_t block_elems = 1;
    for (int d = 0; d < 4; ++d) block_elems *= blk.extent[d];
    EBLCIO_CHECK_STREAM(code_idx + block_elems <= codes.size(),
                        "block: code stream underrun");

    bool inside = true;
    for (int d = 0; d < 4; ++d) inside &= blk.origin[d] < cone.dim[d];
    if (!inside) {
      if (reg) coeffs.skip(sizeof(RegressionCoeffs));
      code_idx += block_elems;
      continue;
    }
    if (skipped_from < code_idx) {
      const auto zeros = std::count(codes.begin() + skipped_from,
                                    codes.begin() + code_idx, 0u);
      unpred.skip(static_cast<std::size_t>(zeros) * sizeof(T));
    }

    RegressionCoeffs rc;
    if (reg) rc = coeffs.read_pod<RegressionCoeffs>();
    walk_block_predictions(
        cone, blk, stencils, reg, rc, out,
        [&](std::size_t lin, double pred_v) {
          const std::uint32_t code = codes[code_idx++];
          const T v = code == 0 ? unpred.read_pod<T>()
                                : static_cast<T>(quant.recover(pred_v, code));
          out[lin] = v;
          return static_cast<double>(v);
        },
        // Regression rows: one row-kernel call, then overwrite the code-0
        // slots from the exact-value stream in canonical order.
        [&](std::size_t base, const double* pred_row, std::size_t n) {
          const std::uint32_t* cs = codes.data() + code_idx;
          T* row = out + base;
          quant.template recover_row<T>(cs, pred_row, n, row);
          for (std::size_t k = 0; k < n; ++k)
            if (cs[k] == 0) row[k] = unpred.read_pod<T>();
          code_idx += n;
        });
    skipped_from = code_idx;
  }
}

// Reconstruction writes straight into the output: the blocks tile the
// slab, so every element is written once, and every prediction reads only
// values already materialized there.
template <typename T, typename Q, typename Cache>
void decompress_impl(const BlobHeader& header, const Q& quant,
                     BlockPredictor pred, std::span<const std::uint32_t> codes,
                     std::span<const std::byte> mode_bits, ByteReader& coeffs,
                     ByteReader& unpred, T* out) {
  const Geometry g = Geometry::from_dims(header.dims);
  reconstruct_blocks<T, Q, Cache>(g, g, quant,
                                  regression_allowed(pred, g.real_dims), codes,
                                  mode_bits, coeffs, unpred, out);
}

// The windowed decode of a box short of the whole slab: checks every
// stream's demand up front (so it throws exactly when the full decode
// would), reconstructs the box's lower cone rounded up to whole blocks
// into a cone-shaped scratch buffer, and crops the box out of it into
// `out`. Returns the elements reconstructed.
template <typename T, typename Q, typename Cache>
std::size_t decompress_cone_impl(const BlobHeader& header, const Q& quant,
                                 BlockPredictor pred,
                                 std::span<const std::uint32_t> codes,
                                 std::span<const std::byte> mode_bits,
                                 ByteReader& coeffs, ByteReader& unpred,
                                 const Region& box, T* out) {
  const Geometry g = Geometry::from_dims(header.dims);
  const bool reg_allowed = regression_allowed(pred, g.real_dims);
  check_stream_demand(g, reg_allowed, sizeof(T), codes, mode_bits,
                      coeffs.remaining().size(), unpred.remaining().size());

  // The box's lower cone, rounded up to whole blocks (in the 4D view).
  const int pad = 4 - g.real_dims;
  std::vector<std::size_t> cone_dims(header.dims.size());
  for (int i = 0; i < g.real_dims; ++i) {
    const std::size_t block = g.block[pad + i];
    cone_dims[i] = std::min(
        (box.start[i] + box.shape[i] + block - 1) / block * block,
        header.dims[i]);
  }
  const Geometry cone = Geometry::from_dims(cone_dims);
  PooledScratch<T> scratch(cone.num_elements());
  reconstruct_blocks<T, Q, Cache>(g, cone, quant, reg_allowed, codes,
                                  mode_bits, coeffs, unpred, scratch.data());
  crop_box<T>(scratch.data(), cone_dims, box, out);
  return cone.num_elements();
}

template <typename T, typename Q>
BlockEncoding compress_cache_dispatch(const NdArray<T>& arr, const Q& quant,
                                      BlockPredictor pred, Field* recon) {
  if (pred == BlockPredictor::kLorenzo2)
    return compress_impl<T, Q, Stencil2Cache>(arr, quant, pred, recon);
  return compress_impl<T, Q, StencilCache>(arr, quant, pred, recon);
}

// Runtime -> compile-time dispatch of a decode kernel: invokes
// fn(quantizer, type_identity<T>, type_identity<Cache>) for the header's
// value type and the predictor's stencil order.
template <typename Fn>
auto with_decode_kernel(const BlobHeader& header, BlockPredictor pred,
                         QuantizerId quant, double quant_param, Fn&& fn) {
  return with_quantizer(quant, header.abs_error_bound, quant_param,
                        [&](const auto& q) {
    const auto by_order = [&](auto value) {
      if (pred == BlockPredictor::kLorenzo2)
        return fn(q, value, std::type_identity<Stencil2Cache>{});
      return fn(q, value, std::type_identity<StencilCache>{});
    };
    return header.dtype == DType::kFloat32
               ? by_order(std::type_identity<float>{})
               : by_order(std::type_identity<double>{});
  });
}

}  // namespace

BlockEncoding block_compress(const Field& field, double abs_eb,
                             BlockPredictor pred, QuantizerId quant,
                             double quant_param, Field* recon) {
  return with_quantizer(quant, abs_eb, quant_param, [&](auto q) {
    return field.dtype() == DType::kFloat32
               ? compress_cache_dispatch<float>(field.as<float>(), q, pred,
                                                recon)
               : compress_cache_dispatch<double>(field.as<double>(), q, pred,
                                                 recon);
  });
}

void block_decompress_into(const BlobHeader& header, BlockPredictor pred,
                           QuantizerId quant, double quant_param,
                           std::span<const std::uint32_t> codes,
                           std::span<const std::byte> mode_bits,
                           ByteReader& coeffs, ByteReader& unpred, Field& out,
                           std::size_t offset) {
  with_decode_kernel(
      header, pred, quant, quant_param,
      [&](const auto& q, auto value, auto order) {
        using T = typename decltype(value)::type;
        using Cache = typename decltype(order)::type;
        decompress_impl<T, std::decay_t<decltype(q)>, Cache>(
            header, q, pred, codes, mode_bits, coeffs, unpred,
            out.as<T>().data() + offset);
      });
}

Field block_decompress(const BlobHeader& header, BlockPredictor pred,
                       QuantizerId quant, double quant_param,
                       std::span<const std::uint32_t> codes,
                       std::span<const std::byte> mode_bits,
                       ByteReader& coeffs, ByteReader& unpred) {
  Field out = unfilled_field(header.codec, header.dtype,
                             Shape{std::span<const std::size_t>(header.dims)});
  block_decompress_into(header, pred, quant, quant_param, codes, mode_bits,
                        coeffs, unpred, out, 0);
  return out;
}

std::size_t block_decompress_region(const BlobHeader& header,
                                    BlockPredictor pred, QuantizerId quant,
                                    double quant_param,
                                    std::span<const std::uint32_t> codes,
                                    std::span<const std::byte> mode_bits,
                                    ByteReader& coeffs, ByteReader& unpred,
                                    const Region& box, Field& out,
                                    std::size_t offset) {
  validate_region(box, header.dims);
  if (is_whole_region(box, header.dims)) {
    block_decompress_into(header, pred, quant, quant_param, codes, mode_bits,
                          coeffs, unpred, out, offset);
    return header.num_elements();
  }
  return with_decode_kernel(
      header, pred, quant, quant_param,
      [&](const auto& q, auto value, auto order) {
        using T = typename decltype(value)::type;
        using Cache = typename decltype(order)::type;
        return decompress_cone_impl<T, std::decay_t<decltype(q)>, Cache>(
            header, q, pred, codes, mode_bits, coeffs, unpred, box,
            out.as<T>().data() + offset);
      });
}

void block_check_streams(const BlobHeader& header, BlockPredictor pred,
                         std::span<const std::uint32_t> codes,
                         std::span<const std::byte> mode_bits,
                         const ByteReader& coeffs, const ByteReader& unpred) {
  const Geometry g = Geometry::from_dims(header.dims);
  check_stream_demand(g, regression_allowed(pred, g.real_dims),
                      dtype_size(header.dtype), codes, mode_bits,
                      coeffs.remaining().size(), unpred.remaining().size());
}

}  // namespace eblcio
