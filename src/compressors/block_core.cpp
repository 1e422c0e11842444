#include "compressors/block_core.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <deque>
#include <optional>
#include <tuple>
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

// One block of the grid: its origin and extent per uniform-4D dimension.
struct BlockRef {
  std::array<std::size_t, 4> origin;
  std::array<std::size_t, 4> extent;
};

// Rows per block: 6^3 in 4D.
constexpr std::size_t kMaxBlockRows = 216;

// One element of a block's Lorenzo sweep: its linear offset from the
// block's first element, its code's position among the block's codes,
// the slot of its row in the plan, and its row's row-major index in the
// block (the order its exact values are stored in).
struct SweepStep {
  std::size_t off;
  std::uint32_t code;
  std::uint16_t slot;
  std::uint16_t row;
};

// The order the Lorenzo elements of a block are visited in, shared by the
// blocks of one extent whose origins are zero along the same dimensions.
//
// A block's rows (fixed c0..c2, c3 varying) fall into anti-diagonal
// wavefronts: wavefront s holds the rows with c0 + c1 + c2 = s. Every
// Lorenzo term of either order reads an element of the same row at a
// smaller c3, or of a row of an earlier wavefront (row coordinates
// componentwise <= the element's and not all equal) at the same or a
// smaller c3. So no term links two rows of one wavefront, and element
// (row, c3) can run at step s + c3: the elements of one step read none of
// each other, and their feedback chains interleave.
//
// Rows sharing a stencil run as one group, groups in the stencil cache's
// dependency order (a group reads only its own rows and those of groups
// before it). A group's slots number its rows in wavefront order. Its
// steps are the head columns (the global d3 coordinate 0 and, for order
// 2, 1, in the first block along d3), each in wavefront order, then the
// rest in step order.
struct SweepPlan {
  struct Group {
    unsigned sig;
    std::size_t slots_begin, slots_end;
    // Steps: [begin, head0_end) at c3 = 0, [head0_end, head1_end) at
    // c3 = 1, [head1_end, end) the tail.
    std::size_t begin, head0_end, head1_end, end;
  };
  std::vector<Group> groups;
  std::vector<std::size_t> slot_off;  // offset of each slot's first element
  std::vector<SweepStep> steps;
};

template <typename Cache>
SweepPlan make_sweep_plan(const Geometry& g, const BlockRef& blk,
                          std::size_t heads) {
  struct Row {
    std::size_t off, index, wave;
    unsigned sig;
  };
  std::vector<Row> rows;
  std::array<std::size_t, 4> c{};
  const std::size_t waves = blk.extent[0] + blk.extent[1] + blk.extent[2] - 2;
  for (std::size_t s = 0; s < waves; ++s)
    for (c[0] = 0; c[0] < blk.extent[0] && c[0] <= s; ++c[0])
      for (c[1] = 0; c[1] < blk.extent[1] && c[0] + c[1] <= s; ++c[1]) {
        c[2] = s - c[0] - c[1];
        if (c[2] >= blk.extent[2]) continue;
        rows.push_back(
            {c[0] * g.stride[0] + c[1] * g.stride[1] + c[2] * g.stride[2],
             (c[0] * blk.extent[1] + c[1]) * blk.extent[2] + c[2], s,
             Cache::signature({blk.origin[0] + c[0], blk.origin[1] + c[1],
                               blk.origin[2] + c[2], blk.origin[3]})});
      }
  const std::size_t ext3 = blk.extent[3];
  SweepPlan plan;
  std::vector<const Row*> members;
  for (const unsigned sig : Cache::kGroupOrder) {
    members.clear();
    for (const Row& row : rows)
      if (row.sig == sig) members.push_back(&row);
    if (members.empty()) continue;
    SweepPlan::Group grp{};
    grp.sig = sig;
    grp.slots_begin = plan.slot_off.size();
    grp.begin = plan.steps.size();
    for (const Row* row : members) plan.slot_off.push_back(row->off);
    grp.slots_end = plan.slot_off.size();
    const auto push = [&](std::size_t i, std::size_t c3) {
      const Row& row = *members[i];
      plan.steps.push_back({row.off + c3,
                            static_cast<std::uint32_t>(row.index * ext3 + c3),
                            static_cast<std::uint16_t>(grp.slots_begin + i),
                            static_cast<std::uint16_t>(row.index)});
    };
    const std::size_t m = members.size();
    for (std::size_t c3 = 0; c3 < heads; ++c3)
      for (std::size_t i = 0; i < m; ++i) push(i, c3);
    grp.head0_end = grp.begin + std::min<std::size_t>(heads, 1) * m;
    grp.head1_end = grp.begin + heads * m;
    // Step t runs the rows started (wave + heads <= t) and not finished
    // (wave + ext3 > t): a contiguous run of the wavefront-ordered rows.
    std::size_t lo = 0, hi = 0;
    for (std::size_t t = members[0]->wave + heads; lo < m; ++t) {
      while (hi < m && members[hi]->wave + heads <= t) ++hi;
      while (lo < hi && members[lo]->wave + ext3 <= t) ++lo;
      for (std::size_t i = lo; i < hi; ++i) push(i, t - members[i]->wave);
    }
    grp.end = plan.steps.size();
    plan.groups.push_back(grp);
  }
  return plan;
}

// Sweep plans by block shape, each built when its first block is walked.
template <typename Cache>
class SweepPlans {
 public:
  const SweepPlan& get(const Geometry& g, const BlockRef& blk) {
    unsigned zeros = 0;
    for (int d = 0; d < 4; ++d)
      if (blk.origin[d] == 0) zeros |= 1u << d;
    for (const auto& [extent, z, plan] : plans_)
      if (extent == blk.extent && z == zeros) return plan;
    const bool head = blk.origin[3] == 0 && g.dim[3] > 1;
    plans_.push_back({blk.extent, zeros,
                      make_sweep_plan<Cache>(
                          g, blk, Cache::head_columns(head, blk.extent[3]))});
    return std::get<2>(plans_.back());
  }

 private:
  std::deque<std::tuple<std::array<std::size_t, 4>, unsigned, SweepPlan>>
      plans_;
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
  // Tail terms before the {d3} term, tail_n when the stencil has none
  // (the last extent is 1). Only the {d3} term reads a value written
  // earlier in the *same* row — every other offset is at least stride[2]
  // = dim[3] >= ext3, i.e. a row of an earlier wavefront or block. (With
  // dim[3] = 1 the {d2} term has offset 1 too, but reads another row.)
  int split_n = -1;
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
    if (mask == 1u << 3) st.split_n = st.tail_n;
    st.tail_terms[st.tail_n++] = {off, sign};
    if (!touches_d3) st.head_terms[st.head_n++] = {off, sign};
  }
  if (st.split_n < 0) st.split_n = st.tail_n;
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

  // The sweep plan's groups, in order: rows with a zero coordinate have no
  // neighbours across it, so a row reads only rows whose zero set contains
  // its own — its signature or a numerically larger one.
  static constexpr std::array<unsigned, 16> kGroupOrder{
      15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0};
  static std::size_t head_columns(bool head, std::size_t) {
    return head ? 1 : 0;
  }

  // Visits the Lorenzo elements of the block whose first element is
  // recon[first] in plan order, calling fn(lin, code, row, pred) with each
  // element's linear index, code position, row-major row index in the
  // block and prediction. Each row takes the head stencil for the global
  // first element (nothing behind it along d3) and the tail for the rest,
  // exactly the split the original SZ2 walker performed inline.
  //
  // fn returns the double value of the reconstruction it just stored
  // (exactly (double)recon[lin]: the stored value is V-representable, so
  // the round trip through V is an identity). A tail's {d3} term, the
  // only one that reads a value written earlier in the same row, uses
  // that carried value instead of reloading recon, which keeps the
  // store-to-load forward and a widening convert off the feedback chain.
  // The product is numerically the same either way.
  template <typename V, typename Fn>
  void visit_block(const SweepPlan& plan, std::size_t first, const V* recon,
                   Fn&& fn) const {
    for (const SweepPlan::Group& grp : plan.groups) {
      const RowStencil& s = by_sig[grp.sig];
      switch (s.tail_n == 2 * s.split_n + 1 ? s.split_n : -1) {
        case 3: sweep<3>(s, plan, grp, first, recon, fn); break;
        case 1: sweep<1>(s, plan, grp, first, recon, fn); break;
        case 0: sweep<0>(s, plan, grp, first, recon, fn); break;
        case 7: sweep<7>(s, plan, grp, first, recon, fn); break;
        default: sweep<-1>(s, plan, grp, first, recon, fn); break;
      }
    }
  }

 private:
  // One group of stencil s. Each prediction sums the terms in mask order
  // from a 0.0 seed, with the carried value as the {d3} term:
  // bit-identical to the per-element mask walk. Pre counts the tail terms
  // before the {d3} term; Pre < 0 reads them all from recon at run time,
  // for stencils without one (fields whose last extent is 1).
  //
  // With a {d3} term the tail is Pre fixed-dimension masks, then {d3},
  // then the same Pre masks with d3 added in the same order (d3 is the
  // highest mask bit): term Pre + 1 + k reads one slot behind term k.
  // So Pre = 2^m - 1 for the m fixed dimensions a row has neighbours along
  // (0..3), and one negated offset per fixed mask addresses both of its
  // loads from the element's own position.
  template <int Pre, typename V, typename Fn>
  static void sweep(const RowStencil& s, const SweepPlan& plan,
                    const SweepPlan::Group& grp, std::size_t first,
                    const V* recon, Fn& fn) {
    const SweepStep* steps = plan.steps.data();
    std::array<double, kMaxBlockRows> carried;
    for (std::size_t e = grp.begin; e < grp.head0_end; ++e) {
      const std::size_t lin = first + steps[e].off;
      carried[steps[e].slot] =
          fn(lin, steps[e].code, steps[e].row,
             stencil_predict(s.head_terms, s.head_n, recon, lin));
    }
    if constexpr (Pre < 0) {
      for (std::size_t e = grp.head0_end; e < grp.end; ++e) {
        const std::size_t lin = first + steps[e].off;
        fn(lin, steps[e].code, steps[e].row,
           stencil_predict(s.tail_terms, s.tail_n, recon, lin));
      }
    } else {
      // A tail stencil only has a {d3} term when the last extent exceeds
      // 1, so outside the head column the element one slot back exists
      // and was written by the block before along d3.
      if (grp.head0_end == grp.begin)
        for (std::size_t slot = grp.slots_begin; slot < grp.slots_end; ++slot)
          carried[slot] =
              static_cast<double>(recon[first + plan.slot_off[slot] - 1]);
      std::array<std::ptrdiff_t, Pre> back;
      std::array<double, 2 * Pre + 1> sign;
      for (int k = 0; k < Pre; ++k)
        back[k] = -static_cast<std::ptrdiff_t>(s.tail_terms[k].first);
      for (int k = 0; k < 2 * Pre + 1; ++k) sign[k] = s.tail_terms[k].second;
      for (std::size_t e = grp.head0_end; e < grp.end; ++e) {
        const SweepStep& step = steps[e];
        const std::size_t lin = first + step.off;
        const V* at = recon + lin;
        double pred = 0.0;
        for (int k = 0; k < Pre; ++k)
          pred += sign[k] * static_cast<double>(at[back[k]]);
        pred += sign[Pre] * carried[step.slot];
        for (int k = 0; k < Pre; ++k)
          pred += sign[Pre + 1 + k] * static_cast<double>(at[back[k] - 1]);
        carried[step.slot] = fn(lin, step.code, step.row, pred);
      }
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

  // The sweep plan's groups, in order: a row reads only rows at most as
  // deep as it on every fixed dimension, whose signatures are no larger.
  static constexpr auto kGroupOrder = [] {
    std::array<unsigned, 27> order{};
    for (unsigned sig = 0; sig < 27; ++sig) order[sig] = sig;
    return order;
  }();
  static std::size_t head_columns(bool head, std::size_t ext3) {
    return head ? std::min<std::size_t>(ext3, 2) : 0;
  }

  // As StencilCache::visit_block, with each element summing its terms in
  // order from a 0.0 seed.
  template <typename V, typename Fn>
  void visit_block(const SweepPlan& plan, std::size_t first, const V* recon,
                   Fn&& fn) const {
    for (const SweepPlan::Group& grp : plan.groups) {
      const L2RowStencil& st = by_sig[grp.sig];
      for (std::size_t e = grp.begin; e < grp.end; ++e) {
        const SweepStep& step = plan.steps[e];
        const std::size_t lin = first + step.off;
        const double pred =
            e < grp.head0_end
                ? l2_predict(st.head0_terms, st.head0_n, recon, lin)
            : e < grp.head1_end
                ? l2_predict(st.head1_terms, st.head1_n, recon, lin)
                : l2_predict(st.tail_terms, st.tail_n, recon, lin);
        fn(lin, step.code, step.row, pred);
      }
    }
  }
};

struct RegressionCoeffs {
  float b0 = 0.f;
  std::array<float, 4> slope{};  // per uniform-4D dim (zeros for unit dims)
};

// Enumerates blocks in row-major block-grid order. Every Lorenzo neighbour
// (distance 1 or 2, any dim subset) lives at coordinates componentwise <=
// the element's with at least one strictly smaller, so lexicographic block
// order visits each neighbour in another block before its dependent — for
// both stencil orders; inside a block the sweep plan orders them.
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

inline std::size_t block_elements(const BlockRef& blk) {
  return blk.extent[0] * blk.extent[1] * blk.extent[2] * blk.extent[3];
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

// Walks one block, computing every element's prediction (regression
// plane or Lorenzo stencil over `recon`) and invoking fn(lin, code, row,
// pred) with the element's linear index, the position of its code among
// the block's (row-major, whatever the visiting order), its row's
// row-major index in the block and its prediction — except for regression
// rows, which are handed whole to reg_row_fn(row, base, pred, n) in
// row-major order with the row's n predictions filled in, because the
// regression plane has no reconstruction feedback: the callee processes
// the row with one row-kernel call. Lorenzo elements run in the order of
// the block shape's sweep plan (anti-diagonal wavefronts of rows,
// interleaved; see SweepPlan); 1D and 2D blocks have one row per
// wavefront.
//
// Compress and decompress both iterate through this single walker: the
// round-trip contract requires the two sides to evaluate predictions
// bit-identically, so the shared code path makes that symmetry structural
// rather than maintained by hand (the callbacks are the only
// side-specific part — quantize+record vs recover+materialize). The
// stencil cache type selects the Lorenzo order (StencilCache = 1-layer,
// Stencil2Cache = 2-layer); its visit_block owns the head/tail split.
template <typename T, typename Cache, typename Fn, typename RegRowFn>
void walk_block_predictions(const Geometry& g, const BlockRef& blk,
                            const Cache& stencils, SweepPlans<Cache>& plans,
                            bool reg, const RegressionCoeffs& rc,
                            const T* recon, Fn&& fn, RegRowFn&& reg_row_fn) {
  const std::size_t ext3 = blk.extent[3];
  std::array<std::size_t, 4> c{};
  if (reg) {
    std::size_t index = 0;
    for (c[0] = 0; c[0] < blk.extent[0]; ++c[0])
      for (c[1] = 0; c[1] < blk.extent[1]; ++c[1])
        for (c[2] = 0; c[2] < blk.extent[2]; ++c[2]) {
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
          reg_row_fn(index++, row_base(g, blk, c), pred, ext3);
        }
    return;
  }
  stencils.visit_block(plans.get(g, blk), row_base(g, blk, c), recon, fn);
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
  SweepPlans<Cache> plans;

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
    const std::size_t ext3 = blk.extent[3];
    std::uint32_t* const block_codes = code_dst;
    bool any_zero = false;
    walk_block_predictions(
        g, blk, stencils, plans, reg, rc, recon,
        [&](std::size_t lin, std::size_t code_at, std::size_t,
            double pred_v) {
          const double x = static_cast<double>(data[lin]);
          double r = 0.0;
          const std::uint32_t code =
              quant.template quantize<T>(x, pred_v, &r);
          if (code == 0) {
            any_zero = true;
            r = x;
          }
          recon[lin] = static_cast<ReconT>(r);
          block_codes[code_at] = code;
          // r is exactly T-representable (quantize stores the double of a
          // T-cast; the unpredictable path stores the double of a T datum),
          // so this is (double)recon[lin] without re-reading the store.
          return r;
        },
        // Regression rows: one row-kernel call each.
        [&](std::size_t index, std::size_t base, const double* pred_row,
            std::size_t n) {
          any_zero |= quant.template quantize_row<T>(
              data + base, pred_row, n, block_codes + index * n,
              recon + base);
        });
    code_dst += block_elements(blk);
    // The exact-value stream holds the block's code-0 elements in
    // row-major order, whatever order the walk visited them in. recon
    // holds each one's exact value (both row paths store it there).
    if (any_zero) {
      const std::uint32_t* cs = block_codes;
      std::array<std::size_t, 4> c{};
      for (c[0] = 0; c[0] < blk.extent[0]; ++c[0])
        for (c[1] = 0; c[1] < blk.extent[1]; ++c[1])
          for (c[2] = 0; c[2] < blk.extent[2]; ++c[2], cs += ext3) {
            const ReconT* row = recon + row_base(g, blk, c);
            for (std::size_t k = 0; k < ext3; ++k)
              if (cs[k] == 0) append_pod<T>(enc.unpred, row[k]);
          }
    }
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
  SweepPlans<Cache> plans;
  std::size_t code_idx = 0;
  // Per row of the block: the index of its next exact value among the
  // block's, which the stream holds in row-major element order.
  std::array<std::size_t, kMaxBlockRows> cursor;

  for (std::size_t bi = 0; bi <= last; ++bi) {
    const BlockRef& blk = blocks[bi];
    const bool reg = reg_allowed && block_is_regression(mode_bits, bi);
    // The whole block's codes and exact values must be present before any
    // element is consumed (stricter-earlier versions of the per-element
    // underrun checks; same exceptions on corrupt streams).
    const std::size_t block_elems = block_elements(blk);
    EBLCIO_CHECK_STREAM(code_idx + block_elems <= codes.size(),
                        "block: code stream underrun");
    const std::uint32_t* const block_codes = codes.data() + code_idx;
    code_idx += block_elems;
    const auto zeros = static_cast<std::size_t>(
        std::count(block_codes, block_codes + block_elems, 0u));
    const std::byte* const values = unpred.read_bytes(zeros * sizeof(T)).data();

    bool inside = true;
    for (int d = 0; d < 4; ++d) inside &= blk.origin[d] < cone.dim[d];
    if (!inside) {
      if (reg) coeffs.skip(sizeof(RegressionCoeffs));
      continue;
    }

    RegressionCoeffs rc;
    if (reg) rc = coeffs.read_pod<RegressionCoeffs>();
    const std::size_t ext3 = blk.extent[3];
    if (zeros > 0) {
      std::size_t at = 0;
      for (std::size_t i = 0; i < block_elems / ext3; ++i) {
        cursor[i] = at;
        at += static_cast<std::size_t>(std::count(
            block_codes + i * ext3, block_codes + (i + 1) * ext3, 0u));
      }
    }
    const auto exact = [&](std::size_t row_index) {
      T v;
      std::memcpy(&v, values + cursor[row_index]++ * sizeof(T), sizeof(T));
      return v;
    };
    walk_block_predictions(
        cone, blk, stencils, plans, reg, rc, out,
        [&](std::size_t lin, std::size_t code_at, std::size_t row_index,
            double pred_v) {
          const std::uint32_t code = block_codes[code_at];
          T v;
          if (code == 0) [[unlikely]]
            v = exact(row_index);
          else
            v = static_cast<T>(quant.recover(pred_v, code));
          out[lin] = v;
          return static_cast<double>(v);
        },
        // Regression rows: one row-kernel call, then overwrite the code-0
        // slots from the row's exact values.
        [&](std::size_t index, std::size_t base, const double* pred_row,
            std::size_t n) {
          const std::uint32_t* cs = block_codes + index * n;
          T* row = out + base;
          quant.template recover_row<T>(cs, pred_row, n, row);
          if (zeros > 0)
            for (std::size_t k = 0; k < n; ++k)
              if (cs[k] == 0) row[k] = exact(index);
        });
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
