#include "compressors/zfp.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "codec/bitstream.h"
#include "codec/intcodec.h"
#include "common/error.h"
#include "parallel/executor.h"

namespace eblcio {
namespace {

// 62-bit fixed point: bit k of the scaled integer has magnitude
// 2^(k - 62 + emax). Two guard bits keep the lifted transform overflow-free.
constexpr int kIntPrec = 64;
constexpr int kScaleBits = 62;
constexpr int kEmaxBits = 12;
constexpr int kEmaxBias = 2048;

// ---------------------------------------------------------------------------
// Lifted transform (the ZFP non-orthogonal transform; matrix in TVCG'14).

// Lifting arithmetic runs on uint64 with explicit wrapping (right shifts
// detour through int64 to stay arithmetic). For in-range blocks — every
// block the block-float scaling produces, per the guard-bit argument
// above — this is bit-identical to plain signed arithmetic; for a forged
// stream whose coefficients escape that range it wraps deterministically
// instead of tripping signed-overflow UB (the round-trip check downstream
// rejects such blocks either way).
inline std::uint64_t sra1(std::uint64_t v) {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(v) >> 1);
}

void fwd_lift(std::int64_t* p, std::size_t s) {
  std::uint64_t x = static_cast<std::uint64_t>(p[0]);
  std::uint64_t y = static_cast<std::uint64_t>(p[s]);
  std::uint64_t z = static_cast<std::uint64_t>(p[2 * s]);
  std::uint64_t w = static_cast<std::uint64_t>(p[3 * s]);
  x += w; x = sra1(x); w -= x;
  z += y; z = sra1(z); y -= z;
  x += z; x = sra1(x); z -= x;
  w += y; w = sra1(w); y -= w;
  w += sra1(y); y -= sra1(w);
  p[0] = static_cast<std::int64_t>(x);
  p[s] = static_cast<std::int64_t>(y);
  p[2 * s] = static_cast<std::int64_t>(z);
  p[3 * s] = static_cast<std::int64_t>(w);
}

void inv_lift(std::int64_t* p, std::size_t s) {
  std::uint64_t x = static_cast<std::uint64_t>(p[0]);
  std::uint64_t y = static_cast<std::uint64_t>(p[s]);
  std::uint64_t z = static_cast<std::uint64_t>(p[2 * s]);
  std::uint64_t w = static_cast<std::uint64_t>(p[3 * s]);
  y += sra1(w); w -= sra1(y);
  y += w; w <<= 1; w -= y;
  z += x; x <<= 1; x -= z;
  y += z; z <<= 1; z -= y;
  w += x; x <<= 1; x -= w;
  p[0] = static_cast<std::int64_t>(x);
  p[s] = static_cast<std::int64_t>(y);
  p[2 * s] = static_cast<std::int64_t>(z);
  p[3 * s] = static_cast<std::int64_t>(w);
}

// Applies the transform along every dimension of a 4^d block.
void fwd_xform(std::int64_t* b, int d) {
  if (d >= 1)
    for (std::size_t z = 0; z < (d >= 3 ? 4u : 1u); ++z)
      for (std::size_t y = 0; y < (d >= 2 ? 4u : 1u); ++y)
        fwd_lift(b + 16 * z + 4 * y, 1);
  if (d >= 2)
    for (std::size_t z = 0; z < (d >= 3 ? 4u : 1u); ++z)
      for (std::size_t x = 0; x < 4; ++x)
        fwd_lift(b + 16 * z + x, 4);
  if (d >= 3)
    for (std::size_t y = 0; y < 4; ++y)
      for (std::size_t x = 0; x < 4; ++x)
        fwd_lift(b + 4 * y + x, 16);
}

void inv_xform(std::int64_t* b, int d) {
  if (d >= 3)
    for (std::size_t y = 0; y < 4; ++y)
      for (std::size_t x = 0; x < 4; ++x)
        inv_lift(b + 4 * y + x, 16);
  if (d >= 2)
    for (std::size_t z = 0; z < (d >= 3 ? 4u : 1u); ++z)
      for (std::size_t x = 0; x < 4; ++x)
        inv_lift(b + 16 * z + x, 4);
  if (d >= 1)
    for (std::size_t z = 0; z < (d >= 3 ? 4u : 1u); ++z)
      for (std::size_t y = 0; y < (d >= 2 ? 4u : 1u); ++y)
        inv_lift(b + 16 * z + 4 * y, 1);
}

// Total-degree coefficient ordering (low-frequency coefficients first).
const std::vector<std::uint16_t>& perm_for(int d) {
  static const std::array<std::vector<std::uint16_t>, 4> kPerms = [] {
    std::array<std::vector<std::uint16_t>, 4> perms;
    for (int d = 1; d <= 3; ++d) {
      const int n = 1 << (2 * d);
      std::vector<std::uint16_t> p(n);
      std::iota(p.begin(), p.end(), 0);
      auto degree = [d](int idx) {
        int s = 0;
        for (int k = 0; k < d; ++k) {
          s += idx & 3;
          idx >>= 2;
        }
        return s;
      };
      std::stable_sort(p.begin(), p.end(), [&](int a, int b) {
        return degree(a) < degree(b);
      });
      perms[d] = std::move(p);
    }
    return perms;
  }();
  return kPerms[d];
}

// zfp's fixed-accuracy precision rule.
int max_precision(int emax, int minexp, int d) {
  const long long p = static_cast<long long>(emax) - minexp + 2 * (d + 1);
  return static_cast<int>(std::clamp<long long>(p, 0, kIntPrec));
}

// ---------------------------------------------------------------------------
// Embedded bit-plane coder (ZFP's group-tested scheme, unlimited bit budget;
// the plane cutoff kmin plays the role of the rate control). Plane k of a
// block is the word whose bit i is bit k of coefficient i. Coefficients
// below the frontier (significant in an earlier plane) are coded verbatim;
// the rest as runs of a group-test 1 and the unary distance to the next 1,
// whose terminating 1 is implicit at position n-1; a group-test 0 ends the
// plane. See src/compressors/README.md "ZFP embedded coder".

// Transposes, in place, the 64/w independent w×w bit matrices packed side
// by side in the rows a[0..w): bit j of lane L of a[i] trades places with
// bit i of lane L of a[j]. This is the recursive block swap of Hacker's
// Delight 7-3 run on every w-bit lane at once; w is a power of two <= 64.
void transpose_lanes(std::uint64_t* a, int w) {
  // Stage j swaps the off-diagonal j×j blocks: kLow[s] keeps the low
  // j = 2^s bits of every 2j-bit group.
  static constexpr std::uint64_t kLow[] = {
      0x5555555555555555ULL, 0x3333333333333333ULL, 0x0F0F0F0F0F0F0F0FULL,
      0x00FF00FF00FF00FFULL, 0x0000FFFF0000FFFFULL, 0x00000000FFFFFFFFULL};
  for (int s = std::countr_zero(static_cast<unsigned>(w)) - 1; s >= 0; --s) {
    const int j = 1 << s;
    for (int k = 0; k < w; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & kLow[s];
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
  }
}

// Both coders hold the coded planes kmin..63 as plane[k - kmin]. Moving
// between coefficients and p = 64 - kmin planes is an n×p bit transpose.
// Packing coefficient i into lane i / w of row i % w, with w = p rounded
// up to a power of two, makes it 64/w w×w transposes that transpose_lanes
// runs together, so a block with few coded planes pays for few.
int plane_width(int p) {
  return static_cast<int>(std::bit_ceil(static_cast<unsigned>(p)));
}

void encode_ints(BitWriter& bw, const std::uint64_t* u, int n, int kmin) {
  const int w = plane_width(kIntPrec - kmin);
  std::array<std::uint64_t, 64> plane{};
  for (int i = 0; i < n; ++i)
    plane[i & (w - 1)] |= (u[i] >> kmin) << (i & ~(w - 1));
  transpose_lanes(plane.data(), w);
  int frontier = 0;  // zfp's persistent per-block significance frontier
  for (int k = kIntPrec - 1; k >= kmin; --k) {
    std::uint64_t x = plane[k - kmin];
    bw.put_bits(x, frontier);
    x = frontier < 64 ? (x >> frontier) : 0;
    int m = frontier;
    while (m < n) {
      if (!x) {
        bw.put_bit(0);  // group test: no more 1s this plane
        break;
      }
      const int t = std::countr_zero(x);
      if (m + t < n - 1) {
        // Group-test 1, t zeros, the explicit 1.
        bw.put_bits(1 | (std::uint64_t{2} << t), t + 2);
        x >>= t + 1;
        m += t + 1;
      } else {
        // The 1 sits at n-1: group-test 1 and t zeros; the 1 is implied.
        bw.put_bits(1, t + 1);
        m = n;
      }
    }
    frontier = m;
  }
}

void decode_ints(BitReader& br, std::uint64_t* u, int n, int kmin) {
  if (kmin >= kIntPrec) {  // no coded planes (only a forged emax gets here)
    std::fill(u, u + n, 0);
    return;
  }
  constexpr int kWin = BitReader::kPeekMax;
  std::array<std::uint64_t, 64> plane{};
  int frontier = 0;
  for (int k = kIntPrec - 1; k >= kmin; --k) {
    std::uint64_t x = br.get_bits(frontier);
    int m = frontier;
    // Group tests and runs, read from a window of kWin stream bits that
    // is consumed and re-peeked only when used up.
    std::uint64_t win = br.peek_bits(kWin);
    int used = 0;
    while (m < n) {
      if (used == kWin) {
        br.consume(used);
        win = br.peek_bits(kWin);
        used = 0;
      }
      if (!((win >> used++) & 1)) break;  // group test: no more 1s
      // Unary run to the next 1; the 1 at n-1 is implicit.
      for (;;) {
        const int span = n - 1 - m;
        const int look = std::min(span, kWin - used);
        const std::uint64_t bits =
            (win >> used) & ((std::uint64_t{1} << look) - 1);
        if (bits) {
          const int t = std::countr_zero(bits);
          used += t + 1;
          m += t;
          break;
        }
        used += look;
        m += look;
        if (look == span) break;
        br.consume(used);
        win = br.peek_bits(kWin);
        used = 0;
      }
      x |= std::uint64_t{1} << m;
      ++m;
    }
    br.consume(used);
    frontier = m;
    plane[k - kmin] = x;
  }
  const int w = plane_width(kIntPrec - kmin);
  transpose_lanes(plane.data(), w);
  const std::uint64_t lane =
      w == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << w) - 1;
  for (int i = 0; i < n; ++i)
    u[i] = ((plane[i & (w - 1)] >> (i & ~(w - 1))) & lane) << kmin;
}

// ---------------------------------------------------------------------------
// Geometry: maps a global block index to a gather/scatter region, treating
// 4D fields as a stack of 3D slices.

// A block's place in the block grid: its slice and (z, y, x) block
// coordinates.
struct BlockPos {
  std::size_t slice = 0;
  std::array<std::size_t, 3> b{};
};

struct ZfpGeometry {
  int d = 1;                // intrinsic block dimensionality (1..3)
  std::size_t slices = 1;   // leading-dimension slices (4D only)
  std::array<std::size_t, 3> n{1, 1, 1};   // per-slice extent (z, y, x order)
  std::array<std::size_t, 3> bg{1, 1, 1};  // block-grid extent
  std::size_t blocks_per_slice = 1;
  std::size_t total_blocks = 0;
  std::size_t slice_elems = 1;

  static ZfpGeometry from_dims(const std::vector<std::size_t>& dims) {
    ZfpGeometry g;
    std::vector<std::size_t> space = dims;
    if (dims.size() == 4) {
      g.slices = dims[0];
      space.erase(space.begin());
    }
    g.d = static_cast<int>(space.size());
    // Store as (z, y, x) with x fastest; pad missing leading dims with 1.
    for (int i = 0; i < g.d; ++i)
      g.n[3 - g.d + i] = space[i];
    for (int i = 0; i < 3; ++i)
      g.bg[i] = (g.n[i] + 3) / 4;
    // Only the intrinsic dims get blocked; unit dims have one "block" layer.
    g.blocks_per_slice = 1;
    for (int i = 3 - g.d; i < 3; ++i) g.blocks_per_slice *= g.bg[i];
    for (int i = 0; i < 3 - g.d; ++i) g.bg[i] = 1;
    g.slice_elems = g.n[0] * g.n[1] * g.n[2];
    g.total_blocks = g.slices * g.blocks_per_slice;
    return g;
  }

  BlockPos pos(std::size_t block) const {
    BlockPos p;
    p.slice = block / blocks_per_slice;
    block %= blocks_per_slice;
    p.b[2] = block % bg[2];
    block /= bg[2];
    p.b[1] = block % bg[1];
    p.b[0] = block / bg[1];
    return p;
  }

  // Steps to the next block index (x fastest), so a sweep over a block
  // range pays no div/mod per block.
  void next(BlockPos& p) const {
    for (int i = 2; i >= 0; --i) {
      if (++p.b[i] < bg[i]) return;
      p.b[i] = 0;
    }
    ++p.slice;
  }
};

// The valid extent of a block along each axis: 4 inside the field, fewer
// at its upper edges, 1 along unit (non-intrinsic) axes.
std::array<std::size_t, 3> block_extent(const ZfpGeometry& g,
                                        const BlockPos& p) {
  std::array<std::size_t, 3> e;
  for (int i = 0; i < 3; ++i)
    e[i] = std::min<std::size_t>(4, g.n[i] - 4 * p.b[i]);
  return e;
}

// Gathers one 4^d block (clamp-padded at edges) into vals[4^d].
template <typename T>
void gather_block(const ZfpGeometry& g, const T* base, const BlockPos& p,
                  double* vals) {
  const T* src = base + p.slice * g.slice_elems;
  const auto e = block_extent(g, p);
  const std::size_t nz = g.d >= 3 ? 4 : 1, ny = g.d >= 2 ? 4 : 1;
  int idx = 0;
  for (std::size_t z = 0; z < nz; ++z) {
    const std::size_t cz = 4 * p.b[0] + std::min(z, e[0] - 1);
    for (std::size_t y = 0; y < ny; ++y) {
      const std::size_t cy = 4 * p.b[1] + std::min(y, e[1] - 1);
      const T* row = src + (cz * g.n[1] + cy) * g.n[2] + 4 * p.b[2];
      for (std::size_t x = 0; x < 4; ++x)
        vals[idx++] = static_cast<double>(row[std::min(x, e[2] - 1)]);
    }
  }
}

// Scatters the valid region of a reconstructed block back into the field.
template <typename T>
void scatter_block(const ZfpGeometry& g, T* base, const BlockPos& p,
                   const double* vals) {
  T* dst = base + p.slice * g.slice_elems;
  const auto e = block_extent(g, p);
  const std::size_t ny = g.d >= 2 ? 4 : 1;
  for (std::size_t z = 0; z < e[0]; ++z) {
    for (std::size_t y = 0; y < e[1]; ++y) {
      T* row = dst + ((4 * p.b[0] + z) * g.n[1] + 4 * p.b[1] + y) * g.n[2] +
               4 * p.b[2];
      const double* v = vals + (z * ny + y) * 4;
      for (std::size_t x = 0; x < e[2]; ++x)
        row[x] = static_cast<T>(v[x]);
    }
  }
}

// ---------------------------------------------------------------------------
// Per-block codec.

void encode_block(BitWriter& bw, const double* vals, int d, int minexp) {
  const int n = 1 << (2 * d);
  // Largest magnitude, in four lanes so the scan vectorizes (max is exact
  // and order-free on finite input). The same pass rejects NaN and ±Inf,
  // which the fixed-point conversion below cannot represent.
  std::array<double, 4> lane{};
  bool finite = true;
  for (int i = 0; i < n; i += 4)
    for (int l = 0; l < 4; ++l) {
      const double a = std::fabs(vals[i + l]);
      lane[l] = std::max(lane[l], a);
      finite &= a <= std::numeric_limits<double>::max();
    }
  if (!finite) throw Unsupported("ZFP does not support non-finite values");
  const double amax = *std::max_element(lane.begin(), lane.end());

  int emax = 0;
  if (amax > 0.0) std::frexp(amax, &emax);
  const int maxprec = amax > 0.0 ? max_precision(emax, minexp, d) : 0;
  if (maxprec == 0) {
    bw.put_bit(0);  // empty block: all values below the tolerance floor
    return;
  }
  bw.put_bit(1);
  bw.put_bits(static_cast<std::uint64_t>(emax + kEmaxBias), kEmaxBits);

  // Block-floating-point conversion.
  std::array<std::int64_t, 64> iblock;
  const double scale = std::ldexp(1.0, kScaleBits - emax);
  for (int i = 0; i < n; ++i)
    iblock[i] = static_cast<std::int64_t>(vals[i] * scale);

  fwd_xform(iblock.data(), d);

  const auto& perm = perm_for(d);
  std::array<std::uint64_t, 64> ublock;
  for (int i = 0; i < n; ++i)
    ublock[i] = int2uint_negabinary(iblock[perm[i]]);

  encode_ints(bw, ublock.data(), n, kIntPrec - maxprec);
}

void decode_block(BitReader& br, double* vals, int d, int minexp) {
  const int n = 1 << (2 * d);
  if (!br.get_bit()) {
    std::fill(vals, vals + n, 0.0);
    return;
  }
  const int emax =
      static_cast<int>(br.get_bits(kEmaxBits)) - kEmaxBias;
  const int maxprec = max_precision(emax, minexp, d);

  std::array<std::uint64_t, 64> ublock;
  decode_ints(br, ublock.data(), n, kIntPrec - maxprec);

  const auto& perm = perm_for(d);
  std::array<std::int64_t, 64> iblock;
  for (int i = 0; i < n; ++i)
    iblock[perm[i]] = uint2int_negabinary(ublock[i]);

  inv_xform(iblock.data(), d);

  const double scale = std::ldexp(1.0, emax - kScaleBits);
  for (int i = 0; i < n; ++i)
    vals[i] = static_cast<double>(iblock[i]) * scale;
}

int minexp_for(double tolerance) {
  if (!(tolerance > 0.0)) return -1074;  // full precision (also NaN)
  if (std::isinf(tolerance)) return 1024;  // just past log2(DBL_MAX)
  return static_cast<int>(std::floor(std::log2(tolerance)));
}

// ---------------------------------------------------------------------------

template <typename T>
Bytes zfp_compress_impl(const Field& field, const BlobHeader& header,
                        int threads) {
  const NdArray<T>& arr = field.as<T>();
  const ZfpGeometry g = ZfpGeometry::from_dims(header.dims);
  const int minexp = minexp_for(header.abs_error_bound);
  const T* base = arr.data();

  const int nchunks = std::max(
      1, static_cast<int>(std::min<std::size_t>(threads, g.total_blocks)));
  std::vector<Bytes> streams(nchunks);

  parallel_for(nchunks, nchunks, [&](std::size_t c) {
    const std::size_t lo = g.total_blocks * c / nchunks;
    const std::size_t hi = g.total_blocks * (c + 1) / nchunks;
    BitWriter bw;
    double vals[64];
    BlockPos p = g.pos(lo);
    for (std::size_t blk = lo; blk < hi; ++blk, g.next(p)) {
      gather_block(g, base, p, vals);
      encode_block(bw, vals, g.d, minexp);
    }
    streams[c] = bw.take();
  });

  Bytes out;
  append_pod<std::uint32_t>(out, static_cast<std::uint32_t>(nchunks));
  for (const Bytes& s : streams)
    append_pod<std::uint64_t>(out, s.size());
  for (const Bytes& s : streams) append_bytes(out, s);
  return out;
}

template <typename T>
Field zfp_decompress_impl(const BlobHeader& header,
                          std::span<const std::byte> payload) {
  const ZfpGeometry g = ZfpGeometry::from_dims(header.dims);
  const int minexp = minexp_for(header.abs_error_bound);

  NdArray<T> arr(Shape{std::span<const std::size_t>(header.dims)});
  T* base = arr.data();

  ByteReader r(payload);
  const auto nchunks = r.read_pod<std::uint32_t>();
  EBLCIO_CHECK_STREAM(nchunks >= 1, "ZFP: empty stream table");
  // Bound the untrusted count by the bytes its size table needs before
  // allocating for it.
  EBLCIO_CHECK_STREAM(nchunks <= r.remaining().size() / 8,
                      "ZFP: stream table exceeds payload");
  std::vector<std::uint64_t> sizes(nchunks);
  for (auto& s : sizes) s = r.read_pod<std::uint64_t>();

  // Serial block decode (zfp's OpenMP policy does not cover decompression).
  double vals[64];
  for (std::uint32_t c = 0; c < nchunks; ++c) {
    const std::size_t lo = g.total_blocks * c / nchunks;
    const std::size_t hi = g.total_blocks * (c + 1) / nchunks;
    BitReader br(r.read_bytes(sizes[c]));
    BlockPos p = g.pos(lo);
    for (std::size_t blk = lo; blk < hi; ++blk, g.next(p)) {
      decode_block(br, vals, g.d, minexp);
      scatter_block(g, base, p, vals);
    }
  }
  return Field("ZFP", std::move(arr));
}

}  // namespace

Bytes ZfpCompressor::compress(const Field& field, const CompressOptions& opt) {
  EBLCIO_CHECK_ARG(opt.mode != BoundMode::kLossless,
                   "ZFP here implements fixed-accuracy (lossy) mode only");
  const BlobHeader header = lossy_header(name(), field, opt);

  Bytes out;
  header.encode(out);
  Bytes payload =
      field.dtype() == DType::kFloat32
          ? zfp_compress_impl<float>(field, header, opt.threads)
          : zfp_compress_impl<double>(field, header, opt.threads);
  append_bytes(out, payload);
  return out;
}

Field ZfpCompressor::decompress(std::span<const std::byte> blob,
                                int /*threads*/) {
  ByteReader r(blob);
  const BlobHeader header = BlobHeader::decode(r);
  return header.dtype == DType::kFloat32
             ? zfp_decompress_impl<float>(header, r.remaining())
             : zfp_decompress_impl<double>(header, r.remaining());
}

}  // namespace eblcio
