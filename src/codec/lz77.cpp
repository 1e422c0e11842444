#include "codec/lz77.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "codec/huffman.h"
#include "codec/intcodec.h"
#include "common/buffer_pool.h"
#include "common/error.h"

namespace eblcio {
namespace {

constexpr std::uint32_t kLzMagic = 0x4c5a4542;  // "BEZL"
constexpr int kMaxMatch = 1 << 12;
constexpr std::size_t kWindow = 1u << 16;  // farthest match distance
constexpr std::size_t kMinMatch = 4;       // shortest match worth a token

inline std::uint32_t hash4(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> 17;  // 15-bit hash
}

// Length of the common prefix of a and b, capped at max_len, compared a
// word at a time. Callers guarantee both spans extend max_len bytes.
inline std::size_t match_length(const std::byte* a, const std::byte* b,
                                std::size_t max_len) {
  std::size_t len = 0;
  while (len + 8 <= max_len) {
    std::uint64_t x, y;
    std::memcpy(&x, a + len, 8);
    std::memcpy(&y, b + len, 8);
    const std::uint64_t diff = x ^ y;
    if (diff != 0)
      return len + (static_cast<std::size_t>(std::countr_zero(diff)) >> 3);
    len += 8;
  }
  while (len < max_len && a[len] == b[len]) ++len;
  return len;
}

struct Token {
  std::uint32_t literal_run;
  std::uint32_t match_len;  // 0 on the final token if input ends in literals
  std::uint32_t dist;
};

// Serializes the found tokens + literals into the wire format (unchanged
// since the first version of this codec: header, Huffman-coded literal
// bytes, varint token stream).
Bytes emit_blob(std::size_t n, const std::vector<Token>& tokens,
                const Bytes& literals) {
  std::vector<std::uint32_t> lit_syms(literals.size());
  for (std::size_t i = 0; i < literals.size(); ++i)
    lit_syms[i] = static_cast<std::uint8_t>(literals[i]);
  Bytes lit_blob = huffman_encode(lit_syms, 256);

  // Pooled output: lz_compress runs once per zone/slab in the streamed
  // pipelines, so its blob (and the framed literal blob) recycle.
  Bytes out = BufferPool::global().acquire(28 + lit_blob.size() +
                                           tokens.size() * 6);
  append_pod<std::uint32_t>(out, kLzMagic);
  append_pod<std::uint64_t>(out, n);
  append_pod<std::uint64_t>(out, lit_blob.size());
  append_bytes(out, lit_blob);
  BufferPool::global().release(std::move(lit_blob));
  append_pod<std::uint64_t>(out, tokens.size());
  for (const Token& t : tokens) {
    varint_encode(out, t.literal_run);
    varint_encode(out, t.match_len);
    if (t.match_len > 0) varint_encode(out, t.dist);
  }
  return out;
}

// Evaluates candidate `c` against position `pos`, keeping the longer match.
// Two exact rejects skip the full extension without affecting the output:
// (a) a first-4-bytes mismatch proves the candidate is a hash collision
// that cannot reach kMinMatch (sub-minimum best_len updates only ever gate
// which later candidates get *evaluated*, never which match is finally
// emitted); (b) a mismatch one byte past the current best proves
// len <= best_len.
inline void consider_candidate(const std::byte* base, std::size_t n,
                               std::size_t pos, std::size_t c,
                               std::size_t max_len, std::uint32_t pos4,
                               std::size_t* best_len, std::size_t* best_dist) {
  std::uint32_t c4;
  std::memcpy(&c4, base + c, 4);
  if (c4 != pos4) return;
  if (*best_len != 0 && !(c + *best_len < n && pos + *best_len < n &&
                          base[c + *best_len] == base[pos + *best_len]))
    return;
  // max_len <= n - pos < n - c, so both sides extend max_len bytes.
  const std::size_t len = match_length(base + c, base + pos, max_len);
  if (len > *best_len) {
    *best_len = len;
    *best_dist = pos - c;
  }
}

// Greedy hash-chain tokenizer over a 64 KiB window: candidates in recency
// order, a fixed probe budget, strictly-improving acceptance. Successor
// links are 16-bit gaps, so the chain working set stays small enough to be
// cache-resident. A gap that cannot be represented would land out of the
// window for every position that still reaches its predecessor, so the
// sentinel is exactly equivalent to following the link and failing the
// window check. HeadIndex narrows the bucket-head table to the smallest
// type the input length fits (128 KiB of heads instead of 256 KiB for the
// common uint32_t case) — the head values are the same absolute positions
// either way, so the search is unchanged.
template <typename HeadIndex>
Bytes compress_window(std::span<const std::byte> data, int max_probes) {
  constexpr std::size_t kHashSize = 1u << 15;
  constexpr HeadIndex kNil = std::numeric_limits<HeadIndex>::max();
  constexpr std::uint16_t kFarGap = 0xFFFF;  // no (reachable) predecessor
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  const std::size_t n = data.size();
  const std::byte* base = data.data();

  std::vector<HeadIndex> head(kHashSize, kNil);
  std::vector<std::uint16_t> gap(n > 0 ? n : 1, kFarGap);

  // Makes p the newest entry of its hash bucket. Gaps are stored as gap-1:
  // representable predecessor gaps are 1..65535, and a larger gap is
  // unreachable within the <= 65536-byte window anyway.
  const auto insert = [&](std::size_t p, std::uint32_t h) {
    const HeadIndex predecessor = head[h];
    if (predecessor != kNil &&
        p - static_cast<std::size_t>(predecessor) <= 0xFFFF)
      gap[p] = static_cast<std::uint16_t>(
          p - static_cast<std::size_t>(predecessor) - 1);
    head[h] = static_cast<HeadIndex>(p);
  };

  std::vector<Token> tokens;
  Bytes literals;
  literals.reserve(n / 4);
  std::size_t pos = 0;
  std::size_t lit_start = 0;
  while (pos < n) {
    std::size_t best_len = 0;
    std::size_t best_dist = 0;
    if (pos + 4 <= n) {
      const std::uint32_t h = hash4(base + pos);
      std::uint32_t pos4;
      std::memcpy(&pos4, base + pos, 4);
      const std::size_t max_len = std::min<std::size_t>(kMaxMatch, n - pos);
      std::size_t c =
          head[h] == kNil ? kNone : static_cast<std::size_t>(head[h]);
      int probes = max_probes;
      while (c != kNone && probes-- > 0 && pos - c <= kWindow) {
        consider_candidate(base, n, pos, c, max_len, pos4, &best_len,
                           &best_dist);
        const std::uint16_t g = gap[c];
        c = g == kFarGap ? kNone : c - g - 1;
      }
      insert(pos, h);
    }
    if (best_len >= kMinMatch) {
      tokens.push_back({static_cast<std::uint32_t>(pos - lit_start),
                        static_cast<std::uint32_t>(best_len),
                        static_cast<std::uint32_t>(best_dist)});
      literals.insert(literals.end(), data.begin() + lit_start,
                      data.begin() + pos);
      // Insert hash entries inside the match (sparsely, for speed).
      const std::size_t end = pos + best_len;
      for (std::size_t p = pos + 1; p + 4 <= n && p < end; p += 2)
        insert(p, hash4(base + p));
      pos = end;
      lit_start = pos;
    } else {
      ++pos;
    }
  }
  if (lit_start < n || tokens.empty()) {
    tokens.push_back({static_cast<std::uint32_t>(n - lit_start), 0, 0});
    literals.insert(literals.end(), data.begin() + lit_start, data.end());
  }
  return emit_blob(n, tokens, literals);
}

}  // namespace

Bytes lz_compress(std::span<const std::byte> data, const LzOptions& opt) {
  if (data.size() < std::numeric_limits<std::uint32_t>::max())
    return compress_window<std::uint32_t>(data, opt.max_probes);
  return compress_window<std::uint64_t>(data, opt.max_probes);
}

Bytes lz_decompress(std::span<const std::byte> blob) {
  ByteReader r(blob);
  EBLCIO_CHECK_STREAM(r.read_pod<std::uint32_t>() == kLzMagic,
                      "bad LZ magic");
  const auto orig_size = r.read_pod<std::uint64_t>();
  const auto lit_size = r.read_pod<std::uint64_t>();
  auto lit_blob = r.read_bytes(lit_size);
  const auto lit_syms = huffman_decode(lit_blob);
  // Every token takes at least two varint bytes, and every output byte is
  // a literal or lies in a match of at most kMaxMatch, so both sizes are
  // bounded before any allocation and stay far below 2^64.
  const auto ntokens = r.read_count<std::uint64_t>(
      2, "LZ token count exceeds payload");
  EBLCIO_CHECK_STREAM(
      orig_size <= lit_syms.size() + ntokens * std::uint64_t{kMaxMatch},
      "LZ size exceeds its tokens");

  // Narrow the literal symbols to bytes once, so literal runs below are
  // bulk copies instead of per-byte symbol casts.
  Bytes lits(lit_syms.size());
  for (std::size_t i = 0; i < lit_syms.size(); ++i)
    lits[i] = static_cast<std::byte>(lit_syms[i]);

  Bytes out;
  out.reserve(orig_size);
  std::size_t lit_pos = 0;
  for (std::uint64_t i = 0; i < ntokens; ++i) {
    const auto lit_run = varint_decode(r);
    const auto match_len = varint_decode(r);
    // Wrap-safe bounds: lit_pos <= lits.size() and out.size() <= orig_size
    // are loop invariants, so the subtractions cannot underflow — a forged
    // run/length near UINT64_MAX fails here instead of overflowing a sum
    // (or a resize) and corrupting memory.
    EBLCIO_CHECK_STREAM(lit_run <= lits.size() - lit_pos, "literal overrun");
    EBLCIO_CHECK_STREAM(lit_run <= orig_size - out.size(),
                        "LZ output overrun");
    out.insert(out.end(), lits.begin() + static_cast<std::ptrdiff_t>(lit_pos),
               lits.begin() + static_cast<std::ptrdiff_t>(lit_pos + lit_run));
    lit_pos += lit_run;
    if (match_len > 0) {
      // The encoder never emits a longer match.
      EBLCIO_CHECK_STREAM(match_len <= kMaxMatch, "LZ match too long");
      const auto dist = varint_decode(r);
      EBLCIO_CHECK_STREAM(dist > 0 && dist <= out.size(), "bad match dist");
      EBLCIO_CHECK_STREAM(match_len <= orig_size - out.size(),
                          "LZ output overrun");
      const std::size_t old_size = out.size();
      out.resize(old_size + match_len);
      std::byte* dst = out.data() + old_size;
      const std::byte* src = out.data() + old_size - dist;
      if (dist >= match_len) {
        std::memcpy(dst, src, match_len);
      } else {
        // Overlapping match: the copy replicates the trailing `dist`-byte
        // pattern, so it must run strictly forward.
        for (std::uint64_t k = 0; k < match_len; ++k) dst[k] = src[k];
      }
    }
  }
  EBLCIO_CHECK_STREAM(out.size() == orig_size, "LZ size mismatch");
  return out;
}

}  // namespace eblcio
