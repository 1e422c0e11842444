#include "codec/huffman.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <numeric>
#include <queue>

#include "codec/bitstream.h"
#include "common/buffer_pool.h"
#include "common/error.h"

namespace eblcio {
namespace {

// Reverses the low `n` bits of `code` so an MSB-first canonical code can be
// emitted through the LSB-first BitWriter.
std::uint64_t reverse_bits(std::uint64_t code, int n) {
  std::uint64_t r = 0;
  for (int i = 0; i < n; ++i) {
    r = (r << 1) | (code & 1);
    code >>= 1;
  }
  return r;
}

struct TreeNode {
  std::uint64_t freq;
  std::int32_t left;    // -1 for leaf
  std::int32_t right;
  std::uint32_t symbol; // valid for leaves
};

}  // namespace

std::vector<std::uint8_t> huffman_code_lengths(
    std::span<const std::uint64_t> freqs) {
  const std::size_t n = freqs.size();
  std::vector<std::uint8_t> lengths(n, 0);

  std::vector<std::uint32_t> present;
  for (std::size_t s = 0; s < n; ++s)
    if (freqs[s] > 0) present.push_back(static_cast<std::uint32_t>(s));
  if (present.empty()) return lengths;
  if (present.size() == 1) {
    lengths[present[0]] = 1;
    return lengths;
  }

  // Standard two-queue Huffman tree construction.
  std::vector<TreeNode> nodes;
  nodes.reserve(present.size() * 2);
  using Entry = std::pair<std::uint64_t, std::int32_t>;  // (freq, node index)
  auto cmp = [](const Entry& a, const Entry& b) { return a.first > b.first; };
  std::priority_queue<Entry, std::vector<Entry>, decltype(cmp)> heap(cmp);
  for (std::uint32_t s : present) {
    nodes.push_back({freqs[s], -1, -1, s});
    heap.emplace(freqs[s], static_cast<std::int32_t>(nodes.size() - 1));
  }
  while (heap.size() > 1) {
    const auto a = heap.top();
    heap.pop();
    const auto b = heap.top();
    heap.pop();
    nodes.push_back({a.first + b.first, a.second, b.second, 0});
    heap.emplace(a.first + b.first,
                 static_cast<std::int32_t>(nodes.size() - 1));
  }

  // Depth-first traversal to assign depths.
  struct Item {
    std::int32_t node;
    int depth;
  };
  std::vector<Item> stack{{heap.top().second, 0}};
  while (!stack.empty()) {
    const Item it = stack.back();
    stack.pop_back();
    const TreeNode& nd = nodes[it.node];
    if (nd.left < 0) {
      lengths[nd.symbol] = static_cast<std::uint8_t>(std::max(it.depth, 1));
    } else {
      stack.push_back({nd.left, it.depth + 1});
      stack.push_back({nd.right, it.depth + 1});
    }
  }

  // Length-limit with a Kraft-sum fix-up: clamp overlong codes, then demote
  // codes (increase their length) until the Kraft inequality holds again.
  bool overflow = false;
  for (std::uint32_t s : present)
    if (lengths[s] > kMaxHuffmanBits) {
      lengths[s] = kMaxHuffmanBits;
      overflow = true;
    }
  if (overflow) {
    auto kraft = [&]() {
      long double k = 0;
      for (std::uint32_t s : present)
        k += std::pow(2.0L, -static_cast<int>(lengths[s]));
      return k;
    };
    // Sort symbols by ascending frequency so the cheapest codes get demoted.
    std::vector<std::uint32_t> order = present;
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      return freqs[a] < freqs[b];
    });
    std::size_t i = 0;
    while (kraft() > 1.0L) {
      std::uint32_t s = order[i % order.size()];
      if (lengths[s] < kMaxHuffmanBits) ++lengths[s];
      ++i;
    }
  }
  return lengths;
}

namespace {

// Canonical code assignment: symbols ordered by (length, symbol).
struct CanonicalCodes {
  std::vector<std::uint8_t> lengths;
  std::vector<std::uint64_t> codes;  // MSB-first code values
};

CanonicalCodes assign_canonical(std::vector<std::uint8_t> lengths) {
  CanonicalCodes cc;
  cc.codes.assign(lengths.size(), 0);
  std::vector<std::uint32_t> order;
  for (std::uint32_t s = 0; s < lengths.size(); ++s)
    if (lengths[s] > 0) order.push_back(s);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (lengths[a] != lengths[b]) return lengths[a] < lengths[b];
    return a < b;
  });
  std::uint64_t code = 0;
  int prev_len = 0;
  for (std::uint32_t s : order) {
    code <<= (lengths[s] - prev_len);
    cc.codes[s] = code;
    ++code;
    prev_len = lengths[s];
  }
  cc.lengths = std::move(lengths);
  return cc;
}

void write_lengths_rle(Bytes& out, std::span<const std::uint8_t> lengths) {
  // (length, run) pairs; run is u32. Compact because quantization-code
  // alphabets are sparse away from the center.
  std::uint32_t i = 0;
  std::vector<std::pair<std::uint8_t, std::uint32_t>> runs;
  while (i < lengths.size()) {
    std::uint32_t j = i;
    while (j < lengths.size() && lengths[j] == lengths[i]) ++j;
    runs.emplace_back(lengths[i], j - i);
    i = j;
  }
  append_pod<std::uint32_t>(out, static_cast<std::uint32_t>(runs.size()));
  for (auto [len, run] : runs) {
    append_pod<std::uint8_t>(out, len);
    append_pod<std::uint32_t>(out, run);
  }
}

// Parsed blob header plus the canonical decode tables both decoders share.
struct DecodeSetup {
  std::uint64_t count = 0;
  std::span<const std::byte> payload;
  // Symbols ordered by (length, symbol) — canonical index order.
  std::vector<std::uint32_t> order;
  std::array<std::uint64_t, kMaxHuffmanBits + 2> first_code{};
  std::array<std::uint32_t, kMaxHuffmanBits + 2> first_index{};
  std::array<std::uint32_t, kMaxHuffmanBits + 2> num_codes{};
};

DecodeSetup decode_setup(std::span<const std::byte> blob) {
  DecodeSetup s;
  ByteReader r(blob);
  s.count = r.read_pod<std::uint64_t>();
  const auto alphabet_size = r.read_pod<std::uint32_t>();
  // The (u8 length, u32 run) pairs are walked twice in place and never
  // expanded per symbol, so nothing is sized from the alphabet: one pass
  // counts the codes of each length, and the second (below) places every
  // present symbol at its length's next slot, in (length, symbol) order.
  const auto runs = r.read_bytes(std::size_t{r.read_pod<std::uint32_t>()} * 5);
  const auto for_each_run = [runs](auto&& fn) {
    ByteReader rr(runs);
    for (std::uint64_t sym = 0; !rr.at_end();) {
      const auto len = rr.read_pod<std::uint8_t>();
      const auto run = rr.read_pod<std::uint32_t>();
      fn(len, sym, run);
      sym += run;
    }
  };
  std::uint64_t covered = 0;
  for_each_run([&](std::uint8_t len, std::uint64_t, std::uint32_t run) {
    // A corrupt length would index the canonical decode tables (sized
    // kMaxHuffmanBits + 2) out of bounds.
    EBLCIO_CHECK_STREAM(len <= kMaxHuffmanBits,
                        "huffman code length out of range");
    EBLCIO_CHECK_STREAM(covered + run <= alphabet_size,
                        "huffman length table overflow");
    covered += run;
    if (len > 0) s.num_codes[len] += run;
  });
  EBLCIO_CHECK_STREAM(covered == alphabet_size,
                      "huffman length table underflow");
  const auto payload_size = r.read_pod<std::uint64_t>();
  s.payload = r.read_bytes(payload_size);
  // Every legitimate symbol costs at least one payload bit; a corrupt
  // count must not drive a giant allocation below. Computed as a byte
  // floor so the comparison cannot overflow for counts near UINT64_MAX.
  const std::uint64_t min_bytes = s.count / 8 + (s.count % 8 != 0 ? 1 : 0);
  EBLCIO_CHECK_STREAM(min_bytes <= s.payload.size(),
                      "huffman symbol count exceeds payload");

  // Kraft: an over-subscribed length set (never written by the encoder)
  // has canonical codes that overflow their length, which the per-bit
  // walk and the LUT would resolve differently. Summed in units of
  // 2^-kMaxHuffmanBits and checked per step, so it cannot overflow.
  std::uint64_t kraft = 0;
  for (int len = 1; len <= kMaxHuffmanBits; ++len) {
    kraft += std::uint64_t{s.num_codes[len]} << (kMaxHuffmanBits - len);
    EBLCIO_CHECK_STREAM(kraft <= std::uint64_t{1} << kMaxHuffmanBits,
                        "huffman code lengths over-subscribed");
  }
  std::uint64_t code = 0;
  std::uint32_t idx = 0;
  for (int len = 1; len <= kMaxHuffmanBits; ++len) {
    s.first_code[len] = code;
    s.first_index[len] = idx;
    code = (code + s.num_codes[len]) << 1;
    idx += s.num_codes[len];
  }
  // The encoder gives a code only to a symbol the payload holds, at one
  // bit or more, so the payload's bits bound the canonical order sized
  // here. (The count does not: a stream cut short by its count is valid.)
  EBLCIO_CHECK_STREAM(idx <= 8 * s.payload.size(),
                      "huffman table has more codes than payload bits");
  s.order.resize(idx);
  std::array<std::uint32_t, kMaxHuffmanBits + 2> next = s.first_index;
  for_each_run([&](std::uint8_t len, std::uint64_t sym, std::uint32_t run) {
    if (len > 0)
      for (std::uint32_t k = 0; k < run; ++k)
        s.order[next[len]++] = static_cast<std::uint32_t>(sym + k);
  });
  return s;
}

// Per-bit canonical decode of one symbol; shared by the reference decoder
// and the LUT decoder's long-code fallback. Throws on invalid codes.
std::uint32_t decode_symbol_slow(const DecodeSetup& s, BitReader& br) {
  std::uint64_t code = 0;
  int len = 0;
  for (;;) {
    EBLCIO_CHECK_STREAM(len < kMaxHuffmanBits, "invalid huffman code");
    code = (code << 1) | br.get_bit();
    ++len;
    if (s.num_codes[len] > 0 &&
        code < s.first_code[len] + s.num_codes[len]) {
      EBLCIO_CHECK_STREAM(code >= s.first_code[len], "invalid huffman code");
      return s.order[s.first_index[len] + (code - s.first_code[len])];
    }
  }
}

// True for the degenerate streams both decoders shortcut identically;
// `*result` receives the decoded stream when so.
bool decode_degenerate(const DecodeSetup& s,
                       std::vector<std::uint32_t>* result) {
  if (s.count == 0) {
    result->clear();
    return true;
  }
  EBLCIO_CHECK_STREAM(!s.order.empty(), "huffman stream with empty alphabet");
  if (s.order.size() == 1) {
    result->assign(s.count, s.order[0]);
    return true;
  }
  return false;
}

// --- Encoder fast path -----------------------------------------------------

// Alphabets past this bound skip the pooled scratch (whose dense tables are
// sized to the alphabet) and take the reference path; 2^17 covers the
// SZ-family 65537-entry quantizer alphabet with headroom.
constexpr std::uint32_t kEncoderMaxScratchAlphabet = 1u << 17;
// Histogram lane counters are u32; a lane only ever sees every 4th stream
// position, so counts stay in range while the stream is below 4 * 2^32.
constexpr std::uint64_t kEncoderMaxSplitSymbols = std::uint64_t{1} << 33;
constexpr int kHistLanes = 4;

// Thread-local working set for huffman_encode: repeated encodes (per zone,
// per slab) touch no allocator at all once warm. `lanes` keeps an all-zero
// invariant between calls — the merge scan below zeroes exactly the entries
// the histogram touched. The dense `emit` table is never cleared: entries
// are written for every symbol present in the current stream before the
// emit loop reads them, and absent symbols are never looked up.
struct EncoderScratch {
  struct EmitEntry {
    std::uint32_t code = 0;  // bit-reversed, LSB-first
    std::uint32_t len = 0;
  };
  std::vector<std::uint32_t> lanes;  // kHistLanes * alphabet split counters
  std::vector<EmitEntry> emit;       // dense per-symbol emit table
  // Compact per-present-symbol arrays (parallel; `present` ascending).
  std::vector<std::uint32_t> present;
  std::vector<std::uint64_t> freqs;
  std::vector<std::uint8_t> lengths;
  // Tree-build scratch.
  std::vector<std::uint32_t> order;    // indices into `present`
  std::vector<std::uint64_t> weights;  // Moffat node weights, then depths
  std::vector<std::int32_t> parents;
  std::vector<std::pair<std::uint8_t, std::uint32_t>> runs;  // RLE header

  void ensure(std::uint32_t alphabet) {
    const std::size_t lane_slots =
        static_cast<std::size_t>(kHistLanes) * alphabet;
    if (lanes.size() < lane_slots) lanes.resize(lane_slots, 0);
    if (emit.size() < alphabet) emit.resize(alphabet);
  }
};

EncoderScratch& encoder_scratch() {
  thread_local EncoderScratch sc;
  return sc;
}

// In-place two-queue (Moffat-style) length construction over the compact
// lists: leaves sorted ascending by (freq, symbol) form one queue, merged
// nodes append to a second in nondecreasing weight order, so every merge
// pops the two smallest heads in O(1) — no heap, no per-merge log factor.
//
// Wire safety: the blob is frozen, and the reference builder's lengths
// depend on std::priority_queue's pop order among equal weights. When no
// merge step is tie-ambiguous — no *third* candidate's weight equals the
// second pick's — the merged pair is forced as a multiset at every step,
// so any correct builder produces the same tree depths (the two picks may
// swap roles on an a==b tie, but both children sit at the same depth).
// Each merge therefore checks the next head against the second pick and
// returns false on a tie, and the caller falls back to the reference
// builder, huffman_code_lengths, over the compact frequency list (its
// symbols are then the compact indices, in the same insertion order):
// identical lengths by the forcing argument on this path, identical by
// construction on the other. Depths past kMaxHuffmanBits
// also bail out so the Kraft fix-up runs only in its original form.
bool moffat_lengths(EncoderScratch& sc) {
  const std::size_t m = sc.present.size();
  sc.lengths.assign(m, 0);
  if (m == 1) {
    sc.lengths[0] = 1;
    return true;
  }
  sc.order.resize(m);
  std::iota(sc.order.begin(), sc.order.end(), 0u);
  std::sort(sc.order.begin(), sc.order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (sc.freqs[a] != sc.freqs[b]) return sc.freqs[a] < sc.freqs[b];
              return sc.present[a] < sc.present[b];
            });
  sc.weights.resize(2 * m - 1);
  sc.parents.assign(2 * m - 1, -1);
  for (std::size_t i = 0; i < m; ++i) sc.weights[i] = sc.freqs[sc.order[i]];
  std::size_t leaf = 0, inter = m, next = m;
  auto smallest = [&]() {
    if (leaf < m && (inter >= next || sc.weights[leaf] <= sc.weights[inter]))
      return leaf++;
    return inter++;
  };
  for (std::size_t k = 0; k + 1 < m; ++k) {
    const std::size_t a = smallest();
    const std::size_t b = smallest();
    std::uint64_t w3 = 0;
    bool have3 = false;
    if (leaf < m) {
      w3 = sc.weights[leaf];
      have3 = true;
    }
    if (inter < next && (!have3 || sc.weights[inter] < w3)) {
      w3 = sc.weights[inter];
      have3 = true;
    }
    if (have3 && w3 == sc.weights[b]) return false;  // tie-ambiguous merge
    sc.weights[next] = sc.weights[a] + sc.weights[b];
    sc.parents[a] = sc.parents[b] = static_cast<std::int32_t>(next);
    ++next;
  }
  // A parent always has a higher node index than its children, so one
  // reverse pass resolves every depth from the root. Weights are dead
  // after construction; reuse the array as depth storage.
  sc.weights[2 * m - 2] = 0;
  for (std::size_t i = 2 * m - 2; i-- > 0;)
    sc.weights[i] = sc.weights[static_cast<std::size_t>(sc.parents[i])] + 1;
  for (std::size_t i = 0; i < m; ++i) {
    if (sc.weights[i] > kMaxHuffmanBits) return false;  // needs Kraft fix-up
    sc.lengths[sc.order[i]] = static_cast<std::uint8_t>(sc.weights[i]);
  }
  return true;
}

}  // namespace

Bytes huffman_encode(std::span<const std::uint32_t> symbols,
                     std::uint32_t alphabet_size) {
  // Inputs outside the scratch bounds take the reference path, which emits
  // byte-identical blobs (the overhaul is wire-frozen, so the two paths
  // are interchangeable per input).
  if (alphabet_size > kEncoderMaxScratchAlphabet ||
      symbols.size() > kEncoderMaxSplitSymbols)
    return huffman_encode_reference(symbols, alphabet_size);

  // Bounds pre-scan: one vectorizable max/min reduction replaces the
  // per-symbol branch the histogram loop used to carry; the same
  // InvalidArgument fires on the same inputs. The min/max also bound the
  // alphabet range the merge scan below must walk.
  std::uint32_t max_sym = 0;
  std::uint32_t min_sym = ~0u;
  for (std::uint32_t s : symbols) {
    max_sym = std::max(max_sym, s);
    min_sym = std::min(min_sym, s);
  }
  EBLCIO_CHECK_ARG(symbols.empty() || max_sym < alphabet_size,
                   "symbol outside alphabet");

  EncoderScratch& sc = encoder_scratch();
  sc.ensure(alphabet_size);

  // Histogram with K-way split counters: consecutive stream positions
  // count into distinct lanes, so a run of one repeated symbol no longer
  // serializes on a store-to-load dependency against a single counter.
  const std::size_t stride = alphabet_size;
  std::uint32_t* l0 = sc.lanes.data();
  std::uint32_t* l1 = l0 + stride;
  std::uint32_t* l2 = l1 + stride;
  std::uint32_t* l3 = l2 + stride;
  const std::uint32_t* sp = symbols.data();
  const std::size_t n = symbols.size();
  std::size_t i = 0;
  for (; i + kHistLanes <= n; i += kHistLanes) {
    ++l0[sp[i]];
    ++l1[sp[i + 1]];
    ++l2[sp[i + 2]];
    ++l3[sp[i + 3]];
  }
  for (; i < n; ++i) ++l0[sp[i]];

  // Merge scan over the touched range only: sums the lanes into the
  // compact frequency list and restores the lanes' all-zero invariant in
  // the same pass, so no memset over the full alphabet ever runs.
  sc.present.clear();
  sc.freqs.clear();
  if (n > 0) {
    for (std::uint32_t s = min_sym; s <= max_sym; ++s) {
      const std::uint64_t f = static_cast<std::uint64_t>(l0[s]) + l1[s] +
                              l2[s] + l3[s];
      l0[s] = l1[s] = l2[s] = l3[s] = 0;
      if (f > 0) {
        sc.present.push_back(s);
        sc.freqs.push_back(f);
      }
    }
  }

  const std::size_t m = sc.present.size();
  if (m > 0 && !moffat_lengths(sc))
    sc.lengths = huffman_code_lengths(sc.freqs);

  // RLE header runs straight off the compact lists: gaps between present
  // symbols are zero-length runs, adjacent equal lengths merge — exactly
  // the maximal runs write_lengths_rle produces over the dense table.
  sc.runs.clear();
  auto emit_run = [&](std::uint8_t len, std::uint32_t count) {
    if (!sc.runs.empty() && sc.runs.back().first == len)
      sc.runs.back().second += count;
    else
      sc.runs.emplace_back(len, count);
  };
  std::uint32_t pos = 0;
  for (std::size_t k = 0; k < m; ++k) {
    if (sc.present[k] > pos) emit_run(0, sc.present[k] - pos);
    emit_run(sc.lengths[k], 1);
    pos = sc.present[k] + 1;
  }
  if (pos < alphabet_size) emit_run(0, alphabet_size - pos);

  // Canonical code assignment over the compact lists; `present` ascends,
  // so a stable sort by length yields the (length, symbol) order.
  sc.order.resize(m);
  std::iota(sc.order.begin(), sc.order.end(), 0u);
  std::stable_sort(sc.order.begin(), sc.order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return sc.lengths[a] < sc.lengths[b];
                   });
  std::uint64_t code = 0;
  int prev_len = 0;
  std::size_t total_bits = 0;
  for (std::uint32_t idx : sc.order) {
    const int len = sc.lengths[idx];
    code <<= (len - prev_len);
    sc.emit[sc.present[idx]] = {
        static_cast<std::uint32_t>(reverse_bits(code, len)),
        static_cast<std::uint32_t>(len)};
    ++code;
    prev_len = len;
    total_bits += sc.freqs[idx] * static_cast<std::size_t>(len);
  }

  // Exact-size pooled acquire from the length pass: header + payload are
  // both known now, so low-entropy-but-long inputs no longer outgrow the
  // old symbols/2 guess mid-emit (their RLE header alone could exceed it).
  const std::size_t payload_bytes = (total_bits + 7) / 8;
  const std::size_t header_bytes = 8 + 4 + 4 + 5 * sc.runs.size() + 8;
  Bytes out = BufferPool::global().acquire(header_bytes + payload_bytes);
  append_pod<std::uint64_t>(out, symbols.size());
  append_pod<std::uint32_t>(out, alphabet_size);
  append_pod<std::uint32_t>(out, static_cast<std::uint32_t>(sc.runs.size()));
  for (auto [len, run] : sc.runs) {
    append_pod<std::uint8_t>(out, len);
    append_pod<std::uint32_t>(out, run);
  }
  append_pod<std::uint64_t>(out, payload_bytes);

  // Batched emit directly into the framed blob: a local 64-bit accumulator
  // packs multiple bit-reversed codes and flushes four bytes at a time —
  // the encode-side mirror of the decoder's refill_acc discipline. The
  // flush keeps nbits < 32 ahead of every symbol, so a maximal 32-bit code
  // still fits the accumulator, and the byte stream is identical to
  // BitWriter's LSB-first little-endian packing.
  const std::size_t payload_off = out.size();
  out.resize(payload_off + payload_bytes);
  std::byte* dst = out.data() + payload_off;
  std::size_t off = 0;
  std::uint64_t acc = 0;
  int nbits = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const EncoderScratch::EmitEntry e = sc.emit[sp[k]];
    acc |= static_cast<std::uint64_t>(e.code) << nbits;
    nbits += static_cast<int>(e.len);
    if (nbits >= 32) {
      const std::uint32_t w = static_cast<std::uint32_t>(acc);
      std::memcpy(dst + off, &w, 4);
      off += 4;
      acc >>= 32;
      nbits -= 32;
    }
  }
  while (nbits > 0) {  // zero-padded tail, matching BitWriter::take()
    dst[off++] = static_cast<std::byte>(acc & 0xFF);
    acc >>= 8;
    nbits -= 8;
  }
  return out;
}

Bytes huffman_encode_reference(std::span<const std::uint32_t> symbols,
                               std::uint32_t alphabet_size) {
  std::vector<std::uint64_t> freqs(alphabet_size, 0);
  for (std::uint32_t s : symbols) {
    EBLCIO_CHECK_ARG(s < alphabet_size, "symbol outside alphabet");
    ++freqs[s];
  }
  auto cc = assign_canonical(huffman_code_lengths(freqs));

  Bytes out = BufferPool::global().acquire(symbols.size() / 2 + 64);
  append_pod<std::uint64_t>(out, symbols.size());
  append_pod<std::uint32_t>(out, alphabet_size);
  write_lengths_rle(out, cc.lengths);

  // Emit through precomputed bit-reversed codes: the per-occurrence cost is
  // one table load plus one word-buffered put_bits (reversing inside the
  // emit loop would cost O(code length) per symbol occurrence).
  struct EmitEntry {
    std::uint32_t code;  // bit-reversed, LSB-first
    std::uint32_t len;
  };
  std::vector<EmitEntry> emit(cc.codes.size(), EmitEntry{0, 0});
  std::size_t total_bits = 0;
  for (std::uint32_t s = 0; s < cc.codes.size(); ++s) {
    if (cc.lengths[s] == 0) continue;
    emit[s] = {static_cast<std::uint32_t>(
                   reverse_bits(cc.codes[s], cc.lengths[s])),
               cc.lengths[s]};
    total_bits += freqs[s] * cc.lengths[s];
  }
  BitWriter bw;
  bw.reserve_bits(total_bits);
  for (std::uint32_t s : symbols) {
    const EmitEntry e = emit[s];
    bw.put_bits(e.code, static_cast<int>(e.len));
  }
  Bytes payload = bw.take();
  append_pod<std::uint64_t>(out, payload.size());
  append_bytes(out, payload);
  BufferPool::global().release(std::move(payload));
  return out;
}

std::vector<std::uint32_t> huffman_decode(std::span<const std::byte> blob) {
  const DecodeSetup s = decode_setup(blob);
  std::vector<std::uint32_t> result;
  result.reserve(s.count);
  if (decode_degenerate(s, &result)) return result;

  // Single-level lookup table over the next kHuffmanLutBits stream bits
  // with zstd-style multi-symbol packing: an entry carries the canonical
  // ranks (indices into s.order) of up to four consecutive complete codes
  // in its window, so one table load emits up to four symbols. Ranks, not
  // symbol values, keep the entry at 8 bytes for any alphabet: a code of
  // <= 11 bits has rank < 2^11 (decode_setup enforces Kraft), so the
  // leading rank always fits its u16, and s.order lists the short codes
  // first, so the follow-on u8 ranks cover the 256 shortest. Longer
  // (rare) codes and invalid prefixes fall into the per-bit canonical
  // walk, which also carries the corrupt-stream checks: entries whose
  // window starts a long code — or no code at all — keep nsyms == 0.
  struct CodeEntry {
    std::uint16_t rank = 0;
    std::uint8_t len = 0;  // 0 => not decodable within the table width
  };
  // 8-byte entry so the table stays 16 KiB (L1-resident) and the batch
  // loop is branch-free: it writes dst[i..i+3] unconditionally from the
  // four ranks and advances i by nsyms. Unused ranks are 0 (a valid
  // index); their writes are overwritten by the next iteration. The entry
  // is one u64 the loop unpacks in registers, with the consumed length in
  // the low byte so the accumulator shift reads it straight off the load:
  //   bits 0-7 len | 8-15 nsyms (0 = fallback, else 1..4) |
  //   16-31 leading rank | 32-39, 40-47, 48-55 follow-on ranks.
  // Fixed table width so the peek mask is a compile-time constant in the
  // decode loop; short codes replicate across the unused high index bits.
  constexpr std::size_t kLutSize = std::size_t{1} << kHuffmanLutBits;
  std::vector<CodeEntry> code_lut(kLutSize);
  // Ranks [first_index[len], first_index[len] + num_codes[len]) hold the
  // codes of length `len`.
  for (int len = 1; len <= kHuffmanLutBits; ++len) {
    for (std::uint32_t k = 0; k < s.num_codes[len]; ++k) {
      const std::uint32_t idx = s.first_index[len] + k;
      const std::uint64_t rev = reverse_bits(s.first_code[len] + k, len);
      // The code occupies the low `len` stream bits; every setting of the
      // remaining high table bits maps to the same code.
      for (std::uint64_t hi = 0;
           hi < (std::uint64_t{1} << (kHuffmanLutBits - len)); ++hi)
        code_lut[rev | (hi << len)] = {static_cast<std::uint16_t>(idx),
                                       static_cast<std::uint8_t>(len)};
    }
  }
  // Packing pass: after `used` bits, only the remaining (width - used)
  // index bits are genuine stream bits; a further code is baked in only
  // when it fits entirely inside them (a lookup at the shifted index
  // cannot then have matched zero-padding) and its rank fits a u8.
  std::vector<std::uint64_t> lut(kLutSize, 0);
  for (std::size_t idx = 0; idx < kLutSize; ++idx) {
    const CodeEntry first = code_lut[idx];
    if (first.len == 0) continue;  // fallback entry
    std::uint64_t ranks = first.rank;
    int used = first.len;
    int nsyms = 1;
    while (nsyms < 4) {
      const CodeEntry c = code_lut[idx >> used];
      if (c.len == 0 || used + c.len > kHuffmanLutBits || c.rank > 0xFF)
        break;
      ranks |= std::uint64_t{c.rank} << (8 + 8 * nsyms);
      used += c.len;
      ++nsyms;
    }
    lut[idx] = static_cast<std::uint64_t>(used) |
               static_cast<std::uint64_t>(nsyms) << 8 | ranks << 16;
  }

  result.resize(s.count);
  std::uint32_t* dst = result.data();
  const std::uint32_t* order = s.order.data();
  const std::uint64_t lut_mask = kLutSize - 1;
  BitReader br(s.payload);
  std::uint64_t i = 0;
  while (i < s.count) {
    // One refill covers a batch of lookups: shift a local accumulator
    // copy and commit the consumed total once, so the per-symbol work is
    // at most a table load plus a shift — and a quarter of a load where
    // four-code entries dominate. Each lookup consumes at most
    // kHuffmanLutBits bits, so avail / kHuffmanLutBits lookups only ever
    // index buffered bits; the batch's fixed trip count (5 in the stream
    // interior) keeps its exit branch predictable. The count bound keeps
    // i + 4 <= count at every lookup, which keeps the four writes in
    // bounds and stops a packed entry from over-consuming past the final
    // symbol.
    std::uint64_t acc = br.refill_acc();
    const int avail = br.bits_buffered();
    if (avail >= kHuffmanLutBits && i + 4 <= s.count) {
      int consumed = 0;
      bool long_code = false;
      const std::uint64_t nlookups = std::min<std::uint64_t>(
          avail / kHuffmanLutBits, (s.count - i) / 4);
      for (std::uint64_t k = 0; k < nlookups; ++k) {
        const std::uint64_t e = lut[acc & lut_mask];
        const unsigned nsyms = (e >> 8) & 0xFF;
        if (nsyms == 0) {
          long_code = true;
          break;
        }
        dst[i] = order[(e >> 16) & 0xFFFF];
        dst[i + 1] = order[(e >> 32) & 0xFF];
        dst[i + 2] = order[(e >> 40) & 0xFF];
        dst[i + 3] = order[(e >> 48) & 0xFF];
        const int len = static_cast<int>(e & 0xFF);
        i += nsyms;
        acc >>= len;
        consumed += len;
      }
      br.consume(consumed);
      if (long_code) dst[i++] = decode_symbol_slow(s, br);
      continue;
    }
    // Tail: fewer than kHuffmanLutBits buffered bits or fewer than four
    // symbols left. The canonical per-bit walk handles zero-padded short
    // reads and carries the corrupt-stream checks; at most a handful of
    // symbols ever take this path.
    dst[i++] = decode_symbol_slow(s, br);
  }
  return result;
}

std::vector<std::uint32_t> huffman_decode_reference(
    std::span<const std::byte> blob) {
  const DecodeSetup s = decode_setup(blob);
  std::vector<std::uint32_t> result;
  result.reserve(s.count);
  if (decode_degenerate(s, &result)) return result;

  BitReader br(s.payload);
  for (std::uint64_t i = 0; i < s.count; ++i)
    result.push_back(decode_symbol_slow(s, br));
  return result;
}

}  // namespace eblcio
