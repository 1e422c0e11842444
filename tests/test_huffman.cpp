// Canonical Huffman codec tests: round-trips, degenerate alphabets,
// compression effectiveness, corrupt-stream handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <utility>

#include <sys/resource.h>

#include "codec/huffman.h"
#include "common/error.h"
#include "common/rng.h"
#include "compressors/compressor.h"
#include "compressors/interp_core.h"
#include "data/dataset.h"

namespace eblcio {
namespace {

std::vector<std::uint32_t> roundtrip(const std::vector<std::uint32_t>& syms,
                                     std::uint32_t alphabet) {
  const Bytes blob = huffman_encode(syms, alphabet);
  return huffman_decode(blob);
}

TEST(Huffman, EmptyInput) {
  EXPECT_TRUE(roundtrip({}, 10).empty());
}

TEST(Huffman, SingleSymbolAlphabet) {
  const std::vector<std::uint32_t> syms(1000, 7);
  EXPECT_EQ(roundtrip(syms, 256), syms);
}

TEST(Huffman, TwoSymbols) {
  std::vector<std::uint32_t> syms;
  for (int i = 0; i < 100; ++i) syms.push_back(i % 2 ? 3u : 250u);
  EXPECT_EQ(roundtrip(syms, 256), syms);
}

TEST(Huffman, SkewedDistributionCompresses) {
  // 95% zeros: entropy ~0.3 bits/symbol; Huffman should get close to 1
  // bit/symbol, far below the 4 bytes/symbol raw encoding.
  Rng rng(5);
  std::vector<std::uint32_t> syms;
  for (int i = 0; i < 100000; ++i)
    syms.push_back(rng.next_double() < 0.95 ? 0u : 1u + rng.next_below(100));
  const Bytes blob = huffman_encode(syms, 200);
  EXPECT_LT(blob.size(), syms.size() / 4);  // < 2 bits per symbol
  EXPECT_EQ(huffman_decode(blob), syms);
}

TEST(Huffman, NearOptimalOnGeometricDistribution) {
  Rng rng(6);
  std::vector<std::uint32_t> syms;
  double entropy_bits = 0.0;
  std::vector<std::size_t> counts(64, 0);
  for (int i = 0; i < 200000; ++i) {
    std::uint32_t s = 0;
    while (s < 63 && rng.next_double() < 0.5) ++s;
    syms.push_back(s);
    ++counts[s];
  }
  for (std::size_t c : counts) {
    if (!c) continue;
    const double p = static_cast<double>(c) / syms.size();
    entropy_bits += -p * std::log2(p);
  }
  const Bytes blob = huffman_encode(syms, 64);
  const double bits_per_symbol = 8.0 * blob.size() / syms.size();
  EXPECT_LT(bits_per_symbol, entropy_bits * 1.1 + 0.2);
  EXPECT_EQ(huffman_decode(blob), syms);
}

TEST(Huffman, LargeAlphabetRoundTrip) {
  // SZ-style 65537-entry alphabet with codes concentrated near the center.
  Rng rng(8);
  std::vector<std::uint32_t> syms;
  for (int i = 0; i < 50000; ++i) {
    const double g = rng.normal() * 20.0;
    syms.push_back(static_cast<std::uint32_t>(
        std::clamp(32768.0 + g, 0.0, 65536.0)));
  }
  EXPECT_EQ(roundtrip(syms, 65537), syms);
}

TEST(Huffman, UniformBytesRoundTrip) {
  Rng rng(10);
  std::vector<std::uint32_t> syms;
  for (int i = 0; i < 10000; ++i)
    syms.push_back(static_cast<std::uint32_t>(rng.next_below(256)));
  EXPECT_EQ(roundtrip(syms, 256), syms);
}

TEST(Huffman, RejectsSymbolOutsideAlphabet) {
  EXPECT_THROW(huffman_encode(std::vector<std::uint32_t>{300}, 256),
               InvalidArgument);
}

TEST(Huffman, RejectsOutOfAlphabetSymbolAtAnyPosition) {
  // The hot encoder validates with a pre-scan rather than a per-symbol
  // branch inside the histogram loop; a bad symbol must be caught whether
  // it sits at the front, the middle, or the back of the stream — and the
  // reference encoder must agree.
  std::vector<std::uint32_t> base(999, 5);
  for (const std::size_t pos : {std::size_t{0}, base.size() / 2,
                                base.size() - 1}) {
    std::vector<std::uint32_t> syms = base;
    syms[pos] = 256;
    EXPECT_THROW(huffman_encode(syms, 256), InvalidArgument)
        << "pos " << pos;
    EXPECT_THROW(huffman_encode_reference(syms, 256), InvalidArgument)
        << "pos " << pos;
  }
}

TEST(Huffman, RejectsTruncatedBlob) {
  const std::vector<std::uint32_t> syms(100, 3);
  Bytes blob = huffman_encode(syms, 16);
  blob.resize(blob.size() / 2);
  EXPECT_THROW(huffman_decode(blob), CorruptStream);
}

TEST(HuffmanLengths, KraftInequalityHolds) {
  Rng rng(3);
  std::vector<std::uint64_t> freqs(1000);
  for (auto& f : freqs) f = rng.next_below(10000);
  const auto lengths = huffman_code_lengths(freqs);
  long double kraft = 0;
  for (std::size_t s = 0; s < freqs.size(); ++s) {
    if (freqs[s] == 0) {
      EXPECT_EQ(lengths[s], 0);
    } else {
      EXPECT_GE(lengths[s], 1);
      EXPECT_LE(lengths[s], kMaxHuffmanBits);
      kraft += std::pow(2.0L, -static_cast<int>(lengths[s]));
    }
  }
  EXPECT_LE(kraft, 1.0L + 1e-12L);
}

TEST(HuffmanLengths, MoreFrequentGetsShorterOrEqualCode) {
  std::vector<std::uint64_t> freqs = {1000, 10, 500, 1, 0};
  const auto lengths = huffman_code_lengths(freqs);
  EXPECT_LE(lengths[0], lengths[1]);
  EXPECT_LE(lengths[2], lengths[1]);
  EXPECT_LE(lengths[1], lengths[3]);
}

// --- LUT decoder vs reference decoder (differential) -----------------------

// The table-driven decoder and the per-bit canonical reference must agree
// symbol-for-symbol on every blob the encoder can produce. These tests pit
// them against each other on the regimes that stress the LUT specifically:
// codes longer than the table width (slow-path fallback), degenerate
// alphabets, and random mixes.

TEST(HuffmanDifferential, SingleSymbolAlphabet) {
  const std::vector<std::uint32_t> syms(513, 9);
  const Bytes blob = huffman_encode(syms, 64);
  EXPECT_EQ(huffman_decode(blob), syms);
  EXPECT_EQ(huffman_decode_reference(blob), syms);
}

TEST(HuffmanDifferential, MaxLengthCodesUseSlowPath) {
  // Fibonacci-like frequencies drive tree depth past kMaxHuffmanBits, so
  // the Kraft fix-up clamps to 32-bit codes — far past the LUT width — and
  // the rare symbols decode through the canonical fallback.
  const int n = 48;
  std::vector<std::uint64_t> freqs(n);
  std::uint64_t a = 1, b = 1;
  for (int i = 0; i < n; ++i) {
    freqs[i] = a;
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  const auto lengths = huffman_code_lengths(freqs);
  EXPECT_EQ(*std::max_element(lengths.begin(), lengths.end()),
            kMaxHuffmanBits);

  // A stream hitting every symbol (so every code length appears),
  // including long runs of the rarest (longest-code) symbols.
  std::vector<std::uint32_t> syms;
  Rng rng(17);
  for (int i = 0; i < n; ++i)
    for (int k = 0; k < 1 + static_cast<int>(rng.next_below(5)); ++k)
      syms.push_back(static_cast<std::uint32_t>(i));
  for (int i = 0; i < 2000; ++i)
    syms.push_back(static_cast<std::uint32_t>(
        n - 1 - rng.next_below(static_cast<std::uint32_t>(n) / 2)));
  const Bytes blob = huffman_encode(syms, n);
  EXPECT_EQ(huffman_decode(blob), syms);
  EXPECT_EQ(huffman_decode_reference(blob), syms);
}

TEST(HuffmanDifferential, RandomLengthsAndSymbols) {
  Rng rng(99);
  for (int round = 0; round < 40; ++round) {
    const std::uint32_t alphabet = 2 + rng.next_below(5000);
    const int count = static_cast<int>(rng.next_below(4000));
    std::vector<std::uint32_t> syms;
    syms.reserve(count);
    // Mix skew regimes so short-, medium-, and long-code alphabets appear.
    const bool skewed = round % 2 == 0;
    for (int i = 0; i < count; ++i) {
      std::uint32_t s = rng.next_below(alphabet);
      if (skewed && rng.next_below(4) != 0) s = s % (1 + alphabet / 16);
      syms.push_back(s);
    }
    const Bytes blob = huffman_encode(syms, alphabet);
    const auto fast = huffman_decode(blob);
    const auto slow = huffman_decode_reference(blob);
    ASSERT_EQ(fast, slow) << "round " << round;
    ASSERT_EQ(fast, syms) << "round " << round;
  }
}

TEST(HuffmanDifferential, CorruptStreamsAgreeOnRejection) {
  // Both decoders must throw (not crash, not disagree) on truncated and
  // bit-flipped payloads.
  Rng rng(5);
  std::vector<std::uint32_t> syms;
  for (int i = 0; i < 4000; ++i)
    syms.push_back(static_cast<std::uint32_t>(rng.next_below(300)));
  const Bytes good = huffman_encode(syms, 300);
  for (std::size_t cut : {good.size() / 4, good.size() / 2}) {
    Bytes bad = good;
    bad.resize(cut);
    EXPECT_THROW(huffman_decode(bad), CorruptStream);
    EXPECT_THROW(huffman_decode_reference(bad), CorruptStream);
  }
}

TEST(HuffmanDifferential, OverflowSafeCountGuard) {
  // A forged header with count near UINT64_MAX must be rejected by the
  // payload-size guard without overflowing the comparison.
  const std::vector<std::uint32_t> syms(64, 1);
  Bytes blob = huffman_encode(syms, 4);
  const std::uint64_t forged = ~std::uint64_t{0} - 3;
  std::memcpy(blob.data(), &forged, sizeof forged);
  EXPECT_THROW(huffman_decode(blob), CorruptStream);
  EXPECT_THROW(huffman_decode_reference(blob), CorruptStream);
}

// The LUT packs the canonical ranks of up to four consecutive codes into
// one table slot when they all fit the table width. These differentials
// stress that packing specifically: streams dominated by short codes
// (four-code hits on nearly every lookup), every count remainder mod 4
// (the decode loop's i + 4 guard must refuse a packed write past the
// end), alphabets whose short codes outnumber the u8 follow-on ranks, and
// symbols past 16 bits.

// Both decoders return `syms` for the encoded stream.
void expect_decoders_agree(const std::vector<std::uint32_t>& syms,
                           std::uint32_t alphabet, const std::string& what) {
  const Bytes blob = huffman_encode(syms, alphabet);
  const auto fast = huffman_decode(blob);
  ASSERT_EQ(fast, huffman_decode_reference(blob)) << what;
  ASSERT_EQ(fast, syms) << what;
}

// Number of codes of at most kHuffmanLutBits bits the encoder assigns.
std::size_t short_code_count(const std::vector<std::uint32_t>& syms,
                             std::uint32_t alphabet) {
  std::vector<std::uint64_t> freqs(alphabet, 0);
  for (std::uint32_t s : syms) ++freqs[s];
  const auto lengths = huffman_code_lengths(freqs);
  return static_cast<std::size_t>(
      std::count_if(lengths.begin(), lengths.end(), [](std::uint8_t l) {
        return l > 0 && l <= kHuffmanLutBits;
      }));
}

TEST(HuffmanDifferential, LowEntropyGeometricPacksEveryRemainder) {
  Rng rng(123);
  for (int round = 0; round < 12; ++round) {
    // Geometric symbols: the top few codes are 1-3 bits, so most LUT slots
    // hold three or four codes. Vary the count by round so streams end on
    // every remainder mod 4 and the i + 4 <= count guard sees each shape.
    std::vector<std::uint32_t> syms;
    const int count = 3001 + round;
    for (int i = 0; i < count; ++i) {
      std::uint32_t v = 0;
      while (v < 63 && rng.next_double() < 0.5) ++v;
      syms.push_back(v);
    }
    expect_decoders_agree(syms, 64, "round " + std::to_string(round));
  }
}

TEST(HuffmanDifferential, TinyCountsNeverPackPastEnd) {
  // Counts 1..12 over a three-symbol alphabet (codes of 1 and 2 bits, so
  // every slot packs four codes): the shortest streams are all tail for
  // the packed loop, and each remainder mod 4 ends a stream, so a write
  // or a consume past the final symbol would show on the result's edge.
  Rng rng(7);
  for (int count = 1; count <= 12; ++count) {
    std::vector<std::uint32_t> syms;
    for (int i = 0; i < count; ++i)
      syms.push_back(static_cast<std::uint32_t>(rng.next_below(3)));
    expect_decoders_agree(syms, 3, "count " + std::to_string(count));
  }
}

TEST(HuffmanDifferential, WideSymbolsPackByRank) {
  // Entries hold ranks into the canonical order, not symbol values, so
  // symbol 65536 of the quantizer-shaped alphabet packs like any other.
  // Make it the most frequent symbol: its code is the shortest, and most
  // slots hold it beside symbol 32768.
  Rng rng(31);
  std::vector<std::uint32_t> syms;
  for (int i = 0; i < 6000; ++i) {
    const auto r = rng.next_below(10);
    if (r < 6) {
      syms.push_back(65536u);
    } else if (r < 9) {
      syms.push_back(32768u);
    } else {
      syms.push_back(static_cast<std::uint32_t>(rng.next_below(65537)));
    }
  }
  expect_decoders_agree(syms, 65537, "wide");
}

TEST(HuffmanDifferential, PackingStopsAtRank256) {
  // Symbol 0 takes half the stream (a 1-bit code) and 512 near-uniform
  // symbols share the rest (codes of about 10 bits): more than 256 codes
  // of <= 11 bits, and a 1-bit code followed by a 10-bit one fits a slot.
  // A follow-on code of rank >= 256 must end its entry (its u8 rank
  // cannot hold it), while a leading code of any rank still decodes from
  // the table.
  Rng rng(57);
  std::vector<std::uint32_t> syms;
  for (int i = 0; i < 40001; ++i) {
    if (rng.next_below(2) == 0)
      syms.push_back(0);
    else
      syms.push_back(1 + static_cast<std::uint32_t>(rng.next_below(512)));
  }
  ASSERT_GT(short_code_count(syms, 513), 256u);
  expect_decoders_agree(syms, 513, "rank 256");
}

TEST(HuffmanDifferential, PackedAndSlowPathInterleave) {
  // Fibonacci frequencies again, but with the common (short-code) symbols
  // dominating: decode alternates between packed hits and the canonical
  // slow path for the >11-bit codes, exercising the consumed-bits
  // bookkeeping across the transition.
  const int n = 48;
  std::vector<std::uint64_t> freqs(n);
  std::uint64_t a = 1, b = 1;
  for (int i = 0; i < n; ++i) {
    freqs[i] = a;
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  const auto lengths = huffman_code_lengths(freqs);
  ASSERT_EQ(*std::max_element(lengths.begin(), lengths.end()),
            kMaxHuffmanBits);
  Rng rng(271);
  std::vector<std::uint32_t> syms;
  for (int i = 0; i < 20001; ++i) {  // odd count
    if (rng.next_below(16) == 0) {
      // a rare, long-code symbol
      syms.push_back(static_cast<std::uint32_t>(rng.next_below(8)));
    } else {
      // a frequent, short-code symbol (high Fibonacci index)
      syms.push_back(static_cast<std::uint32_t>(
          n - 1 - rng.next_below(6)));
    }
  }
  expect_decoders_agree(syms, n, "interleave");
}

TEST(HuffmanDifferential, ForgedCountTruncatesInsidePackedEntry) {
  // Shrink the header count so decoding must stop mid-stream: both
  // decoders return exactly `forged` symbols, agree on them, and never
  // read past the adjusted count, whichever of an entry's four codes the
  // cut lands after. The 1- and 2-bit codes of a three-symbol alphabet
  // pack four per entry; the geometric stream mixes entry sizes.
  Rng rng(43);
  std::vector<std::uint32_t> tiny;
  std::vector<std::uint32_t> geometric;
  for (int i = 0; i < 4096; ++i) {
    tiny.push_back(static_cast<std::uint32_t>(rng.next_below(3)));
    std::uint32_t v = 0;
    while (v < 63 && rng.next_double() < 0.5) ++v;
    geometric.push_back(v);
  }
  for (const auto& [syms, alphabet] :
       {std::pair{tiny, 3u}, std::pair{geometric, 64u}}) {
    const Bytes good = huffman_encode(syms, alphabet);
    for (const std::uint64_t forged :
         {4095, 4094, 4093, 4092, 2049, 2048, 7, 6, 5, 4, 3, 2, 1}) {
      Bytes blob = good;
      std::memcpy(blob.data(), &forged, sizeof forged);
      const auto fast = huffman_decode(blob);
      const auto slow = huffman_decode_reference(blob);
      ASSERT_EQ(fast.size(), forged);
      ASSERT_EQ(fast, slow) << "forged " << forged;
      for (std::size_t i = 0; i < forged; ++i)
        ASSERT_EQ(fast[i], syms[i]) << "forged " << forged << " idx " << i;
    }
  }
}

TEST(HuffmanDifferential, OverSubscribedLengthsRejectedByBoth) {
  // Three 1-bit codes break Kraft: the canonical code 2 overflows its one
  // bit, and the table and the per-bit walk would decode it differently.
  // decode_setup rejects the header for both decoders.
  Bytes blob;
  append_pod<std::uint64_t>(blob, 16);  // count
  append_pod<std::uint32_t>(blob, 3);   // alphabet
  append_pod<std::uint32_t>(blob, 1);   // one RLE run
  append_pod<std::uint8_t>(blob, 1);    // length 1 ...
  append_pod<std::uint32_t>(blob, 3);   // ... for all three symbols
  append_pod<std::uint64_t>(blob, 2);   // payload bytes
  append_pod<std::uint16_t>(blob, 0xA5A5);
  EXPECT_THROW(huffman_decode(blob), CorruptStream);
  EXPECT_THROW(huffman_decode_reference(blob), CorruptStream);
}

// A header of `count` symbols over `alphabet`, one RLE run (`len`, `run`)
// and `payload` zero bytes of code bits.
Bytes one_run_blob(std::uint64_t count, std::uint32_t alphabet,
                   std::uint8_t len, std::uint32_t run, std::size_t payload) {
  Bytes blob;
  append_pod<std::uint64_t>(blob, count);
  append_pod<std::uint32_t>(blob, alphabet);
  append_pod<std::uint32_t>(blob, 1);
  append_pod<std::uint8_t>(blob, len);
  append_pod<std::uint32_t>(blob, run);
  append_pod<std::uint64_t>(blob, payload);
  blob.resize(blob.size() + payload);
  return blob;
}

TEST(HuffmanDifferential, MoreCodesThanPayloadBitsRejectedByBoth) {
  // Every code the encoder writes occurs in the payload at one bit or
  // more. 64 six-bit codes (a full Kraft sum) behind a count of 1 and one
  // payload byte claim more codes than bits: both decoders refuse the
  // table before sizing its canonical order. Eight three-bit codes fit
  // the byte exactly and decode.
  const Bytes over = one_run_blob(1, 64, 6, 64, 1);
  EXPECT_THROW(huffman_decode(over), CorruptStream);
  EXPECT_THROW(huffman_decode_reference(over), CorruptStream);
  const Bytes fit = one_run_blob(1, 8, 3, 8, 1);
  EXPECT_EQ(huffman_decode(fit), std::vector<std::uint32_t>{0});
  EXPECT_EQ(huffman_decode_reference(fit), std::vector<std::uint32_t>{0});
}

TEST(HuffmanDeathTest, ForgedAlphabetSizesNothing) {
  // 29 bytes: no symbols, an alphabet of 0xFFFFFFF0 and one zero-length
  // run over all of it. A decoder that fills a per-symbol length table
  // asks for 4 GiB here; under a 1 GiB address-space limit both decoders
  // must return the empty stream. The limit is set in the death-test
  // child only, and ASan and TSan reserve more than it for their shadow.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer shadow memory exceeds the address-space limit";
#endif
  const Bytes blob = one_run_blob(0, 0xFFFFFFF0u, 0, 0xFFFFFFF0u, 0);
  ASSERT_EQ(blob.size(), 29u);
  const auto decode_under_1gib = [&blob] {
    const rlimit limit{rlim_t{1} << 30, rlim_t{1} << 30};
    if (setrlimit(RLIMIT_AS, &limit) != 0) std::_Exit(2);
    const bool empty = huffman_decode(blob).empty() &&
                       huffman_decode_reference(blob).empty();
    std::_Exit(empty ? 0 : 1);
  };
  EXPECT_EXIT(decode_under_1gib(), ::testing::ExitedWithCode(0), "");
}

TEST(HuffmanDifferential, NyxSz3SlabCodeStream) {
  // The quantization codes SZ3 entropy-codes for one NYX 24x192x192 slab
  // at value-range-relative 1e-3: the stream a checkpoint restart decodes.
  const Field slab = generate_dataset_dims("NYX", {24, 192, 192}, 7);
  CompressOptions opt;
  opt.error_bound = 1e-3;
  const InterpEncoding enc =
      interp_compress(slab, absolute_bound_for(slab, opt), InterpConfig{});
  expect_decoders_agree(enc.codes, enc.alphabet_size, "nyx sz3 slab");
}

// --- Hot encoder vs reference encoder (differential) -----------------------

// The split-counter/batched-emit encoder must produce blobs BYTE-IDENTICAL
// to the retained reference encoder — not merely decodable. Byte equality
// is what keeps the 17 pinned reference blobs frozen: the hot path's
// Moffat length pass falls back to the reference heap builder on any
// tie-ambiguous merge, so the two paths can never canonicalize differently.

void expect_encoders_agree(const std::vector<std::uint32_t>& syms,
                           std::uint32_t alphabet, const char* what) {
  const Bytes hot = huffman_encode(syms, alphabet);
  const Bytes ref = huffman_encode_reference(syms, alphabet);
  ASSERT_EQ(hot, ref) << what;
  ASSERT_EQ(huffman_decode(hot), syms) << what;
}

TEST(HuffmanEncoderDifferential, DegenerateInputs) {
  expect_encoders_agree({}, 16, "empty");
  expect_encoders_agree(std::vector<std::uint32_t>(1000, 7), 256,
                        "single symbol");
  expect_encoders_agree({5}, 6, "one element");
}

TEST(HuffmanEncoderDifferential, LowEntropyGeometric) {
  Rng rng(6);
  std::vector<std::uint32_t> syms;
  for (int i = 0; i < 100000; ++i) {
    std::uint32_t v = 0;
    while (v < 63 && rng.next_double() < 0.5) ++v;
    syms.push_back(v);
  }
  expect_encoders_agree(syms, 64, "geometric");
}

TEST(HuffmanEncoderDifferential, QuantizerAlphabetNormal) {
  // The SZ-shaped 65537-entry alphabet: exactly the stream the sz2 gate
  // times, and the largest alphabet the pooled scratch serves.
  Rng rng(2);
  std::vector<std::uint32_t> syms;
  for (int i = 0; i < 50000; ++i) {
    const double g = rng.normal() * 12.0;
    syms.push_back(static_cast<std::uint32_t>(
        std::clamp(32768.0 + g, 0.0, 65536.0)));
  }
  expect_encoders_agree(syms, 65537, "quantizer normal");
}

TEST(HuffmanEncoderDifferential, AlphabetPastScratchTakesTheReferencePath) {
  // One entry past the pooled scratch's 2^17-entry bound: huffman_encode
  // hands the input to the reference encoder, which is therefore production
  // code. Symbols sit at the top of the alphabet, including its last entry.
  const std::uint32_t alphabet = (1u << 17) + 1;
  Rng rng(131073);
  std::vector<std::uint32_t> syms;
  for (int i = 0; i < 20000; ++i)
    syms.push_back(alphabet - 1 - static_cast<std::uint32_t>(
                                      rng.next_below(1 + rng.next_below(300))));
  expect_encoders_agree(syms, alphabet, "alphabet past scratch");
}

TEST(HuffmanEncoderDifferential, FibonacciDepthForcesKraftFixup) {
  // Fibonacci frequencies drive depth past kMaxHuffmanBits, so the Moffat
  // pass bails to the reference heap builder and its Kraft fix-up; the
  // fallback must still be byte-identical.
  const int n = 48;
  Rng rng(17);
  std::vector<std::uint32_t> syms;
  std::uint64_t a = 1, b = 1;
  for (int i = 0; i < n; ++i) {
    for (std::uint64_t k = 0; k < std::min<std::uint64_t>(a, 400); ++k)
      syms.push_back(static_cast<std::uint32_t>(i));
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  std::shuffle(syms.begin(), syms.end(),
               std::mt19937_64(rng.next_below(1u << 30)));
  expect_encoders_agree(syms, n, "fibonacci depth");
}

TEST(HuffmanEncoderDifferential, PowerOfTwoFrequenciesStayOnMoffatPath) {
  // Distinct power-of-two counts: every merge is tie-free, so this stream
  // exercises the in-place two-queue path end to end (no fallback).
  std::vector<std::uint32_t> syms;
  for (int s = 0; s < 12; ++s)
    for (int k = 0; k < (1 << s); ++k)
      syms.push_back(static_cast<std::uint32_t>(s * 3));
  Rng rng(91);
  std::shuffle(syms.begin(), syms.end(), std::mt19937_64(rng.next_below(999)));
  expect_encoders_agree(syms, 64, "power-of-two freqs");
}

TEST(HuffmanEncoderDifferential, RandomSweep) {
  Rng rng(424242);
  for (int round = 0; round < 60; ++round) {
    const std::uint32_t alphabet = 2 + rng.next_below(70000);
    const int count = static_cast<int>(rng.next_below(6000));
    std::vector<std::uint32_t> syms;
    syms.reserve(count);
    // Alternate skew regimes: uniform, concentrated, tie-heavy (many
    // count-1 symbols, the regime most likely to hit the Moffat fallback).
    const int regime = round % 3;
    for (int i = 0; i < count; ++i) {
      std::uint32_t s = rng.next_below(alphabet);
      if (regime == 1) s = s % (1 + alphabet / 32);
      syms.push_back(s);
    }
    const Bytes hot = huffman_encode(syms, alphabet);
    const Bytes ref = huffman_encode_reference(syms, alphabet);
    ASSERT_EQ(hot, ref) << "round " << round << " alphabet " << alphabet;
    ASSERT_EQ(huffman_decode(hot), syms) << "round " << round;
  }
}

// Property sweep over random alphabets and sizes.
class HuffmanFuzz
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(HuffmanFuzz, RandomRoundTrip) {
  const auto [seed, alphabet] = GetParam();
  Rng rng(seed);
  std::vector<std::uint32_t> syms;
  const int n = 1000 + static_cast<int>(rng.next_below(20000));
  for (int i = 0; i < n; ++i)
    syms.push_back(static_cast<std::uint32_t>(rng.next_below(alphabet)));
  EXPECT_EQ(roundtrip(syms, alphabet), syms);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndAlphabets, HuffmanFuzz,
    ::testing::Combine(::testing::Values(1, 7, 21, 77),
                       ::testing::Values(2, 3, 17, 256, 4096)));

}  // namespace
}  // namespace eblcio
