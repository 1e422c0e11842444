// Canonical Huffman coding over an arbitrary 32-bit symbol alphabet.
//
// This is the entropy stage shared by the SZ-family compressors (SZ2, SZ3,
// QoZ encode their quantization codes with it, exactly as the reference
// implementations do) and by the deflate-class lossless codec.
//
// The encoded blob is self-describing: a header carries the symbol count,
// alphabet size and run-length-coded code lengths, followed by the packed
// code bits, so decode needs nothing but the blob.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"

namespace eblcio {

// Maximum code length produced by the canonical builder. Lengths beyond the
// limit are flattened with a Kraft-sum fix-up.
inline constexpr int kMaxHuffmanBits = 32;

// Width of the single-level decode lookup table: codes up to this length
// (the overwhelming majority on SZ-style quantization-code streams) decode
// from one table load, which emits up to four consecutive codes that fit
// the width together; longer codes fall back to the canonical per-bit
// walk. Must not exceed BitReader::kPeekMax.
inline constexpr int kHuffmanLutBits = 11;

// Computes canonical code lengths for `freqs` (index = symbol). Zero
// frequency yields length 0 (symbol absent).
std::vector<std::uint8_t> huffman_code_lengths(
    std::span<const std::uint64_t> freqs);

// Encodes `symbols` (each < alphabet_size) into a self-describing blob.
// Hot path: split-counter histogram, pooled thread-local scratch, two-queue
// Moffat length construction, and a batched 64-bit emit accumulator (see
// src/codec/README.md, "Encoder internals").
Bytes huffman_encode(std::span<const std::uint32_t> symbols,
                     std::uint32_t alphabet_size);

// Straight-line reference encoder over the same blob format: dense
// histogram, heap-based length build, per-symbol BitWriter emit. Kept as
// the differential-testing referee for huffman_encode — the two must
// produce byte-identical blobs on every input — and as the fallback for
// inputs outside the fast path's scratch bounds; not used on any hot path.
Bytes huffman_encode_reference(std::span<const std::uint32_t> symbols,
                               std::uint32_t alphabet_size);

// Decodes a blob produced by huffman_encode (table-driven fast path: an
// 11-bit table whose entries pack the canonical ranks of up to four codes;
// see src/codec/README.md, "Table-driven Huffman decode").
std::vector<std::uint32_t> huffman_decode(std::span<const std::byte> blob);

// Per-bit canonical reference decoder over the same blob format. Kept as
// the differential-testing referee for the table-driven decoder (and as
// readable documentation of the canonical walk); not used on any hot path.
std::vector<std::uint32_t> huffman_decode_reference(
    std::span<const std::byte> blob);

}  // namespace eblcio
