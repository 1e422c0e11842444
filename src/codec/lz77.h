// Deflate-class LZ77 codec: hash-chain match finder + Huffman-coded tokens.
//
// Serves two roles from the paper:
//  * as the standalone "Zstd-class" lossless baseline in Fig. 1, and
//  * as the lossless backend the SZ-family compressors run after Huffman
//    coding their quantization codes (SZ2/SZ3 pipeline: predict -> quantize
//    -> Huffman -> Zstd).
#pragma once

#include <cstddef>
#include <span>

#include "common/bytes.h"

namespace eblcio {

// The window (64 KiB) and the minimum match (4 bytes) are fixed.
struct LzOptions {
  // Maximum hash-chain probes per position; higher = better ratio, slower.
  int max_probes = 32;
};

// Compresses `data` into a self-describing blob.
Bytes lz_compress(std::span<const std::byte> data, const LzOptions& opt = {});

// Decompresses a blob produced by lz_compress.
Bytes lz_decompress(std::span<const std::byte> blob);

}  // namespace eblcio
