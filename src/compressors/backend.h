// Shared entropy backend for the SZ-family codecs: canonical Huffman over
// the quantization-code stream, optionally followed by the deflate-class
// lossless pass (the "Huffman + Zstd" stage of SZ2/SZ3/QoZ). Emits whichever
// of the two encodings is smaller, with a tag byte.
//
// The composed-codec framework widens the menu: encode_codes_with() emits
// any EncoderId behind the same [tag][u64 size][payload] framing, and
// decode_code_stream() decodes every tag — so legacy SZ2/SZ3 blobs (tags 0
// and 1) and composed blobs share one decoder.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "codec/huffman.h"
#include "codec/lz77.h"
#include "common/buffer_pool.h"
#include "common/bytes.h"
#include "common/error.h"
#include "compressors/components.h"

namespace eblcio {

// Wire tags for the code-stream blob. 0 and 1 predate the composed
// framework and are frozen by the reference blobs; never renumber.
inline constexpr std::uint8_t kBackendHuffman = 0;
inline constexpr std::uint8_t kBackendHuffmanLz = 1;
inline constexpr std::uint8_t kBackendLzRaw = 2;    // LZ77 over packed codes
inline constexpr std::uint8_t kBackendRaw = 3;      // width-packed codes
// Same bitstream as kBackendHuffman, emitted by the composed `+huffman`
// encoder (kBackendHuffman is `+huffman-lut`); both decode through the LUT
// decoder.
inline constexpr std::uint8_t kBackendHuffmanCanonical = 4;

// Byte width of a packed code for `alphabet_size` symbols.
inline std::size_t raw_code_width(std::uint32_t alphabet_size) {
  if (alphabet_size <= (1u << 8)) return 1;
  if (alphabet_size <= (1u << 16)) return 2;
  return 4;
}

// Width-packed little-endian code stream: [u32 alphabet][u64 count][codes].
// The entropy-free baseline of the encoder menu (and the input to the
// LZ-only encoder).
inline Bytes pack_codes_raw(std::span<const std::uint32_t> codes,
                            std::uint32_t alphabet_size) {
  const std::size_t width = raw_code_width(alphabet_size);
  Bytes out = BufferPool::global().acquire(12 + width * codes.size());
  append_pod<std::uint32_t>(out, alphabet_size);
  append_pod<std::uint64_t>(out, codes.size());
  for (const std::uint32_t c : codes)
    for (std::size_t b = 0; b < width; ++b)
      out.push_back(static_cast<std::byte>((c >> (8 * b)) & 0xFFu));
  return out;
}

inline std::vector<std::uint32_t> unpack_codes_raw(
    std::span<const std::byte> blob) {
  ByteReader r(blob);
  const auto alphabet = r.read_pod<std::uint32_t>();
  EBLCIO_CHECK_STREAM(alphabet >= 1, "raw codes: bad alphabet");
  const std::size_t width = raw_code_width(alphabet);
  const auto count =
      r.read_count<std::uint64_t>(width, "raw codes: count exceeds payload");
  const auto payload = r.read_bytes(count * width);
  std::vector<std::uint32_t> codes(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::uint32_t c = 0;
    for (std::size_t b = 0; b < width; ++b)
      c |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(payload[i * width + b]))
           << (8 * b);
    EBLCIO_CHECK_STREAM(c < alphabet, "raw codes: symbol out of alphabet");
    codes[i] = c;
  }
  return codes;
}

// Note on the LZ stage cost: LZ over the Huffman blob is several times
// the Huffman pass itself and its result is discarded whenever Huffman
// alone is smaller. Sampling-based prescreens were tried and rejected —
// any fixed sample can misjudge a stream whose compressibility lies
// outside the sampled windows, and the emitted branch (hence the blob)
// must not depend on a heuristic. Both stages always run, exactly as the
// reference SZ pipeline does.
inline Bytes encode_code_stream(const std::vector<std::uint32_t>& codes,
                                std::uint32_t alphabet_size) {
  Bytes huff = huffman_encode(codes, alphabet_size);
  Bytes lz = lz_compress(huff);
  const std::size_t kept = std::min(lz.size(), huff.size());
  Bytes out = BufferPool::global().acquire(9 + kept);
  if (lz.size() < huff.size()) {
    append_pod<std::uint8_t>(out, kBackendHuffmanLz);
    append_pod<std::uint64_t>(out, lz.size());
    append_bytes(out, lz);
  } else {
    append_pod<std::uint8_t>(out, kBackendHuffman);
    append_pod<std::uint64_t>(out, huff.size());
    append_bytes(out, huff);
  }
  // Both stage buffers are dead once the winner is framed; recycling them
  // keeps steady-state zone compression allocation-free.
  BufferPool::global().release(std::move(huff));
  BufferPool::global().release(std::move(lz));
  return out;
}

// Frames `payload` behind its backend tag: [tag][u64 size][payload].
inline Bytes frame_code_blob(std::uint8_t tag, const Bytes& payload) {
  Bytes out = BufferPool::global().acquire(9 + payload.size());
  append_pod<std::uint8_t>(out, tag);
  append_pod<std::uint64_t>(out, payload.size());
  append_bytes(out, payload);
  return out;
}

// Encodes the code stream with a *specific* encoder component (the
// composed framework's encoder axis). kHuffmanLz delegates to
// encode_code_stream so composed:..+huffman-lz blobs carry the identical
// smaller-of-two stage the legacy codecs emit.
inline Bytes encode_codes_with(EncoderId enc,
                               const std::vector<std::uint32_t>& codes,
                               std::uint32_t alphabet_size) {
  switch (enc) {
    case EncoderId::kHuffman:
    case EncoderId::kHuffmanLut: {
      Bytes huff = huffman_encode(codes, alphabet_size);
      Bytes out = frame_code_blob(enc == EncoderId::kHuffman
                                      ? kBackendHuffmanCanonical
                                      : kBackendHuffman,
                                  huff);
      BufferPool::global().release(std::move(huff));
      return out;
    }
    case EncoderId::kHuffmanLz:
      return encode_code_stream(codes, alphabet_size);
    case EncoderId::kLz: {
      Bytes raw = pack_codes_raw(codes, alphabet_size);
      Bytes lz = lz_compress(raw);
      Bytes out = frame_code_blob(kBackendLzRaw, lz);
      BufferPool::global().release(std::move(raw));
      BufferPool::global().release(std::move(lz));
      return out;
    }
    case EncoderId::kRaw: {
      Bytes raw = pack_codes_raw(codes, alphabet_size);
      Bytes out = frame_code_blob(kBackendRaw, raw);
      BufferPool::global().release(std::move(raw));
      return out;
    }
  }
  throw InvalidArgument("bad encoder id");
}

inline std::vector<std::uint32_t> decode_code_stream(ByteReader& r) {
  const auto backend = r.read_pod<std::uint8_t>();
  const auto size = r.read_pod<std::uint64_t>();
  auto blob = r.read_bytes(size);
  switch (backend) {
    case kBackendHuffman:
    case kBackendHuffmanCanonical:
      return huffman_decode(blob);
    case kBackendHuffmanLz: {
      const Bytes huff = lz_decompress(blob);
      return huffman_decode(huff);
    }
    case kBackendLzRaw: {
      const Bytes raw = lz_decompress(blob);
      return unpack_codes_raw(raw);
    }
    case kBackendRaw:
      return unpack_codes_raw(blob);
    default:
      throw CorruptStream("bad backend tag");
  }
}

inline void append_sized(Bytes& out, const Bytes& b) {
  append_pod<std::uint64_t>(out, b.size());
  append_bytes(out, b);
}

inline std::span<const std::byte> read_sized(ByteReader& r) {
  const auto size = r.read_pod<std::uint64_t>();
  return r.read_bytes(size);
}

}  // namespace eblcio
