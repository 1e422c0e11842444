#include "compressors/lossless_fpc.h"

#include <cstring>
#include <vector>

#include "compressors/lossless_common.h"

namespace eblcio {
namespace {

// Table sizes follow the original paper's defaults (log2 size 16).
constexpr std::size_t kTableBits = 16;
constexpr std::size_t kTableSize = 1u << kTableBits;

struct FpcState {
  std::vector<std::uint64_t> fcm = std::vector<std::uint64_t>(kTableSize, 0);
  std::vector<std::uint64_t> dfcm = std::vector<std::uint64_t>(kTableSize, 0);
  std::uint64_t fcm_hash = 0;
  std::uint64_t dfcm_hash = 0;
  std::uint64_t last = 0;

  std::uint64_t predict_fcm() const { return fcm[fcm_hash]; }
  std::uint64_t predict_dfcm() const { return dfcm[dfcm_hash] + last; }

  void update(std::uint64_t value) {
    fcm[fcm_hash] = value;
    fcm_hash = ((fcm_hash << 6) ^ (value >> 48)) & (kTableSize - 1);
    const std::uint64_t delta = value - last;
    dfcm[dfcm_hash] = delta;
    dfcm_hash = ((dfcm_hash << 2) ^ (delta >> 40)) & (kTableSize - 1);
    last = value;
  }
};

int leading_zero_bytes(std::uint64_t v) {
  int n = 0;
  for (int b = 7; b >= 0; --b) {
    if ((v >> (8 * b)) & 0xffu) break;
    ++n;
  }
  return n;
}

// FPC packs one header byte per pair of values: for each value a selector
// bit (FCM vs DFCM) and a 3-bit leading-zero-byte count.
Bytes fpc_compress_words(std::span<const std::byte> raw) {
  const std::size_t nwords = (raw.size() + 7) / 8;
  std::vector<std::uint64_t> words(nwords, 0);
  std::memcpy(words.data(), raw.data(), raw.size());

  FpcState st;
  Bytes headers, payload;
  headers.reserve((nwords + 1) / 2);
  payload.reserve(raw.size() / 2);

  std::uint8_t header = 0;
  for (std::size_t i = 0; i < nwords; ++i) {
    const std::uint64_t v = words[i];
    const std::uint64_t pf = st.predict_fcm();
    const std::uint64_t pd = st.predict_dfcm();
    const std::uint64_t xf = v ^ pf;
    const std::uint64_t xd = v ^ pd;
    const bool use_dfcm = xd < xf;
    const std::uint64_t resid = use_dfcm ? xd : xf;
    // 3-bit leading-zero-byte code; FPC cannot encode exactly 4, so 4 is
    // demoted to 3 (one extra stored byte). Counts {0,1,2,3,5,6,7,8} map to
    // codes {0..7}.
    int lzb = leading_zero_bytes(resid);
    if (lzb == 4) lzb = 3;
    const int code3 = lzb <= 3 ? lzb : lzb - 1;
    const auto code = static_cast<std::uint8_t>((use_dfcm ? 8 : 0) | code3);
    const int stored_bytes = 8 - lzb;
    for (int b = 0; b < stored_bytes; ++b)
      payload.push_back(static_cast<std::byte>((resid >> (8 * b)) & 0xffu));

    if (i % 2 == 0) {
      header = code;
    } else {
      headers.push_back(static_cast<std::byte>(header | (code << 4)));
    }
    st.update(v);
  }
  if (nwords % 2 == 1) headers.push_back(static_cast<std::byte>(header));

  Bytes out;
  append_pod<std::uint64_t>(out, raw.size());
  append_pod<std::uint64_t>(out, headers.size());
  append_bytes(out, headers);
  append_pod<std::uint64_t>(out, payload.size());
  append_bytes(out, payload);
  return out;
}

// Decodes the `expected` raw bytes the blob header promises. The stream's
// own size must equal it, and each of its words needs half a header byte,
// so both are checked before the word buffer is sized.
Bytes fpc_decompress_words(std::span<const std::byte> blob,
                           std::size_t expected) {
  ByteReader r(blob);
  const auto raw_size = r.read_pod<std::uint64_t>();
  EBLCIO_CHECK_STREAM(raw_size == expected,
                      "FPC: raw size does not match the header");
  const auto headers_size = r.read_pod<std::uint64_t>();
  auto headers = r.read_bytes(headers_size);
  const auto payload_size = r.read_pod<std::uint64_t>();
  auto payload = r.read_bytes(payload_size);

  const std::size_t nwords = (raw_size + 7) / 8;
  EBLCIO_CHECK_STREAM(nwords <= 2 * headers.size(), "FPC: header underrun");
  std::vector<std::uint64_t> words(nwords, 0);

  FpcState st;
  std::size_t ppos = 0;
  for (std::size_t i = 0; i < nwords; ++i) {
    const auto hb = static_cast<std::uint8_t>(headers[i / 2]);
    const std::uint8_t code = (i % 2 == 0) ? (hb & 0x0f) : (hb >> 4);
    const bool use_dfcm = code & 8;
    const int code3 = code & 7;
    const int lzb = code3 <= 3 ? code3 : code3 + 1;
    const int nbytes = 8 - lzb;
    std::uint64_t resid = 0;
    for (int b = 0; b < nbytes; ++b) {
      EBLCIO_CHECK_STREAM(ppos < payload.size(), "FPC: payload underrun");
      resid |= static_cast<std::uint64_t>(
                   static_cast<std::uint8_t>(payload[ppos++]))
               << (8 * b);
    }
    const std::uint64_t pred =
        use_dfcm ? st.predict_dfcm() : st.predict_fcm();
    const std::uint64_t v = pred ^ resid;
    words[i] = v;
    st.update(v);
  }

  Bytes raw(raw_size);
  std::memcpy(raw.data(), words.data(), raw_size);
  return raw;
}

}  // namespace

Bytes FpcCompressor::compress(const Field& field, const CompressOptions& opt,
                              Field* /*recon*/) {
  Bytes out;
  lossless_header(name(), field, opt).encode(out);
  Bytes payload = fpc_compress_words(field.bytes());
  append_bytes(out, payload);
  return out;
}

std::size_t FpcCompressor::decompress_into(
    std::span<const std::byte> blob, Field& out, std::size_t row_start,
    const Window& window, int /*threads*/) {
  return decompress_raw_into(
      blob, out, row_start, window,
      [](const BlobHeader& header, std::span<const std::byte> p) {
        return fpc_decompress_words(
            p, header.num_elements() * dtype_size(header.dtype));
      });
}

}  // namespace eblcio
