#include "compressors/szx.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "codec/bitstream.h"
#include "common/error.h"
#include "compressors/chunking.h"

namespace eblcio {
namespace {

constexpr std::size_t kBlock = 128;

template <typename T>
Bytes szx_payload_compress(const Field& field, const BlobHeader& header) {
  const NdArray<T>& arr = field.as<T>();
  const T* x = arr.data();
  const std::size_t n = arr.num_elements();
  const double eb = header.abs_error_bound;
  const double eb2 = 2.0 * eb;
  const std::size_t nblocks = (n + kBlock - 1) / kBlock;

  Bytes flags;                 // 1 byte per block: 0 = coded, 1 = constant,
                               // 2 = raw
  Bytes side;                  // per-block metadata
  BitWriter payload;

  std::array<std::uint64_t, kBlock> qbuf;
  auto emit_raw = [&payload](const T* vals, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      if constexpr (sizeof(T) == 4) {
        std::uint32_t bits;
        std::memcpy(&bits, &vals[i], 4);
        payload.put_bits(bits, 32);
      } else {
        std::uint64_t bits;
        std::memcpy(&bits, &vals[i], 8);
        payload.put_bits(bits, 64);
      }
    }
  };

  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::size_t lo = b * kBlock;
    const std::size_t hi = std::min(n, lo + kBlock);
    // The min/max scan also rejects NaN and +-Inf: a NaN never moves
    // bmin/bmax, so it would decode as an in-range value.
    double bmin = x[lo], bmax = x[lo];
    bool finite = true;
    for (std::size_t i = lo; i < hi; ++i) {
      const auto v = static_cast<double>(x[i]);
      bmin = std::min(bmin, v);
      bmax = std::max(bmax, v);
      finite &= std::fabs(v) <= std::numeric_limits<double>::max();
    }
    if (!finite) throw Unsupported("SZx does not support non-finite values");
    const double range = bmax - bmin;
    if (range <= eb2) {
      // Constant block — but only if the midpoint, *as stored in T*, still
      // satisfies the bound for the extremes (the cast can push it out at
      // bounds near T's precision).
      const double mid = 0.5 * (bmin + bmax);
      const auto mid_t = static_cast<double>(static_cast<T>(mid));
      if (bmax - mid_t <= eb && mid_t - bmin <= eb) {
        flags.push_back(static_cast<std::byte>(1));
        append_pod<double>(side, mid);
        continue;
      }
    }
    // Bits needed so that q_max = round(range / eb2) fits.
    int width = 0;
    if (eb2 > 0.0) {
      const double qmax = range / eb2 + 1.0;
      width = std::bit_width(static_cast<std::uint64_t>(qmax) + 1);
    }
    const int raw_bits = static_cast<int>(sizeof(T)) * 8;
    bool codable = eb2 > 0.0 && width < raw_bits;
    if (codable) {
      // Verify every reconstruction against the bound after the T cast;
      // one failure demotes the whole block to raw storage.
      for (std::size_t i = lo; i < hi && codable; ++i) {
        const double xv = static_cast<double>(x[i]);
        const auto q = static_cast<std::uint64_t>((xv - bmin) / eb2 + 0.5);
        const auto y =
            static_cast<double>(static_cast<T>(bmin + static_cast<double>(q) * eb2));
        if (std::fabs(y - xv) > eb) codable = false;
        qbuf[i - lo] = q;
      }
    }
    if (!codable) {
      // Bound tighter than the type's precision: store IEEE bits verbatim.
      flags.push_back(static_cast<std::byte>(2));
      emit_raw(x + lo, hi - lo);
      continue;
    }
    flags.push_back(static_cast<std::byte>(0));
    append_pod<double>(side, bmin);
    append_pod<std::uint8_t>(side, static_cast<std::uint8_t>(width));
    for (std::size_t i = lo; i < hi; ++i)
      payload.put_bits(qbuf[i - lo], width);
  }

  Bytes out;
  append_pod<std::uint64_t>(out, side.size());
  append_bytes(out, flags);
  append_bytes(out, side);
  Bytes bits = payload.take();
  append_pod<std::uint64_t>(out, bits.size());
  append_bytes(out, bits);
  return out;
}

// Writes every y[i] of the header's n elements once, block by block.
template <typename T>
void szx_payload_decompress(const BlobHeader& header,
                            std::span<const std::byte> payload, T* y) {
  const std::size_t n = header.num_elements();
  const double eb2 = 2.0 * header.abs_error_bound;
  const std::size_t nblocks = (n + kBlock - 1) / kBlock;

  ByteReader r(payload);
  const auto side_size = r.read_pod<std::uint64_t>();
  auto flags = r.read_bytes(nblocks);
  ByteReader side(r.read_bytes(side_size));
  const auto bits_size = r.read_pod<std::uint64_t>();
  BitReader bits(r.read_bytes(bits_size));

  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::size_t lo = b * kBlock;
    const std::size_t hi = std::min(n, lo + kBlock);
    switch (static_cast<std::uint8_t>(flags[b])) {
      case 1: {
        const T v = static_cast<T>(side.read_pod<double>());
        for (std::size_t i = lo; i < hi; ++i) y[i] = v;
        break;
      }
      case 2: {
        for (std::size_t i = lo; i < hi; ++i) {
          if constexpr (sizeof(T) == 4) {
            const auto raw = static_cast<std::uint32_t>(bits.get_bits(32));
            std::memcpy(&y[i], &raw, 4);
          } else {
            const std::uint64_t raw = bits.get_bits(64);
            std::memcpy(&y[i], &raw, 8);
          }
        }
        break;
      }
      case 0: {
        const double bmin = side.read_pod<double>();
        const int width = side.read_pod<std::uint8_t>();
        for (std::size_t i = lo; i < hi; ++i) {
          const std::uint64_t q = bits.get_bits(width);
          y[i] = static_cast<T>(bmin + static_cast<double>(q) * eb2);
        }
        break;
      }
      default:
        throw CorruptStream("SZx: bad block flag");
    }
  }
}

Bytes payload_compress(const Field& field, const BlobHeader& header,
                       Field* /*recon*/) {
  return field.dtype() == DType::kFloat32
             ? szx_payload_compress<float>(field, header)
             : szx_payload_compress<double>(field, header);
}

void payload_decompress(const BlobHeader& header,
                        std::span<const std::byte> payload, Field& out,
                        std::size_t offset) {
  out.visit([&](auto& arr) {
    szx_payload_decompress(header, payload, arr.data() + offset);
  });
}

}  // namespace

Bytes SzxCompressor::compress(const Field& field, const CompressOptions& opt,
                              Field* /*recon*/) {
  EBLCIO_CHECK_ARG(opt.mode != BoundMode::kLossless,
                   "SZx is an error-bounded lossy compressor");
  return compress_chunked(lossy_header(name(), field, opt), field, opt,
                          payload_compress);
}

std::size_t SzxCompressor::decompress_into(std::span<const std::byte> blob,
                                           Field& out, std::size_t row_start,
                                           const Window& window, int threads) {
  return decompress_chunked_into(blob, threads, payload_decompress, out,
                                 row_start, window);
}

}  // namespace eblcio
