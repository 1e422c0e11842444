#include "compressors/lossless_fpzip.h"

#include <array>
#include <bit>
#include <cstring>
#include <vector>

#include "codec/bitstream.h"
#include "codec/huffman.h"
#include "codec/intcodec.h"
#include "compressors/lossless_common.h"

namespace eblcio {
namespace {

// Monotonic integer mapping of IEEE bit patterns: negative floats map below
// positive ones so integer arithmetic approximates value arithmetic.
// Prediction arithmetic wraps mod 2^64 (reversible), so overflow is benign.
std::uint64_t map_bits_f32(float v) {
  std::uint32_t b;
  std::memcpy(&b, &v, 4);
  const std::uint32_t m = (b & 0x80000000u) ? ~b : (b | 0x80000000u);
  return m;
}
float unmap_bits_f32(std::uint64_t m64) {
  const auto m = static_cast<std::uint32_t>(m64);
  const std::uint32_t b = (m & 0x80000000u) ? (m & 0x7fffffffu) : ~m;
  float v;
  std::memcpy(&v, &b, 4);
  return v;
}

std::uint64_t map_bits_f64(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, 8);
  return (b & 0x8000000000000000ull) ? ~b : (b | 0x8000000000000000ull);
}
double unmap_bits_f64(std::uint64_t m) {
  const std::uint64_t b =
      (m & 0x8000000000000000ull) ? (m & 0x7fffffffffffffffull) : ~m;
  double v;
  std::memcpy(&v, &b, 8);
  return v;
}

// 1D-3D Lorenzo in the mapped integer domain; the same inclusion-exclusion
// machinery as SZ2 but over exact integers.
struct IntGrid {
  std::array<std::size_t, 4> dim{1, 1, 1, 1};
  std::array<std::size_t, 4> stride{};

  static IntGrid from_dims(const std::vector<std::size_t>& dims) {
    IntGrid g;
    const int pad = 4 - static_cast<int>(dims.size());
    for (std::size_t i = 0; i < dims.size(); ++i) g.dim[pad + i] = dims[i];
    std::size_t acc = 1;
    for (int d = 3; d >= 0; --d) {
      g.stride[d] = acc;
      acc *= g.dim[d];
    }
    return g;
  }
};

std::uint64_t lorenzo_int(const IntGrid& g, const std::uint64_t* v,
                          const std::array<std::size_t, 4>& c,
                          std::size_t lin) {
  std::uint64_t pred = 0;
  for (unsigned mask = 1; mask < 16; ++mask) {
    bool ok = true;
    std::size_t off = 0;
    for (int d = 0; d < 4; ++d) {
      if (!(mask & (1u << d))) continue;
      if (c[d] == 0 || g.dim[d] == 1) {
        ok = false;
        break;
      }
      off += g.stride[d];
    }
    if (!ok) continue;
    pred += (std::popcount(mask) & 1) ? v[lin - off] : -v[lin - off];
  }
  return pred;
}

// Residual coding: Huffman over the bit-length class, then the raw
// (length-1) low bits of the zigzagged residual.
struct ResidualStream {
  std::vector<std::uint32_t> classes;
  BitWriter bits;
};

void emit_residual(ResidualStream& rs, std::uint64_t resid) {
  const std::uint64_t z = zigzag_encode(static_cast<std::int64_t>(resid));
  const int len = z == 0 ? 0 : std::bit_width(z);
  rs.classes.push_back(static_cast<std::uint32_t>(len));
  if (len > 1) rs.bits.put_bits(z, len - 1);  // top bit implicit
}

std::uint64_t read_residual(std::uint32_t cls, BitReader& br) {
  if (cls == 0) return 0;
  std::uint64_t z = br.get_bits(static_cast<int>(cls) - 1);
  z |= std::uint64_t{1} << (cls - 1);
  return static_cast<std::uint64_t>(zigzag_decode(z));
}

template <typename T>
Bytes fpzip_compress_impl(const Field& field) {
  const NdArray<T>& arr = field.as<T>();
  const IntGrid g = IntGrid::from_dims(arr.shape().dims_vector());
  const std::size_t n = arr.num_elements();

  std::vector<std::uint64_t> mapped(n);
  for (std::size_t i = 0; i < n; ++i) {
    if constexpr (sizeof(T) == 4)
      mapped[i] = map_bits_f32(arr[i]);
    else
      mapped[i] = map_bits_f64(arr[i]);
  }

  ResidualStream rs;
  rs.classes.reserve(n);
  std::array<std::size_t, 4> c{};
  std::size_t lin = 0;
  for (c[0] = 0; c[0] < g.dim[0]; ++c[0])
    for (c[1] = 0; c[1] < g.dim[1]; ++c[1])
      for (c[2] = 0; c[2] < g.dim[2]; ++c[2])
        for (c[3] = 0; c[3] < g.dim[3]; ++c[3], ++lin)
          emit_residual(rs, mapped[lin] - lorenzo_int(g, mapped.data(), c,
                                                      lin));

  Bytes out;
  Bytes class_blob = huffman_encode(rs.classes, 65);
  append_pod<std::uint64_t>(out, class_blob.size());
  append_bytes(out, class_blob);
  Bytes bits = rs.bits.take();
  append_pod<std::uint64_t>(out, bits.size());
  append_bytes(out, bits);
  return out;
}

// Decodes into the header.num_elements() elements at `y`, each written once.
template <typename T>
void fpzip_decompress_impl(const BlobHeader& header,
                           std::span<const std::byte> payload, T* y) {
  ByteReader r(payload);
  const auto class_size = r.read_pod<std::uint64_t>();
  const auto classes = huffman_decode(r.read_bytes(class_size));
  const auto bits_size = r.read_pod<std::uint64_t>();
  BitReader br(r.read_bytes(bits_size));

  const IntGrid g = IntGrid::from_dims(header.dims);
  const std::size_t n = header.num_elements();
  EBLCIO_CHECK_STREAM(classes.size() == n, "fpzip: class count mismatch");

  std::vector<std::uint64_t> mapped(n);
  std::array<std::size_t, 4> c{};
  std::size_t lin = 0;
  for (c[0] = 0; c[0] < g.dim[0]; ++c[0])
    for (c[1] = 0; c[1] < g.dim[1]; ++c[1])
      for (c[2] = 0; c[2] < g.dim[2]; ++c[2])
        for (c[3] = 0; c[3] < g.dim[3]; ++c[3], ++lin) {
          const std::uint64_t resid = read_residual(classes[lin], br);
          mapped[lin] = lorenzo_int(g, mapped.data(), c, lin) + resid;
        }

  for (std::size_t i = 0; i < n; ++i) {
    if constexpr (sizeof(T) == 4)
      y[i] = unmap_bits_f32(mapped[i]);
    else
      y[i] = unmap_bits_f64(mapped[i]);
  }
}

}  // namespace

Bytes FpzipLikeCompressor::compress(const Field& field,
                                    const CompressOptions& opt,
                                    Field* /*recon*/) {
  Bytes out;
  lossless_header(name(), field, opt).encode(out);
  Bytes payload = field.dtype() == DType::kFloat32
                      ? fpzip_compress_impl<float>(field)
                      : fpzip_compress_impl<double>(field);
  append_bytes(out, payload);
  return out;
}

std::size_t FpzipLikeCompressor::decompress_into(
    std::span<const std::byte> blob, Field& out, std::size_t row_start,
    const Window& window, int /*threads*/) {
  ByteReader r(blob);
  const BlobHeader header = BlobHeader::decode(r);
  return decode_window_into(
      header, out, row_start, window, [&](Field& dst, std::size_t offset) {
        dst.visit([&](auto& arr) {
          fpzip_decompress_impl(header, r.remaining(), arr.data() + offset);
        });
      });
}

}  // namespace eblcio
