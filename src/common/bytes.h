// Little-endian POD serialization helpers used by every on-disk/in-blob
// format in the library (compressed headers, the I/O tools' containers).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/error.h"

namespace eblcio {

using Bytes = std::vector<std::byte>;

// Appends the raw little-endian representation of a trivially copyable value.
template <typename T>
void append_pod(Bytes& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

inline void append_bytes(Bytes& out, std::span<const std::byte> data) {
  out.insert(out.end(), data.begin(), data.end());
}

inline void append_string(Bytes& out, const std::string& s) {
  append_pod<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), reinterpret_cast<const std::byte*>(s.data()),
             reinterpret_cast<const std::byte*>(s.data() + s.size()));
}

// Sequential reader over a byte span; throws CorruptStream on underrun.
// Every bound is checked as `n <= size - pos` (pos never passes size), so
// a forged length near 2^64 cannot wrap the check.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  template <typename T>
  T read_pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    skip(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + pos_ - sizeof(T), sizeof(T));
    return v;
  }

  // Reads a count of items that each take at least `min_item_bytes` of
  // the bytes left, and throws CorruptStream(what) unless they can hold
  // it. The one bound a parser puts on a count before sizing anything
  // from it; the division keeps a count near 2^64 from wrapping.
  template <typename T>
  T read_count(std::size_t min_item_bytes, std::string_view what) {
    const T count = read_pod<T>();
    EBLCIO_CHECK_STREAM(count <= remaining().size() / min_item_bytes,
                        std::string(what));
    return count;
  }

  std::string read_string() {
    const auto s = read_bytes(read_pod<std::uint32_t>());
    return std::string(reinterpret_cast<const char*>(s.data()), s.size());
  }

  std::span<const std::byte> read_bytes(std::size_t n) {
    skip(n);
    return data_.subspan(pos_ - n, n);
  }

  void skip(std::size_t n) {
    EBLCIO_CHECK_STREAM(n <= data_.size() - pos_, "unexpected end of stream");
    pos_ += n;
  }

  std::span<const std::byte> remaining() const { return data_.subspan(pos_); }
  std::size_t pos() const { return pos_; }
  bool at_end() const { return pos_ == data_.size(); }

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace eblcio
