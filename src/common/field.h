// Type-erased scientific field: an NdArray of float or double plus metadata.
//
// This is the unit of data every compressor, I/O tool and metric operates
// on, mirroring the role of a single SDRBench field (e.g. one CESM variable
// or one NYX density snapshot).
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "common/ndarray.h"

namespace eblcio {

enum class DType : std::uint8_t { kFloat32 = 0, kFloat64 = 1 };

inline std::size_t dtype_size(DType t) {
  return t == DType::kFloat32 ? 4 : 8;
}
inline const char* dtype_name(DType t) {
  return t == DType::kFloat32 ? "float" : "double";
}

// A named multi-dimensional floating-point field.
class Field {
 public:
  Field() = default;
  Field(std::string name, NdArray<float> data)
      : name_(std::move(name)), data_(std::move(data)) {}
  Field(std::string name, NdArray<double> data)
      : name_(std::move(name)), data_(std::move(data)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  DType dtype() const {
    return std::holds_alternative<NdArray<float>>(data_) ? DType::kFloat32
                                                         : DType::kFloat64;
  }
  const Shape& shape() const;
  int ndims() const { return shape().ndims(); }
  std::size_t num_elements() const { return shape().num_elements(); }
  std::size_t size_bytes() const {
    return num_elements() * dtype_size(dtype());
  }

  template <typename T>
  const NdArray<T>& as() const {
    EBLCIO_CHECK_ARG(std::holds_alternative<NdArray<T>>(data_),
                     "field dtype mismatch");
    return std::get<NdArray<T>>(data_);
  }
  template <typename T>
  NdArray<T>& as() {
    EBLCIO_CHECK_ARG(std::holds_alternative<NdArray<T>>(data_),
                     "field dtype mismatch");
    return std::get<NdArray<T>>(data_);
  }

  // Raw bytes of the underlying buffer (for I/O and lossless codecs).
  std::span<const std::byte> bytes() const;

  // Value range of the field; used for value-range relative error bounds.
  struct Range {
    double min = 0.0;
    double max = 0.0;
    double span() const { return max - min; }
  };
  Range value_range() const;

  // Visit the underlying typed array: f(NdArray<T>&), const on a const
  // field.
  template <typename F>
  decltype(auto) visit(F&& f) const {
    return std::visit(std::forward<F>(f), data_);
  }
  template <typename F>
  decltype(auto) visit(F&& f) {
    return std::visit(std::forward<F>(f), data_);
  }

 private:
  std::string name_;
  std::variant<NdArray<float>, NdArray<double>> data_;
};

// Rebuilds a field from the exact raw bytes of its buffer (a container
// dataset). Throws CorruptStream unless `dims` is a valid shape whose byte
// size is raw.size().
Field field_from_bytes(std::string name, DType dtype,
                       std::span<const std::size_t> dims,
                       std::span<const std::byte> raw);

// A field of `dtype` shaped `shape` whose elements start unwritten
// (NdArray's unfilled constructor), for a decoder that writes every one.
Field unfilled_field(std::string name, DType dtype, const Shape& shape);

// Copies `raw`, whole elements of dst's dtype, into `dst` from element
// `offset` on. Throws CorruptStream, before writing, unless they fit.
void copy_into(std::span<const std::byte> raw, Field& dst,
               std::size_t offset);

// The centered sub-box of `field` with at most `max_edge` elements per
// axis: a sample whose trials cost the same on any field size.
Field centered_sample(const Field& field, std::size_t max_edge);

}  // namespace eblcio
