// Uniform compressor API and registry — the role LibPressio plays in the
// paper's harness (Sec. IV-A): every codec, lossy or lossless, is driven
// through this one interface.
//
// Compressed blobs are self-describing: a common header records the codec
// id, dtype, dimensions and the error bound actually applied, so
// `decompress_any` can reconstruct a Field from a blob alone.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/field.h"
#include "common/region.h"

namespace eblcio {

// Error-bound interpretation. The paper uses value-range relative bounds
// throughout (its footnote 1); absolute bounds are provided for
// completeness, and lossless codecs ignore the bound.
enum class BoundMode : std::uint8_t {
  kValueRangeRel = 0,  // |x - x̂| <= eb * (max D - min D)
  kAbsolute = 1,       // |x - x̂| <= eb
  kLossless = 2,       // exact reconstruction
};

struct CompressOptions {
  BoundMode mode = BoundMode::kValueRangeRel;
  double error_bound = 1e-3;
  // 1 = serial; >1 = OpenMP-style parallel operation. Codecs honour this
  // with the same asymmetries the reference implementations have (e.g. ZFP
  // parallelizes compression only; see each codec's header).
  int threads = 1;
};

// Capabilities, mirroring the restrictions the paper notes in Sec. IV-C
// ("QoZ is not capable of compressing 1D data, and the OpenMP version of
// SZ2 is not capable of compressing 1D or 4D data").
struct CompressorCaps {
  bool lossless = false;
  int min_dims = 1;
  int max_dims = 4;
  // Dimensionalities the *parallel* mode supports (0 bit = unsupported).
  // Bit d-1 set => d-dimensional parallel compression supported.
  unsigned parallel_dims_mask = 0xF;
  // Whether decompression can use multiple threads.
  bool parallel_decompress = true;
};

class Compressor {
 public:
  virtual ~Compressor() = default;

  // Canonical codec name ("SZ2", "ZFP", ...).
  virtual std::string name() const = 0;
  virtual CompressorCaps caps() const = 0;

  // Compresses `field` into a self-describing blob. Throws Unsupported for
  // dimensionality/mode combinations the codec cannot handle.
  virtual Bytes compress(const Field& field, const CompressOptions& opt) = 0;

  // Reconstructs a field from a blob produced by this codec's compress().
  virtual Field decompress(std::span<const std::byte> blob,
                           int threads = 1) = 0;

  // Reconstructs only `box` (in the blob's own coordinates): bit-identical
  // to decompress() cropped to the box. Throws InvalidArgument when the box
  // does not lie inside the blob's dims, and otherwise exactly when
  // decompress() throws. The default is that full decode plus a crop;
  // codecs whose predictions let a box be rebuilt from part of the stream
  // override it. `reconstructed`, when non-null, receives the number of
  // elements the call reconstructed.
  virtual Field decompress_region(std::span<const std::byte> blob,
                                  const Region& box, int threads,
                                  std::size_t* reconstructed);

  // True if the codec can compress this field with these options.
  bool supports(const Field& field, const CompressOptions& opt) const;
};

// --- Blob framing shared by all codecs -----------------------------------

struct BlobHeader {
  std::string codec;
  DType dtype = DType::kFloat32;
  std::vector<std::size_t> dims;
  // Absolute error bound applied (0 for lossless), plus the requested
  // bound mode/value for bookkeeping.
  double abs_error_bound = 0.0;
  BoundMode requested_mode = BoundMode::kValueRangeRel;
  double requested_bound = 0.0;

  void encode(Bytes& out) const;
  static BlobHeader decode(ByteReader& r);

  std::size_t num_elements() const {
    std::size_t n = 1;
    for (auto d : dims) n *= d;
    return n;
  }
};

// Converts the requested bound to an absolute bound for `field`.
double absolute_bound_for(const Field& field, const CompressOptions& opt);

// The header an error-bounded lossy codec writes for `field`: its dtype
// and dims, absolute_bound_for's bound, and the requested mode and bound.
BlobHeader lossy_header(const std::string& codec, const Field& field,
                        const CompressOptions& opt);

// --- Registry --------------------------------------------------------------

// Looks up a codec by (case-insensitive) name. Throws InvalidArgument for
// unknown codecs. The returned reference is to a process-wide singleton;
// codecs are stateless across calls.
Compressor& compressor(const std::string& name);

// Name lists for sweeps: the paper's five EBLCs, and the Fig. 1 lossless
// baselines.
const std::vector<std::string>& eblc_names();      // SZ2 SZ3 ZFP QoZ SZx
const std::vector<std::string>& lossless_names();  // zstd blosc fpzip fpc
std::vector<std::string> all_compressor_names();

// Decodes the header of any blob and dispatches to the producing codec.
Field decompress_any(std::span<const std::byte> blob, int threads = 1);

// Windowed decode: the values of the blob's field inside `box`, shaped
// box.shape, bit-identical to decompress_any cropped to the box. Throws
// InvalidArgument when the box does not lie inside the blob's dims, and
// otherwise exactly when decompress_any throws. A box covering the blob's
// whole extent returns decompress_any's field. `reconstructed`, when
// non-null, receives the number of elements the codec reconstructed.
Field decompress_region_any(std::span<const std::byte> blob, const Region& box,
                            int threads = 1,
                            std::size_t* reconstructed = nullptr);

// Reads just the header (for inspecting blobs without decompressing).
BlobHeader peek_header(std::span<const std::byte> blob);

}  // namespace eblcio
