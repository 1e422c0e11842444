// Uniform compressor API and registry — the role LibPressio plays in the
// paper's harness (Sec. IV-A): every codec, lossy or lossless, is driven
// through this one interface.
//
// Compressed blobs are self-describing: a common header records the codec
// id, dtype, dimensions and the error bound actually applied, so
// `decompress_any` can reconstruct a Field from a blob alone.
#pragma once

#include <functional>
#include <memory>
#include <optional>
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

// The box of a blob a decode writes, in the blob's own coordinates; absent
// means the whole blob.
using Window = std::optional<Region>;

class Compressor {
 public:
  virtual ~Compressor() = default;

  // Canonical codec name ("SZ2", "ZFP", ...).
  virtual std::string name() const = 0;
  virtual CompressorCaps caps() const = 0;

  // Compresses `field` into a self-describing blob. Throws Unsupported for
  // dimensionality/mode combinations the codec cannot handle.
  //
  // `recon`, when non-null, must point to an empty field. SZ2, SZ3 and QoZ
  // fill it when they encode the whole field as one slab (threads <= 1, or
  // a field one row deep): their encoders predict from the values the
  // decoder will rebuild, and that buffer is moved into *recon, never
  // copied, holding exactly what decompress() of the blob yields, byte for
  // byte. It stays empty otherwise: ZFP, SZx, the composed and lossless
  // codecs, and the multi-slab layouts of threads > 1 build no whole-field
  // reconstruction. The blob does not depend on `recon`.
  virtual Bytes compress(const Field& field, const CompressOptions& opt,
                         Field* recon = nullptr) = 0;

  // Reconstructs a field from a blob produced by this codec's compress():
  // allocates an unfilled field named header.codec and decodes into it.
  Field decompress(std::span<const std::byte> blob, int threads = 1);

  // The codec's one decoder: writes `window` of the blob, bit-identical to
  // decompress() cropped to it, into rows [row_start, row_start +
  // window.shape[0]) of `out` and touches nothing else in `out`. Throws
  // before writing anything unless check_decode_target accepts the window
  // and `out`, and otherwise exactly when decompress() throws. Every
  // destination element is written exactly once and none is read before
  // it is written, so `out` may start unfilled. Returns the elements it
  // reconstructed: the blocks in each slab's lower cone of the window for
  // SZ2, the whole blob for the others (decode_window_into).
  virtual std::size_t decompress_into(std::span<const std::byte> blob,
                                      Field& out, std::size_t row_start,
                                      const Window& window = std::nullopt,
                                      int threads = 1) = 0;

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

// Checks that `window` of a blob with `header` (the whole blob when
// absent) fits rows [row_start, row_start + window.shape[0]) of `out`.
// Throws InvalidArgument unless the window lies inside header.dims, then
// CorruptStream unless `out` has the blob's dtype and rank and the
// window's extents past dimension 0, with those rows inside it. Returns
// the element offset of row `row_start` in `out`.
std::size_t check_decode_target(const BlobHeader& header, const Field& out,
                                std::size_t row_start, const Window& window);

// A codec's whole-blob decode: writes every element of the blob's field
// into `dst` from element `offset` on.
using DecodeRowsFn = std::function<void(Field& dst, std::size_t offset)>;

// The decode step of every codec without a windowed decoder of its own,
// behind check_decode_target: a whole-blob window decodes straight into
// `out`; any other decodes in full into an unfilled scratch field and
// copies the window into `out`. Returns header.num_elements().
std::size_t decode_window_into(const BlobHeader& header, Field& out,
                               std::size_t row_start, const Window& window,
                               const DecodeRowsFn& decode_rows);

// Decodes `window` of any blob into rows of `out` through its codec's
// decompress_into, and returns the elements the codec reconstructed.
std::size_t decompress_into_any(std::span<const std::byte> blob, Field& out,
                                std::size_t row_start,
                                const Window& window = std::nullopt,
                                int threads = 1);

// Reads just the header (for inspecting blobs without decompressing).
BlobHeader peek_header(std::span<const std::byte> blob);

}  // namespace eblcio
