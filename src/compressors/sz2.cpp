// SZ2 framing over the shared block engine (compressors/block_core.h):
// the prediction/quantization kernels this file used to own now live
// behind block_compress/block_decompress, and SZ2 is the
// (kLorenzoRegression, kLinearRecip) configuration of them — the same
// kernels the composed codec framework drives with other component pairs.
// The slab/stream framing below is frozen by the pinned reference blobs.
// decompress_into writes a window straight into its rows of the caller's
// output, each touched slab rebuilding only its lower cone of the window
// (block_decompress_region); a whole-blob window is the full decode.
#include "compressors/sz2.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/error.h"
#include "compressors/backend.h"
#include "compressors/block_core.h"
#include "compressors/chunking.h"
#include "parallel/executor.h"

namespace eblcio {

Bytes Sz2Compressor::compress(const Field& field, const CompressOptions& opt,
                              Field* recon) {
  EBLCIO_CHECK_ARG(opt.mode != BoundMode::kLossless,
                   "SZ2 is an error-bounded lossy compressor");
  if (opt.threads > 1 && !supports(field, opt))
    throw Unsupported(
        "the OpenMP version of SZ2 does not support 1D or 4D data");

  const BlobHeader header = lossy_header(name(), field, opt);

  // Stage 1 (parallel over slabs): prediction + quantization. A single
  // slab is the whole field — compress it in place instead of paying
  // split_slabs' full-field copy for a no-op split; its reconstruction is
  // the whole field's, so only it fills `recon`.
  const int nslabs = static_cast<int>(
      std::min<std::size_t>(field.shape().dim(0),
                            static_cast<std::size_t>(std::max(opt.threads, 1))));
  std::vector<BlockEncoding> encs(static_cast<std::size_t>(nslabs));
  if (nslabs == 1) {
    encs[0] = block_compress(field, header.abs_error_bound,
                             BlockPredictor::kLorenzoRegression,
                             QuantizerId::kLinearRecip, 0.0, recon);
  } else {
    const auto slabs = split_slabs(field, nslabs);
    parallel_for(slabs.size(), nslabs, [&](std::size_t i) {
      encs[i] = block_compress(slabs[i], header.abs_error_bound,
                               BlockPredictor::kLorenzoRegression,
                               QuantizerId::kLinearRecip, 0.0);
    });
  }

  // Stage 2 (serial, as in the reference implementation): one Huffman +
  // lossless pass over the concatenated code stream. One slab's codes are
  // already the whole stream; concatenate only when there are several.
  std::vector<std::uint32_t> multi_codes;
  if (encs.size() > 1) {
    std::size_t total = 0;
    for (const auto& e : encs) total += e.codes.size();
    multi_codes.reserve(total);
    for (const auto& e : encs)
      multi_codes.insert(multi_codes.end(), e.codes.begin(), e.codes.end());
  }
  const std::vector<std::uint32_t>& all_codes =
      encs.size() > 1 ? multi_codes : encs[0].codes;

  Bytes out;
  header.encode(out);
  append_pod<std::uint32_t>(out, static_cast<std::uint32_t>(encs.size()));
  for (const auto& e : encs) {
    append_pod<std::uint64_t>(out, e.codes.size());
    append_sized(out, e.mode_bits);
    append_sized(out, e.coeffs);
    append_sized(out, e.unpred);
  }
  Bytes code_blob = encode_code_stream(all_codes, kQuantAlphabet);
  append_bytes(out, code_blob);
  BufferPool::global().release(std::move(code_blob));
  return out;
}

namespace {

// A parsed SZ2 blob: the header, each slab's side streams, and the global
// code stream (entropy-decoded in full: corruption anywhere in it must
// throw, whatever part of the field a caller wants).
struct Sz2Streams {
  struct Slab {
    BlobHeader header;  // dims[0] narrowed to the slab's rows
    std::size_t row_start = 0;
    std::span<const std::uint32_t> codes;
    std::span<const std::byte> mode_bits, coeffs, unpred;
  };
  BlobHeader header;
  std::vector<std::uint32_t> codes;
  std::vector<Slab> slabs;

  static Sz2Streams parse(std::span<const std::byte> blob) {
    Sz2Streams s;
    ByteReader r(blob);
    s.header = BlobHeader::decode(r);
    // split_slabs cuts at most one slab per row, and each slab's table
    // entry is four u64 fields.
    const char* bad =
        "SZ2: slab count outside 1..rows or past the slab table";
    const auto nslabs = r.read_count<std::uint32_t>(4 * 8, bad);
    EBLCIO_CHECK_STREAM(nslabs >= 1 && nslabs <= s.header.dims[0], bad);
    std::vector<std::uint64_t> ncodes(nslabs);
    s.slabs.resize(nslabs);
    for (std::uint32_t i = 0; i < nslabs; ++i) {
      ncodes[i] = r.read_pod<std::uint64_t>();
      s.slabs[i].mode_bits = read_sized(r);
      s.slabs[i].coeffs = read_sized(r);
      s.slabs[i].unpred = read_sized(r);
    }
    // Serial entropy decode of the global code stream.
    s.codes = decode_code_stream(r);

    std::size_t off = 0, row = 0;
    for (std::uint32_t i = 0; i < nslabs; ++i) {
      Slab& slab = s.slabs[i];
      EBLCIO_CHECK_STREAM(ncodes[i] <= s.codes.size() - off,
                          "SZ2: code stream size mismatch");
      slab.codes = std::span<const std::uint32_t>(s.codes).subspan(
          off, static_cast<std::size_t>(ncodes[i]));
      off += slab.codes.size();
      slab.header = s.header;
      slab.header.dims[0] =
          slab_rows(s.header.dims[0], static_cast<int>(nslabs),
                    static_cast<int>(i));
      slab.row_start = row;
      row += slab.header.dims[0];
    }
    EBLCIO_CHECK_STREAM(off == s.codes.size(),
                        "SZ2: code stream size mismatch");
    return s;
  }
};

}  // namespace

std::size_t Sz2Compressor::decompress_into(std::span<const std::byte> blob,
                                           Field& out, std::size_t row_start,
                                           const Window& window, int threads) {
  const BlobHeader header = peek_header(blob);
  const std::size_t offset =
      check_decode_target(header, out, row_start, window);
  const Sz2Streams s = Sz2Streams::parse(blob);
  const Region box = window.value_or(
      Region{std::vector<std::size_t>(header.dims.size(), 0), header.dims});
  const std::size_t box_lo = box.start[0];
  const std::size_t box_hi = box_lo + box.shape[0];
  const std::size_t row = box.num_elements() / box.shape[0];

  // Slabs are independent fields stacked along dim 0: each one the window
  // touches writes its part of the window (through its lower cone) into
  // its rows of `out`; the others only have their streams checked, so a
  // windowed decode throws exactly when the full decode would.
  std::vector<std::size_t> counts(s.slabs.size(), 0);
  parallel_for(s.slabs.size(), std::max(threads, 1), [&](std::size_t i) {
    const Sz2Streams::Slab& slab = s.slabs[i];
    ByteReader coeffs(slab.coeffs);
    ByteReader unpred(slab.unpred);
    const std::size_t lo = std::max(box_lo, slab.row_start);
    const std::size_t hi =
        std::min(box_hi, slab.row_start + slab.header.dims[0]);
    if (lo >= hi) {
      block_check_streams(slab.header, BlockPredictor::kLorenzoRegression,
                          slab.codes, slab.mode_bits, coeffs, unpred);
      return;
    }
    Region local = box;
    local.start[0] = lo - slab.row_start;
    local.shape[0] = hi - lo;
    counts[i] = block_decompress_region(
        slab.header, BlockPredictor::kLorenzoRegression,
        QuantizerId::kLinearRecip, 0.0, slab.codes, slab.mode_bits, coeffs,
        unpred, local, out, offset + (lo - box_lo) * row);
  });
  return std::accumulate(counts.begin(), counts.end(), std::size_t{0});
}

}  // namespace eblcio
