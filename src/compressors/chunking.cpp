#include "compressors/chunking.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "common/buffer_pool.h"
#include "common/error.h"
#include "compressors/zone.h"
#include "parallel/executor.h"

namespace eblcio {
namespace {

template <typename T>
Field merge_impl(const std::vector<Field>& slabs,
                 const std::vector<std::size_t>& dims,
                 const std::string& name) {
  // Unfilled: the slabs cover every element or the size check below
  // throws, so a zero fill would only be overwritten.
  NdArray<T> arr(Shape{std::span<const std::size_t>(dims)}, kUnfilled);
  std::size_t offset = 0;
  for (const Field& slab : slabs) {
    // Slabs come from decoded streams: check each one before its copy.
    EBLCIO_CHECK_STREAM(slab.dtype() == slabs[0].dtype(),
                        "slabs disagree on dtype");
    const NdArray<T>& s = slab.as<T>();
    EBLCIO_CHECK_STREAM(s.num_elements() <= arr.num_elements() - offset,
                        "slab merge overruns the field");
    std::memcpy(arr.data() + offset, s.data(), s.num_elements() * sizeof(T));
    offset += s.num_elements();
  }
  EBLCIO_CHECK(offset == arr.num_elements(), "slab merge size mismatch");
  return Field(name, std::move(arr));
}

}  // namespace

std::size_t slab_rows(std::size_t d0, int nchunks, int c) {
  return d0 / nchunks +
         (static_cast<std::size_t>(c) < d0 % nchunks ? 1 : 0);
}

Field extract_slab(const Field& field, const ZoneExtent& zone) {
  return field.visit([&](const auto& arr) {
    using T = std::remove_cvref_t<decltype(*arr.data())>;
    std::vector<std::size_t> dims = arr.shape().dims_vector();
    const std::size_t row = arr.num_elements() / dims[0];
    dims[0] = static_cast<std::size_t>(zone.rows);
    // Unfilled: the copy below writes every element.
    NdArray<T> slab(Shape{std::span<const std::size_t>(dims)}, kUnfilled);
    std::memcpy(slab.data(),
                arr.data() + static_cast<std::size_t>(zone.row_start) * row,
                slab.size_bytes());
    return Field(field.name(), std::move(slab));
  });
}

std::vector<Field> split_slabs(const Field& field, int nchunks) {
  EBLCIO_CHECK_ARG(nchunks >= 1, "chunk count must be positive");
  const std::size_t d0 = field.shape().dim(0);
  const int chunks = static_cast<int>(
      std::min<std::size_t>(d0, static_cast<std::size_t>(nchunks)));
  std::vector<Field> out;
  out.reserve(static_cast<std::size_t>(chunks));
  std::size_t start = 0;
  for (int c = 0; c < chunks; ++c) {
    const std::size_t rows = slab_rows(d0, chunks, c);
    out.push_back(extract_slab(field, {start, rows}));
    start += rows;
  }
  return out;
}

Field merge_slabs(const std::vector<Field>& slabs,
                  const std::vector<std::size_t>& dims,
                  const std::string& name) {
  EBLCIO_CHECK_ARG(!slabs.empty(), "no slabs to merge");
  if (slabs[0].dtype() == DType::kFloat32)
    return merge_impl<float>(slabs, dims, name);
  return merge_impl<double>(slabs, dims, name);
}

Bytes compress_chunked(const BlobHeader& header, const Field& field,
                       const CompressOptions& opt,
                       const PayloadCompressFn& kernel, Field* recon) {
  Bytes out;
  header.encode(out);

  if (opt.threads <= 1 || field.shape().dim(0) < 2) {
    append_pod<std::uint8_t>(out, kLayoutSingle);
    Bytes payload = kernel(field, header, recon);
    append_pod<std::uint64_t>(out, payload.size());
    append_bytes(out, payload);
    return out;
  }

  auto slabs = split_slabs(field, opt.threads);
  std::vector<Bytes> blobs(slabs.size());
  parallel_for(slabs.size(), opt.threads, [&](std::size_t i) {
    BlobHeader slab_header = header;
    slab_header.dims = slabs[i].shape().dims_vector();
    blobs[i] = kernel(slabs[i], slab_header, nullptr);
  });

  append_pod<std::uint8_t>(out, kLayoutChunked);
  append_pod<std::uint32_t>(out, static_cast<std::uint32_t>(blobs.size()));
  for (const Bytes& b : blobs) append_pod<std::uint64_t>(out, b.size());
  for (Bytes& b : blobs) {
    append_bytes(out, b);
    // Per-slab payloads are copied into the framed container; recycle
    // their allocations for the next chunked compression.
    BufferPool::global().release(std::move(b));
  }
  return out;
}

std::size_t decompress_chunked_into(std::span<const std::byte> blob,
                                    int threads,
                                    const PayloadDecompressFn& kernel,
                                    Field& out, std::size_t row_start,
                                    const Window& window) {
  ByteReader r(blob);
  const BlobHeader header = BlobHeader::decode(r);
  const auto decode_rows = [&](Field& dst, std::size_t offset) {
    const auto layout = r.read_pod<std::uint8_t>();
    if (layout == kLayoutSingle) {
      const auto size = r.read_pod<std::uint64_t>();
      kernel(header, r.read_bytes(size), dst, offset);
      return;
    }
    EBLCIO_CHECK_STREAM(layout == kLayoutChunked, "bad payload layout tag");

    // Each chunk holds at least one row and one u64 size entry.
    const char* bad = "chunk count outside 1..rows or past the chunk table";
    const auto nchunks = r.read_count<std::uint32_t>(8, bad);
    EBLCIO_CHECK_STREAM(nchunks >= 1 && nchunks <= header.dims[0], bad);
    std::vector<std::uint64_t> sizes(nchunks);
    for (auto& s : sizes) s = r.read_pod<std::uint64_t>();
    std::vector<std::span<const std::byte>> spans(nchunks);
    for (std::uint32_t i = 0; i < nchunks; ++i)
      spans[i] = r.read_bytes(sizes[i]);

    const std::size_t row = header.num_elements() / header.dims[0];
    const auto slabs =
        zone_extents(header.dims[0], static_cast<int>(nchunks));
    parallel_for(nchunks, std::max(threads, 1), [&](std::size_t i) {
      BlobHeader slab_header = header;
      slab_header.dims[0] = static_cast<std::size_t>(slabs[i].rows);
      kernel(slab_header, spans[i], dst,
             offset + static_cast<std::size_t>(slabs[i].row_start) * row);
    });
  };
  return decode_window_into(header, out, row_start, window, decode_rows);
}

}  // namespace eblcio
