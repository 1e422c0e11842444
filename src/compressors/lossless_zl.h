// Deflate/Zstd-class general-purpose lossless baseline ("zstd" in Fig. 1).
//
// Runs the library's LZ77 + Huffman codec directly over the field's raw
// IEEE bytes. Like real zstd on floating-point scientific data, it finds
// little byte-level redundancy — the paper's Fig. 1 point.
#pragma once

#include "compressors/compressor.h"

namespace eblcio {

class ZlCompressor : public Compressor {
 public:
  std::string name() const override { return "zstd"; }
  CompressorCaps caps() const override {
    CompressorCaps c;
    c.lossless = true;
    return c;
  }

  Bytes compress(const Field& field, const CompressOptions& opt,
                 Field* recon) override;
  std::size_t decompress_into(std::span<const std::byte> blob, Field& out,
                              std::size_t row_start, const Window& window,
                              int threads) override;
};

}  // namespace eblcio
