// Shared plumbing for the lossless baselines: header construction (a
// payload decodes back through common/field.h's field_from_bytes).
#pragma once

#include "compressors/compressor.h"

namespace eblcio {

inline BlobHeader lossless_header(const std::string& codec,
                                  const Field& field,
                                  const CompressOptions& opt) {
  BlobHeader h;
  h.codec = codec;
  h.dtype = field.dtype();
  h.dims = field.shape().dims_vector();
  h.abs_error_bound = 0.0;
  h.requested_mode = opt.mode;
  h.requested_bound = 0.0;
  return h;
}

}  // namespace eblcio
