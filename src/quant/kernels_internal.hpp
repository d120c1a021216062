#pragma once
// Shared pieces of the INT8 kernel backends (generic / NEON; the strided
// requant walk also AVX2).
// Everything here assumes the dispatcher already proved int32 accumulation
// safe (kernels::acc32_safe + the shift headroom check in kernels.cpp).

#include <cstring>
#include <vector>

#include "quant/qgraph.hpp"
#include "tensor/arena.hpp"

namespace seneca::quant::kernels::detail {

/// int32 flavour of rshift_round; caller guarantees headroom for the
/// rounding bias (shift > 0) and the left shift (shift <= 0).
inline std::int32_t rshift_round32(std::int32_t v, int shift) {
  if (shift <= 0) {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(v)
                                     << (-shift));
  }
  const std::int32_t bias = std::int32_t{1} << (shift - 1);
  if (v >= 0) return (v + bias) >> shift;
  return -((-v + bias) >> shift);
}

/// Requantizing strided copy in 16-byte chunks: `rq16(s, d)` writes the 16
/// requantized bytes of s[0..15] to d[0..15]. A row of n >= 16 bytes ends
/// in one overlapping chunk. A shorter row runs one chunk into a buffer and
/// blends its first n bytes into the 16 destination bytes: the bytes past
/// the row are written back unchanged, and rows run in ascending order, so
/// a later row or another region's bytes keep their value. Rows too close
/// to a buffer's end for a 16-byte access take the scalar reference.
template <typename Rq16>
void requant_rows_chunked(const std::int8_t* src, std::int64_t src_stride,
                          std::int8_t* dst, std::int64_t dst_stride,
                          std::int64_t n, std::int64_t rows, int shift,
                          const Rq16& rq16) {
  const std::int64_t src_len = (rows - 1) * src_stride + n;
  const std::int64_t dst_len = (rows - 1) * dst_stride + n;
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int8_t* s = src + r * src_stride;
    std::int8_t* d = dst + r * dst_stride;
    if (n >= 16) {
      std::int64_t i = 0;
      for (; i + 16 <= n; i += 16) rq16(s + i, d + i);
      if (i < n) rq16(s + n - 16, d + n - 16);
    } else if (r * src_stride + 16 <= src_len &&
               r * dst_stride + 16 <= dst_len) {
      std::int8_t t[16];
      rq16(s, t);
      for (std::int64_t i = n; i < 16; ++i) t[i] = d[i];
      std::memcpy(d, t, sizeof t);
    } else {
      for (std::int64_t i = 0; i < n; ++i) {
        d[i] = saturate_i8(rshift_round(s[i], shift));
      }
    }
  }
}

/// Walks the transposed conv as the reference does — scatter from each
/// input pixel through every in-range tap — handing the accumulator row,
/// input-pixel row, and tap weight row to `body(pa, px, pw, ci, co)`.
template <typename Body>
void tconv_scatter(const TensorI8& x, const QOp& op, std::int32_t* acc,
                   Body&& body) {
  const std::int64_t h = x.shape()[0];
  const std::int64_t w = x.shape()[1];
  const std::int64_t ci = x.shape()[2];
  const std::int64_t k = op.kernel;
  const std::int64_t co = op.out_shape[2];
  const std::int64_t oh = h * 2, ow = w * 2;

  for (std::int64_t iy = 0; iy < h; ++iy) {
    for (std::int64_t ix = 0; ix < w; ++ix) {
      const std::int8_t* px = x.data() + (iy * w + ix) * ci;
      for (std::int64_t ky = 0; ky < k; ++ky) {
        const std::int64_t oy = 2 * iy - 1 + ky;
        if (oy < 0 || oy >= oh) continue;
        for (std::int64_t kx = 0; kx < k; ++kx) {
          const std::int64_t ox = 2 * ix - 1 + kx;
          if (ox < 0 || ox >= ow) continue;
          std::int32_t* pa = acc + (oy * ow + ox) * co;
          const std::int8_t* pw = op.weights.data() + ((ky * k + kx) * ci) * co;
          body(pa, px, pw, ci, co);
        }
      }
    }
  }
}

/// Seeds every output pixel's accumulator row with the bias vector.
inline void tconv_acc_init(const QOp& op, std::int32_t* acc) {
  const std::int64_t co = op.out_shape[2];
  const std::int64_t pixels = op.out_shape[0] * op.out_shape[1];
  for (std::int64_t i = 0; i < pixels; ++i) {
    std::memcpy(acc + i * co, op.bias.data(),
                static_cast<std::size_t>(co) * sizeof(std::int32_t));
  }
}

/// Accumulator plane of the scatter-form tconv (generic and NEON
/// backends) from the arena when present, else call-local.
inline std::int32_t* tconv_scratch(const QOp& op, tensor::TensorArena* arena,
                                   std::vector<std::int32_t>& local) {
  const std::int64_t n = op.out_shape.numel();
  if (arena) return arena->acc32(n);
  local.resize(static_cast<std::size_t>(n));
  return local.data();
}

}  // namespace seneca::quant::kernels::detail
