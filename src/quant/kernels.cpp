#include "quant/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "quant/kernels_internal.hpp"

namespace seneca::quant::kernels {

namespace {

std::atomic<Backend> g_backend{Backend::kAuto};

/// Worst-case magnitude of one int8 x int8 product (-128 * -128).
constexpr std::int64_t kMaxProduct = 128 * 128;

}  // namespace

bool simd_available() {
#if defined(SENECA_KERNELS_AVX2)
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
#elif defined(SENECA_KERNELS_NEON)
  return true;
#else
  return false;
#endif
}

#if defined(SENECA_KERNELS_AVXVNNI)
bool avxvnni_available() {
  static const bool ok = simd_available() && __builtin_cpu_supports("avxvnni");
  return ok;
}
#endif

Backend active_backend() {
  const Backend b = g_backend.load(std::memory_order_relaxed);
  if (b == Backend::kScalar || b == Backend::kGeneric) return b;
  return simd_available() ? Backend::kSimd : Backend::kGeneric;
}

void set_backend(Backend b) { g_backend.store(b, std::memory_order_relaxed); }

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kAuto: return "auto";
    case Backend::kScalar: return "scalar";
    case Backend::kGeneric: return "generic";
    case Backend::kSimd:
#if defined(SENECA_KERNELS_AVXVNNI)
      if (avxvnni_available()) return "avx-vnni";
#endif
#if defined(SENECA_KERNELS_AVX2)
      return "avx2";
#elif defined(SENECA_KERNELS_NEON)
      return "neon";
#else
      return "simd-unavailable";
#endif
  }
  return "?";
}

namespace {

std::int64_t max_abs_bias(const QOp& op) {
  std::int64_t m = 0;
  for (const std::int32_t b : op.bias) {
    const std::int64_t a = b < 0 ? -static_cast<std::int64_t>(b)
                                 : static_cast<std::int64_t>(b);
    m = std::max(m, a);
  }
  return m;
}

std::int64_t acc_bound(const QOp& op, std::int64_t ci) {
  return max_abs_bias(op) + op.kernel * op.kernel * ci * kMaxProduct;
}

/// The int32 paths also evaluate the requant in 32 bits: a left shift
/// (shift < 0) grows the accumulator and a right shift adds the rounding
/// bias 2^(shift-1); both need headroom on top of plain accumulation.
bool shift32_safe(const QOp& op, std::int64_t ci, int shift) {
  if (shift > 30 || shift < -20) return false;
  std::int64_t bound = acc_bound(op, ci);
  if (shift < 0) {
    bound <<= -shift;
  } else if (shift > 0) {
    bound += std::int64_t{1} << (shift - 1);
  }
  return bound <= std::numeric_limits<std::int32_t>::max();
}

}  // namespace

bool acc32_safe(const QOp& op, std::int64_t ci) {
  return acc_bound(op, ci) <= std::numeric_limits<std::int32_t>::max();
}

using detail::rshift_round32;

// ---------------------------------------------------------------- generic

void conv2d_generic(const TensorI8& x, const QOp& op, TensorI8& out,
                    int fix_pos_in) {
  const std::int64_t h = x.shape()[0];
  const std::int64_t w = x.shape()[1];
  const std::int64_t ci = x.shape()[2];
  const std::int64_t k = op.kernel;
  const std::int64_t co = op.out_shape[2];
  const std::int64_t pad = k / 2;
  const int shift = fix_pos_in + op.fix_pos_w - op.fix_pos_out;
  std::vector<std::int32_t> acc(static_cast<std::size_t>(co));

  for (std::int64_t oy = 0; oy < h; ++oy) {
    for (std::int64_t ox = 0; ox < w; ++ox) {
      std::memcpy(acc.data(), op.bias.data(),
                  static_cast<std::size_t>(co) * sizeof(std::int32_t));
      for (std::int64_t ky = 0; ky < k; ++ky) {
        const std::int64_t iy = oy + ky - pad;
        if (iy < 0 || iy >= h) continue;
        for (std::int64_t kx = 0; kx < k; ++kx) {
          const std::int64_t ix = ox + kx - pad;
          if (ix < 0 || ix >= w) continue;
          const std::int8_t* px = x.data() + (iy * w + ix) * ci;
          const std::int8_t* pw = op.weights.data() + ((ky * k + kx) * ci) * co;
          for (std::int64_t c = 0; c < ci; ++c) {
            const std::int32_t xv = px[c];
            if (xv == 0) continue;
            const std::int8_t* pwc = pw + c * co;
            std::int32_t* pa = acc.data();
            for (std::int64_t o = 0; o < co; ++o) {
              pa[o] += xv * static_cast<std::int32_t>(pwc[o]);
            }
          }
        }
      }
      std::int8_t* po = out.data() + (oy * w + ox) * co;
      for (std::int64_t o = 0; o < co; ++o) {
        std::int32_t v = rshift_round32(acc[static_cast<std::size_t>(o)], shift);
        if (op.relu && v < 0) v = 0;
        po[o] = saturate_i8(v);
      }
    }
  }
}

void tconv2d_generic(const TensorI8& x, const QOp& op, TensorI8& out,
                     int fix_pos_in, tensor::TensorArena* arena) {
  const int shift = fix_pos_in + op.fix_pos_w - op.fix_pos_out;

  std::vector<std::int32_t> local;
  std::int32_t* acc = detail::tconv_scratch(op, arena, local);
  detail::tconv_acc_init(op, acc);
  detail::tconv_scatter(
      x, op, acc,
      [](std::int32_t* pa, const std::int8_t* px, const std::int8_t* pw,
         std::int64_t nci, std::int64_t nco) {
        for (std::int64_t c = 0; c < nci; ++c) {
          const std::int32_t xv = px[c];
          if (xv == 0) continue;
          const std::int8_t* pwc = pw + c * nco;
          for (std::int64_t o = 0; o < nco; ++o) {
            pa[o] += xv * static_cast<std::int32_t>(pwc[o]);
          }
        }
      });
  const std::int64_t n = op.out_shape.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    std::int32_t v = rshift_round32(acc[i], shift);
    if (op.relu && v < 0) v = 0;
    out[i] = saturate_i8(v);
  }
}

void maxpool2d_generic(const TensorI8& x, TensorI8& out) {
  // Identical structure to the scalar reference; int8 max needs no widening.
  qmaxpool2d_forward(x, out);
}

void requant_rows_generic(const std::int8_t* src, std::int64_t src_stride,
                          std::int8_t* dst, std::int64_t dst_stride,
                          std::int64_t n, std::int64_t rows, int shift) {
  // 16 branch-free int32 lanes, which the compiler vectorises. Clamping the
  // shift changes no result: past 30 every int8 rounds to 0, past -23 every
  // nonzero one saturates.
  const int sh = std::clamp(shift, -23, 30);
  const std::int32_t bias = sh > 0 ? std::int32_t{1} << (sh - 1) : 0;
  detail::requant_rows_chunked(
      src, src_stride, dst, dst_stride, n, rows, shift,
      [sh, bias](const std::int8_t* s, std::int8_t* d) {
        std::int32_t v[16];
        if (sh > 0) {
          for (int i = 0; i < 16; ++i) {
            const std::int32_t x = s[i], sign = x >> 31;  // 0 or -1
            const std::int32_t a = (((x ^ sign) - sign) + bias) >> sh;
            v[i] = (a ^ sign) - sign;
          }
        } else {
          for (int i = 0; i < 16; ++i) v[i] = std::int32_t{s[i]} << -sh;
        }
        for (int i = 0; i < 16; ++i) {
          d[i] = static_cast<std::int8_t>(std::clamp(v[i], -128, 127));
        }
      });
}

// --------------------------------------------------------------- dispatch

#if defined(SENECA_KERNELS_AVX2)
namespace {

/// The x86 (t)conv body kSimd runs: AVX-VNNI when the CPU has it, else AVX2.
auto x86_body(bool transposed) {
#if defined(SENECA_KERNELS_AVXVNNI)
  if (avxvnni_available()) return transposed ? tconv2d_avxvnni : conv2d_avxvnni;
#endif
  return transposed ? tconv2d_avx2 : conv2d_avx2;
}

}  // namespace
#endif

void conv2d(const TensorI8& x, const QOp& op, TensorI8& out, int fix_pos_in,
            [[maybe_unused]] tensor::TensorArena* arena) {
  const std::int64_t ci = x.shape()[2];
  const int shift = fix_pos_in + op.fix_pos_w - op.fix_pos_out;
  // Wherever the coarse runtime predicate admits the int32 path, the
  // per-weight interval proof (SENECA-Prove) must agree: its bound is tighter
  // than acc_bound by construction, so disagreement means a broken proof.
  assert(!shift32_safe(op, ci, shift) ||
         interval_shift32_safe(conv_acc_interval(op, ci, {-128, 127}), shift));
  const Backend b = active_backend();
  if (b == Backend::kScalar || !shift32_safe(op, ci, shift)) {
    qconv2d_forward(x, op, out, fix_pos_in);
    return;
  }
#if defined(SENECA_KERNELS_AVX2)
  if (b == Backend::kSimd) return x86_body(false)(x, op, out, fix_pos_in, arena);
#elif defined(SENECA_KERNELS_NEON)
  if (b == Backend::kSimd) return conv2d_neon(x, op, out, fix_pos_in);
#endif
  conv2d_generic(x, op, out, fix_pos_in);
}

void tconv2d(const TensorI8& x, const QOp& op, TensorI8& out, int fix_pos_in,
             tensor::TensorArena* arena) {
  const std::int64_t ci = x.shape()[2];
  const int shift = fix_pos_in + op.fix_pos_w - op.fix_pos_out;
  assert(!shift32_safe(op, ci, shift) ||
         interval_shift32_safe(conv_acc_interval(op, ci, {-128, 127}), shift));
  const Backend b = active_backend();
  if (b == Backend::kScalar || !shift32_safe(op, ci, shift)) {
    qtconv2d_forward(x, op, out, fix_pos_in);
    return;
  }
#if defined(SENECA_KERNELS_AVX2)
  if (b == Backend::kSimd) return x86_body(true)(x, op, out, fix_pos_in, arena);
#elif defined(SENECA_KERNELS_NEON)
  if (b == Backend::kSimd) return tconv2d_neon(x, op, out, fix_pos_in, arena);
#endif
  tconv2d_generic(x, op, out, fix_pos_in, arena);
}

void maxpool2d(const TensorI8& x, TensorI8& out) {
  const Backend b = active_backend();
  if (b == Backend::kScalar) return qmaxpool2d_forward(x, out);
#if defined(SENECA_KERNELS_AVX2)
  if (b == Backend::kSimd) return maxpool2d_avx2(x, out);
#elif defined(SENECA_KERNELS_NEON)
  if (b == Backend::kSimd) return maxpool2d_neon(x, out);
#endif
  maxpool2d_generic(x, out);
}

void requant_rows(const std::int8_t* src, std::int64_t src_stride,
                  std::int8_t* dst, std::int64_t dst_stride, std::int64_t n,
                  std::int64_t rows, int shift) {
#if defined(SENECA_KERNELS_AVX2)
  if (active_backend() == Backend::kSimd) {
    return requant_rows_avx2(src, src_stride, dst, dst_stride, n, rows, shift);
  }
#endif
  // kScalar runs the generic rows too: they compute the reference
  // arithmetic, only branch-free.
  requant_rows_generic(src, src_stride, dst, dst_stride, n, rows, shift);
}

void concat(const TensorI8& a, int fp_a, const TensorI8& b, int fp_b,
            TensorI8& out, int fp_out) {
  if (active_backend() == Backend::kScalar) {
    return qconcat_forward(a, fp_a, b, fp_b, out, fp_out);
  }
  const std::int64_t ca = a.shape()[2];
  const std::int64_t cb = b.shape()[2];
  const std::int64_t rows = a.numel() / ca;
  requant_rows(a.data(), ca, out.data(), ca + cb, ca, rows, fp_a - fp_out);
  requant_rows(b.data(), cb, out.data() + ca, ca + cb, cb, rows,
               fp_b - fp_out);
}

}  // namespace seneca::quant::kernels
