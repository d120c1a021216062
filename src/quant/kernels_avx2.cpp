// AVX2 INT8 kernels. This translation unit is compiled with -mavx2; the
// dispatcher in kernels.cpp only routes here after a runtime cpuid check, so
// the rest of the library stays runnable on any x86-64.
//
// Conv and transposed conv run the shared register-blocked body
// (kernels_blocked.hpp) over int16 pairs: the int8 weights of two input
// channels widen to int16 and interleave (unpacklo / unpackhi), and one
// _mm256_madd_epi16 against the broadcast (x0, x1) input pair yields 8 exact
// int8*int8 -> int32 dual-MACs. The input is read from a zero-bordered plane
// of (x0, x1) pairs. On CPUs with AVX-VNNI the dispatcher runs
// kernels_avxvnni.cpp instead.

#include "quant/kernels.hpp"

#if defined(SENECA_KERNELS_AVX2)

#include <immintrin.h>

#include <algorithm>

#include "quant/kernels_blocked.hpp"
#include "quant/kernels_internal.hpp"

namespace seneca::quant::kernels {

namespace {

/// The int16 pair scheme: two input channels per 4-byte group.
struct Pairs {
  static constexpr int kGroup = 2;
  static constexpr bool kOffsets = false;  // sign-extended: a zero adds 0

  /// The int16 repack doubles the weight working set; past ~L2 capacity the
  /// packed loads turn memory-bound and lose to widening the int8 weights
  /// in register, so the giant bottleneck-layer weights stay unpacked.
  static constexpr std::int64_t kPackMaxBytes = std::int64_t{3} << 19;

  static void widen(const __m128i (&r)[2], __m256i (&v)[2]) {
    const __m256i a = _mm256_cvtepi8_epi16(r[0]);
    const __m256i b = _mm256_cvtepi8_epi16(r[1]);
    v[0] = _mm256_unpacklo_epi16(a, b);
    v[1] = _mm256_unpackhi_epi16(a, b);
  }

  static __m256i mac(__m256i acc, __m256i w, __m256i x) {
    return _mm256_add_epi32(acc, _mm256_madd_epi16(w, x));
  }

  static constexpr int kChunk = 8;
  static __m128i chunk(__m128i v, __m128i) { return _mm_cvtepi8_epi16(v); }
};

}  // namespace

void conv2d_avx2(const TensorI8& x, const QOp& op, TensorI8& out,
                 int fix_pos_in, tensor::TensorArena* arena) {
  blocked<Pairs>(x, op, out, fix_pos_in, arena, false);
}

void tconv2d_avx2(const TensorI8& x, const QOp& op, TensorI8& out,
                  int fix_pos_in, tensor::TensorArena* arena) {
  blocked<Pairs>(x, op, out, fix_pos_in, arena, true);
}

void maxpool2d_avx2(const TensorI8& x, TensorI8& out) {
  const std::int64_t w = x.shape()[1];
  const std::int64_t c = x.shape()[2];
  const std::int64_t ow = w / 2;
  const std::int8_t* xb = x.data();
  std::int8_t* ob = out.data();
  const std::int64_t xn = x.numel(), on = out.numel();
  const auto at = [](const std::int8_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };
  // Output pixels in ascending flat order, 16 channels per vector: a store
  // past a pixel's channels (narrow layers pool c <= 15) writes bytes of
  // later pixels, which are rewritten before anyone reads them. Chunks
  // whose loads or store would leave the tensors run scalar.
  for (std::int64_t o = 0; o < on / c; ++o) {
    const std::int64_t i00 = (o / ow * 2 * w + o % ow * 2) * c;
    const std::int64_t i10 = i00 + w * c;
    for (std::int64_t ch = 0; ch < c; ch += 16) {
      if (i10 + c + ch + 16 <= xn && o * c + ch + 16 <= on) {
        _mm_storeu_si128(
            reinterpret_cast<__m128i*>(ob + o * c + ch),
            _mm_max_epi8(_mm_max_epi8(at(xb + i00 + ch), at(xb + i00 + c + ch)),
                         _mm_max_epi8(at(xb + i10 + ch),
                                      at(xb + i10 + c + ch))));
        continue;
      }
      for (std::int64_t j = ch; j < c; ++j) {
        ob[o * c + j] = std::max(std::max(xb[i00 + j], xb[i00 + c + j]),
                                 std::max(xb[i10 + j], xb[i10 + c + j]));
      }
      break;
    }
  }
}

void requant_rows_avx2(const std::int8_t* src, std::int64_t src_stride,
                       std::int8_t* dst, std::int64_t dst_stride,
                       std::int64_t n, std::int64_t rows, int shift) {
  // int16 arithmetic covers |v| <= 128 with rounding-bias headroom for
  // shifts in [-8, 7]; anything wilder goes through the generic rows.
  if (shift > 7 || shift < -8) {
    requant_rows_generic(src, src_stride, dst, dst_stride, n, rows, shift);
    return;
  }
  const __m128i cnt = _mm_cvtsi32_si128(shift > 0 ? shift : -shift);
  const __m128i rbias =
      _mm_set1_epi16(static_cast<short>(shift > 0 ? 1 << (shift - 1) : 0));
  detail::requant_rows_chunked(
      src, src_stride, dst, dst_stride, n, rows, shift,
      [&](const std::int8_t* s, std::int8_t* d) {
        __m128i v8 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(s));
        if (shift != 0) {
          __m128i lo = _mm_cvtepi8_epi16(v8);
          __m128i hi = _mm_cvtepi8_epi16(_mm_srli_si128(v8, 8));
          if (shift > 0) {
            lo = _mm_sign_epi16(
                _mm_srl_epi16(_mm_add_epi16(_mm_abs_epi16(lo), rbias), cnt),
                lo);
            hi = _mm_sign_epi16(
                _mm_srl_epi16(_mm_add_epi16(_mm_abs_epi16(hi), rbias), cnt),
                hi);
          } else {
            lo = _mm_sll_epi16(lo, cnt);
            hi = _mm_sll_epi16(hi, cnt);
          }
          v8 = _mm_packs_epi16(lo, hi);
        }
        _mm_storeu_si128(reinterpret_cast<__m128i*>(d), v8);
      });
}

}  // namespace seneca::quant::kernels

#endif  // SENECA_KERNELS_AVX2
