// AVX-VNNI INT8 conv kernels, compiled with -mavx2 -mavxvnni and reached
// only after the dispatcher's cpuid check. They run the shared blocked body
// (kernels_blocked.hpp) over uint8 quads: _mm256_dpbusd_avx_epi32 adds per
// int32 lane the four products of a pixel's four input bytes (unsigned)
// with one output channel's four int8 weights, with no separate add. Post-
// ReLU inputs (every byte >= 0) are used as they are; an input with a
// negative byte is read as x + 128, and each sub-convolution then starts
// from bias - 128·Σw, exact in wrapping int32 (DESIGN.md §8).

#include "quant/kernels.hpp"

#if defined(SENECA_KERNELS_AVXVNNI)

#include <immintrin.h>

#include "quant/kernels_blocked.hpp"

namespace seneca::quant::kernels {

namespace {

/// The uint8 quad scheme: four input channels per 4-byte group.
struct Quads {
  static constexpr int kGroup = 4;
  static constexpr bool kOffsets = true;

  /// Quad operands are the size of the int8 weights (ci rounded up to 4).
  /// Packed blocks beat in-register widening on every zoo layer measured at
  /// 32x32 and 128x128 from 16 pixels on, up to the largest (16M's 512 ->
  /// 512 bottleneck, 2.25 MiB: 0.34x the time at 4x4), where the unpacked
  /// path re-reads each weight cache line once per 16-channel block.
  static constexpr std::int64_t kPackMaxBytes = std::int64_t{3} << 20;

  static void widen(const __m128i (&r)[4], __m256i (&v)[2]) {
    // (r0[j], r1[j]) and (r2[j], r3[j]) byte pairs as int16 lanes (channels
    // 0..7 low, 8..15 high); interleaving them makes each dword one
    // channel's four weights.
    const __m256i a = _mm256_or_si256(
        _mm256_cvtepu8_epi16(r[0]),
        _mm256_slli_epi16(_mm256_cvtepu8_epi16(r[1]), 8));
    const __m256i b = _mm256_or_si256(
        _mm256_cvtepu8_epi16(r[2]),
        _mm256_slli_epi16(_mm256_cvtepu8_epi16(r[3]), 8));
    v[0] = _mm256_unpacklo_epi16(a, b);
    v[1] = _mm256_unpackhi_epi16(a, b);
  }

  static __m256i mac(__m256i acc, __m256i w, __m256i x) {
    return _mm256_dpbusd_avx_epi32(acc, x, w);
  }

  static constexpr int kChunk = 16;
  static __m128i chunk(__m128i v, __m128i flip) {
    return _mm_xor_si128(v, flip);
  }
};

}  // namespace

void conv2d_avxvnni(const TensorI8& x, const QOp& op, TensorI8& out,
                    int fix_pos_in, tensor::TensorArena* arena) {
  blocked<Quads>(x, op, out, fix_pos_in, arena, false);
}

void tconv2d_avxvnni(const TensorI8& x, const QOp& op, TensorI8& out,
                     int fix_pos_in, tensor::TensorArena* arena) {
  blocked<Quads>(x, op, out, fix_pos_in, arena, true);
}

}  // namespace seneca::quant::kernels

#endif  // SENECA_KERNELS_AVXVNNI
