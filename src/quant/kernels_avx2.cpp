// AVX2 INT8 kernels. This translation unit is the only one compiled with
// -mavx2; the dispatcher in kernels.cpp only routes here after a runtime
// cpuid check, so the rest of the library stays runnable on any x86-64.
//
// Conv and transposed conv share one register-blocked body. It takes two
// input channels per step and 16 output channels per vector pair: the
// int8 weights of both channels widen to int16 and interleave (unpacklo /
// unpackhi), and one _mm256_madd_epi16 against the broadcast (x0, x1)
// input pair yields 8 exact int8*int8 -> int32 dual-MACs. Each weight
// operand is loaded once for kPix = 4 adjacent output pixels, whose
// accumulators stay in registers (the B4096 DPU array shares each weight
// fetch across 8 pixels the same way).
//
// The input is read from a zero-bordered plane of (x0, x1) int16 pairs, so
// every tap of every pixel is in range and zero pairs add exactly 0. A
// transposed conv is four stride-1 sub-convolutions over the same plane,
// one per output parity (2*iy - 1 + ky = oy), each writing int8 directly.
// Bit-exactness vs the scalar reference holds because every partial sum
// stays inside the dispatcher's int32 headroom proof whatever the summation
// order, and the requant epilogue computes the identical
// round-half-away-from-zero arithmetic.

#include "quant/kernels.hpp"

#if defined(SENECA_KERNELS_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <type_traits>

namespace seneca::quant::kernels {

namespace {

/// Output pixels that share each weight load in the blocked body.
constexpr int kPix = 4;

/// The int16 repack doubles the weight working set; past ~L2 capacity the
/// packed loads turn memory-bound and lose to widening the int8 weights in
/// register, so the giant bottleneck-layer weights stay unpacked.
constexpr std::int64_t kPackMaxBytes = std::int64_t{3} << 19;

/// Packing writes every operand once; widening in register redoes that work
/// for each kPix-pixel block that reads it. Each tap's operands serve one
/// input-sized grid of output pixels (conv: all of them; transposed conv:
/// one parity phase), and on 3x3 layers with ci = co = 32..256 the pack
/// breaks even between two and four blocks per grid, so it runs from four.
constexpr std::int64_t kPackMinPixels = 4 * kPix;

/// Round-half-away-from-zero shift and optional ReLU of 8 int32 lanes.
inline __m256i requant8(__m256i v, int shift, bool relu) {
  if (shift > 0) {
    const __m256i a = _mm256_srl_epi32(
        _mm256_add_epi32(_mm256_abs_epi32(v),
                         _mm256_set1_epi32(std::int32_t{1} << (shift - 1))),
        _mm_cvtsi32_si128(shift));
    v = _mm256_sign_epi32(a, v);  // restore sign; zero stays zero
  } else if (shift < 0) {
    v = _mm256_sll_epi32(v, _mm_cvtsi32_si128(-shift));
  }
  return relu ? _mm256_max_epi32(v, _mm256_setzero_si256()) : v;
}

/// Requants 16 in-order int32 accumulators (v0 = channels 0..7, v1 =
/// 8..15), saturates them to int8 and stores 16 bytes.
inline void requant_store16(__m256i v0, __m256i v1, int shift, bool relu,
                            std::int8_t* dst) {
  // Saturating packs work per 128-bit lane; one dword permute undoes the
  // interleave so the 16 bytes land in channel order.
  const __m256i p16 = _mm256_packs_epi32(requant8(v0, shift, relu),
                                         requant8(v1, shift, relu));
  const __m256i p8 = _mm256_packs_epi16(p16, p16);
  const __m256i perm = _mm256_setr_epi32(0, 4, 1, 5, 0, 4, 1, 5);
  const __m256i q = _mm256_permutevar8x32_epi32(p8, perm);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dst),
                   _mm256_castsi256_si128(q));
}

/// Requants 8 in-order int32 accumulators and stores the first `nvalid`
/// saturated int8 bytes (the small-co tail: nvalid in 1..8).
inline void requant_store_n(__m256i v, int shift, bool relu, std::int8_t* dst,
                            std::int64_t nvalid) {
  v = requant8(v, shift, relu);
  const __m128i p16 = _mm_packs_epi32(_mm256_castsi256_si128(v),
                                      _mm256_extracti128_si256(v, 1));
  alignas(16) std::int8_t tmp[16];
  _mm_store_si128(reinterpret_cast<__m128i*>(tmp), _mm_packs_epi16(p16, p16));
  std::memcpy(dst, tmp, static_cast<std::size_t>(nvalid));
}

/// The two madd operands of 16 output channels for the input pair
/// (c, c + 1): `wa` and `wb` point at those channels' weight rows (`wb` is
/// null past an odd ci). Operand 0 holds channels {0..3, 8..11} as
/// interleaved (wa, wb) int16 pairs, operand 1 holds {4..7, 12..15}.
inline void widen_pair(const std::int8_t* wa, const std::int8_t* wb,
                       __m256i (&v)[2]) {
  const __m256i a = _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(wa)));
  const __m256i b =
      wb ? _mm256_cvtepi8_epi16(
               _mm_loadu_si128(reinterpret_cast<const __m128i*>(wb)))
         : _mm256_setzero_si256();
  v[0] = _mm256_unpacklo_epi16(a, b);
  v[1] = _mm256_unpackhi_epi16(a, b);
}

/// Ready-made madd operands in memory: those of weight tap t and input
/// pair cp start at w + t * tap_stride + cp * cp_stride, 16 int16 each.
struct PackedOperands {
  const std::int16_t* w;
  std::int64_t tap_stride, cp_stride;

  template <int kVec>
  void load(std::int64_t t, std::int64_t cp, __m256i (&v)[kVec]) const {
    const std::int16_t* p = w + t * tap_stride + cp * cp_stride;
    for (int i = 0; i < kVec; ++i) {
      v[i] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 16 * i));
    }
  }
};

/// Operands widened from the [K][K][Cin][Cout] int8 weights in register,
/// for the 16 output channels starting at `w`.
struct RawOperands {
  const std::int8_t* w;
  std::int64_t ci, co;

  template <int kVec>
  void load(std::int64_t t, std::int64_t cp, __m256i (&v)[2]) const {
    static_assert(kVec == 2);
    const std::int8_t* wa = w + (t * ci + 2 * cp) * co;
    widen_pair(wa, 2 * cp + 1 < ci ? wa + co : nullptr, v);
  }
};

/// The taps of a sub-convolution as a grid: tap (ty, tx), ty < ny and
/// tx < nx, reads the pair plane at `off + ty * off_y + tx * off_x` (in
/// pairs, from the pixel's origin) against weight tap
/// `w + ty * w_y + tx * w_x`.
struct Taps {
  std::int64_t ny, nx;
  std::int64_t off, off_y, off_x;
  std::int64_t w, w_y, w_x;
};

/// Accumulates every tap into kPix pixels x kVec 8-channel vectors. `xp`
/// holds each pixel's plane origin.
template <int kPix, int kVec, typename Operands>
inline void mac(const std::int16_t* const (&xp)[kPix], const Taps& taps,
                std::int64_t cpairs, const Operands& ops,
                __m256i (&acc)[kPix][kVec]) {
  for (std::int64_t ty = 0; ty < taps.ny; ++ty) {
    for (std::int64_t tx = 0; tx < taps.nx; ++tx) {
      const std::int64_t off = taps.off + ty * taps.off_y + tx * taps.off_x;
      const std::int64_t t = taps.w + ty * taps.w_y + tx * taps.w_x;
      for (std::int64_t cp = 0; cp < cpairs; ++cp) {
        // Branchless on purpose: post-ReLU activations are zero-rich and a
        // data-dependent skip mispredicts far more than the saved madd.
        __m256i wv[kVec];
        ops.template load<kVec>(t, cp, wv);
        for (int p = 0; p < kPix; ++p) {
          std::int32_t pair = 0;
          std::memcpy(&pair, xp[p] + 2 * (off + cp), sizeof pair);
          const __m256i xv = _mm256_set1_epi32(pair);
          for (int v = 0; v < kVec; ++v) {
            acc[p][v] =
                _mm256_add_epi32(acc[p][v], _mm256_madd_epi16(wv[v], xv));
          }
        }
      }
    }
  }
}

/// Per-call constants of one conv or transposed conv layer.
struct Layer {
  std::int64_t ci = 0, co = 0, cpairs = 0;
  std::int64_t nblk = 0;  // full 16-channel blocks
  std::int64_t tail = 0;  // co % 16 channels past them
  const std::int32_t* bias = nullptr;
  std::int32_t tail_bias[16] = {};
  bool packed = false;  // blocks read `blk` (else widen op.weights)
  const std::int8_t* weights = nullptr;
  PackedOperands blk{};
  PackedOperands tail_ops{};
  int shift = 0;
  bool relu = false;
  const std::int16_t* plane = nullptr;  // zero-bordered input pairs
  std::int64_t border = 0, in_row = 0;  // plane border (pixels), row (pairs)
};

/// Computes kPix output pixels over all output channels; pixel p reads the
/// plane from xp[p] and writes co int8 channels at op[p].
template <int kPix>
void pixels(const Layer& L, const Taps& taps,
            const std::int16_t* const (&xp)[kPix],
            std::int8_t* const (&op)[kPix]) {
  for (std::int64_t bi = 0; bi < L.nblk; ++bi) {
    // Accumulators live in madd's pair-permuted lane order:
    // acc[p][0] = channels {0..3, 8..11}, acc[p][1] = {4..7, 12..15}.
    const __m256i b0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(L.bias + 16 * bi));
    const __m256i b1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(L.bias + 16 * bi + 8));
    __m256i acc[kPix][2];
    for (int p = 0; p < kPix; ++p) {
      acc[p][0] = _mm256_permute2x128_si256(b0, b1, 0x20);
      acc[p][1] = _mm256_permute2x128_si256(b0, b1, 0x31);
    }
    if (L.packed) {
      PackedOperands ops = L.blk;
      ops.w += bi * L.cpairs * 32;
      mac<kPix, 2>(xp, taps, L.cpairs, ops, acc);
    } else {
      mac<kPix, 2>(xp, taps, L.cpairs,
                   RawOperands{L.weights + 16 * bi, L.ci, L.co}, acc);
    }
    for (int p = 0; p < kPix; ++p) {
      requant_store16(_mm256_permute2x128_si256(acc[p][0], acc[p][1], 0x20),
                      _mm256_permute2x128_si256(acc[p][0], acc[p][1], 0x31),
                      L.shift, L.relu, op[p] + 16 * bi);
    }
  }
  const auto tail = [&](auto nvec) {
    constexpr int kVec = decltype(nvec)::value;
    __m256i acc[kPix][kVec];
    for (int p = 0; p < kPix; ++p) {
      for (int v = 0; v < kVec; ++v) {
        acc[p][v] = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(L.tail_bias + 8 * v));
      }
    }
    mac<kPix, kVec>(xp, taps, L.cpairs, L.tail_ops, acc);
    for (int p = 0; p < kPix; ++p) {
      for (int v = 0; v < kVec; ++v) {
        requant_store_n(acc[p][v], L.shift, L.relu,
                        op[p] + 16 * L.nblk + 8 * v,
                        std::min<std::int64_t>(8, L.tail - 8 * v));
      }
    }
  };
  if (L.tail > 8) {
    tail(std::integral_constant<int, 2>{});
  } else if (L.tail > 0) {
    tail(std::integral_constant<int, 1>{});
  }
}

/// One stride-1 sub-convolution over an h x w grid of output pixels: pixel
/// (r, c) has its plane origin at the plane's input pixel (r, c) and its co
/// channels at out + r * out_row + c * out_pix. Pixels run in raster order,
/// kPix at a time across row ends, then one at a time for the last
/// h*w % kPix.
void run(const Layer& L, std::int64_t h, std::int64_t w, const Taps& taps,
         std::int8_t* out, std::int64_t out_row, std::int64_t out_pix) {
  const std::int16_t* origin =
      L.plane + 2 * (L.border * L.in_row + L.border * L.cpairs);
  std::int64_t r = 0, c = 0;
  const auto next = [&](const std::int16_t*& xp, std::int8_t*& op) {
    xp = origin + 2 * (r * L.in_row + c * L.cpairs);
    op = out + r * out_row + c * out_pix;
    if (++c == w) {
      c = 0;
      ++r;
    }
  };
  std::int64_t i = 0;
  for (; i + kPix <= h * w; i += kPix) {
    const std::int16_t* xp[kPix];
    std::int8_t* op[kPix];
    for (int p = 0; p < kPix; ++p) next(xp[p], op[p]);
    pixels<kPix>(L, taps, xp, op);
  }
  for (; i < h * w; ++i) {
    const std::int16_t* xp[1];
    std::int8_t* op[1];
    next(xp[0], op[0]);
    pixels<1>(L, taps, xp, op);
  }
}

/// Writes x as (x0, x1) int16 pairs with `border` zero pixels on every
/// side; odd ci pads x1 = 0.
void build_pair_plane(const TensorI8& x, std::int64_t border,
                      std::int16_t* plane) {
  const std::int64_t h = x.shape()[0];
  const std::int64_t w = x.shape()[1];
  const std::int64_t ci = x.shape()[2];
  const std::int64_t cp2 = (ci + 1) / 2 * 2;  // int16 per pixel
  const std::int64_t row = (w + 2 * border) * cp2;
  std::memset(plane, 0,
              static_cast<std::size_t>((h + 2 * border) * row) *
                  sizeof(std::int16_t));
  for (std::int64_t iy = 0; iy < h; ++iy) {
    std::int16_t* dst = plane + (iy + border) * row + border * cp2;
    const std::int8_t* src = x.data() + iy * w * ci;
    if (ci == cp2) {
      // Even ci: a row's pairs are its bytes sign-extended to int16.
      std::int64_t i = 0;
      for (; i + 16 <= w * ci; i += 16) {
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(dst + i),
            _mm256_cvtepi8_epi16(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i))));
      }
      for (; i < w * ci; ++i) dst[i] = src[i];
    } else {
      for (std::int64_t p = 0; p < w; ++p) {
        for (std::int64_t c = 0; c < ci; ++c) dst[p * cp2 + c] = src[p * ci + c];
      }
    }
  }
}

/// Packs the 16-wide blocks' madd operands, layout [tap][block][cp][2][16]
/// (the in-register widening of RawOperands, stored once).
void pack_block_weights(const QOp& op, std::int64_t ci, std::int64_t co,
                        std::int64_t nblk, std::int16_t* packed) {
  const std::int64_t k2 = op.kernel * op.kernel;
  const std::int64_t cpairs = (ci + 1) / 2;
  for (std::int64_t t = 0; t < k2; ++t) {
    for (std::int64_t bi = 0; bi < nblk; ++bi) {
      const RawOperands raw{op.weights.data() + 16 * bi, ci, co};
      for (std::int64_t cp = 0; cp < cpairs; ++cp) {
        __m256i v[2];
        raw.load<2>(t, cp, v);
        std::int16_t* dst = packed + ((t * nblk + bi) * cpairs + cp) * 32;
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), v[0]);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 16), v[1]);
      }
    }
  }
}

/// Packs the madd operands of the `count` output channels from co_from on,
/// the ones past the last 16-wide block: element ((t*cpairs + cp)*nb8 +
/// b)*16 + 2*j + m holds W[t][2*cp+m][co_from + 8*b + j], zero-padded out
/// of range, so one _mm256_madd_epi16 yields 8 in-order int32 dual-MACs
/// with no out-of-bounds weight reads.
void pack_tail_weights(const QOp& op, std::int64_t ci, std::int64_t co,
                       std::int64_t co_from, std::int64_t count,
                       std::int16_t* packed) {
  const std::int64_t k2 = op.kernel * op.kernel;
  const std::int64_t cpairs = (ci + 1) / 2;
  const std::int64_t nb8 = (count + 7) / 8;
  std::memset(packed, 0,
              static_cast<std::size_t>(k2 * cpairs * nb8 * 16) *
                  sizeof(std::int16_t));
  for (std::int64_t t = 0; t < k2; ++t) {
    for (std::int64_t c = 0; c < ci; ++c) {
      for (std::int64_t j = 0; j < count; ++j) {
        packed[((t * cpairs + c / 2) * nb8 + j / 8) * 16 + 2 * (j % 8) +
               c % 2] = op.weights[(t * ci + c) * co + co_from + j];
      }
    }
  }
}

/// Sets up one layer for input `x`: the zero-bordered pair plane and the
/// weight operands (blocks packed when the layer amortises it) in the
/// arena's int16 scratch.
Layer make_layer(const TensorI8& x, const QOp& op, int fix_pos_in,
                 std::int64_t border, tensor::TensorArena& arena) {
  Layer L;
  L.ci = x.shape()[2];
  L.co = op.out_shape[2];
  L.cpairs = (L.ci + 1) / 2;
  L.nblk = L.co / 16;
  L.tail = L.co % 16;
  L.bias = op.bias.data();
  L.weights = op.weights.data();
  L.shift = fix_pos_in + op.fix_pos_w - op.fix_pos_out;
  L.relu = op.relu;
  L.border = border;
  L.in_row = (x.shape()[1] + 2 * border) * L.cpairs;
  const std::int64_t k2 = op.kernel * op.kernel;
  const std::int64_t plane = (x.shape()[0] + 2 * border) * L.in_row * 2;
  const std::int64_t blk = k2 * L.nblk * L.cpairs * 32;
  const std::int64_t nb8 = (L.tail + 7) / 8;  // 0..2
  L.packed = L.nblk > 0 && blk * 2 <= kPackMaxBytes &&
             x.shape()[0] * x.shape()[1] >= kPackMinPixels;
  std::int16_t* scratch = arena.scratch16(plane + (L.packed ? blk : 0) +
                                          k2 * L.cpairs * nb8 * 16);
  build_pair_plane(x, border, scratch);
  L.plane = scratch;
  scratch += plane;
  if (L.packed) {
    pack_block_weights(op, L.ci, L.co, L.nblk, scratch);
    L.blk = {scratch, L.nblk * L.cpairs * 32, 32};
    scratch += blk;
  }
  if (L.tail > 0) {
    pack_tail_weights(op, L.ci, L.co, 16 * L.nblk, L.tail, scratch);
    L.tail_ops = {scratch, L.cpairs * nb8 * 16, nb8 * 16};
    std::memcpy(L.tail_bias, L.bias + 16 * L.nblk,
                static_cast<std::size_t>(L.tail) * sizeof(std::int32_t));
  }
  return L;
}

}  // namespace

void conv2d_avx2(const TensorI8& x, const QOp& op, TensorI8& out,
                 int fix_pos_in, tensor::TensorArena* arena) {
  const std::int64_t h = x.shape()[0];
  const std::int64_t w = x.shape()[1];
  const std::int64_t k = op.kernel;
  const std::int64_t pad = k / 2;
  tensor::TensorArena local;
  const Layer L = make_layer(x, op, fix_pos_in, pad, arena ? *arena : local);
  // Output (oy, ox) reads input (oy + ky - pad, ox + kx - pad); the plane's
  // border stands in for the padding.
  run(L, h, w,
      Taps{k, k, -pad * (L.in_row + L.cpairs), L.in_row, L.cpairs, 0, k, 1},
      out.data(), w * L.co, L.co);
}

void tconv2d_avx2(const TensorI8& x, const QOp& op, TensorI8& out,
                  int fix_pos_in, tensor::TensorArena* arena) {
  const std::int64_t h = x.shape()[0];
  const std::int64_t w = x.shape()[1];
  const std::int64_t k = op.kernel;
  // Output (2m + py, 2n + px) gathers taps ky = ky0 + 2 * ty, with
  // ky0 = (py + 1) % 2, from input row m + py - ty (columns likewise): from
  // one row below to k/2 - 1 rows above the pixel's own.
  tensor::TensorArena local;
  const Layer L = make_layer(x, op, fix_pos_in, std::max<std::int64_t>(1, k / 2),
                             arena ? *arena : local);
  for (std::int64_t py = 0; py < 2; ++py) {
    for (std::int64_t px = 0; px < 2; ++px) {
      const std::int64_t ky0 = (py + 1) % 2, kx0 = (px + 1) % 2;
      run(L, h, w,
          Taps{(k - ky0 + 1) / 2, (k - kx0 + 1) / 2,
               py * L.in_row + px * L.cpairs, -L.in_row, -L.cpairs,
               ky0 * k + kx0, 2 * k, 2},
          out.data() + (py * 2 * w + px) * L.co, 4 * w * L.co, 2 * L.co);
    }
  }
}

void maxpool2d_avx2(const TensorI8& x, TensorI8& out) {
  const std::int64_t h = x.shape()[0];
  const std::int64_t w = x.shape()[1];
  const std::int64_t c = x.shape()[2];
  const std::int64_t oh = h / 2, ow = w / 2;
  if (c < 16) {
    // Narrow-channel path (the small ladder rungs pool c <= 15): one
    // overlapped 16-byte vector covers the whole 2x2 window of a pixel.
    // The store writes 16 - c bytes past the pixel's channels; those bytes
    // belong to later output pixels and are rewritten before anyone reads
    // them, because pixels are produced in ascending flat order. The last
    // pixels fall back to scalar so neither loads nor stores leave the
    // tensors.
    const std::int8_t* xb = x.data();
    std::int8_t* ob = out.data();
    const std::int64_t xn = x.numel(), on = out.numel();
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        const std::int64_t i00 = ((2 * oy) * w + 2 * ox) * c;
        const std::int64_t i10 = ((2 * oy + 1) * w + 2 * ox) * c;
        const std::int64_t io = (oy * ow + ox) * c;
        if (i10 + c + 16 <= xn && io + 16 <= on) {
          const __m128i m = _mm_max_epi8(
              _mm_max_epi8(
                  _mm_loadu_si128(reinterpret_cast<const __m128i*>(xb + i00)),
                  _mm_loadu_si128(
                      reinterpret_cast<const __m128i*>(xb + i00 + c))),
              _mm_max_epi8(
                  _mm_loadu_si128(reinterpret_cast<const __m128i*>(xb + i10)),
                  _mm_loadu_si128(
                      reinterpret_cast<const __m128i*>(xb + i10 + c))));
          _mm_storeu_si128(reinterpret_cast<__m128i*>(ob + io), m);
        } else {
          for (std::int64_t ch = 0; ch < c; ++ch) {
            ob[io + ch] =
                std::max(std::max(xb[i00 + ch], xb[i00 + c + ch]),
                         std::max(xb[i10 + ch], xb[i10 + c + ch]));
          }
        }
      }
    }
    return;
  }
  for (std::int64_t oy = 0; oy < oh; ++oy) {
    for (std::int64_t ox = 0; ox < ow; ++ox) {
      const std::int8_t* p00 = x.data() + ((2 * oy) * w + 2 * ox) * c;
      const std::int8_t* p10 = x.data() + ((2 * oy + 1) * w + 2 * ox) * c;
      std::int8_t* po = out.data() + (oy * ow + ox) * c;
      std::int64_t ch = 0;
      for (; ch + 32 <= c; ch += 32) {
        const __m256i m = _mm256_max_epi8(
            _mm256_max_epi8(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(p00 + ch)),
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(p00 + c + ch))),
            _mm256_max_epi8(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(p10 + ch)),
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(p10 + c + ch))));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(po + ch), m);
      }
      for (; ch + 16 <= c; ch += 16) {
        const __m128i m = _mm_max_epi8(
            _mm_max_epi8(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(p00 + ch)),
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(p00 + c + ch))),
            _mm_max_epi8(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(p10 + ch)),
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(p10 + c + ch))));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(po + ch), m);
      }
      for (; ch < c; ++ch) {
        po[ch] = std::max(std::max(p00[ch], p00[c + ch]),
                          std::max(p10[ch], p10[c + ch]));
      }
    }
  }
}

void requant_rows_avx2(const std::int8_t* src, std::int64_t src_stride,
                       std::int8_t* dst, std::int64_t dst_stride,
                       std::int64_t n, std::int64_t rows, int shift) {
  // int16 arithmetic covers |v| <= 128 with rounding-bias headroom for
  // shifts in [-8, 7]; anything wilder goes through the generic rows.
  if (shift == 0 || shift > 7 || shift < -8) {
    requant_rows_generic(src, src_stride, dst, dst_stride, n, rows, shift);
    return;
  }
  const std::int64_t n16 = n & ~std::int64_t{15};
  const __m128i cnt = _mm_cvtsi32_si128(shift > 0 ? shift : -shift);
  const __m128i rbias =
      _mm_set1_epi16(static_cast<short>(shift > 0 ? 1 << (shift - 1) : 0));
  for (std::int64_t r = 0; r < rows; ++r, src += src_stride,
                    dst += dst_stride) {
    std::int64_t i = 0;
    for (; i < n16; i += 16) {
      const __m128i v8 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
      __m128i lo = _mm_cvtepi8_epi16(v8);
      __m128i hi = _mm_cvtepi8_epi16(_mm_srli_si128(v8, 8));
      if (shift > 0) {
        lo = _mm_sign_epi16(
            _mm_srl_epi16(_mm_add_epi16(_mm_abs_epi16(lo), rbias), cnt), lo);
        hi = _mm_sign_epi16(
            _mm_srl_epi16(_mm_add_epi16(_mm_abs_epi16(hi), rbias), cnt), hi);
      } else {
        lo = _mm_sll_epi16(lo, cnt);
        hi = _mm_sll_epi16(hi, cnt);
      }
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                       _mm_packs_epi16(lo, hi));
    }
    for (; i < n; ++i) {
      dst[i] = saturate_i8(rshift_round(src[i], shift));
    }
  }
}

}  // namespace seneca::quant::kernels

#endif  // SENECA_KERNELS_AVX2
