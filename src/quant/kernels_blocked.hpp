#pragma once
// The register-blocked conv / transposed-conv body shared by the x86 INT8
// backends: kernels_avx2.cpp (int16 pairs, _mm256_madd_epi16) and
// kernels_avxvnni.cpp (uint8 quads, _mm256_dpbusd_avx_epi32). Include it
// only from a translation unit compiled with at least -mavx2.
//
// Everything here has internal linkage: the including TUs are built with
// different target flags, and the linker could otherwise keep an inline
// function's -mavxvnni copy for a caller that only checked for AVX2.
//
// Each output pixel reads a bordered input plane of 4-byte channel groups,
// so every tap is in range. Each weight operand is loaded once for kPix = 4
// adjacent output pixels, whose accumulators stay in registers (the B4096
// array shares a weight fetch across 8 pixels the same way). A transposed
// conv is four stride-1 sub-convolutions over the plane, one per output
// parity (2*iy - 1 + ky = oy), each writing int8 directly.
//
// A backend supplies a policy P:
//   kGroup, kPackMaxBytes, kOffsets  channels per group (2 or 4), packing
//                  limit, whether a negative input is read as x + 128
//   widen(r, v)    the two operand vectors of 16 output channels from kGroup
//                  16-byte weight rows, in the block lane order
//                  {0..3, 8..11}, {4..7, 12..15}
//   mac(acc, w, x) acc plus w's dot products with x (a broadcast group)
//   kChunk, chunk(v, flip)  kChunk input channels (from 16 bytes v) as 16
//                  plane bytes; flip is the offset's XOR mask
// Over an x + 128 plane each sub-convolution starts from bias - 128·Σw over
// its taps (offset_init). Results are bit-exact: the dispatcher's
// shift32_safe proof bounds the true sums inside int32 in any summation
// order (wrapping arithmetic ends equal), and the requant epilogue is the
// reference round-half-away-from-zero recipe.

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "quant/qgraph.hpp"
#include "tensor/arena.hpp"

namespace seneca::quant::kernels {

namespace {

/// Output pixels that share each weight load in the blocked body.
constexpr int kPix = 4;

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

/// Swaps between in-order channels (v0 = 0..7, v1 = 8..15) and the block
/// lane order (v0 = {0..3, 8..11}, v1 = {4..7, 12..15}); its own inverse.
inline void swap_lane_order(__m256i (&v)[2]) {
  const __m256i a = _mm256_permute2x128_si256(v[0], v[1], 0x20);
  v[1] = _mm256_permute2x128_si256(v[0], v[1], 0x31);
  v[0] = a;
}

/// Ready-made operands in memory: those of weight tap t and channel group g
/// start at w + t * tap_stride + g * grp_stride, 32 bytes per vector.
struct PackedOperands {
  const std::uint8_t* w;
  std::int64_t tap_stride, grp_stride;

  template <int kVec>
  void load(std::int64_t t, std::int64_t g, __m256i (&v)[kVec]) const {
    const std::uint8_t* p = w + t * tap_stride + g * grp_stride;
    for (int i = 0; i < kVec; ++i) {
      v[i] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32 * i));
    }
  }
};

/// Operands widened in register from the [K][K][Cin][Cout] int8 weights,
/// for the 16 output channels starting at `w`.
template <class P>
struct RawOperands {
  const std::int8_t* w;
  std::int64_t ci, co;

  template <int kVec>
  void load(std::int64_t t, std::int64_t g, __m256i (&v)[2]) const {
    static_assert(kVec == 2);
    __m128i r[P::kGroup];
    for (int m = 0; m < P::kGroup; ++m) {
      const std::int64_t c = P::kGroup * g + m;
      r[m] = c < ci ? _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                          w + (t * ci + c) * co))
                    : _mm_setzero_si128();
    }
    P::widen(r, v);
  }
};

/// The taps of a sub-convolution as a grid: tap (ty, tx), ty < ny and
/// tx < nx, reads the plane at group `off + ty * off_y + tx * off_x` from
/// the pixel's origin, against weight tap `w + ty * w_y + tx * w_x`.
struct Taps {
  std::int64_t ny, nx;
  std::int64_t off, off_y, off_x;
  std::int64_t w, w_y, w_x;
};

/// Accumulates every tap into kPix pixels x kVec 8-channel vectors;
/// `xs(p, group)` broadcasts pixel p's 4-byte group.
template <class P, int kPix, int kVec, typename Operands, typename XSource>
inline void mac(const Taps& taps, std::int64_t groups, const Operands& ops,
                const XSource& xs, __m256i (&acc)[kPix][kVec]) {
  for (std::int64_t ty = 0; ty < taps.ny; ++ty) {
    for (std::int64_t tx = 0; tx < taps.nx; ++tx) {
      const std::int64_t off = taps.off + ty * taps.off_y + tx * taps.off_x;
      const std::int64_t t = taps.w + ty * taps.w_y + tx * taps.w_x;
      for (std::int64_t g = 0; g < groups; ++g) {
        // Branchless on purpose: post-ReLU activations are zero-rich and a
        // data-dependent skip mispredicts far more than the saved MAC.
        __m256i wv[kVec];
        ops.template load<kVec>(t, g, wv);
        for (int p = 0; p < kPix; ++p) {
          const __m256i xv = xs(p, off + g);
          for (int v = 0; v < kVec; ++v) {
            acc[p][v] = P::mac(acc[p][v], wv[v], xv);
          }
        }
      }
    }
  }
}

/// Per-call constants of one conv or transposed conv layer.
struct Layer {
  std::int64_t ci = 0, co = 0, groups = 0;
  std::int64_t nblk = 0;   // full 16-channel blocks
  std::int64_t tail = 0;   // co % 16 channels past them
  std::int64_t nwords = 0;  // int32 initial accumulators per run
  bool packed = false;  // blocks read `blk` (else widen the int8 weights)
  const std::int8_t* weights = nullptr;
  PackedOperands blk{};
  PackedOperands tail_ops{};
  int shift = 0;
  bool relu = false;
  std::uint8_t* plane = nullptr;        // bordered input groups
  std::int64_t border = 0, in_row = 0;  // plane border (pixels), row (groups)
  // Initial accumulators, nwords per slot: the bias, then (x + 128 planes)
  // offset_init's. Blocks in lane order, then the tail in channel order.
  std::int32_t* init = nullptr;
};

/// Accumulates every 16-channel block and the tail over `taps`, seeded from
/// `init`, and hands the accumulators to `done(acc, bi)` (bi == L.nblk for
/// the tail).
template <class P, int kPix, typename XSource, typename Done>
inline void each_block(const Layer& L, const std::int32_t* init,
                       const Taps& taps, const XSource& xs, Done&& done) {
  const auto block = [&](std::int64_t bi, auto nvec, const auto& ops) {
    constexpr int kVec = decltype(nvec)::value;
    __m256i acc[kPix][kVec];
    for (int p = 0; p < kPix; ++p) {
      for (int v = 0; v < kVec; ++v) {
        acc[p][v] = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(init + 16 * bi + 8 * v));
      }
    }
    mac<P, kPix, kVec>(taps, L.groups, ops, xs, acc);
    done(acc, bi);
  };
  using Two = std::integral_constant<int, 2>;
  for (std::int64_t bi = 0; bi < L.nblk; ++bi) {
    if (L.packed) {
      PackedOperands ops = L.blk;
      ops.w += bi * L.groups * 64;
      block(bi, Two{}, ops);
    } else {
      block(bi, Two{}, RawOperands<P>{L.weights + 16 * bi, L.ci, L.co});
    }
  }
  if (L.tail > 8) {
    block(L.nblk, Two{}, L.tail_ops);
  } else if (L.tail > 0) {
    block(L.nblk, std::integral_constant<int, 1>{}, L.tail_ops);
  }
}

/// Computes kPix output pixels over all output channels; pixel p reads the
/// plane from xp[p] and writes co int8 channels at op[p].
template <class P, int kPix>
void pixels(const Layer& L, const Taps& taps, const std::int32_t* init,
            const std::uint8_t* const (&xp)[kPix],
            std::int8_t* const (&op)[kPix]) {
  const auto xs = [&](int p, std::int64_t group) {
    std::int32_t q;
    std::memcpy(&q, xp[p] + 4 * group, sizeof q);
    return _mm256_set1_epi32(q);
  };
  each_block<P, kPix>(L, init, taps, xs, [&](auto& acc, std::int64_t bi) {
    constexpr int kVec = sizeof acc[0] / sizeof(__m256i);
    for (int p = 0; p < kPix; ++p) {
      if constexpr (kVec == 2) {
        if (bi < L.nblk) {
          swap_lane_order(acc[p]);
          requant_store16(acc[p][0], acc[p][1], L.shift, L.relu,
                          op[p] + 16 * bi);
          continue;
        }
      }
      for (int v = 0; v < kVec; ++v) {
        requant_store_n(acc[p][v], L.shift, L.relu, op[p] + 16 * bi + 8 * v,
                        std::min<std::int64_t>(8, L.tail - 8 * v));
      }
    }
  });
}

/// One stride-1 sub-convolution over an h x w grid of output pixels: pixel
/// (r, c) has its plane origin at the plane's input pixel (r, c) and its co
/// channels at out + r * out_row + c * out_pix. Pixels run in raster order,
/// kPix at a time across row ends, then one at a time for the last
/// h*w % kPix.
template <class P>
void run(const Layer& L, std::int64_t h, std::int64_t w, const Taps& taps,
         const std::int32_t* init, std::int8_t* out, std::int64_t out_row,
         std::int64_t out_pix) {
  const std::uint8_t* origin =
      L.plane + 4 * (L.border * L.in_row + L.border * L.groups);
  std::int64_t r = 0, c = 0;
  const auto next = [&](const std::uint8_t*& xp, std::int8_t*& op) {
    xp = origin + 4 * (r * L.in_row + c * L.groups);
    op = out + r * out_row + c * out_pix;
    if (++c == w) {
      c = 0;
      ++r;
    }
  };
  std::int64_t i = 0;
  for (; i + kPix <= h * w; i += kPix) {
    const std::uint8_t* xp[kPix];
    std::int8_t* op[kPix];
    for (int p = 0; p < kPix; ++p) next(xp[p], op[p]);
    pixels<P, kPix>(L, taps, init, xp, op);
  }
  for (; i < h * w; ++i) {
    const std::uint8_t* xp[1];
    std::int8_t* op[1];
    next(xp[0], op[0]);
    pixels<P, 1>(L, taps, init, xp, op);
  }
}

/// Initial accumulators of a sub-convolution over an x + 128 plane, into
/// the second slot: bias - 128·Σw over the taps it reads, in wrapping int32.
template <class P>
const std::int32_t* offset_init(const Layer& L, const Taps& taps) {
  std::int32_t* dst = L.init + L.nwords;
  std::memset(dst, 0, static_cast<std::size_t>(L.nwords) * sizeof *dst);
  const auto x128 = [](int, std::int64_t) { return _mm256_set1_epi8(-128); };
  each_block<P, 1>(L, dst, taps, x128, [&](auto& acc, std::int64_t bi) {
    constexpr int kVec = sizeof acc[0] / sizeof(__m256i);
    for (int v = 0; v < kVec; ++v) {
      const std::int64_t i = 16 * bi + 8 * v;
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(dst + i),
          _mm256_sub_epi32(_mm256_loadu_si256(
                               reinterpret_cast<const __m256i*>(L.init + i)),
                           acc[0][v]));
    }
  });
  return dst;
}

/// Loads 16 bytes from p, zero past `end`, without reading past `end`.
inline __m128i load_row(const std::int8_t* p, const std::int8_t* end) {
  if (end - p >= 16) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  alignas(16) std::int8_t tmp[16] = {};
  std::memcpy(tmp, p, static_cast<std::size_t>(end - p));
  return _mm_load_si128(reinterpret_cast<const __m128i*>(tmp));
}

/// Sets up one layer for input `x`: scratch for the plane (left for the
/// caller to build), the weight operands (blocks packed when the layer
/// amortises it, the tail always, in channel order) and `slots`
/// initial-accumulator slots, the first holding the bias.
template <class P>
Layer make_layer(const TensorI8& x, const QOp& op, int fix_pos_in,
                 std::int64_t border, int slots, tensor::TensorArena& arena) {
  Layer L;
  L.ci = x.shape()[2];
  L.co = op.out_shape[2];
  L.groups = (L.ci + P::kGroup - 1) / P::kGroup;
  L.nblk = L.co / 16;
  L.tail = L.co % 16;
  const std::int64_t nb8 = (L.tail + 7) / 8;  // 0..2
  L.nwords = 16 * L.nblk + 8 * nb8;
  L.weights = op.weights.data();
  L.shift = fix_pos_in + op.fix_pos_w - op.fix_pos_out;
  L.relu = op.relu;
  L.border = border;
  L.in_row = (x.shape()[1] + 2 * border) * L.groups;
  const std::int64_t k2 = op.kernel * op.kernel;
  const std::int64_t plane = (x.shape()[0] + 2 * border) * L.in_row * 4;
  const std::int64_t blk = k2 * L.nblk * L.groups * 64;
  L.packed = L.nblk > 0 && blk <= P::kPackMaxBytes &&
             x.shape()[0] * x.shape()[1] >= kPackMinPixels;
  std::uint8_t* scratch = arena.scratch(plane + (L.packed ? blk : 0) +
                                        k2 * L.groups * nb8 * 32);
  L.plane = scratch;
  scratch += plane;

  // The bias: blocks in lane order (lane j of a block holds channel
  // j % 4 + 8 * (j / 4 % 2) + 4 * (j / 8)), then the tail in channel order.
  L.init = arena.acc32(slots * L.nwords);
  for (std::int64_t i = 0; i < L.nwords; ++i) {
    const std::int64_t j = i % 16;
    const std::int64_t ch =
        i < 16 * L.nblk ? i - j + j % 4 + 8 * (j / 4 % 2) + 4 * (j / 8) : i;
    L.init[i] = ch < L.co ? op.bias[static_cast<std::size_t>(ch)] : 0;
  }

  // Block operands [tap][block][group][2][32 bytes]: the in-register
  // widening, stored. Tail operands [tap][group][nb8][32 bytes] in channel
  // order, so one MAC yields 8 in-order int32 lanes; lanes past co hold
  // arbitrary weights and are never stored.
  std::uint8_t* const tail_ops = scratch + (L.packed ? blk : 0);
  const std::int8_t* const tail_w = L.weights + 16 * L.nblk;
  const std::int8_t* const end = L.weights + op.weights.numel();
  for (std::int64_t t = 0; t < k2; ++t) {
    for (std::int64_t g = 0; g < L.groups; ++g) {
      __m256i v[2];
      for (std::int64_t bi = 0; L.packed && bi < L.nblk; ++bi) {
        const RawOperands<P> raw{L.weights + 16 * bi, L.ci, L.co};
        raw.template load<2>(t, g, v);
        std::uint8_t* dst = scratch + ((t * L.nblk + bi) * L.groups + g) * 64;
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), v[0]);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 32), v[1]);
      }
      if (L.tail == 0) continue;
      __m128i r[P::kGroup];
      for (int m = 0; m < P::kGroup; ++m) {
        const std::int64_t c = P::kGroup * g + m;
        r[m] = c < L.ci ? load_row(tail_w + (t * L.ci + c) * L.co, end)
                        : _mm_setzero_si128();
      }
      P::widen(r, v);
      swap_lane_order(v);
      std::uint8_t* dst = tail_ops + (t * L.groups + g) * nb8 * 32;
      for (int i = 0; i < nb8; ++i) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 32 * i), v[i]);
      }
    }
  }
  L.blk = {scratch, L.nblk * L.groups * 64, 64};
  L.tail_ops = {tail_ops, L.groups * nb8 * 32, nb8 * 32};
  return L;
}

/// Whether any byte of x is negative.
inline bool any_negative(const TensorI8& x) {
  const std::int8_t* p = x.data();
  const std::int64_t n = x.numel();
  __m256i any = _mm256_setzero_si256();
  std::int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    any = _mm256_or_si256(
        any, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i)));
  }
  bool neg = _mm256_movemask_epi8(any) != 0;
  for (; i < n; ++i) neg |= p[i] < 0;
  return neg;
}

/// Writes x into the plane, pixel by pixel in ascending order and kChunk
/// channels per 16-byte store, with a border of `fill` bytes (0x80 = the
/// offset's 128, which is also the XOR that adds 128 to x). A store past a
/// pixel's channels spills into the next pixel (written next) or the
/// borders (filled after each row and at the end); it leaves arbitrary
/// bytes past ci in a pixel's last group, whose weights are zero.
template <class P>
void build_plane(const TensorI8& x, std::int64_t border, int fill,
                 std::uint8_t* plane) {
  const std::int64_t h = x.shape()[0];
  const std::int64_t w = x.shape()[1];
  const std::int64_t ci = x.shape()[2];
  const std::int64_t pix = (ci + P::kGroup - 1) / P::kGroup * 4;  // bytes
  const std::int64_t row = (w + 2 * border) * pix;
  std::uint8_t* const end = plane + (h + 2 * border) * row;
  const std::int8_t* const x_end = x.data() + x.numel();
  const __m128i flip = _mm_set1_epi8(static_cast<char>(fill));
  const auto refill = [&](std::uint8_t* from, std::int64_t bytes) {
    std::memset(from, fill, static_cast<std::size_t>(bytes));
  };
  refill(plane, border * (row + pix));  // top border, row 0's left border
  for (std::int64_t iy = 0; iy < h; ++iy) {
    std::uint8_t* line = plane + (iy + border) * row;
    for (std::int64_t ix = 0; ix < w; ++ix) {
      const std::int8_t* s = x.data() + (iy * w + ix) * ci;
      std::uint8_t* d = line + (border + ix) * pix;
      for (std::int64_t c = 0; c < ci; c += P::kChunk, d += 16) {
        const __m128i v = P::chunk(load_row(s + c, x_end), flip);
        if (end - d >= 16) {
          _mm_storeu_si128(reinterpret_cast<__m128i*>(d), v);
        } else {
          alignas(16) std::uint8_t t[16];
          _mm_store_si128(reinterpret_cast<__m128i*>(t), v);
          std::memcpy(d, t, static_cast<std::size_t>(end - d));
        }
      }
    }
    // This row's right border and the next row's left one.
    refill(line + (border + w) * pix, 2 * border * pix);
  }
  refill(end - border * row, border * row);
}

/// conv2d (`transposed` false) or tconv2d over the policy's plane. Conv
/// output (oy, ox) reads input (oy + ky - pad, ox + kx - pad); the plane's
/// border stands in for the padding. Transposed-conv output
/// (2m + py, 2n + px) gathers taps ky = ky0 + 2 * ty, with
/// ky0 = (py + 1) % 2, from input row m + py - ty (columns likewise): from
/// one row below to k/2 - 1 rows above the pixel's own.
template <class P>
void blocked(const TensorI8& x, const QOp& op, TensorI8& out, int fix_pos_in,
             tensor::TensorArena* arena, bool transposed) {
  const std::int64_t h = x.shape()[0];
  const std::int64_t w = x.shape()[1];
  const std::int64_t k = op.kernel;
  const std::int64_t border =
      transposed ? std::max<std::int64_t>(1, k / 2) : k / 2;
  const bool offset = P::kOffsets && any_negative(x);
  tensor::TensorArena local;
  const Layer L = make_layer<P>(x, op, fix_pos_in, border, offset ? 2 : 1,
                                arena ? *arena : local);
  build_plane<P>(x, border, offset ? 0x80 : 0, L.plane);
  const auto sub = [&](const Taps& taps, std::int8_t* dst, std::int64_t row,
                       std::int64_t pix) {
    const std::int32_t* init = L.init;
    if constexpr (P::kOffsets) {
      if (offset) init = offset_init<P>(L, taps);
    }
    run<P>(L, h, w, taps, init, dst, row, pix);
  };
  if (!transposed) {
    sub({k, k, -border * (L.in_row + L.groups), L.in_row, L.groups, 0, k, 1},
        out.data(), w * L.co, L.co);
    return;
  }
  for (std::int64_t py = 0; py < 2; ++py) {
    for (std::int64_t px = 0; px < 2; ++px) {
      const std::int64_t ky0 = (py + 1) % 2, kx0 = (px + 1) % 2;
      sub({(k - ky0 + 1) / 2, (k - kx0 + 1) / 2, py * L.in_row + px * L.groups,
           -L.in_row, -L.groups, ky0 * k + kx0, 2 * k, 2},
          out.data() + (py * 2 * w + px) * L.co, 4 * w * L.co, 2 * L.co);
    }
  }
}

}  // namespace

}  // namespace seneca::quant::kernels
