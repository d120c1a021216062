// SENECA-Kernels property tests. The central invariant: every backend of
// the vectorized INT8 layer (generic int32, AVX2/NEON) is BIT-EXACT against
// the scalar int64 reference kernels in qgraph.cpp — across shapes, channel
// counts not divisible by the vector width, negative requant shifts (the
// left-shift path), ReLU on/off, and the int32-overflow fallback. Plus the
// reference-semantics bugfix pins: rounding-mode independence of
// quantize_tensor, odd-extent max-pool rejection, activation-capture
// aliasing, and arena recycling.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cfenv>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "dpu/compiler.hpp"
#include "dpu/core_sim.hpp"
#include "nn/unet.hpp"
#include "quant/kernels.hpp"
#include "quant/quantizer.hpp"
#include "tensor/arena.hpp"
#include "util/rng.hpp"

namespace seneca::quant {
namespace {

using tensor::Shape;
using tensor::TensorArena;
using tensor::TensorF;
using tensor::TensorI8;

TensorI8 random_i8(const Shape& shape, std::uint64_t seed) {
  util::Rng rng(seed);
  TensorI8 t(shape);
  for (auto& v : t) {
    // ~1/8 exact zeros so the xv==0 skip path is exercised.
    const int r = rng.uniform_int(-144, 127);
    v = static_cast<std::int8_t>(r < -128 ? 0 : r);
  }
  return t;
}

QOp make_op(QOpKind kind, std::int64_t k, std::int64_t ci, std::int64_t co,
            const Shape& out_shape, int fix_pos_w, int fix_pos_out, bool relu,
            std::uint64_t seed) {
  QOp op;
  op.kind = kind;
  op.name = "op";
  op.inputs = {0};
  op.out_shape = out_shape;
  op.fix_pos_out = fix_pos_out;
  op.fix_pos_w = fix_pos_w;
  op.kernel = k;
  op.relu = relu;
  op.weights = random_i8(Shape{k, k, ci, co}, seed * 31 + 1);
  util::Rng rng(seed * 31 + 2);
  op.bias.resize(static_cast<std::size_t>(co));
  for (auto& b : op.bias) {
    b = static_cast<std::int32_t>(rng.uniform_int(-5000, 5000));
  }
  return op;
}

::testing::AssertionResult same_tensor(const TensorI8& got,
                                       const TensorI8& want) {
  if (got.shape() != want.shape()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  if (std::memcmp(got.data(), want.data(),
                  static_cast<std::size_t>(want.numel())) == 0) {
    return ::testing::AssertionSuccess();
  }
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    if (got[i] != want[i]) {
      return ::testing::AssertionFailure()
             << "first mismatch at flat index " << i << ": got "
             << static_cast<int>(got[i]) << ", want "
             << static_cast<int>(want[i]);
    }
  }
  return ::testing::AssertionFailure() << "unreachable";
}

/// Backends to check against the scalar reference.
std::vector<kernels::Backend> backends_under_test() {
  std::vector<kernels::Backend> v{kernels::Backend::kGeneric};
  if (kernels::simd_available()) v.push_back(kernels::Backend::kSimd);
  return v;
}

class KernelsTest : public ::testing::Test {
 protected:
  void TearDown() override { kernels::set_backend(kernels::Backend::kAuto); }
};

// ------------------------------------------------ conv bit-exactness -----

// One conv or tconv case against the scalar reference on every backend,
// with and without an arena (`arena` is shared across cases, so its scratch
// is reused at changing sizes).
void expect_bit_exact(QOpKind kind, std::int64_t h, std::int64_t w,
                      std::int64_t ci, std::int64_t co, std::int64_t k,
                      int shift, bool relu, std::uint64_t seed,
                      TensorArena& arena) {
  const bool tconv = kind == QOpKind::kTConv2D;
  const int fp_in = 4, fp_w = 3;
  const Shape out_shape =
      tconv ? Shape{2 * h, 2 * w, co} : Shape{h, w, co};
  const QOp op = make_op(kind, k, ci, co, out_shape, fp_w,
                         fp_in + fp_w - shift, relu, seed);
  const TensorI8 x = random_i8(Shape{h, w, ci}, seed);
  TensorI8 ref(out_shape);
  if (tconv) {
    qtconv2d_forward(x, op, ref, fp_in);
  } else {
    qconv2d_forward(x, op, ref, fp_in);
  }
  for (kernels::Backend b : backends_under_test()) {
    kernels::set_backend(b);
    for (TensorArena* ap : {static_cast<TensorArena*>(nullptr), &arena}) {
      TensorI8 got(out_shape);
      if (tconv) {
        kernels::tconv2d(x, op, got, fp_in, ap);
      } else {
        kernels::conv2d(x, op, got, fp_in, ap);
      }
      EXPECT_TRUE(same_tensor(got, ref))
          << (tconv ? "tconv" : "conv")
          << " backend=" << kernels::backend_name(b) << " h=" << h
          << " w=" << w << " ci=" << ci << " co=" << co << " k=" << k
          << " shift=" << shift << " relu=" << relu
          << (ap ? " (arena)" : " (no arena)");
    }
  }
}

TEST_F(KernelsTest, Conv2DBitExactAcrossBackends) {
  // Channel counts straddle the AVX2 (16-wide, 2-channel-paired) and NEON
  // (8-wide) vector widths: odd, prime, exact multiples, and multiples+1.
  const std::int64_t cis[] = {1, 2, 3, 5, 16, 17};
  const std::int64_t cos[] = {1, 3, 7, 8, 16, 17, 33};
  // fp_in + fp_w - fp_out: positive (right shift), zero, and negative (the
  // left-shift requant path).
  const int shifts[] = {4, 2, 0, -2};
  TensorArena arena;
  std::uint64_t seed = 1;
  for (std::int64_t ci : cis) {
    for (std::int64_t co : cos) {
      for (int shift : shifts) {
        for (int relu = 0; relu < 2; ++relu) {
          ++seed;
          expect_bit_exact(QOpKind::kConv2D, 5, 4, ci, co, (seed % 2) ? 3 : 1,
                           shift, relu != 0, seed, arena);
        }
      }
    }
  }
}

TEST_F(KernelsTest, TConv2DBitExactAcrossBackends) {
  const std::int64_t cis[] = {1, 3, 8, 17};
  const std::int64_t cos[] = {1, 5, 16, 33};
  const int shifts[] = {4, 0, -2};
  TensorArena arena;
  std::uint64_t seed = 1000;
  for (std::int64_t ci : cis) {
    for (std::int64_t co : cos) {
      for (int shift : shifts) {
        ++seed;
        expect_bit_exact(QOpKind::kTConv2D, 3, 4, ci, co, 3, shift,
                         (seed % 2) != 0, seed, arena);
      }
    }
  }
}

TEST_F(KernelsTest, ConvAndTConvBitExactAcrossShapes) {
  // Widths 1..9 over one and three rows put every pixel count from 1 to 27
  // through the blocked body: full 4-pixel blocks running across row ends,
  // the single-pixel remainder, and both sides of the AVX2 pixel-count
  // packing cut-over (16 input pixels). co covers the ladder's real
  // co % 16 tails (6, 11, 22, 44), ci odd and even, k odd and even.
  const std::int64_t ws[] = {1, 2, 3, 4, 5, 7, 8, 9};
  const std::int64_t hs[] = {1, 3};
  const std::int64_t cis[] = {1, 3, 8, 17};
  const std::int64_t cos[] = {1, 6, 11, 16, 22, 44};
  const std::int64_t ks[] = {3, 1, 2, 5};
  const int shifts[] = {4, 0, -2, 7};
  TensorArena arena;
  std::uint64_t seed = 5000;
  for (QOpKind kind : {QOpKind::kConv2D, QOpKind::kTConv2D}) {
    for (std::int64_t h : hs) {
      for (std::int64_t w : ws) {
        for (std::int64_t ci : cis) {
          for (std::int64_t co : cos) {
            ++seed;
            expect_bit_exact(kind, h, w, ci, co, ks[seed % 4],
                             shifts[(seed / 4) % 4], (seed % 3) != 0, seed,
                             arena);
          }
        }
      }
    }
  }
}

TEST_F(KernelsTest, ConvAndTConvBitExactAcrossPackingByteLimit) {
  // The AVX2 block operands stay unpacked past 1.5 MiB of packed int16
  // (k*k * co/16 * ceil(ci/2) * 64 bytes): with k = 3 and co = 32 (+ a
  // 6-channel tail) ci = 2729 packs and ci = 2731 does not. Pixel counts
  // sit on both sides of the pixel cut-over too.
  TensorArena arena;
  std::uint64_t seed = 6000;
  for (QOpKind kind : {QOpKind::kConv2D, QOpKind::kTConv2D}) {
    for (std::int64_t ci : {2729, 2731}) {
      for (std::int64_t w : {3, 6}) {
        ++seed;
        expect_bit_exact(kind, 3, w, ci, 38, 3, 6, (seed % 2) != 0, seed,
                         arena);
      }
    }
  }
}

TEST_F(KernelsTest, MaxPoolBitExactAcrossBackends) {
  const std::int64_t cs[] = {1, 3, 15, 16, 33, 48};
  std::uint64_t seed = 2000;
  for (std::int64_t c : cs) {
    ++seed;
    const std::int64_t h = 6, w = 8;
    const TensorI8 x = random_i8(Shape{h, w, c}, seed);
    TensorI8 ref(Shape{h / 2, w / 2, c});
    qmaxpool2d_forward(x, ref);
    for (kernels::Backend b : backends_under_test()) {
      kernels::set_backend(b);
      TensorI8 got(Shape{h / 2, w / 2, c});
      kernels::maxpool2d(x, got);
      EXPECT_TRUE(same_tensor(got, ref))
          << "backend=" << kernels::backend_name(b) << " c=" << c;
    }
  }
}

TEST_F(KernelsTest, ConcatBitExactAcrossBackends) {
  const std::int64_t cas[] = {1, 3, 16, 17};
  const int shifts[] = {-2, 0, 3};
  std::uint64_t seed = 3000;
  for (std::int64_t ca : cas) {
    for (int sa : shifts) {
      for (int sb : shifts) {
        ++seed;
        const std::int64_t h = 4, w = 5, cb = 7;
        const int fp_out = 4;
        const TensorI8 a = random_i8(Shape{h, w, ca}, seed);
        const TensorI8 b = random_i8(Shape{h, w, cb}, seed + 1);
        TensorI8 ref(Shape{h, w, ca + cb});
        qconcat_forward(a, fp_out + sa, b, fp_out + sb, ref, fp_out);
        for (kernels::Backend bk : backends_under_test()) {
          kernels::set_backend(bk);
          TensorI8 got(Shape{h, w, ca + cb});
          kernels::concat(a, fp_out + sa, b, fp_out + sb, got, fp_out);
          EXPECT_TRUE(same_tensor(got, ref))
              << "backend=" << kernels::backend_name(bk) << " ca=" << ca
              << " sa=" << sa << " sb=" << sb;
        }
      }
    }
  }
}

TEST_F(KernelsTest, RequantRowsMatchReferenceForAllShifts) {
  // Strided regions as concat assembly uses them: every row length below
  // one 16-byte vector (the blended short rows, including the last rows of
  // a buffer, which may not read or write 16 bytes) and odd lengths past
  // it; gaps between rows must stay untouched.
  const std::array<std::int64_t, 3> layouts[] = {
      {131, 140, 3}, {15, 15, 9}, {6, 22, 12}, {22, 6, 12}};
  for (const auto& [src_stride, dst_stride, rows] : layouts) {
    const TensorI8 src = random_i8(Shape{rows * src_stride}, 99);
    for (std::int64_t n = 1; n <= std::min(src_stride, dst_stride);
         n += n < 17 ? 1 : 56) {
      for (int shift = -12; shift <= 12; ++shift) {
        std::vector<std::int8_t> ref(
            static_cast<std::size_t>(rows * dst_stride), 42);
        for (std::int64_t r = 0; r < rows; ++r) {
          for (std::int64_t i = 0; i < n; ++i) {
            ref[static_cast<std::size_t>(r * dst_stride + i)] =
                saturate_i8(rshift_round(src[r * src_stride + i], shift));
          }
        }
        for (kernels::Backend b : backends_under_test()) {
          kernels::set_backend(b);
          std::vector<std::int8_t> got(ref.size(), 42);
          kernels::requant_rows(src.data(), src_stride, got.data(),
                                dst_stride, n, rows, shift);
          EXPECT_EQ(got, ref)
              << "backend=" << kernels::backend_name(b) << " n=" << n
              << " shift=" << shift << " strides=" << src_stride << "/"
              << dst_stride;
        }
      }
    }
  }
}

// ------------------------------------------------ x86 conv bodies ----

#if defined(SENECA_KERNELS_AVX2)
using Body = void (*)(const TensorI8&, const QOp&, TensorI8&, int,
                      TensorArena*);
struct X86Body {
  const char* name;
  Body conv, tconv;
};

/// The AVX2 body or, for `vnni`, the AVX-VNNI body, to be called directly
/// (not through the dispatcher), so the AVX2 body stays tested on hosts
/// that dispatch to AVX-VNNI. Without it, nullopt and `why` names the
/// missing feature.
std::optional<X86Body> x86_body(bool vnni, std::string& why) {
  if (!kernels::simd_available()) {
    why = "CPU lacks AVX2";
    return std::nullopt;
  }
  if (!vnni) {
    return X86Body{"avx2", kernels::conv2d_avx2, kernels::tconv2d_avx2};
  }
#if defined(SENECA_KERNELS_AVXVNNI)
  if (kernels::avxvnni_available()) {
    return X86Body{"avx-vnni", kernels::conv2d_avxvnni,
                   kernels::tconv2d_avxvnni};
  }
  why = "CPU lacks AVX-VNNI (cpuid avxvnni): the AVX-VNNI conv body sweep "
        "did not run";
#else
  why = "AVX-VNNI body not built (compiler lacks -mavxvnni)";
#endif
  return std::nullopt;
}

/// Input with every byte in 0..127, or (`one_negative`) the same with
/// exactly one byte negative: the two sides of the AVX-VNNI +128 offset.
TensorI8 signed_input(const Shape& shape, bool one_negative,
                      std::uint64_t seed) {
  util::Rng rng(seed);
  TensorI8 t(shape);
  for (auto& v : t) v = static_cast<std::int8_t>(rng.uniform_int(0, 127));
  if (one_negative) {
    t[rng.uniform_int(0, static_cast<int>(t.numel() - 1))] =
        static_cast<std::int8_t>(rng.uniform_int(-128, -1));
  }
  return t;
}

void expect_body_bit_exact(const X86Body& body, QOpKind kind, const QOp& op,
                           const TensorI8& x, int fp_in, TensorArena& arena,
                           const std::string& what) {
  const bool tconv = kind == QOpKind::kTConv2D;
  TensorI8 ref(op.out_shape);
  TensorI8 got(op.out_shape);
  if (tconv) {
    qtconv2d_forward(x, op, ref, fp_in);
    body.tconv(x, op, got, fp_in, &arena);
  } else {
    qconv2d_forward(x, op, ref, fp_in);
    body.conv(x, op, got, fp_in, &arena);
  }
  EXPECT_TRUE(same_tensor(got, ref))
      << body.name << (tconv ? " tconv " : " conv ") << what;
}

// ci 1..17 (every ci mod 4 of the quads, every parity of the pairs) x co
// tails 1..15 plus 16/22/44, with k 1/2/3/5, grids below (3x3) and above
// (4x5) the 16-pixel packing cut-over, shifts and relu cycled, inputs
// all-non-negative or with exactly one negative byte.
void sweep_body(const X86Body& body) {
  const std::int64_t cos[] = {1, 2,  3,  4,  5,  6,  7,  8,  9,
                              10, 11, 12, 13, 14, 15, 16, 22, 44};
  const std::int64_t ks[] = {1, 2, 3, 5};
  const int shifts[] = {4, 0, -2, 7};
  TensorArena arena;
  std::uint64_t seed = 7000;
  for (QOpKind kind : {QOpKind::kConv2D, QOpKind::kTConv2D}) {
    const bool tconv = kind == QOpKind::kTConv2D;
    for (std::int64_t ci = 1; ci <= 17; ++ci) {
      for (std::int64_t co : cos) {
        ++seed;
        const std::int64_t k = ks[seed % 4];
        const std::int64_t h = (seed / 4) % 2 ? 4 : 3;
        const std::int64_t w = h + 1 - (seed / 8) % 2;
        const int shift = shifts[(seed / 3) % 4];
        const int fp_in = 4, fp_w = 3;
        const Shape out_shape =
            tconv ? Shape{2 * h, 2 * w, co} : Shape{h, w, co};
        const QOp op = make_op(kind, k, ci, co, out_shape, fp_w,
                               fp_in + fp_w - shift, seed % 3 != 0, seed);
        for (bool one_negative : {false, true}) {
          const TensorI8 x =
              signed_input(Shape{h, w, ci}, one_negative, seed + 17);
          expect_body_bit_exact(
              body, kind, op, x, fp_in, arena,
              "h=" + std::to_string(h) + " w=" + std::to_string(w) +
                  " ci=" + std::to_string(ci) + " co=" + std::to_string(co) +
                  " k=" + std::to_string(k) + " shift=" +
                  std::to_string(shift) +
                  (one_negative ? " one negative byte" : " non-negative"));
        }
      }
    }
  }
}

// Weights and inputs at 127 / -128 with the op at the edge of the
// dispatcher's int32 proof (k = 3, ci = 14563, |bias| + 9*ci*2^14 plus the
// shift-14 rounding bias just inside int32). For the even (all -128)
// channels, Σw·(x + 128) alone is below -2^31 while the true sum is not:
// the AVX-VNNI offset path must still be exact.
void edge_body(const X86Body& body) {
  const std::int64_t k = 3, ci = 14563, co = 22;
  const int fp_in = 4, fp_w = 3, shift = 14;
  TensorArena arena;
  for (const std::int64_t w : {3, 5}) {
    const std::int64_t h = w - 1;
    QOp op = make_op(QOpKind::kConv2D, k, ci, co, Shape{h, w, co}, fp_w,
                     fp_in + fp_w - shift, false, 9);
    for (std::int64_t i = 0; i < op.weights.numel(); ++i) {
      op.weights[i] = static_cast<std::int8_t>(i % co % 2 ? 127 : -128);
    }
    for (std::size_t o = 0; o < op.bias.size(); ++o) {
      op.bias[o] = o % 2 ? 73727 : -73727;
    }
    ASSERT_TRUE(kernels::acc32_safe(op, ci));
    // 7312 of each pixel's channels at 127, the rest at -128: a pixel's
    // bytes sum to 496, so the true sums stay far from saturation.
    TensorI8 x(Shape{h, w, ci});
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      x[i] = static_cast<std::int8_t>(i % ci < 7312 ? 127 : -128);
    }
    expect_body_bit_exact(body, QOpKind::kConv2D, op, x, fp_in, arena,
                          "int32 edge w=" + std::to_string(w));
    // The dispatcher takes the int32 path for this op too.
    TensorI8 via_dispatch(op.out_shape);
    kernels::set_backend(kernels::Backend::kSimd);
    kernels::conv2d(x, op, via_dispatch, fp_in, &arena);
    TensorI8 ref(op.out_shape);
    qconv2d_forward(x, op, ref, fp_in);
    EXPECT_TRUE(same_tensor(via_dispatch, ref)) << "dispatch w=" << w;
  }
}

TEST_F(KernelsTest, Avx2BodyBitExactSweep) {
  std::string why;
  const auto body = x86_body(false, why);
  if (!body) GTEST_SKIP() << why;
  sweep_body(*body);
}

TEST_F(KernelsTest, AvxVnniBodyBitExactSweep) {
  std::string why;
  const auto body = x86_body(true, why);
  if (!body) GTEST_SKIP() << why;
  sweep_body(*body);
}

TEST_F(KernelsTest, Avx2BodyBitExactAtInt32Edge) {
  std::string why;
  const auto body = x86_body(false, why);
  if (!body) GTEST_SKIP() << why;
  edge_body(*body);
}

TEST_F(KernelsTest, AvxVnniBodyBitExactAtInt32Edge) {
  std::string why;
  const auto body = x86_body(true, why);
  if (!body) GTEST_SKIP() << why;
  edge_body(*body);
}
#endif  // SENECA_KERNELS_AVX2

// ------------------------------------------- int32-overflow fallback -----

TEST_F(KernelsTest, HugeBiasForcesExactScalarFallback) {
  const std::int64_t h = 4, w = 4, ci = 8, co = 16, k = 3;
  QOp op = make_op(QOpKind::kConv2D, k, ci, co, Shape{h, w, co}, 3, 5, false,
                   7);
  op.bias[3] = std::numeric_limits<std::int32_t>::max();
  EXPECT_FALSE(kernels::acc32_safe(op, ci));
  const TensorI8 x = random_i8(Shape{h, w, ci}, 7);
  TensorI8 ref(op.out_shape);
  qconv2d_forward(x, op, ref, 4);
  for (kernels::Backend b : backends_under_test()) {
    kernels::set_backend(b);
    TensorI8 got(op.out_shape);
    kernels::conv2d(x, op, got, 4);
    EXPECT_TRUE(same_tensor(got, ref))
        << "backend=" << kernels::backend_name(b);
  }
}

TEST_F(KernelsTest, ExtremeRequantShiftsStayExact) {
  // shift = fp_in + fp_w - fp_out: +40 and -25 are far outside the int32
  // requant envelope, so every backend must route to the int64 reference.
  const std::int64_t h = 3, w = 3, ci = 4, co = 16, k = 3;
  const TensorI8 x = random_i8(Shape{h, w, ci}, 11);
  for (int shift : {40, -25}) {
    QOp op = make_op(QOpKind::kConv2D, k, ci, co, Shape{h, w, co}, 20,
                     20 + 20 - shift, false, 11);
    TensorI8 ref(op.out_shape);
    qconv2d_forward(x, op, ref, 20);
    for (kernels::Backend b : backends_under_test()) {
      kernels::set_backend(b);
      TensorI8 got(op.out_shape);
      kernels::conv2d(x, op, got, 20);
      EXPECT_TRUE(same_tensor(got, ref))
          << "backend=" << kernels::backend_name(b) << " shift=" << shift;
    }
  }
}

// ------------------------------------------------- rounding unification --

TEST(Rounding, QuantizeTiesAwayFromZeroRegardlessOfFpMode) {
  // 0.25 at fix_pos 1 is the exact tie 0.5; half-away-from-zero gives 1.
  // std::nearbyint under the default FE_TONEAREST would give 0 (half-even)
  // and would flip with fesetround — the runtime's rshift_round never does.
  TensorF x(Shape{4});
  x[0] = 0.25f;
  x[1] = -0.25f;
  x[2] = 0.75f;
  x[3] = -0.75f;
  const int modes[] = {FE_TONEAREST, FE_UPWARD, FE_DOWNWARD, FE_TOWARDZERO};
  const int old_mode = std::fegetround();
  for (int mode : modes) {
    ASSERT_EQ(std::fesetround(mode), 0);
    const TensorI8 q = quantize_tensor(x, 1);
    EXPECT_EQ(q[0], 1) << "mode=" << mode;
    EXPECT_EQ(q[1], -1) << "mode=" << mode;
    EXPECT_EQ(q[2], 2) << "mode=" << mode;
    EXPECT_EQ(q[3], -2) << "mode=" << mode;
  }
  std::fesetround(old_mode);
}

TEST(Rounding, QuantizeMatchesRshiftRoundOnTies) {
  // quantize(v, 0) of integer-and-a-half values must agree with
  // rshift_round(2v, 1): both are the model's half-away-from-zero rule.
  for (int n = -10; n <= 10; ++n) {
    TensorF x(Shape{1});
    x[0] = static_cast<float>(n) + (n >= 0 ? 0.5f : -0.5f);
    const TensorI8 q = quantize_tensor(x, 0);
    const std::int64_t want =
        rshift_round(static_cast<std::int64_t>(std::llround(2.0 * x[0])), 1);
    EXPECT_EQ(q[0], saturate_i8(want)) << "value=" << x[0];
  }
}

// ------------------------------------------------ odd max-pool rejection --

TEST(OddPool, QuantizerRejectsOddPoolInput) {
  FGraph fg;
  fg.ops.resize(2);
  fg.ops[0].kind = OpKind::kInput;
  fg.ops[0].name = "input";
  fg.ops[0].out_shape = Shape{5, 6, 1};
  fg.ops[1].kind = OpKind::kMaxPool2D;
  fg.ops[1].name = "pool";
  fg.ops[1].inputs = {0};
  fg.ops[1].out_shape = Shape{2, 3, 1};
  fg.input_op = 0;
  fg.output_op = 1;
  std::vector<TensorF> calib;
  util::Rng rng(3);
  TensorF img(Shape{5, 6, 1});
  for (auto& v : img) v = static_cast<float>(rng.uniform(-1, 1));
  calib.push_back(img);
  try {
    quantize(fg, calib);
    FAIL() << "quantize accepted an odd-extent max-pool input";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("drop the last row/column"),
              std::string::npos)
        << "unhelpful message: " << e.what();
  }
}

TEST(OddPool, CompilerRejectsOddPoolInput) {
  QGraph qg;
  qg.ops.resize(2);
  qg.ops[0].kind = QOpKind::kInput;
  qg.ops[0].name = "input";
  qg.ops[0].out_shape = Shape{6, 5, 3};
  qg.ops[0].fix_pos_out = 4;
  qg.ops[1].kind = QOpKind::kMaxPool2D;
  qg.ops[1].name = "pool";
  qg.ops[1].inputs = {0};
  qg.ops[1].out_shape = Shape{3, 2, 3};
  qg.ops[1].fix_pos_out = 4;
  qg.input_op = 0;
  qg.output_op = 1;
  qg.input_fix_pos = 4;
  qg.input_shape = Shape{6, 5, 3};
  try {
    dpu::compile(qg);
    FAIL() << "compile accepted an odd-extent max-pool input";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("max-pool"), std::string::npos)
        << "unhelpful message: " << e.what();
  }
}

// ------------------------------------- end-to-end executors + the arena --

struct Built {
  QGraph qgraph;
  dpu::XModel xmodel;
  std::int64_t size = 0;
};

Built build_model(std::uint64_t seed, std::int64_t size) {
  nn::UNet2DConfig cfg;
  cfg.input_size = size;
  cfg.depth = 2;
  cfg.base_filters = 4;
  cfg.seed = seed;
  auto graph = nn::build_unet2d(cfg);
  for (int i = 0; i < 3; ++i) {
    util::Rng rng(seed + 31 + static_cast<std::uint64_t>(i));
    TensorF x(Shape{size, size, 1});
    for (auto& v : x) v = static_cast<float>(rng.uniform(-1, 1));
    graph->forward(x, true);
  }
  FGraph fg = fold(*graph);
  std::vector<TensorF> calib;
  util::Rng rng(seed + 77);
  TensorF img(Shape{size, size, 1});
  for (auto& v : img) v = static_cast<float>(rng.uniform(-1, 1));
  calib.push_back(img);
  Built b;
  b.qgraph = quantize(fg, calib);
  b.xmodel = dpu::compile(b.qgraph);
  b.size = size;
  return b;
}

TensorI8 random_input(std::int64_t size, std::uint64_t seed) {
  util::Rng rng(seed);
  TensorI8 x(Shape{size, size, 1});
  for (auto& v : x) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  return x;
}

TEST_F(KernelsTest, QGraphForwardBitExactAcrossBackendsEndToEnd) {
  const Built b = build_model(5, 16);
  const TensorI8 x = random_input(b.size, 9);
  kernels::set_backend(kernels::Backend::kScalar);
  const TensorI8 ref = b.qgraph.forward(x);
  for (kernels::Backend bk : backends_under_test()) {
    kernels::set_backend(bk);
    const TensorI8 got = b.qgraph.forward(x);
    EXPECT_TRUE(same_tensor(got, ref))
        << "backend=" << kernels::backend_name(bk);
  }
}

TEST_F(KernelsTest, ActivationCaptureStaysCompleteAndAliasesNothing) {
  const Built b = build_model(6, 16);
  const TensorI8 x = random_input(b.size, 10);
  TensorArena arena;
  for (TensorArena* arena_ptr : {static_cast<TensorArena*>(nullptr), &arena}) {
    std::vector<TensorI8> acts;
    const TensorI8 out = b.qgraph.forward(x, &acts, arena_ptr);
    ASSERT_EQ(acts.size(), b.qgraph.ops.size());
    // The capture must include the network input and the output op's slot,
    // byte-identical to the tensors the caller holds.
    EXPECT_TRUE(same_tensor(
        acts[static_cast<std::size_t>(b.qgraph.input_op)], x));
    EXPECT_TRUE(same_tensor(
        acts[static_cast<std::size_t>(b.qgraph.output_op)], out));
    // And they are copies, not aliases of the caller's storage.
    EXPECT_NE(acts[static_cast<std::size_t>(b.qgraph.input_op)].data(),
              x.data());
    EXPECT_NE(acts[static_cast<std::size_t>(b.qgraph.output_op)].data(),
              out.data());
  }
}

TEST_F(KernelsTest, ArenaReachesAllocationSteadyState) {
  const Built b = build_model(7, 16);
  TensorArena arena;
  const TensorI8 x0 = random_input(b.size, 20);
  const TensorI8 ref0 = b.qgraph.forward(x0);  // no arena
  const TensorI8 got0 = b.qgraph.forward(x0, nullptr, &arena);
  EXPECT_TRUE(same_tensor(got0, ref0));
  const std::size_t after_first = arena.mallocs();
  EXPECT_GT(after_first, 0u);
  for (std::uint64_t i = 1; i <= 4; ++i) {
    const TensorI8 xi = random_input(b.size, 20 + i);
    const TensorI8 goti = b.qgraph.forward(xi, nullptr, &arena);
    EXPECT_TRUE(same_tensor(goti, b.qgraph.forward(xi)));
  }
  // Steady state: only the escaping output tensor can cost a fresh slab,
  // so at most one allocation per subsequent frame.
  EXPECT_LE(arena.mallocs(), after_first + 4);
}

TEST_F(KernelsTest, CoreSimBitExactWithArenaAcrossFrames) {
  const Built b = build_model(8, 16);
  const dpu::DpuCoreSim sim(&b.xmodel);
  TensorArena arena;
  for (std::uint64_t i = 0; i < 3; ++i) {
    const TensorI8 x = random_input(b.size, 40 + i);
    kernels::set_backend(kernels::Backend::kScalar);
    const TensorI8 ref = b.qgraph.forward(x);
    kernels::set_backend(kernels::Backend::kAuto);
    const dpu::RunResult plain = sim.run(x);
    const dpu::RunResult pooled = sim.run(x, 1, &arena);
    EXPECT_TRUE(same_tensor(plain.output, ref)) << "frame " << i;
    EXPECT_TRUE(same_tensor(pooled.output, ref)) << "frame " << i << " arena";
  }
  const std::size_t after_warm = arena.mallocs();
  const TensorI8 x = random_input(b.size, 50);
  (void)sim.run(x, 1, &arena);
  (void)sim.run(x, 1, &arena);
  EXPECT_LE(arena.mallocs(), after_warm + 2);
}

}  // namespace
}  // namespace seneca::quant
