#pragma once
// SENECA-Kernels: the vectorized INT8 hot path of the functional DPU.
//
// The scalar kernels in qgraph.cpp (`q*_forward`) remain the *reference
// semantics*; everything here is an implementation of the same arithmetic
// that must stay bit-exact against them (tests/quant_kernels_test.cpp
// sweeps this property, bench/int8_kernels --strict gates it in CI).
//
// Three backends, selected once at build time and dispatched per call:
//  - kScalar:  the int64-accumulator reference in qgraph.cpp.
//  - kGeneric: portable int32-accumulator restructuring of the same loops
//              (always compiled; the SENECA_SIMD=OFF build runs on it).
//  - kSimd:    x86-64 or aarch64 intrinsics, cpuid-checked at runtime on
//              x86. The innermost loop multiply-accumulates int8 weights
//              over contiguous output channels ([K][K][Cin][Cout] weight
//              layout) into int32. On x86, conv and tconv run one
//              register-blocked body (four output pixels per weight load)
//              in the best of two forms: AVX-VNNI (-mavxvnni, u8 x s8 dot
//              products of four input channels) when the CPU has it, else
//              AVX2 (-mavx2, int16 pair madd); pool and requant are AVX2.
//              aarch64 runs NEON (widening int8 multiply-accumulate).
//
// int32 accumulation is only used when it provably cannot overflow
// (|bias| + k*k*ci*128*128 within int32, scaled through a negative requant
// shift); otherwise the dispatcher falls back to the int64 scalar
// reference, so bit-exactness holds unconditionally.

#include <cstdint>

#include "quant/qgraph.hpp"
#include "tensor/arena.hpp"

namespace seneca::quant::kernels {

enum class Backend {
  kAuto,     // best available: SIMD if compiled in and CPU-supported
  kScalar,   // int64 reference kernels in qgraph.cpp
  kGeneric,  // portable int32 kernels
  kSimd,     // AVX2 / NEON (resolves to kGeneric when unavailable)
};

/// True when a SIMD backend was compiled in AND the CPU supports it.
bool simd_available();

/// Resolves the active backend (kAuto/kSimd resolve to what will run).
Backend active_backend();

/// Global backend override — benches/tests only; reads are atomic, so
/// flipping it while executors run in other threads is safe but applies
/// per kernel call.
void set_backend(Backend b);

const char* backend_name(Backend b);

// --- Dispatch entry points (signatures mirror the scalar reference). -----

/// `arena` (optional) provides the kernels' scratch (input plane, packed
/// weight operands, initial or tconv accumulators), so a warmed arena makes the
/// call allocation-free on the SIMD path.
void conv2d(const TensorI8& x, const QOp& op, TensorI8& out, int fix_pos_in,
            tensor::TensorArena* arena = nullptr);
void tconv2d(const TensorI8& x, const QOp& op, TensorI8& out, int fix_pos_in,
             tensor::TensorArena* arena = nullptr);
void maxpool2d(const TensorI8& x, TensorI8& out);
void concat(const TensorI8& a, int fp_a, const TensorI8& b, int fp_b,
            TensorI8& out, int fp_out);

/// Requantizing strided copy of `rows` rows of `n` bytes:
/// dst[r*dst_stride + i] = sat8(rshift_round(src[r*src_stride + i], shift)).
/// shift == 0 degenerates to row memcpys. Concat and the DPU simulator's
/// materialized-concat assembly make one call per input region.
void requant_rows(const std::int8_t* src, std::int64_t src_stride,
                  std::int8_t* dst, std::int64_t dst_stride, std::int64_t n,
                  std::int64_t rows, int shift);

// --- Backend internals (exposed for the per-kernel micro-bench). ---------

/// True when `op` (with `ci` input channels) can use int32 accumulators
/// without overflow through requant; false forces the scalar reference.
bool acc32_safe(const QOp& op, std::int64_t ci);

void conv2d_generic(const TensorI8& x, const QOp& op, TensorI8& out,
                    int fix_pos_in);
void tconv2d_generic(const TensorI8& x, const QOp& op, TensorI8& out,
                     int fix_pos_in, tensor::TensorArena* arena);
void maxpool2d_generic(const TensorI8& x, TensorI8& out);
void requant_rows_generic(const std::int8_t* src, std::int64_t src_stride,
                          std::int8_t* dst, std::int64_t dst_stride,
                          std::int64_t n, std::int64_t rows, int shift);

#if defined(SENECA_KERNELS_AVX2)
void conv2d_avx2(const TensorI8& x, const QOp& op, TensorI8& out,
                 int fix_pos_in, tensor::TensorArena* arena);
void tconv2d_avx2(const TensorI8& x, const QOp& op, TensorI8& out,
                  int fix_pos_in, tensor::TensorArena* arena);
void maxpool2d_avx2(const TensorI8& x, TensorI8& out);
void requant_rows_avx2(const std::int8_t* src, std::int64_t src_stride,
                       std::int8_t* dst, std::int64_t dst_stride,
                       std::int64_t n, std::int64_t rows, int shift);
#endif
#if defined(SENECA_KERNELS_AVXVNNI)
/// CPU has AVX-VNNI: kSimd then runs these conv bodies instead of AVX2's.
bool avxvnni_available();
void conv2d_avxvnni(const TensorI8& x, const QOp& op, TensorI8& out,
                    int fix_pos_in, tensor::TensorArena* arena);
void tconv2d_avxvnni(const TensorI8& x, const QOp& op, TensorI8& out,
                     int fix_pos_in, tensor::TensorArena* arena);
#endif
#if defined(SENECA_KERNELS_NEON)
void conv2d_neon(const TensorI8& x, const QOp& op, TensorI8& out,
                 int fix_pos_in);
void tconv2d_neon(const TensorI8& x, const QOp& op, TensorI8& out,
                  int fix_pos_in, tensor::TensorArena* arena);
void maxpool2d_neon(const TensorI8& x, TensorI8& out);
#endif

}  // namespace seneca::quant::kernels
