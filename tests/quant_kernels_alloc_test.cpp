// Allocation pin for the SIMD kernels and the frame executors: this binary
// replaces the global operator new with a counting one, and checks that a
// steady-state SIMD conv2d / tconv2d call (each x86 body) and a whole
// DpuCoreSim::run / QGraph::forward frame with a warmed TensorArena perform
// no heap allocation (the input plane, packed weight operands and per-frame
// bookkeeping come from the arena). Its own TU, because the replacement is
// program-wide.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "core/workflow.hpp"
#include "dpu/compiler.hpp"
#include "dpu/core_sim.hpp"
#include "quant/kernels.hpp"
#include "tensor/arena.hpp"
#include "util/rng.hpp"

namespace {
std::atomic<long> g_allocs{0};
}  // namespace

// Out of line, so the compiler pairs `new T` with operator delete rather
// than seeing malloc meet an inlined free (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace seneca::quant {
namespace {

using tensor::Shape;
using tensor::TensorI8;

TensorI8 random_i8(const Shape& shape, std::uint64_t seed) {
  util::Rng rng(seed);
  TensorI8 t(shape);
  for (auto& v : t) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  return t;
}

struct Case {
  QOp op;
  TensorI8 x;
  TensorI8 out;
};

Case make_case(QOpKind kind, std::int64_t hw, std::int64_t ci,
               std::int64_t co, std::uint64_t seed) {
  Case c;
  c.op.kind = kind;
  c.op.kernel = 3;
  c.op.relu = true;
  c.op.fix_pos_w = 3;
  c.op.fix_pos_out = 3;
  const std::int64_t ohw = kind == QOpKind::kTConv2D ? 2 * hw : hw;
  c.op.out_shape = Shape{ohw, ohw, co};
  c.op.weights = random_i8(Shape{3, 3, ci, co}, seed);
  c.op.bias.assign(static_cast<std::size_t>(co), 77);
  c.x = random_i8(Shape{hw, hw, ci}, seed + 1);
  c.out = TensorI8(c.op.out_shape);
  return c;
}

void call(Case& c, tensor::TensorArena* arena) {
  if (c.op.kind == QOpKind::kTConv2D) {
    kernels::tconv2d(c.x, c.op, c.out, 4, arena);
  } else {
    kernels::conv2d(c.x, c.op, c.out, 4, arena);
  }
}

TEST(KernelsAlloc, WarmArenaSimdConvAndTConvAllocateNothing) {
  if (!kernels::simd_available()) {
    GTEST_SKIP() << "no SIMD backend: the generic conv allocates per call";
  }
  kernels::set_backend(kernels::Backend::kSimd);
  // Packed (8x8 grids) and unpacked (2x2) operands, 16-wide blocks plus a
  // 12-channel tail.
  Case cases[] = {make_case(QOpKind::kConv2D, 8, 32, 44, 1),
                  make_case(QOpKind::kConv2D, 2, 64, 44, 2),
                  make_case(QOpKind::kTConv2D, 8, 32, 44, 3),
                  make_case(QOpKind::kTConv2D, 2, 64, 44, 4)};
  tensor::TensorArena arena;
  for (Case& c : cases) call(c, &arena);  // warm: scratch grows once

  // Sanity: the counter sees a kernel's scratch allocation without an
  // arena.
  long before = g_allocs.load();
  call(cases[2], nullptr);
  EXPECT_GT(g_allocs.load(), before);

  for (Case& c : cases) {
    TensorI8 ref(c.op.out_shape);
    if (c.op.kind == QOpKind::kTConv2D) {
      qtconv2d_forward(c.x, c.op, ref, 4);
    } else {
      qconv2d_forward(c.x, c.op, ref, 4);
    }
    before = g_allocs.load();
    call(c, &arena);
    EXPECT_EQ(g_allocs.load(), before)
        << (c.op.kind == QOpKind::kTConv2D ? "tconv" : "conv") << " "
        << c.x.shape()[0] << "x" << c.x.shape()[1];
    EXPECT_EQ(std::memcmp(c.out.data(), ref.data(),
                          static_cast<std::size_t>(ref.numel())),
              0);
  }
  kernels::set_backend(kernels::Backend::kAuto);
}

#if defined(SENECA_KERNELS_AVX2)
TEST(KernelsAlloc, WarmArenaX86BodiesAllocateNothing) {
  if (!kernels::simd_available()) GTEST_SKIP() << "CPU lacks AVX2";
  using Body = void (*)(const TensorI8&, const QOp&, TensorI8&, int,
                        tensor::TensorArena*);
  struct Named {
    const char* name;
    Body conv, tconv;
  };
  std::vector<Named> bodies{
      {"avx2", kernels::conv2d_avx2, kernels::tconv2d_avx2}};
#if defined(SENECA_KERNELS_AVXVNNI)
  if (kernels::avxvnni_available()) {
    bodies.push_back(
        {"avx-vnni", kernels::conv2d_avxvnni, kernels::tconv2d_avxvnni});
  }
#endif
  // Packed and unpacked operands; the random inputs hold negative bytes,
  // so AVX-VNNI also takes its +128 offset path.
  Case cases[] = {make_case(QOpKind::kConv2D, 8, 32, 44, 5),
                  make_case(QOpKind::kConv2D, 2, 64, 44, 6),
                  make_case(QOpKind::kTConv2D, 8, 32, 44, 7),
                  make_case(QOpKind::kTConv2D, 2, 64, 44, 8)};
  for (const Named& b : bodies) {
    tensor::TensorArena arena;
    const auto run = [&](Case& c) {
      (c.op.kind == QOpKind::kTConv2D ? b.tconv : b.conv)(c.x, c.op, c.out, 4,
                                                           &arena);
    };
    for (Case& c : cases) run(c);  // warm
    for (Case& c : cases) {
      const long before = g_allocs.load();
      run(c);
      EXPECT_EQ(g_allocs.load(), before)
          << b.name << (c.op.kind == QOpKind::kTConv2D ? " tconv " : " conv ")
          << c.x.shape()[0] << "x" << c.x.shape()[1];
    }
  }
}
#endif

TEST(KernelsAlloc, WarmArenaFramesAllocateNothing) {
  if (!kernels::simd_available()) {
    GTEST_SKIP() << "no SIMD backend: the generic conv allocates per call";
  }
  kernels::set_backend(kernels::Backend::kSimd);
  for (const char* rung : {"4M", "2M"}) {
    const QGraph qg = core::build_timing_qgraph(rung, 32);
    const dpu::XModel xm = dpu::compile(qg);
    const dpu::DpuCoreSim sim(&xm);
    const TensorI8 x = random_i8(qg.input_shape, 11);
    tensor::TensorArena arena;
    // One frame of each executor; the caller hands the output back, as a
    // serving loop recycling its arena does.
    const auto frame = [&] {
      dpu::RunResult r = sim.run(x, 1, &arena);
      arena.release(std::move(r.output));
      arena.release(qg.forward(x, nullptr, &arena));
    };
    frame();
    frame();
    const long before = g_allocs.load();
    frame();
    EXPECT_EQ(g_allocs.load(), before) << rung << " at 32x32";
  }
  kernels::set_backend(kernels::Backend::kAuto);
}

}  // namespace
}  // namespace seneca::quant
