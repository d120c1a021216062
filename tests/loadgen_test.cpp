// Loadgen tests: arrival-process statistics (count, determinism, shape for
// diurnal and flash-crowd traces), population framing, and the open-loop
// runner's accounting against a live InferenceServer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "dpu/compiler.hpp"
#include "loadgen/arrival.hpp"
#include "loadgen/loadgen.hpp"
#include "nn/unet.hpp"
#include "quant/quantizer.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace seneca::loadgen {
namespace {

TEST(Arrival, PoissonCountMatchesRateTimesDuration) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kPoisson;
  cfg.rate_per_s = 500.0;
  cfg.duration_s = 4.0;
  util::Rng rng(1);
  const auto t = generate_arrivals(cfg, rng);
  // N ~ Poisson(2000): 5 sigma is ~224.
  EXPECT_NEAR(static_cast<double>(t.size()), 2000.0, 225.0);
  EXPECT_DOUBLE_EQ(cfg.expected_arrivals(), 2000.0);
}

TEST(Arrival, TracesAreSortedInRangeAndSeedDeterministic) {
  for (const ArrivalKind kind :
       {ArrivalKind::kPoisson, ArrivalKind::kDiurnal,
        ArrivalKind::kFlashCrowd}) {
    ArrivalConfig cfg;
    cfg.kind = kind;
    cfg.rate_per_s = 200.0;
    cfg.duration_s = 2.0;
    util::Rng a(7);
    util::Rng b(7);
    util::Rng c(8);
    const auto ta = generate_arrivals(cfg, a);
    const auto tb = generate_arrivals(cfg, b);
    const auto tc = generate_arrivals(cfg, c);
    const int k = static_cast<int>(kind);
    EXPECT_EQ(ta, tb) << "kind " << k << ": same seed, same trace";
    EXPECT_NE(ta, tc) << "kind " << k << ": different seed differs";
    EXPECT_TRUE(std::is_sorted(ta.begin(), ta.end()));
    ASSERT_FALSE(ta.empty());
    EXPECT_GE(ta.front(), 0.0);
    EXPECT_LT(ta.back(), cfg.duration_s);
  }
}

TEST(Arrival, PopulationFramingOverridesScalarRate) {
  ArrivalConfig cfg;
  cfg.rate_per_s = 1.0;  // ignored once users > 0
  cfg.users = 1000000;
  cfg.per_user_rate_per_s = 2e-4;
  EXPECT_DOUBLE_EQ(cfg.base_rate(), 200.0);
  cfg.duration_s = 2.0;
  util::Rng rng(3);
  const auto t = generate_arrivals(cfg, rng);
  EXPECT_NEAR(static_cast<double>(t.size()), 400.0, 100.0);  // 5 sigma
}

TEST(Arrival, DiurnalFirstHalfDenserWhenPeakIsMidMorning) {
  // rate(t) = base * (1 + a*sin(2*pi*t/T)): positive half-wave in the first
  // half of the period, negative in the second.
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kDiurnal;
  cfg.rate_per_s = 400.0;
  cfg.duration_s = 2.0;
  cfg.amplitude = 0.9;
  util::Rng rng(11);
  const auto t = generate_arrivals(cfg, rng);
  const auto half =
      std::lower_bound(t.begin(), t.end(), cfg.duration_s / 2) - t.begin();
  const auto first = static_cast<double>(half);
  const auto second = static_cast<double>(t.size()) - first;
  EXPECT_GT(first, second * 2.0);  // expected ratio ~ (1+2a/pi)/(1-2a/pi) ~ 3.7
  EXPECT_GT(second, 0.0);
}

TEST(Arrival, FlashCrowdBurstWindowIsDenser) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kFlashCrowd;
  cfg.rate_per_s = 100.0;
  cfg.duration_s = 3.0;
  cfg.burst_multiplier = 10.0;
  cfg.burst_start_s = 1.0;
  cfg.burst_len_s = 1.0;
  EXPECT_DOUBLE_EQ(cfg.rate_at(0.5), 100.0);
  EXPECT_DOUBLE_EQ(cfg.rate_at(1.5), 1000.0);
  EXPECT_DOUBLE_EQ(cfg.peak_rate(), 1000.0);
  EXPECT_DOUBLE_EQ(cfg.expected_arrivals(), 100.0 * 2.0 + 1000.0);
  util::Rng rng(5);
  const auto t = generate_arrivals(cfg, rng);
  std::size_t in_burst = 0;
  for (double x : t) in_burst += (x >= 1.0 && x < 2.0) ? 1 : 0;
  const auto outside = static_cast<double>(t.size() - in_burst);
  // Burst second carries ~1000 arrivals vs ~200 outside.
  EXPECT_GT(static_cast<double>(in_burst), outside * 3.0);
}

// ---- open-loop runner against a live server ----

dpu::XModel tiny_model() {
  nn::UNet2DConfig cfg;
  cfg.input_size = 16;
  cfg.depth = 1;
  cfg.base_filters = 2;
  cfg.seed = 9;
  auto graph = nn::build_unet2d(cfg);
  util::Rng rng(10);
  tensor::TensorF x(tensor::Shape{16, 16, 1});
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1, 1));
  graph->forward(x, true);
  quant::FGraph fg = quant::fold(*graph);
  std::vector<tensor::TensorF> calib{x};
  return dpu::compile(quant::quantize(fg, calib));
}

TEST(OpenLoopRunner, AccountsEveryArrivalExactlyOnce) {
  std::vector<serve::ModelSpec> ladder;
  ladder.push_back({"1M", tiny_model(), 2});
  serve::ServerConfig cfg;
  cfg.queue.capacity = 64;
  cfg.batcher.max_wait_ms = 0.0;
  cfg.degrade.queue_depth_high = 1000;
  serve::InferenceServer server(std::move(ladder), cfg);
  auto submit = [&server](serve::Priority p, tensor::TensorI8 input,
                          double deadline_ms, serve::TenantId tenant) {
    return server.submit(p, std::move(input), deadline_ms, tenant);
  };

  TenantWorkload w;
  w.tenant = serve::kDefaultTenant;
  w.name = "smoke";
  w.arrivals.rate_per_s = 80.0;
  w.arrivals.duration_s = 0.5;
  w.interactive_fraction = 0.5;
  w.deadline_ms = 500.0;
  RunConfig run_cfg;
  run_cfg.seed = 4;
  run_cfg.input_size = 16;

  const auto reports = run_open_loop(submit, {w}, run_cfg);
  ASSERT_EQ(reports.size(), 1u);
  const TenantReport& r = reports[0];
  EXPECT_GT(r.offered, 0u);
  // Conservation: every offered arrival resolved to exactly one outcome.
  EXPECT_EQ(r.offered, r.ok + r.rejected + r.migrated + r.expired + r.errors);
  EXPECT_GT(r.wall_s, 0.0);
  EXPECT_GT(r.goodput_per_s, 0.0);
  EXPECT_LE(r.within_deadline, r.ok);
  EXPECT_LE(r.p50_ms, r.p99_ms);
}

TEST(OpenLoopRunner, SameSeedOffersTheSameTrace) {
  // No server needed: resolve every future immediately and compare offered
  // counts across two runs of the same seed.
  const auto instant = [](serve::Priority, tensor::TensorI8,
                          double, serve::TenantId) {
    std::promise<serve::Response> p;
    serve::Response r;
    r.status = serve::Status::kOk;
    r.total_ms = 1.0;
    p.set_value(r);
    return p.get_future();
  };
  TenantWorkload w;
  w.arrivals.rate_per_s = 300.0;
  w.arrivals.duration_s = 0.2;
  RunConfig cfg;
  cfg.seed = 99;
  cfg.input_size = 8;
  const auto a = run_open_loop(instant, {w}, cfg);
  const auto b = run_open_loop(instant, {w}, cfg);
  EXPECT_EQ(a[0].offered, b[0].offered);
  EXPECT_EQ(a[0].ok, a[0].offered);
}

TEST(OpenLoopRunner, DeadlineFreeInteractiveArrivalsCountAsGoodput) {
  // deadline_ms <= 0 means no deadline (the server's reading too), so a
  // served interactive arrival is within it whatever its latency.
  const auto slow = [](serve::Priority, tensor::TensorI8, double,
                       serve::TenantId) {
    std::promise<serve::Response> p;
    serve::Response r;
    r.status = serve::Status::kOk;
    r.total_ms = 50.0;
    p.set_value(r);
    return p.get_future();
  };
  TenantWorkload w;
  w.arrivals.rate_per_s = 300.0;
  w.arrivals.duration_s = 0.1;
  w.interactive_fraction = 1.0;
  w.deadline_ms = 0.0;
  RunConfig cfg;
  cfg.input_size = 8;
  const TenantReport r = run_open_loop(slow, {w}, cfg)[0];
  ASSERT_GT(r.offered, 0u);
  EXPECT_EQ(r.within_deadline, r.offered);
}

TEST(OpenLoopRunner, CountsLeakedMigrationsApartFromRejections) {
  // kMigrated is cluster-internal: the router re-routes it before a client
  // future resolves. One that reaches a client is a leak, and must not be
  // hidden among admission rejections.
  const auto leaky = [](serve::Priority, tensor::TensorI8, double,
                        serve::TenantId) {
    std::promise<serve::Response> p;
    serve::Response r;
    r.status = serve::Status::kMigrated;
    p.set_value(r);
    return p.get_future();
  };
  TenantWorkload w;
  w.arrivals.rate_per_s = 300.0;
  w.arrivals.duration_s = 0.1;
  RunConfig cfg;
  cfg.input_size = 8;
  const TenantReport r = run_open_loop(leaky, {w}, cfg)[0];
  ASSERT_GT(r.offered, 0u);
  EXPECT_EQ(r.migrated, r.offered);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.ok, 0u);
  EXPECT_EQ(r.dropped(), r.offered);
}

}  // namespace
}  // namespace seneca::loadgen
