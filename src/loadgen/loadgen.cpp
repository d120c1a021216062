#include "loadgen/loadgen.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "serve/metrics.hpp"  // nearest_rank_quantile
#include "util/timer.hpp"

namespace seneca::loadgen {

namespace {

using serve::Clock;
using serve::Priority;
using serve::Response;
using serve::Status;

struct TenantRun {
  const TenantWorkload* workload = nullptr;
  std::vector<double> arrivals;     // seconds from replay start
  std::vector<Priority> lanes;      // lane per arrival (seeded choice)
  std::vector<std::future<Response>> futures;
  double wall_s = 0.0;
};

tensor::TensorI8 make_input(std::int64_t size, util::Rng& rng) {
  tensor::TensorI8 x(tensor::Shape{size, size, 1});
  for (auto& v : x) {
    v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  }
  return x;
}

}  // namespace

std::vector<TenantReport> run_open_loop(
    const SubmitFn& submit, const std::vector<TenantWorkload>& workloads,
    const RunConfig& cfg) {
  // Deterministic per-workload streams, independent of replay interleaving:
  // stream i derives from (seed, i) alone.
  util::Rng root(cfg.seed);
  std::vector<TenantRun> runs(workloads.size());
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    TenantRun& run = runs[i];
    run.workload = &workloads[i];
    util::Rng rng = root.split(i + 1);
    run.arrivals = generate_arrivals(workloads[i].arrivals, rng);
    run.lanes.reserve(run.arrivals.size());
    for (std::size_t a = 0; a < run.arrivals.size(); ++a) {
      run.lanes.push_back(rng.bernoulli(workloads[i].interactive_fraction)
                              ? Priority::kInteractive
                              : Priority::kBatch);
    }
    run.futures.reserve(run.arrivals.size());
  }

  // Open-loop replay: one thread per tenant sleeps to each arrival stamp
  // and submits without waiting on earlier responses. Input frames are
  // generated once per tenant and copied per submit (the serving layer
  // takes ownership of its argument).
  const auto start = Clock::now();
  std::vector<std::thread> replayers;
  replayers.reserve(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    replayers.emplace_back([&, i] {
      TenantRun& run = runs[i];
      const TenantWorkload& w = *run.workload;
      util::Rng input_rng(cfg.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
      const tensor::TensorI8 frame = make_input(cfg.input_size, input_rng);
      for (std::size_t a = 0; a < run.arrivals.size(); ++a) {
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(run.arrivals[a]));
        std::this_thread::sleep_until(due);
        const bool interactive = run.lanes[a] == Priority::kInteractive;
        run.futures.push_back(submit(run.lanes[a], frame,
                                     interactive ? w.deadline_ms : 0.0,
                                     w.tenant));
      }
      // Wall time covers the replay plus the drain of this tenant's own
      // responses: goodput is work completed, not work submitted.
      for (auto& f : run.futures) f.wait();
      run.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
    });
  }
  for (auto& t : replayers) t.join();

  std::vector<TenantReport> reports;
  reports.reserve(runs.size());
  for (TenantRun& run : runs) {
    const TenantWorkload& w = *run.workload;
    TenantReport r;
    r.tenant = w.tenant;
    r.name = w.name;
    r.offered = run.futures.size();
    r.wall_s = run.wall_s;
    std::vector<double> ok_ms;
    ok_ms.reserve(run.futures.size());
    for (std::size_t a = 0; a < run.futures.size(); ++a) {
      const Response resp = run.futures[a].get();
      switch (resp.status) {
        case Status::kOk: {
          ++r.ok;
          ok_ms.push_back(resp.total_ms);
          // A deadline <= 0 is no deadline, as it is for the server.
          const bool timed = run.lanes[a] == Priority::kInteractive &&
                             w.deadline_ms > 0.0;
          if (!timed || resp.total_ms <= w.deadline_ms) {
            ++r.within_deadline;
          }
          break;
        }
        case Status::kRejected: ++r.rejected; break;
        case Status::kExpired: ++r.expired; break;
        case Status::kError: ++r.errors; break;
        case Status::kMigrated: ++r.migrated; break;
      }
    }
    if (!ok_ms.empty()) {
      double sum = 0.0;
      for (double v : ok_ms) sum += v;
      r.mean_ms = sum / static_cast<double>(ok_ms.size());
      r.p50_ms = serve::nearest_rank_quantile(ok_ms, 0.50);
      r.p95_ms = serve::nearest_rank_quantile(ok_ms, 0.95);
      r.p99_ms = serve::nearest_rank_quantile(ok_ms, 0.99);
    }
    if (r.wall_s > 0.0) {
      r.offered_per_s = static_cast<double>(r.offered) / r.wall_s;
      r.goodput_per_s = static_cast<double>(r.within_deadline) / r.wall_s;
    }
    reports.push_back(std::move(r));
  }
  return reports;
}

}  // namespace seneca::loadgen
