#pragma once
// Open-loop, trace-driven, multi-tenant load generator.
//
// One OpenLoopRunner drives any serving front door (InferenceServer,
// ClusterRouter, or anything else wrapped in a SubmitFn) with per-tenant
// arrival traces generated by loadgen/arrival.hpp. Arrivals are open-loop:
// a replay thread per tenant sleeps to each trace timestamp and submits
// without waiting for earlier responses, so offered load is a property of
// the trace, not of how well the server keeps up — saturation shows up as
// queueing, throttling, and deadline misses instead of silently reduced
// offered load.
//
// Per-tenant results are exact-sample statistics (every response's
// total_ms, nearest-rank percentiles), not histogram estimates: the runner
// is the measurement harness the benches report from, so it avoids the
// serving layer's bucketed-histogram resolution.

#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <vector>

#include "loadgen/arrival.hpp"
#include "serve/request.hpp"
#include "tensor/tensor.hpp"

namespace seneca::loadgen {

/// Adapter to whatever serves the traffic. Must be thread-safe and the
/// returned future must always resolve (the InferenceServer/ClusterRouter
/// submit contract).
using SubmitFn = std::function<std::future<serve::Response>(
    serve::Priority, tensor::TensorI8, double deadline_ms,
    serve::TenantId)>;

struct TenantWorkload {
  serve::TenantId tenant = serve::kDefaultTenant;
  std::string name = "default";
  ArrivalConfig arrivals;
  /// Fraction of arrivals on the interactive lane (the rest ride batch).
  double interactive_fraction = 0.75;
  /// Deadline for interactive arrivals, <= 0 for none; batch arrivals
  /// carry none.
  double deadline_ms = 200.0;
};

struct TenantReport {
  serve::TenantId tenant = serve::kDefaultTenant;
  std::string name;
  std::uint64_t offered = 0;   // trace arrivals submitted
  std::uint64_t ok = 0;        // Status::kOk
  std::uint64_t rejected = 0;  // admission/token-bucket/eviction
  /// Status::kMigrated. A router converts it before a client future
  /// resolves, so anything counted here is a cluster-tier leak.
  std::uint64_t migrated = 0;
  std::uint64_t expired = 0;
  std::uint64_t errors = 0;
  std::uint64_t within_deadline = 0;  // kOk and (no deadline or met it)
  double wall_s = 0.0;   // replay start -> last response resolved
  double p50_ms = 0.0;   // over kOk total_ms (exact nearest-rank)
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double offered_per_s = 0.0;
  /// Requests that were served AND met their deadline, per wall second —
  /// the SLO currency (a late "success" is not goodput).
  double goodput_per_s = 0.0;

  std::uint64_t dropped() const {
    return rejected + migrated + expired + errors;
  }
};

struct RunConfig {
  std::uint64_t seed = 42;
  std::int64_t input_size = 32;  // square single-channel INT8 frames
};

/// Replays every workload against `submit` concurrently (one open-loop
/// replay thread per tenant), blocks until every response resolved, and
/// returns one report per workload, in workload order. Reproducible: the
/// trace for workload i is a deterministic function of (seed, i).
std::vector<TenantReport> run_open_loop(
    const SubmitFn& submit, const std::vector<TenantWorkload>& workloads,
    const RunConfig& cfg);

}  // namespace seneca::loadgen
