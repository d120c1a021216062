#pragma once
// SENECA-Bench shared pieces: run options, the metric catalogue (the one
// list of names BENCHMARK.json mirrors), the in-memory span tracer, seeded
// inputs, and the ladder of compiled rungs every workload builds.
//
// The benchmark measures the program from outside: it times calls into each
// layer's public functions and reads the fields those calls return. No span
// lives inside src/.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "dpu/core_sim.hpp"
#include "dpu/xmodel.hpp"
#include "quant/qgraph.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace seneca::bench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for endpoint files and the written trace.
  std::string work_dir = ".";
};

/// An output differed from its reference: the run prints no metrics.
struct Mismatch : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One run's verdict and figures by metric name. Metrics a workload does
/// not exercise are absent and print as 0 (per-layer metrics only).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;
};

struct MetricDef {
  std::string name;
  std::string unit;
  bool end_to_end = false;
};

/// Every metric the benchmark prints, in print order.
const std::vector<MetricDef>& metric_catalogue();

// --- statistics ------------------------------------------------------------

double ms_between(Clock::time_point a, Clock::time_point b);
/// Nearest-rank quantile (serve::nearest_rank_quantile); 0 when empty.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double geomean(const std::vector<double>& v);
double peak_rss_mib();

// --- tracing ---------------------------------------------------------------

/// In-memory span recorder. Disabled, it records nothing; enabled, add() is
/// thread-safe and spans stay in memory until write() at the end of a run.
class Tracer {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    std::int64_t parent = -1;  // index of the span that caused this one
    std::uint64_t req = 0;     // per-request id (serve spans), else 0
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Records a span; returns its index (-1 when disabled).
  std::int64_t add(std::string name, Clock::time_point start,
                   Clock::time_point end, std::int64_t parent = -1,
                   std::uint64_t req = 0);
  /// Adds `v` to a named counter (count and sum kept).
  void count(const std::string& name, double v = 1.0);

  /// Durations (ms) of every span with this exact name.
  std::vector<double> durations_ms(const std::string& name) const;
  /// Per span named `name`: its duration minus the part its children cover.
  std::vector<double> self_ms(const std::string& name) const;
  /// For each span named `parent_name`: the summed duration of its children
  /// named `child_name`.
  std::vector<double> child_sums_ms(const std::string& parent_name,
                                    const std::string& child_name) const;
  double counter_sum(const std::string& name) const;
  double counter_n(const std::string& name) const;

  /// Writes the spans as Chrome trace-event JSON (opens in Perfetto).
  void write(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::string, std::pair<double, double>> counters_;  // n, sum
  Clock::time_point epoch_ = Clock::now();
};

// --- inputs ----------------------------------------------------------------

/// A seeded single-channel INT8 frame (uniform over the int8 range).
tensor::TensorI8 make_frame(std::int64_t size, util::Rng& rng);
/// FNV-1a over bytes, for input digests.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 1469598103934665603ULL);

// --- the compiled ladder ---------------------------------------------------

/// One zoo rung: its graph, compiled model, simulator, and the
/// scalar-backend reference outputs of the workload's frames. Held by
/// pointer: `sim` refers to `xmodel`.
struct Rung {
  std::string name;
  quant::QGraph qgraph;
  dpu::XModel xmodel;
  std::unique_ptr<dpu::DpuCoreSim> sim;
  std::vector<tensor::TensorI8> refs;  // one per frame of the frame pool
  std::vector<tensor::TensorI8> acts;  // every op output of frame 0
};
using Ladder = std::vector<std::unique_ptr<Rung>>;

/// Builds (core::build_timing_qgraph), compiles at -O1 (dpu::compile) and
/// verifies (dpu::verify) each named rung at `input` resolution. Spans
/// "core.build_qgraph", "dpu.compile" and "dpu.verify" are children of one
/// "setup.ladder" span. Throws if verification finds an error.
Ladder build_ladder(const std::vector<std::string>& names,
                    std::int64_t input, Tracer& tr);

/// Computes every rung's reference outputs with the scalar backend of
/// quant::QGraph::forward, capturing frame 0's activations. Not timed.
void make_references(Ladder& ladder,
                     const std::vector<tensor::TensorI8>& frames);

/// Throws Mismatch unless `out` equals `ref` bit for bit.
void check_equal(const tensor::TensorI8& out, const tensor::TensorI8& ref,
                 const std::string& what);

/// Modelled metrics (dpu_fps, dpu_fps_per_w: geometric means over rungs of
/// platform::estimate_inference_energy at 4 threads) and the exact xmodel
/// counts dpu.xmodel.{mcyc,instrs,ddr_mb}.<rung>. With `table`, prints the
/// per-rung modelled-vs-Table-IV error table.
void add_model_metrics(const Ladder& ladder, Outcome& out, bool table);

/// Set-up layer metrics from the traced "setup.ladder" spans: medians over
/// set-up repetitions of the per-repetition sums.
void add_setup_layer_metrics(const Tracer& tr, Outcome& out);

/// Replays every QOp of each rung's frame 0 through the public kernel entry
/// points (each output checked against the captured activation), times
/// QGraph::forward with an arena, and, with `run_core_sim`, DpuCoreSim::run,
/// `reps` times each after one untimed warm-up pass. Records the spans the
/// quant.* and dpu.core_sim.* metrics derive from.
void replay_layers(Ladder& ladder, Tracer& tr, int reps, bool run_core_sim);

/// quant.* and dpu.core_sim.* per-layer metrics from the spans above.
void add_offline_layer_metrics(const Ladder& ladder, const Tracer& tr,
                               Outcome& out);

// --- workloads -------------------------------------------------------------

Outcome run_ladder_offline(const Options& opt, Tracer& tr);
Outcome run_serve(const Options& opt, Tracer& tr, bool wire);

/// Digests of a workload's seeded inputs (arrival stamps and frames); the
/// benchmark's determinism tests compare these.
std::string ladder_inputs_digest(std::uint64_t seed);
std::string serve_inputs_digest(const Options& opt, bool wire);

}  // namespace seneca::bench
