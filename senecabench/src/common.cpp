#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "core/workflow.hpp"
#include "dpu/compiler.hpp"
#include "dpu/verify.hpp"
#include "platform/power.hpp"
#include "quant/kernels.hpp"
#include "serve/metrics.hpp"

namespace seneca::bench {

namespace {

const char* const kAllRungs[] = {"16M", "8M", "4M", "2M", "1M"};

std::vector<MetricDef> build_catalogue() {
  std::vector<MetricDef> m = {
      {"setup_s", "s", true},
      {"peak_rss_mb", "MiB", true},
      {"host_fps", "fps", true},
      {"dpu_fps", "fps", true},
      {"dpu_fps_per_w", "fps/W", true},
      {"lat_ms_p50", "ms", true},
      {"goodput_rps", "req/s", true},
      {"ok_share", "ratio", true},
      // Reported, not gated: the tail moves with host stalls far more than
      // any bound allows (README.md, "Steadiness").
      {"lat_ms_p99", "ms", false},
      {"core.build_qgraph.ms", "ms", false},
      {"dpu.compiler.ms", "ms", false},
      {"dpu.verify.ms", "ms", false},
  };
  for (const char* r : kAllRungs) {
    m.push_back({std::string("dpu.xmodel.mcyc.") + r, "Mcyc", false});
  }
  for (const char* r : kAllRungs) {
    m.push_back({std::string("dpu.xmodel.instrs.") + r, "count", false});
  }
  for (const char* r : kAllRungs) {
    m.push_back({std::string("dpu.xmodel.ddr_mb.") + r, "MiB", false});
  }
  for (const char* r : kAllRungs) {
    m.push_back({std::string("dpu.core_sim.ms.") + r, "ms", false});
  }
  m.push_back({"dpu.core_sim.non_kernel_share", "ratio", false});
  for (const char* k : {"conv2d", "tconv2d", "maxpool2d", "concat"}) {
    m.push_back({std::string("quant.kernels.") + k + ".ns", "ns", false});
  }
  m.push_back({"quant.kernels.conv2d.gmacs", "GMAC/s", false});
  m.push_back({"quant.kernels.int64_fallback_ops", "count", false});
  for (const char* r : kAllRungs) {
    m.push_back({std::string("quant.qgraph.ms.") + r, "ms", false});
  }
  const MetricDef serve_layers[] = {
      {"serve.queue_ms.p50", "ms", false},
      {"serve.queue_ms.p99", "ms", false},
      {"serve.service_ms.p50", "ms", false},
      {"serve.service_ms.p99", "ms", false},
      {"serve.batch_size.mean", "count", false},
      {"serve.degraded_share", "ratio", false},
      {"serve.queue_high_water", "count", false},
      {"serve.tenant.throttled", "count", false},
      {"serve.expired", "count", false},
      {"serve.net.overhead_ms.p50", "ms", false},
      {"serve.net.overhead_ms.p99", "ms", false},
      {"serve.net.bytes_per_req", "bytes.computed", false},
      {"serve.cluster.board_share.max", "ratio", false},
      {"serve.cluster.migrations", "count", false},
      {"loadgen.late_ms.p99", "ms", false},
      {"loadgen.late_ms.max", "ms", false},
      {"host.slowdown", "ratio", false},
      {"trace.overhead_share", "ratio", false},
  };
  m.insert(m.end(), std::begin(serve_layers), std::end(serve_layers));
  return m;
}

/// Table IV (INT8, ZCU104, 4 threads) paper values.
struct PaperRow {
  const char* rung;
  double fps, watts, fps_per_w;
};
constexpr PaperRow kTable4[] = {
    {"1M", 335.40, 28.40, 11.81},  {"2M", 254.87, 24.82, 10.27},
    {"4M", 273.17, 28.54, 9.57},   {"8M", 127.91, 28.00, 4.57},
    {"16M", 98.12, 30.98, 3.17},
};

const char* kernel_name(quant::QOpKind k) {
  switch (k) {
    case quant::QOpKind::kConv2D: return "conv2d";
    case quant::QOpKind::kTConv2D: return "tconv2d";
    case quant::QOpKind::kMaxPool2D: return "maxpool2d";
    case quant::QOpKind::kConcat: return "concat";
    default: return "input";
  }
}

}  // namespace

const std::vector<MetricDef>& metric_catalogue() {
  static const std::vector<MetricDef> catalogue = build_catalogue();
  return catalogue;
}

// --- statistics ------------------------------------------------------------

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double quantile(std::vector<double> v, double q) {
  return serve::nearest_rank_quantile(std::move(v), q);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double peak_rss_mib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- tracing ---------------------------------------------------------------

std::int64_t Tracer::add(std::string name, Clock::time_point start,
                         Clock::time_point end, std::int64_t parent,
                         std::uint64_t req) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({std::move(name), start, end, parent, req});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::count(const std::string& name, double v) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  auto& c = counters_[name];
  c.first += 1.0;
  c.second += v;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(ms_between(s.start, s.end));
  }
  return out;
}

std::vector<double> Tracer::self_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::int64_t, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      self[static_cast<std::int64_t>(i)] =
          ms_between(spans_[i].start, spans_[i].end);
    }
  }
  for (const Span& s : spans_) {
    auto it = self.find(s.parent);
    if (it != self.end()) it->second -= ms_between(s.start, s.end);
  }
  std::vector<double> out;
  for (const auto& [idx, ms] : self) out.push_back(ms);
  return out;
}

std::vector<double> Tracer::child_sums_ms(const std::string& parent_name,
                                          const std::string& child_name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::int64_t, double> sums;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == parent_name) sums[static_cast<std::int64_t>(i)] = 0;
  }
  for (const Span& s : spans_) {
    if (s.name != child_name) continue;
    auto it = sums.find(s.parent);
    if (it != sums.end()) it->second += ms_between(s.start, s.end);
  }
  std::vector<double> out;
  for (const auto& [idx, ms] : sums) out.push_back(ms);
  return out;
}

double Tracer::counter_sum(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second.second;
}

double Tracer::counter_n(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second.first;
}

void Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - epoch_).count();
    };
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%lld,\"req\":%llu}}",
                  i == 0 ? "" : ",\n", s.name.c_str(),
                  static_cast<unsigned long long>(s.req), us(s.start),
                  us(s.end) - us(s.start), i,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.req));
    out << buf;
  }
  out << "\n]}\n";
}

// --- inputs ----------------------------------------------------------------

tensor::TensorI8 make_frame(std::int64_t size, util::Rng& rng) {
  tensor::TensorI8 t(tensor::Shape{size, size, 1});
  for (auto& v : t) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  return t;
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

// --- the compiled ladder ---------------------------------------------------

Ladder build_ladder(const std::vector<std::string>& names, std::int64_t input,
                    Tracer& tr) {
  const auto t0 = Clock::now();
  std::vector<Tracer::Span> children;
  Ladder ladder;
  for (const std::string& name : names) {
    auto rung = std::make_unique<Rung>();
    rung->name = name;
    auto a = Clock::now();
    rung->qgraph = core::build_timing_qgraph(name, input);
    auto b = Clock::now();
    children.push_back({"core.build_qgraph", a, b});
    dpu::CompileOptions copts;
    copts.model_name = name;
    copts.opt_level = 1;
    rung->xmodel = dpu::compile(rung->qgraph, copts);
    a = Clock::now();
    children.push_back({"dpu.compile", b, a});
    const auto findings = dpu::verify(rung->xmodel);
    b = Clock::now();
    children.push_back({"dpu.verify", a, b});
    if (dpu::has_errors(findings)) {
      throw std::runtime_error("dpu::verify found errors in rung " + name +
                               ":\n" +
                               dpu::format_findings(rung->xmodel, findings));
    }
    rung->sim = std::make_unique<dpu::DpuCoreSim>(&rung->xmodel);
    ladder.push_back(std::move(rung));
  }
  const std::int64_t parent = tr.add("setup.ladder", t0, Clock::now());
  for (auto& c : children) tr.add(c.name, c.start, c.end, parent);
  return ladder;
}

void make_references(Ladder& ladder,
                     const std::vector<tensor::TensorI8>& frames) {
  namespace k = quant::kernels;
  const k::Backend previous = k::active_backend();
  k::set_backend(k::Backend::kScalar);
  try {
    for (auto& rung : ladder) {
      rung->refs.clear();
      for (std::size_t f = 0; f < frames.size(); ++f) {
        rung->refs.push_back(
            rung->qgraph.forward(frames[f], f == 0 ? &rung->acts : nullptr));
      }
    }
  } catch (...) {
    k::set_backend(previous);
    throw;
  }
  k::set_backend(previous);
}

void check_equal(const tensor::TensorI8& out, const tensor::TensorI8& ref,
                 const std::string& what) {
  if (out.shape() != ref.shape() ||
      std::memcmp(out.data(), ref.data(),
                  static_cast<std::size_t>(ref.numel())) != 0) {
    throw Mismatch("output mismatch: " + what);
  }
}

void add_model_metrics(const Ladder& ladder, Outcome& out, bool table) {
  const platform::ZcuPowerModel power;
  std::vector<double> fps, fps_per_w;
  if (table) {
    std::printf(
        "modelled vs Table IV (INT8, ZCU104, 4 threads; 1M calibrates the "
        "timing model, the other rungs are held out):\n"
        "%-4s %-11s %9s %9s %7s  %7s %7s %7s  %7s %7s %7s\n",
        "rung", "role", "fps", "paper", "err%", "W", "paper", "err%",
        "fps/W", "paper", "err%");
  }
  for (const auto& rung : ladder) {
    const dpu::XModel& xm = rung->xmodel;
    const auto e = platform::estimate_inference_energy(power, xm, 4);
    fps.push_back(e.fps);
    fps_per_w.push_back(e.fps / e.watts);
    out.values["dpu.xmodel.mcyc." + rung->name] = xm.latency_cycles(1) / 1e6;
    out.values["dpu.xmodel.instrs." + rung->name] =
        static_cast<double>(xm.total_instructions());
    out.values["dpu.xmodel.ddr_mb." + rung->name] =
        static_cast<double>(xm.total_ddr_bytes()) / (1024.0 * 1024.0);
    if (!table) continue;
    for (const PaperRow& p : kTable4) {
      if (rung->name != p.rung) continue;
      const auto err = [](double ours, double paper) {
        return 100.0 * (ours - paper) / paper;
      };
      std::printf(
          "%-4s %-11s %9.2f %9.2f %+7.1f  %7.2f %7.2f %+7.1f  %7.2f %7.2f "
          "%+7.1f\n",
          p.rung, rung->name == "1M" ? "calibration" : "held-out", e.fps,
          p.fps, err(e.fps, p.fps), e.watts, p.watts, err(e.watts, p.watts),
          e.fps / e.watts, p.fps_per_w, err(e.fps / e.watts, p.fps_per_w));
    }
  }
  out.values["dpu_fps"] = geomean(fps);
  out.values["dpu_fps_per_w"] = geomean(fps_per_w);
}

void add_setup_layer_metrics(const Tracer& tr, Outcome& out) {
  out.values["core.build_qgraph.ms"] =
      median(tr.child_sums_ms("setup.ladder", "core.build_qgraph"));
  out.values["dpu.compiler.ms"] =
      median(tr.child_sums_ms("setup.ladder", "dpu.compile"));
  out.values["dpu.verify.ms"] =
      median(tr.child_sums_ms("setup.ladder", "dpu.verify"));
}

void replay_layers(Ladder& ladder, Tracer& tr, int reps, bool run_core_sim) {
  namespace k = quant::kernels;
  for (auto& rung_ptr : ladder) {
    Rung& rung = *rung_ptr;
    const quant::QGraph& g = rung.qgraph;
    const std::vector<tensor::TensorI8>& acts = rung.acts;
    const tensor::TensorI8& frame0 = acts[static_cast<std::size_t>(g.input_op)];
    std::vector<int> fps(g.ops.size(), 0);
    fps[static_cast<std::size_t>(g.input_op)] = g.input_fix_pos;
    for (std::size_t id = 0; id < g.ops.size(); ++id) {
      const quant::QOp& op = g.ops[id];
      if (op.kind == quant::QOpKind::kInput) continue;
      const int fp0 = fps[static_cast<std::size_t>(op.inputs[0])];
      fps[id] = op.kind == quant::QOpKind::kMaxPool2D ? fp0 : op.fix_pos_out;
      if (op.kind != quant::QOpKind::kConv2D &&
          op.kind != quant::QOpKind::kTConv2D) {
        continue;
      }
      const auto ci = acts[static_cast<std::size_t>(op.inputs[0])].shape()[2];
      if (!k::acc32_safe(op, ci)) tr.count("quant.kernels.int64_fallback_ops");
      if (op.kind == quant::QOpKind::kConv2D) {
        const auto& s = op.out_shape;
        tr.count("quant.kernels.conv2d.macs/" + rung.name,
                 static_cast<double>(s[0] * s[1] * s[2] * op.kernel *
                                     op.kernel * ci));
      }
    }

    // Whole-frame kernel replays; pass 0 warms caches and is not recorded.
    tensor::TensorArena arena;
    std::vector<tensor::TensorI8> outs(g.ops.size());
    for (int pass = 0; pass <= reps; ++pass) {
      const auto pass_start = Clock::now();
      std::vector<Tracer::Span> spans;
      for (std::size_t id = 0; id < g.ops.size(); ++id) {
        const quant::QOp& op = g.ops[id];
        if (op.kind == quant::QOpKind::kInput) continue;
        const auto in0 = static_cast<std::size_t>(op.inputs[0]);
        tensor::TensorI8& out = outs[id];
        if (out.shape() != op.out_shape) out = tensor::TensorI8(op.out_shape);
        const auto t0 = Clock::now();
        switch (op.kind) {
          case quant::QOpKind::kConv2D:
            k::conv2d(acts[in0], op, out, fps[in0]);
            break;
          case quant::QOpKind::kTConv2D:
            k::tconv2d(acts[in0], op, out, fps[in0], &arena);
            break;
          case quant::QOpKind::kMaxPool2D: k::maxpool2d(acts[in0], out); break;
          case quant::QOpKind::kConcat: {
            const auto in1 = static_cast<std::size_t>(op.inputs[1]);
            k::concat(acts[in0], fps[in0], acts[in1], fps[in1], out,
                      op.fix_pos_out);
            break;
          }
          default: break;
        }
        spans.push_back({std::string("quant.kernels.") + kernel_name(op.kind),
                         t0, Clock::now()});
        check_equal(out, acts[id],
                    "kernel replay of " + op.name + " in " + rung.name);
      }
      if (pass == 0) continue;
      const auto parent =
          tr.add("quant.kernels.replay/" + rung.name, pass_start, Clock::now());
      for (auto& sp : spans) tr.add(sp.name, sp.start, sp.end, parent);
    }

    // The reference executor with a warmed arena.
    tensor::TensorArena qarena;
    for (int pass = 0; pass <= reps; ++pass) {
      const auto t0 = Clock::now();
      tensor::TensorI8 out = g.forward(frame0, nullptr, &qarena);
      if (pass > 0) tr.add("quant.qgraph.forward/" + rung.name, t0, Clock::now());
      check_equal(out, rung.refs[0], "QGraph::forward of " + rung.name);
      qarena.release(std::move(out));
    }
    if (!run_core_sim) continue;
    tensor::TensorArena sarena;
    for (int pass = 0; pass <= reps; ++pass) {
      const auto t0 = Clock::now();
      dpu::RunResult res = rung.sim->run(frame0, 1, &sarena);
      if (pass > 0) tr.add("dpu.core_sim.run/" + rung.name, t0, Clock::now());
      check_equal(res.output, rung.refs[0], "DpuCoreSim::run of " + rung.name);
      sarena.release(std::move(res.output));
    }
  }
}

void add_offline_layer_metrics(const Ladder& ladder, const Tracer& tr,
                               Outcome& out) {
  double kernel_ms_total = 0.0;
  double run_ms_total = 0.0;
  double conv_ms = 0.0;
  double conv_macs = 0.0;
  for (const auto& rung : ladder) {
    const double run_ms =
        median(tr.durations_ms("dpu.core_sim.run/" + rung->name));
    out.values["dpu.core_sim.ms." + rung->name] = run_ms;
    out.values["quant.qgraph.ms." + rung->name] =
        median(tr.durations_ms("quant.qgraph.forward/" + rung->name));
    run_ms_total += run_ms;
    for (const char* kind : {"conv2d", "tconv2d", "maxpool2d", "concat"}) {
      const std::string name = std::string("quant.kernels.") + kind;
      // Per frame: the median replay pass's summed time in this kernel.
      const double ms =
          median(tr.child_sums_ms("quant.kernels.replay/" + rung->name, name));
      kernel_ms_total += ms;
      out.values[name + ".ns"] += ms * 1e6;
      if (name == "quant.kernels.conv2d") conv_ms += ms;
    }
    conv_macs += tr.counter_sum("quant.kernels.conv2d.macs/" + rung->name);
  }
  out.values["dpu.core_sim.non_kernel_share"] =
      run_ms_total > 0.0 ? 1.0 - kernel_ms_total / run_ms_total : 0.0;
  out.values["quant.kernels.conv2d.gmacs"] =
      conv_ms > 0.0 ? conv_macs / (conv_ms * 1e6) : 0.0;
  out.values["quant.kernels.int64_fallback_ops"] =
      tr.counter_n("quant.kernels.int64_fallback_ops");
}

}  // namespace seneca::bench
