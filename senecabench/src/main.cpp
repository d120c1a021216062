// seneca_bench: runs one SENECA-Bench workload and prints, as the last line
// of stdout, {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end set, with --trace 1 the per-layer set
// (derived from spans recorded around calls into each layer, plus
// trace.overhead_share). Usually launched through senecabench/run.py,
// which builds this binary first:
//
//   seneca_bench --workload ladder_offline|serve_mixed|serve_wire
//                --seed N --seconds S --trace 0|1 [--work-dir DIR]
//                [--git-sha SHA] [--source-digest HEX] [--dump-inputs 1]
//
// Exit codes: 0 ok, 1 error, 2 bad arguments, 3 output mismatch (no
// metrics printed).

#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"
#include "quant/kernels.hpp"
#include "util/cli.hpp"

using namespace seneca;

namespace {

void print_result(const bench::Outcome& out, bool trace) {
  std::string metrics;
  for (const bench::MetricDef& m : bench::metric_catalogue()) {
    if (m.end_to_end == trace) continue;
    auto it = out.values.find(m.name);
    double v = it == out.values.end() ? 0.0 : it->second;
    if (m.end_to_end && it == out.values.end()) {
      throw std::logic_error("end-to-end metric not measured: " + m.name);
    }
    if (!std::isfinite(v)) {
      throw std::runtime_error("metric " + m.name + " is not finite");
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), v,
                  m.unit.c_str());
    metrics += buf;
  }
  std::printf(
      "{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), metrics.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opt;
  bool dump = false;
  std::string git_sha;
  std::string source_digest;
  try {
    const util::Cli cli(argc, argv);
    opt.workload = cli.get("workload", "");
    opt.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    opt.seconds = cli.get_double("seconds", 10.0);
    opt.trace = cli.get_int("trace", 0) != 0;
    opt.work_dir = cli.get("work-dir", ".");
    dump = cli.get_int("dump-inputs", 0) != 0;
    git_sha = cli.get("git-sha", "unknown");
    source_digest = cli.get("source-digest", "unknown");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "seneca_bench: %s\n", e.what());
    return 2;
  }
  const bool known = opt.workload == "ladder_offline" ||
                     opt.workload == "serve_mixed" ||
                     opt.workload == "serve_wire";
  if (!known || !(opt.seconds > 0.0)) {
    std::fprintf(stderr,
                 "seneca_bench: need --workload ladder_offline|serve_mixed|"
                 "serve_wire and --seconds > 0\n");
    return 2;
  }

  if (dump) {
    std::printf("%s\n", opt.workload == "ladder_offline"
                            ? bench::ladder_inputs_digest(opt.seed).c_str()
                            : bench::serve_inputs_digest(
                                  opt, opt.workload == "serve_wire")
                                  .c_str());
    return 0;
  }

  // Run identity: results from different backends, hosts or builds must
  // never be compared silently.
  std::printf(
      "# identity: {\"git_sha\": \"%s\", \"source_digest\": \"%s\", "
      "\"backend\": \"%s\", \"nproc\": %u, \"seed\": %llu, "
      "\"build_type\": \"%s\", \"workload\": \"%s\", \"trace\": %d, "
      "\"seconds\": %g}\n",
      git_sha.c_str(), source_digest.c_str(),
      quant::kernels::backend_name(quant::kernels::active_backend()),
      std::thread::hardware_concurrency(),
      static_cast<unsigned long long>(opt.seed), SENECA_BENCH_BUILD_TYPE,
      opt.workload.c_str(), opt.trace ? 1 : 0, opt.seconds);
  std::fflush(stdout);

  bench::Tracer tracer(opt.trace);
  try {
    bench::Outcome out;
    if (opt.workload == "ladder_offline") {
      out = bench::run_ladder_offline(opt, tracer);
    } else {
      out = bench::run_serve(opt, tracer, opt.workload == "serve_wire");
    }
    if (opt.trace) {
      const std::string path = opt.work_dir + "/trace-" + opt.workload + "-" +
                               std::to_string(opt.seed) + ".json";
      tracer.write(path);
      std::printf("# spans written to %s\n", path.c_str());
    }
    print_result(out, opt.trace);
    return 0;
  } catch (const bench::Mismatch& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "seneca_bench: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "seneca_bench: error: %s\n", e.what());
    return 1;
  }
}
