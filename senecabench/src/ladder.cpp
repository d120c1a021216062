// ladder_offline: all five zoo rungs at -O1, one thread running seeded
// frames through dpu::DpuCoreSim::run with a warmed TensorArena per rung.
// Kernels and the core simulator do nearly all the timed work; no serving
// or network code runs.
//
// Host timing runs at 128x128. At the paper's 256x256 the working set
// spills L2 and the frame rate moved by up to 30 % between runs on a shared
// host, beyond any usable bound. The modelled metrics and exact counts come
// from the 256x256 models, Table IV's protocol.

#include <algorithm>
#include <cstdio>

#include "calib.hpp"
#include "common.hpp"

namespace seneca::bench {

namespace {

const std::vector<std::string> kRungs = {"16M", "8M", "4M", "2M", "1M"};
constexpr std::int64_t kInput = 128;
constexpr std::int64_t kModelledInput = 256;
constexpr int kFramePool = 2;  // distinct seeded frames per rung
constexpr int kSetupReps = 3;

std::vector<tensor::TensorI8> ladder_frames(std::uint64_t seed) {
  util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x1ADDE5);
  std::vector<tensor::TensorI8> frames;
  for (int f = 0; f < kFramePool; ++f) frames.push_back(make_frame(kInput, rng));
  return frames;
}

struct Phase {
  std::vector<std::vector<double>> ms;  // per rung, per frame
  std::vector<double> calib_ms;         // one reference slice per round
  std::uint64_t frames = 0;
  double wall_s = 0.0;
};

/// Round-robin over the rungs, one frame each per round, until `seconds`
/// have passed; every frame is checked against its reference.
Phase run_phase(Ladder& ladder, std::vector<tensor::TensorArena>& arenas,
                const std::vector<tensor::TensorI8>& frames, double seconds,
                Tracer& tr) {
  Phase p;
  p.ms.resize(ladder.size());
  const auto start = Clock::now();
  for (std::size_t round = 0;; ++round) {
    const std::size_t f = round % frames.size();
    for (std::size_t r = 0; r < ladder.size(); ++r) {
      Rung& rung = *ladder[r];
      const auto t0 = Clock::now();
      dpu::RunResult res = rung.sim->run(frames[f], 1, &arenas[r]);
      const auto t1 = Clock::now();
      tr.add("dpu.core_sim.run/" + rung.name, t0, t1, -1, p.frames + 1);
      p.ms[r].push_back(ms_between(t0, t1));
      ++p.frames;
      check_equal(res.output, rung.refs[f],
                  "DpuCoreSim::run of " + rung.name + " frame " +
                      std::to_string(f));
      arenas[r].release(std::move(res.output));
    }
    p.calib_ms.push_back(calib_slice_ms());
    if (ms_between(start, Clock::now()) >= seconds * 1e3) break;
  }
  p.wall_s = ms_between(start, Clock::now()) / 1e3;
  return p;
}

std::vector<double> rung_medians(const std::vector<std::vector<double>>& ms) {
  std::vector<double> m;
  for (const auto& v : ms) m.push_back(median(v));
  return m;
}

std::vector<double> rung_fps(const std::vector<std::vector<double>>& ms) {
  std::vector<double> fps;
  for (const auto& v : ms) {
    double sum = 0.0;
    for (double x : v) sum += x;
    fps.push_back(1e3 * static_cast<double>(v.size()) / sum);
  }
  return fps;
}

/// Frame times at the reference speed: each round's frames divided by the
/// slowdown of the reference slices of that round and its two neighbours.
std::vector<std::vector<double>> normalised_ms(const Phase& p) {
  auto ms = p.ms;
  const std::size_t rounds = p.calib_ms.size();
  for (std::size_t k = 0; k < rounds; ++k) {
    const std::size_t lo = k == 0 ? 0 : k - 1;
    const std::size_t hi = std::min(rounds, k + 2);
    const double slow = calib_slowdown(std::vector<double>(
        p.calib_ms.begin() + static_cast<std::ptrdiff_t>(lo),
        p.calib_ms.begin() + static_cast<std::ptrdiff_t>(hi)));
    for (auto& v : ms) v[k] /= slow;
  }
  return ms;
}

}  // namespace

std::string ladder_inputs_digest(std::uint64_t seed) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const auto& f : ladder_frames(seed)) {
    h = fnv1a(f.data(), static_cast<std::size_t>(f.numel()), h);
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "frames=%d digest=%016llx", kFramePool,
                static_cast<unsigned long long>(h));
  return buf;
}

Outcome run_ladder_offline(const Options& opt, Tracer& tr) {
  Outcome out;
  Ladder ladder;
  double setup_slowdown = 0.0;
  out.values["setup_s"] = normalised_setup_s(
      kSetupReps,
      [&] {
        ladder.clear();
        ladder = build_ladder(kRungs, kInput, tr);
      },
      &setup_slowdown);

  const auto frames = ladder_frames(opt.seed);
  make_references(ladder, frames);
  {
    Tracer off(false);
    add_model_metrics(build_ladder(kRungs, kModelledInput, off), out,
                      /*table=*/!opt.trace);
  }

  std::vector<tensor::TensorArena> arenas(ladder.size());
  for (std::size_t r = 0; r < ladder.size(); ++r) {
    arenas[r].release(ladder[r]->sim->run(frames[0], 1, &arenas[r]).output);
  }

  Tracer untraced(false);
  const double phase_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const Phase base = run_phase(ladder, arenas, frames, phase_s, untraced);
  out.attempted = base.frames;

  // Host-timed figures at the reference speed (calib.hpp); the raw ones
  // are printed below.
  const double slow = calib_slowdown(base.calib_ms);
  const auto norm = normalised_ms(base);
  double calib_s = 0.0;
  for (double ms : base.calib_ms) calib_s += ms / 1e3;
  const double raw_fps = geomean(rung_fps(base.ms));
  const double raw_lat = geomean(rung_medians(base.ms));
  out.values["host_fps"] = geomean(rung_fps(norm));
  // Geometric mean of each rung's median frame time, so every rung moves it.
  out.values["lat_ms_p50"] = geomean(rung_medians(norm));
  // Derived: frames over the loop's wall time without the reference
  // slices, so it also counts the output checks.
  out.values["goodput_rps"] =
      static_cast<double>(base.frames) / (base.wall_s - calib_s) * slow;
  out.values["ok_share"] = 1.0;  // fixed: any mismatch has already thrown
  out.values["host.slowdown"] = slow;
  std::printf("# host: slowdown %.4f in the loop, %.4f in set-up; raw "
              "host_fps %.4f fps, lat_ms_p50 %.4f ms, setup_s %.4f s\n",
              slow, setup_slowdown, raw_fps, raw_lat,
              out.values["setup_s"] * setup_slowdown);
  std::printf("# ladder_offline: %llu frames (%zu per rung) in %.2f s\n",
              static_cast<unsigned long long>(base.frames), base.ms[0].size(),
              base.wall_s);

  if (opt.trace) {
    const Phase traced = run_phase(ladder, arenas, frames, phase_s, tr);
    out.attempted += traced.frames;
    replay_layers(ladder, tr, /*reps=*/3, /*run_core_sim=*/false);
    add_setup_layer_metrics(tr, out);
    add_offline_layer_metrics(ladder, tr, out);
    const auto b = rung_medians(base.ms);
    const auto t = rung_medians(traced.ms);
    std::vector<double> ratio;
    for (std::size_t r = 0; r < b.size(); ++r) ratio.push_back(t[r] / b[r]);
    out.values["trace.overhead_share"] = geomean(ratio) - 1.0;
  }
  out.values["peak_rss_mb"] = peak_rss_mib();
  return out;
}

}  // namespace seneca::bench
