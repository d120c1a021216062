#pragma once
// Open-loop arrival processes for the traffic harness.
//
// Closed-loop clients cannot model real arrival behaviour: a closed-loop
// client waits for its previous response, so the offered load
// self-throttles exactly when the system saturates — the regime where
// tail latency and isolation actually matter. An open-loop trace fixes
// arrival times up front (they do not care how the server is doing),
// which is how traffic from a large user population behaves: a million
// independent users do not coordinate their clicks with the queue depth.
// bench/serve_trace replays every serving experiment this way.
//
// Three generators, all seeded through util::Rng for bit-reproducible
// traces:
//   kPoisson    — homogeneous Poisson process (exponential inter-arrivals)
//   kDiurnal    — inhomogeneous Poisson, rate(t) modulated by a sinusoid
//                 (the day/night cycle compressed to `period_s`)
//   kFlashCrowd — homogeneous base rate with a burst window at
//                 `burst_multiplier` times the base rate (breaking-news /
//                 mass-casualty surge)
// Inhomogeneous processes use Lewis-Shedler thinning against the peak
// rate, so the trace is an exact sample of the target process.

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace seneca::loadgen {

enum class ArrivalKind : std::uint8_t {
  kPoisson = 0,
  kDiurnal = 1,
  kFlashCrowd = 2,
};

struct ArrivalConfig {
  ArrivalKind kind = ArrivalKind::kPoisson;
  /// Base mean arrival rate. The *population framing*: rate_per_s =
  /// users * per_user_rate_per_s; set `users` > 0 to use it.
  double rate_per_s = 100.0;
  double duration_s = 1.0;

  /// Population framing: when users > 0, the effective base rate is
  /// users * per_user_rate_per_s (a million users at 2e-4 req/s each is a
  /// 200 req/s process) — the knob that scales simulated population without
  /// scaling thread count.
  std::uint64_t users = 0;
  double per_user_rate_per_s = 0.0;

  // kDiurnal: rate(t) = base * (1 + amplitude * sin(2*pi*t / period_s)).
  // amplitude in [0, 1]; period defaults to the whole trace (one "day").
  double amplitude = 0.8;
  double period_s = 0.0;  // 0 = duration_s

  // kFlashCrowd: rate is base outside the burst window and
  // base * burst_multiplier within [burst_start_s, burst_start_s + burst_len_s).
  double burst_multiplier = 10.0;
  double burst_start_s = 0.0;
  double burst_len_s = 0.0;  // 0 = duration_s / 5

  double base_rate() const {
    return users > 0 ? static_cast<double>(users) * per_user_rate_per_s
                     : rate_per_s;
  }
  /// Instantaneous rate lambda(t); the thinning envelope is peak_rate().
  double rate_at(double t_s) const;
  double peak_rate() const;
  /// Expected arrival count over the trace (integral of rate_at).
  double expected_arrivals() const;
};

/// Sorted arrival offsets in seconds, all within [0, duration_s). The trace
/// is a deterministic function of (cfg, rng state).
std::vector<double> generate_arrivals(const ArrivalConfig& cfg,
                                      util::Rng& rng);

}  // namespace seneca::loadgen
