#include "loadgen/arrival.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace seneca::loadgen {

namespace {

double diurnal_period(const ArrivalConfig& cfg) {
  return cfg.period_s > 0.0 ? cfg.period_s : cfg.duration_s;
}

double burst_len(const ArrivalConfig& cfg) {
  return cfg.burst_len_s > 0.0 ? cfg.burst_len_s : cfg.duration_s / 5.0;
}

}  // namespace

double ArrivalConfig::rate_at(double t_s) const {
  const double base = base_rate();
  switch (kind) {
    case ArrivalKind::kPoisson:
      return base;
    case ArrivalKind::kDiurnal: {
      const double phase =
          2.0 * std::numbers::pi * t_s / diurnal_period(*this);
      return std::max(0.0, base * (1.0 + amplitude * std::sin(phase)));
    }
    case ArrivalKind::kFlashCrowd: {
      const double len = burst_len(*this);
      const bool in_burst = t_s >= burst_start_s && t_s < burst_start_s + len;
      return in_burst ? base * burst_multiplier : base;
    }
  }
  return base;
}

double ArrivalConfig::peak_rate() const {
  const double base = base_rate();
  switch (kind) {
    case ArrivalKind::kPoisson:
      return base;
    case ArrivalKind::kDiurnal:
      return base * (1.0 + std::max(0.0, amplitude));
    case ArrivalKind::kFlashCrowd:
      return base * std::max(1.0, burst_multiplier);
  }
  return base;
}

double ArrivalConfig::expected_arrivals() const {
  const double base = base_rate();
  switch (kind) {
    case ArrivalKind::kPoisson:
      return base * duration_s;
    case ArrivalKind::kDiurnal: {
      // Integral of base*(1 + A sin(2 pi t / T)) over [0, D].
      const double period = diurnal_period(*this);
      const double w = 2.0 * std::numbers::pi / period;
      return base * duration_s +
             base * amplitude / w * (1.0 - std::cos(w * duration_s));
    }
    case ArrivalKind::kFlashCrowd: {
      const double len =
          std::min(burst_len(*this),
                   std::max(0.0, duration_s - burst_start_s));
      return base * duration_s + base * (burst_multiplier - 1.0) * len;
    }
  }
  return base * duration_s;
}

std::vector<double> generate_arrivals(const ArrivalConfig& cfg,
                                      util::Rng& rng) {
  if (cfg.duration_s <= 0.0) {
    throw std::invalid_argument("generate_arrivals: duration_s must be > 0");
  }
  const double peak = cfg.peak_rate();
  std::vector<double> arrivals;
  if (peak <= 0.0) return arrivals;
  arrivals.reserve(static_cast<std::size_t>(cfg.expected_arrivals() * 1.1) + 8);

  // Lewis-Shedler thinning: candidates from a homogeneous process at the
  // peak rate, each kept with probability rate(t)/peak. For kPoisson the
  // acceptance ratio is 1 and this is the plain exponential-gap sampler.
  double t = 0.0;
  for (;;) {
    double u = rng.uniform();
    while (u <= 0.0) u = rng.uniform();  // log(0) guard
    t += -std::log(u) / peak;
    if (t >= cfg.duration_s) break;
    if (cfg.kind == ArrivalKind::kPoisson ||
        rng.uniform() * peak < cfg.rate_at(t)) {
      arrivals.push_back(t);
    }
  }
  return arrivals;
}

}  // namespace seneca::loadgen
