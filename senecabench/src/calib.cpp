// Reference slice for host-speed calibration (see calib.hpp), built with
// its own fixed flags (CMakeLists.txt). A host phase slows vector compute,
// cache traffic and scalar code by different factors, and the program runs
// all three, so the slice runs all three: an INT8 3x3 convolution, strided
// loads over a 1 MiB table, and a dependent chain of integer operations.
// Against the ladder's frame rate over 22 host phases this mix spread
// least of the single kernels and mixes tried (README.md, "Host
// calibration").

#include "calib.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace seneca::bench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kC = 16;    // input and output channels
constexpr int kH = 32;    // rows
constexpr int kW = 64;    // columns
constexpr int kReps = 2;  // convolutions per slice
constexpr std::size_t kTable = std::size_t{1} << 18;  // uint32 entries, 1 MiB
constexpr std::size_t kLoads = 300000;
constexpr int kChain = 750000;
constexpr int kSetupSlices = 20;

struct RefSlice {
  std::int8_t in[kC][kH + 2][kW + 2] = {};
  std::int8_t w[kC][kC][3][3] = {};
  std::int32_t out[kC][kH][kW] = {};
  std::vector<std::uint32_t> table = std::vector<std::uint32_t>(kTable);

  RefSlice() {
    for (std::size_t i = 0; i < kTable; ++i) {
      table[i] = static_cast<std::uint32_t>(i * 2654435761u);
    }
    std::uint32_t x = 0x2545F491u;
    auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 17;
      x ^= x << 5;
      return static_cast<std::int8_t>(x >> 24);
    };
    for (auto& plane : in)
      for (int y = 1; y <= kH; ++y)
        for (int c = 1; c <= kW; ++c) plane[y][c] = next();
    for (auto& co : w)
      for (auto& ci : co)
        for (auto& row : ci)
          for (auto& v : row) v = next();
  }

  void conv() {
    for (int co = 0; co < kC; ++co) {
      for (int y = 0; y < kH; ++y) {
        std::int32_t acc[kW] = {};
        for (int ci = 0; ci < kC; ++ci) {
          for (int ky = 0; ky < 3; ++ky) {
            const std::int8_t* row = in[ci][y + ky];
            for (int kx = 0; kx < 3; ++kx) {
              const std::int32_t k = w[co][ci][ky][kx];
              for (int c = 0; c < kW; ++c) acc[c] += k * row[c + kx];
            }
          }
        }
        std::copy(acc, acc + kW, out[co][y]);
      }
    }
  }

  std::uint64_t run() {
    for (int r = 0; r < kReps; ++r) conv();
    std::uint64_t h = 1469598103934665603ULL;
    for (const auto& plane : out)
      for (const auto& row : plane)
        for (std::int32_t v : row) {
          h = (h ^ static_cast<std::uint32_t>(v)) * 1099511628211ULL;
        }
    for (std::size_t i = 0; i < kLoads; ++i) h += table[(i * 7919) & (kTable - 1)];
    std::uint64_t x = h | 1;
    for (int i = 0; i < kChain; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    return x;
  }
};

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

double calib_slice_ms() {
  // One instance per thread: a serving phase calibrates on its own thread.
  thread_local RefSlice slice;
  thread_local const std::uint64_t expected = slice.run();
  const auto t0 = Clock::now();
  const bool same = slice.run() == expected;
  const double ms = ms_since(t0);
  if (!same) throw std::logic_error("calibration slice checksum changed");
  return ms;
}

double calib_slowdown(const std::vector<double>& slice_ms) {
  if (slice_ms.empty()) throw std::logic_error("no calibration slices");
  double sum = 0.0;
  for (double ms : slice_ms) sum += ms;
  return sum / static_cast<double>(slice_ms.size()) / kCalibNominalMs;
}

double normalised_setup_s(int reps, const std::function<void()>& setup,
                          double* slowdown) {
  std::vector<double> slices;
  std::vector<double> setup_s;
  auto block = [&slices] {
    for (int i = 0; i < kSetupSlices; ++i) slices.push_back(calib_slice_ms());
  };
  for (int rep = 0; rep < reps; ++rep) {
    block();
    const auto t0 = Clock::now();
    setup();
    setup_s.push_back(ms_since(t0) / 1e3);
  }
  block();
  std::sort(setup_s.begin(), setup_s.end());
  const double slow = calib_slowdown(slices);
  if (slowdown != nullptr) *slowdown = slow;
  return setup_s[setup_s.size() / 2] / slow;
}

CalibThread::CalibThread(std::chrono::milliseconds period)
    : thread_([this, period] {
        while (!stop_.load()) {
          std::this_thread::sleep_for(period);
          const double ms = calib_slice_ms();
          slices_.push_back({Clock::now(), ms});
        }
      }) {}

CalibThread::~CalibThread() { stop(); }

std::vector<CalibThread::Slice> CalibThread::stop() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
  return slices_;
}

std::vector<double> slice_times(const std::vector<CalibThread::Slice>& slices) {
  std::vector<double> ms;
  for (const CalibThread::Slice& s : slices) ms.push_back(s.ms);
  return ms;
}

double local_slowdown(const std::vector<CalibThread::Slice>& slices,
                      Clock::time_point from, Clock::time_point to,
                      std::chrono::milliseconds margin) {
  using Slice = CalibThread::Slice;
  const auto first = std::lower_bound(
      slices.begin(), slices.end(), from - margin,
      [](const Slice& s, Clock::time_point t) { return s.end < t; });
  std::vector<double> ms;
  for (auto it = first; it != slices.end() && it->end <= to + margin; ++it) {
    ms.push_back(it->ms);
  }
  return calib_slowdown(ms.empty() ? slice_times(slices) : ms);
}

}  // namespace seneca::bench
