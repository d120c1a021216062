#pragma once
// Host-speed calibration. The host these bounds were set on is a shared VM
// whose speed moves by 2x and more in phases of minutes while the program
// stays the same, so raw wall times of two sets of runs of the same code
// disagree by more than any usable bound. A fixed reference slice — the
// benchmark's own code, built with fixed flags and calling nothing in the
// program (calib.cpp) — is timed in the same run as the program, and the
// host-timed end-to-end metrics are reported at the reference speed: a
// time is divided, a rate multiplied, by the slowdown of the slices run
// around it (mean slice time / kCalibNominalMs). A faster program moves
// them; a slower host slows program and reference alike and cancels out.
//
//   ladder_offline  one slice after every round over the rungs; each
//                   round's frames use the slices of that round and its
//                   two neighbours.
//   serve_*         a CalibThread beside the measured phase; each request
//                   uses the slices that end near it (local_slowdown).
//   setup_s         a block of slices before each set-up and after the
//                   last (normalised_setup_s).
//
// The raw figures and the slowdowns are printed on a "# host:" line, and
// host.slowdown is a per-layer metric.

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

namespace seneca::bench {

/// A round figure near one slice's time on the 4-vCPU Xeon VM (2.1 GHz,
/// AVX2) the bounds were set on, when it runs fastest. It only sets the
/// scale of the normalised metrics; comparisons need the same host.
constexpr double kCalibNominalMs = 2.0;

/// Runs one reference slice and returns its wall time in ms. Throws
/// std::logic_error if the slice's checksum ever changes.
double calib_slice_ms();

/// Mean slice time / kCalibNominalMs: 1 at the reference speed, 2 when the
/// host runs the reference at half speed.
double calib_slowdown(const std::vector<double>& slice_ms);

/// Times `reps` calls of `setup`, each after a block of reference slices,
/// with one more block after the last. Returns the median call time in
/// seconds divided by the slowdown of all those slices.
double normalised_setup_s(int reps, const std::function<void()>& setup,
                          double* slowdown = nullptr);

/// Calibrates beside a serving phase: a thread that sleeps `period`, runs
/// one slice and repeats, so it wakes, computes and sleeps as the serving
/// threads do, and the scheduler treats it like them.
class CalibThread {
 public:
  struct Slice {
    std::chrono::steady_clock::time_point end;
    double ms = 0.0;
  };

  explicit CalibThread(std::chrono::milliseconds period);
  ~CalibThread();
  CalibThread(const CalibThread&) = delete;
  CalibThread& operator=(const CalibThread&) = delete;
  /// Stops the thread and returns every slice it ran, in time order.
  std::vector<Slice> stop();

 private:
  std::atomic<bool> stop_{false};
  std::vector<Slice> slices_;
  std::thread thread_;
};

/// The times of `slices`, for calib_slowdown.
std::vector<double> slice_times(const std::vector<CalibThread::Slice>& slices);

/// Slowdown around [from, to]: calib_slowdown of the slices that end within
/// `margin` of that interval (all slices when none does).
double local_slowdown(const std::vector<CalibThread::Slice>& slices,
                      std::chrono::steady_clock::time_point from,
                      std::chrono::steady_clock::time_point to,
                      std::chrono::milliseconds margin);

}  // namespace seneca::bench
