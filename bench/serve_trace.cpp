// serve_trace: the open-loop serving harness. Every serving experiment is a
// named act, one row of the table in acts(). A row fixes a topology (one
// InferenceServer, N replicated or partitioned BoardSims behind a
// ClusterRouter, or N seneca_boardd processes under a Supervisor on
// loopback TCP), a ladder, a server-config preset, the tenant workloads,
// an optional timed event and the gate it feeds. All traffic is replayed
// by loadgen::run_open_loop, so offered load is a property of the trace,
// never of how well the server keeps up; a sweep is a list of acts.
//
//   ./serve_trace [--act solo,storm,...] [--seed 42] [--json out.json]
//                 [--strict]
//
// Without --act every act runs, in table order. --strict exits nonzero
// unless every gate fed by a selected act holds:
//   isolation  storm's clinic p99 within 20% (or 10 ms) of solo's, and its
//              goodput within 20% of solo's;
//   wire       the boardd fleet's simulated FPS >= 0.8x the in-process
//              fleet's on the same trace;
//   chaos      a worker SIGKILLed mid-trace with queued work, which the
//              router migrates; no kMigrated/kExpired reaches a client,
//              nothing expires cluster-wide, the survivors serve, and the
//              supervisor restarts the worker within 20 s.
// A gate whose reference act was not selected fails.
//
// Model load is offered frames/s over the act's model capacity: each
// board's top rung, `workers` threads each busy one host frame time per
// frame (timed once per rung at startup), the host's hardware threads
// shared evenly when the fleet has more workers than that. Serving
// overhead (queues, batching, routing, the wire) comes on top, so a fleet
// saturates below model load 1.
//
// Simulated FPS, FPS/W are DES-priced board quantities (the ZCU104s under
// simulation), not host clock; latencies are host wall clock.
// SENECA_BOARDD_PATH is injected by CMake from the build tree.

#include <signal.h>

#include <algorithm>
#include <cstdarg>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/workflow.hpp"
#include "dpu/core_sim.hpp"
#include "eval/table.hpp"
#include "loadgen/loadgen.hpp"
#include "serve/cluster/router.hpp"
#include "serve/net/boardd.hpp"
#include "serve/net/supervisor.hpp"
#include "serve/server.hpp"
#include "serve/tenant/tenant.hpp"
#include "tensor/arena.hpp"
#include "util/cli.hpp"

namespace {

using namespace seneca;
using loadgen::ArrivalKind;
using loadgen::TenantReport;
using loadgen::TenantWorkload;
using serve::cluster::ClusterRouter;
using serve::cluster::PolicyKind;
using serve::tenant::TenantRegistry;

// Gate bounds.
constexpr double kIsolationTolerance = 0.20;
constexpr double kIsolationSlackMs = 10.0;
constexpr double kMinWireRatio = 0.8;
constexpr double kRestartWaitS = 20.0;

// Offered rates, from the host cost of a 32x32 frame (8M ~0.7 ms, 4M
// 0.4-0.6 ms on one 2.1 GHz AVX2 core; model load re-measures it) and a
// rate sweep of inproc/wire on 4 such cores, where rejections began near
// 2000/s. The fleet runs at about half that, so the wire gate compares
// fleets that keep up; the chaos burst (~400 requests in 40 ms) runs far
// above it and fills every queue, so the SIGKILLed worker strands its
// queue; a scaling board gets ~0.7 of what one 8M worker computes.
constexpr double kFleetRate = 1000.0;
constexpr double kChaosBurstRate = 10000.0;
constexpr double kScalingRatePerBoard = 1000.0;

constexpr std::int64_t kInput = 32;
constexpr double kProbeS = 0.05;  // host time spent timing each rung
constexpr std::size_t kBoarddQueue = 32;

enum class Topology { kServer, kReplicated, kPartitioned, kWire };
enum class Preset { kTenant, kBoardd, kPinned, kShed };
enum class Event { kNone, kKillWorker, kFaultBoard0 };
enum class Gate { kNone, kIsolation, kWireRatio, kChaos };

using RegistryFn = std::shared_ptr<TenantRegistry> (*)();

struct Act {
  std::string name{};
  Topology topology = Topology::kServer;
  int boards = 1;
  std::vector<std::string> ladder{};
  int workers = 2;  // VART workers per rung
  Preset preset = Preset::kTenant;
  PolicyKind policy = PolicyKind::kJoinShortestQueue;
  bool migrate = false;
  RegistryFn tenants = nullptr;  // kServer only
  std::vector<TenantWorkload> workloads{};
  Event event = Event::kNone;
  Gate gate = Gate::kNone;
  std::string ref{};  // act whose same-named tenants this one is compared to

  double duration_s() const {
    double d = 0.0;
    for (const auto& w : workloads) d = std::max(d, w.arrivals.duration_s);
    return d;
  }
};

/// What one act measured.
struct Outcome {
  std::vector<TenantReport> reports;
  std::uint64_t served = 0;
  std::uint64_t degraded = 0;
  std::uint64_t expired = 0;  // server/cluster-wide
  std::uint64_t migrations = 0;
  double sim_fps = 0.0;  // cluster topologies only
  double fps_per_w = 0.0;
  std::vector<std::uint64_t> board_served;
  std::vector<std::uint64_t> board_served_mid;  // at the timed event
  bool killed = false;     // Event::kKillWorker found a live worker
  bool restarted = false;  // ... and the supervisor replaced it
  double capacity_fps = 0.0;  // model capacity, see the header
  double load = 0.0;          // model load: mean offered rate / capacity
  double wall_s = 0.0;

  const TenantReport* report(const std::string& name) const {
    for (const auto& r : reports) {
      if (r.name == name) return &r;
    }
    return nullptr;
  }
};

// ---------------------------------------------------------------- presets

serve::ServerConfig server_config(Preset preset) {
  if (preset == Preset::kBoardd) {
    return serve::net::boardd_server_config(kBoarddQueue);
  }
  serve::ServerConfig cfg;
  cfg.batcher.interactive_max_wait_ms = 0.0;
  cfg.batcher.interactive_max_batch_size = 1;
  switch (preset) {
    case Preset::kTenant:  // small batches, deep degrade band, drop expired
      cfg.queue.capacity = 32;
      cfg.queue.policy = serve::OverloadPolicy::kDropExpired;
      cfg.batcher.max_batch_size = 2;
      cfg.batcher.max_wait_ms = 2.0;
      cfg.degrade.queue_depth_high = 16;
      cfg.degrade.queue_depth_low = 4;
      cfg.degrade.min_dwell_ms = 25.0;
      break;
    case Preset::kPinned:  // no degradation: every frame costs its rung
      cfg.queue.capacity = 32;
      cfg.batcher.max_batch_size = 4;
      cfg.batcher.max_wait_ms = 25.0;
      cfg.degrade.queue_depth_high = 1000000;
      break;
    case Preset::kShed:  // short queue: degrade first, then reject
      cfg.queue.capacity = 16;
      cfg.batcher.max_batch_size = 4;
      cfg.batcher.max_wait_ms = 20.0;
      cfg.degrade.queue_depth_high = 10;
      cfg.degrade.queue_depth_low = 6;
      cfg.degrade.min_dwell_ms = 25.0;
      break;
    case Preset::kBoardd: break;
  }
  return cfg;
}

constexpr serve::TenantId kClinic = 1;
constexpr serve::TenantId kResearch = 2;

/// The clinic bought 1.5x its 60/s Poisson rate with a burst of half a
/// second's arrivals + 8, for jitter; research bought exactly its 4/s
/// batch rate, so its bucket, not the clinic, absorbs the storm.
std::shared_ptr<TenantRegistry> clinic_research() {
  auto registry = std::make_shared<TenantRegistry>();
  registry->add({kClinic, "clinic", /*rate=*/90.0, /*burst=*/38.0,
                 /*weight=*/3});
  registry->add({kResearch, "research", /*rate=*/4.0, /*burst=*/8.0,
                 /*weight=*/1});
  return registry;
}

/// No tenancy: every workload rides the default tenant through one FIFO.
std::shared_ptr<TenantRegistry> flat() {
  return std::make_shared<TenantRegistry>();
}

/// Metro bought 1.2x its 60/s mean diurnal rate; the ICU's weight 4 keeps
/// its strict tail through both the metro peak and the batch flood.
std::shared_ptr<TenantRegistry> metro_day() {
  auto registry = std::make_shared<TenantRegistry>();
  registry->add({1, "metro", /*rate=*/72.0, /*burst=*/38.0, /*weight=*/2});
  registry->add({2, "icu", /*rate=*/30.0, /*burst=*/16.0, /*weight=*/4});
  registry->add({3, "batch", /*rate=*/5.0, /*burst=*/8.0, /*weight=*/1});
  return registry;
}

// ------------------------------------------------------------------ acts

TenantWorkload poisson(const char* name, serve::TenantId tenant, double rate,
                       double duration_s, double interactive,
                       double deadline_ms) {
  TenantWorkload w;
  w.tenant = tenant;
  w.name = name;
  w.arrivals.kind = ArrivalKind::kPoisson;
  w.arrivals.rate_per_s = rate;
  w.arrivals.duration_s = duration_s;
  w.interactive_fraction = interactive;
  w.deadline_ms = deadline_ms;
  return w;
}

/// `rate` outside, 10x `rate` inside the middle half of the trace.
TenantWorkload flash_crowd(const char* name, serve::TenantId tenant,
                           double rate, double duration_s, double interactive,
                           double deadline_ms) {
  TenantWorkload w =
      poisson(name, tenant, rate, duration_s, interactive, deadline_ms);
  w.arrivals.kind = ArrivalKind::kFlashCrowd;
  w.arrivals.burst_multiplier = 10.0;
  w.arrivals.burst_start_s = duration_s * 0.25;
  w.arrivals.burst_len_s = duration_s * 0.5;
  return w;
}

std::vector<Act> acts() {
  const std::vector<std::string> small = {"4M", "2M"};
  std::vector<Act> out;

  // Tenant isolation on one server: clinic Poisson with ~350 samples, so
  // p99 is a percentile rather than the max; research storms at 10x its
  // contract.
  const auto clinic = poisson("clinic", kClinic, 60.0, 6.0, 1.0, 250.0);
  const auto research = flash_crowd("research", kResearch, 4.0, 6.0, 0.0, 0.0);
  auto flat_clinic = clinic;
  auto flat_research = research;
  flat_clinic.tenant = flat_research.tenant = serve::kDefaultTenant;
  Act a{.name = "solo", .ladder = small, .workers = 4,
        .tenants = clinic_research};
  a.workloads = {clinic};
  out.push_back(a);
  a.name = "storm";
  a.workloads = {clinic, research};
  a.gate = Gate::kIsolation;
  a.ref = "solo";
  out.push_back(a);
  a.name = "unisolated";  // the contrast row
  a.tenants = flat;
  a.workloads = {flat_clinic, flat_research};
  a.gate = Gate::kNone;
  out.push_back(a);

  // The distributed tier: the same 4-board fleet in process and as boardd
  // processes, deadline-free so nothing can legitimately expire.
  const double fleet_s = 0.5;
  const auto fleet =
      poisson("fleet", serve::kDefaultTenant, kFleetRate, fleet_s, 0.75, 0.0);
  a = {.name = "inproc", .topology = Topology::kReplicated, .boards = 4,
       .ladder = small, .preset = Preset::kBoardd, .migrate = true,
       .workloads = {fleet}};
  out.push_back(a);
  a.name = "wire";
  a.topology = Topology::kWire;
  a.gate = Gate::kWireRatio;
  a.ref = "inproc";
  out.push_back(a);
  // The SIGKILL lands in the middle of a 40 ms batch burst.
  TenantWorkload burst =
      poisson("burst", serve::kDefaultTenant, kChaosBurstRate / 1000.0,
              fleet_s, 0.0, 0.0);
  burst.arrivals.kind = ArrivalKind::kFlashCrowd;
  burst.arrivals.burst_multiplier = 1000.0;
  burst.arrivals.burst_start_s = fleet_s / 2.0 - 0.02;
  burst.arrivals.burst_len_s = 0.04;
  a.name = "chaos";
  a.workloads = {fleet, burst};
  a.event = Event::kKillWorker;
  a.gate = Gate::kChaos;
  a.ref = "";
  out.push_back(a);

  // Board scaling with degradation pinned off, so every frame costs the
  // same rung everywhere and simulated FPS tracks the spread. Each fleet
  // gets the same rate per board (weak scaling).
  const std::pair<const char*, PolicyKind> policies[] = {
      {"rr", PolicyKind::kRoundRobin},
      {"jsq", PolicyKind::kJoinShortestQueue},
      {"energy", PolicyKind::kEnergyAware}};
  const auto mixed = [](int boards) {
    return poisson("mixed", serve::kDefaultTenant,
                   kScalingRatePerBoard * boards, 0.5, 0.75, 200.0);
  };
  for (const int boards : {1, 2, 4}) {
    for (const auto& [tag, policy] : policies) {
      out.push_back({.name = "rep" + std::to_string(boards) + "_" + tag,
                     .topology = Topology::kReplicated, .boards = boards,
                     .ladder = {"8M", "2M"}, .workers = 1,
                     .preset = Preset::kPinned, .policy = policy,
                     .workloads = {mixed(boards)}});
    }
  }
  // Partition: board0 hosts 8M, board1 2M. The energy-aware policy keeps
  // deadline-feasible traffic on the cheap rung.
  for (const auto& [tag, policy] : {policies[0], policies[2]}) {
    out.push_back({.name = std::string("part_") + tag,
                   .topology = Topology::kPartitioned, .boards = 2,
                   .ladder = {"8M", "2M"}, .workers = 1,
                   .preset = Preset::kPinned, .policy = policy,
                   .workloads = {mixed(2)}});
  }

  // Degrade, then shed: a flash crowd against the full 16M -> 2M ladder.
  out.push_back(
      {.name = "shed", .ladder = {"16M", "8M", "4M", "2M"},
       .preset = Preset::kShed,
       .workloads = {flash_crowd("interactive", serve::kDefaultTenant, 60.0,
                                 1.0, 1.0, 150.0),
                     flash_crowd("batch", serve::kDefaultTenant, 20.0, 1.0,
                                 0.0, 0.0)}});

  // Fault drain: board0 faulted for the first half, healed for the second.
  out.push_back({.name = "drain", .topology = Topology::kReplicated,
                 .boards = 2, .ladder = small, .preset = Preset::kBoardd,
                 .policy = PolicyKind::kRoundRobin,
                 .workloads = {poisson("mixed", serve::kDefaultTenant, 100.0,
                                       1.0, 0.75, 200.0)},
                 .event = Event::kFaultBoard0});

  // Three hospital tenants on one server: a million-user metro network on
  // a compressed diurnal day, a strict ICU fleet, a research flood.
  TenantWorkload metro = poisson("metro", 1, 0.0, 6.0, 0.8, 250.0);
  metro.arrivals.kind = ArrivalKind::kDiurnal;
  metro.arrivals.users = 1000000;
  metro.arrivals.per_user_rate_per_s = 0.00006;
  metro.arrivals.amplitude = 0.6;
  out.push_back({.name = "metro", .ladder = small, .tenants = metro_day,
                 .workloads = {metro,
                               poisson("icu", 2, 20.0, 6.0, 1.0, 150.0),
                               flash_crowd("batch", 3, 5.0, 6.0, 0.0, 0.0)}});
  return out;
}

// --------------------------------------------------------------- running

const dpu::XModel& xmodel(const std::string& rung) {
  static std::map<std::string, dpu::XModel> cache;
  auto it = cache.find(rung);
  if (it == cache.end()) {
    it = cache
             .emplace(rung, core::build_timing_xmodel(
                                rung, dpu::DpuArch::b4096(), kInput))
             .first;
  }
  return it->second;
}

std::vector<serve::ModelSpec> build_ladder(const Act& act) {
  std::vector<serve::ModelSpec> ladder;
  for (const auto& name : act.ladder) {
    ladder.push_back({name, xmodel(name), act.workers});
  }
  return ladder;
}

std::vector<serve::cluster::BoardConfig> board_configs(const Act& act) {
  const auto ladder = build_ladder(act);
  const auto server = server_config(act.preset);
  return act.topology == Topology::kPartitioned
             ? serve::cluster::partition_ladder(ladder, act.boards, server)
             : serve::cluster::replicate_ladder(ladder, act.boards, server);
}

/// Median host seconds one VART worker spends on a frame of `rung`, warm.
double host_frame_s(const std::string& rung) {
  static std::map<std::string, double> cache;
  if (const auto it = cache.find(rung); it != cache.end()) return it->second;
  const dpu::DpuCoreSim core(&xmodel(rung));
  tensor::TensorArena arena;
  const tensor::TensorI8 input(tensor::Shape{kInput, kInput, 1}, 3);
  for (int i = 0; i < 3; ++i) core.run(input, 1, &arena);  // sizes the arena
  std::vector<double> times;
  double total = 0.0;
  while (times.size() < 15 || total < kProbeS) {
    const auto t0 = std::chrono::steady_clock::now();
    core.run(input, 1, &arena);
    times.push_back(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
    total += times.back();
  }
  std::nth_element(times.begin(), times.begin() + times.size() / 2,
                   times.end());
  return cache[rung] = times[times.size() / 2];
}

/// The act's model capacity in frames/s (see the header).
double capacity_fps(const Act& act) {
  double fps = 0.0;
  int threads = 0;
  for (const auto& board : board_configs(act)) {
    const serve::ModelSpec& top = board.ladder.front();
    fps += top.workers / host_frame_s(top.name);
    threads += top.workers;
  }
  const double hw = std::max(1U, std::thread::hardware_concurrency());
  return fps * std::min(1.0, hw / threads);
}

double offered_per_s(const Act& act) {
  double rate = 0.0;
  for (const auto& w : act.workloads) {
    rate += w.arrivals.expected_arrivals() / w.arrivals.duration_s;
  }
  return rate;
}

/// Replays the act's workloads open-loop; `at_midpoint` (if set) runs once
/// from a timer thread halfway through the trace.
std::vector<TenantReport> drive(const Act& act, const loadgen::SubmitFn& submit,
                                std::uint64_t seed,
                                const std::function<void()>& at_midpoint) {
  loadgen::RunConfig cfg;
  cfg.seed = seed;
  cfg.input_size = kInput;
  std::jthread timer;
  if (at_midpoint) {
    timer = std::jthread([&] {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(act.duration_s() / 2.0));
      at_midpoint();
    });
  }
  return loadgen::run_open_loop(submit, act.workloads, cfg);
}

template <typename Front>
loadgen::SubmitFn submit_to(Front& front) {
  return [&front](serve::Priority p, tensor::TensorI8 input,
                  double deadline_ms, serve::TenantId tenant) {
    return front.submit(p, std::move(input), deadline_ms, tenant);
  };
}

void take_snapshot(const serve::cluster::ClusterSnapshot& s, Outcome& out) {
  out.served = s.served;
  out.degraded = s.degraded;
  out.expired = s.expired;
  out.migrations = s.migrations;
  out.sim_fps = s.simulated_fps;
  out.fps_per_w = s.fps_per_watt;
  for (const auto& b : s.boards) out.board_served.push_back(b.served);
}

serve::cluster::ClusterConfig cluster_config(const Act& act) {
  serve::cluster::ClusterConfig cfg;
  cfg.policy = act.policy;
  cfg.migrate.enable = act.migrate;
  cfg.migrate.monitor_interval_ms = 5.0;
  return cfg;
}

Outcome run_server(const Act& act, std::uint64_t seed) {
  serve::ServerConfig cfg = server_config(act.preset);
  if (act.tenants != nullptr) cfg.tenants = act.tenants();
  serve::InferenceServer server(build_ladder(act), cfg);
  Outcome out;
  out.reports = drive(act, submit_to(server), seed, nullptr);
  const serve::MetricsSnapshot m = server.metrics();
  out.served = m.served;
  out.degraded = m.degraded;
  out.expired = m.expired;
  return out;
}

Outcome run_cluster(const Act& act, std::uint64_t seed) {
  ClusterRouter router(board_configs(act), cluster_config(act));
  Outcome out;
  std::function<void()> event;
  if (act.event == Event::kFaultBoard0) {
    router.board(0).inject_fault(true);
    event = [&] {
      for (const auto& b : router.snapshot().boards) {
        out.board_served_mid.push_back(b.served);
      }
      router.board(0).inject_fault(false);
    };
  }
  out.reports = drive(act, submit_to(router), seed, event);
  take_snapshot(router.snapshot(), out);
  router.shutdown();
  return out;
}

Outcome run_wire(const Act& act, std::uint64_t seed) {
  serve::net::SupervisorConfig scfg;
  scfg.boardd_path = SENECA_BOARDD_PATH;
  scfg.remote.heartbeat_interval_ms = 10.0;
  scfg.restart_backoff_initial_ms = 50.0;
  scfg.poll_interval_ms = 5.0;
  ClusterRouter router(std::vector<std::shared_ptr<serve::cluster::Board>>{},
                       cluster_config(act));
  serve::net::Supervisor sup(scfg, router);
  std::vector<int> slots;
  for (int b = 0; b < act.boards; ++b) {
    serve::net::WorkerSpec spec;
    spec.ladder = act.ladder;
    spec.input = static_cast<int>(kInput);
    spec.workers = act.workers;
    spec.queue_capacity = kBoarddQueue;
    spec.name = act.name + std::to_string(b);
    slots.push_back(sup.add_worker(spec));
  }
  sup.start();

  Outcome out;
  pid_t victim = -1;
  std::function<void()> event;
  if (act.event == Event::kKillWorker) {
    event = [&] {
      victim = sup.worker_pid(slots.front());
      out.killed = victim > 0 && ::kill(victim, SIGKILL) == 0;
    };
  }
  out.reports = drive(act, submit_to(router), seed, event);
  if (out.killed) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double>(kRestartWaitS);
    while (!out.restarted && std::chrono::steady_clock::now() < deadline) {
      const pid_t pid = sup.worker_pid(slots.front());
      const auto board = sup.worker_board(slots.front());
      out.restarted = pid > 0 && pid != victim && board && !board->dead();
      if (!out.restarted) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
  }
  // One synchronous telemetry round, so the snapshot covers the whole
  // trace rather than the last heartbeat tick.
  for (const int slot : slots) {
    if (auto board = sup.worker_board(slot)) board->refresh(2000.0);
  }
  take_snapshot(router.snapshot(), out);
  sup.stop();
  router.shutdown();
  return out;
}

Outcome run_act(const Act& act, std::uint64_t seed) {
  const double capacity = capacity_fps(act);
  const auto t0 = std::chrono::steady_clock::now();
  Outcome out;
  switch (act.topology) {
    case Topology::kServer: out = run_server(act, seed); break;
    case Topology::kReplicated:
    case Topology::kPartitioned: out = run_cluster(act, seed); break;
    case Topology::kWire: out = run_wire(act, seed); break;
  }
  out.capacity_fps = capacity;
  out.load = offered_per_s(act) / capacity;
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count();
  return out;
}

// ------------------------------------------------------------------ gates

struct GateResult {
  std::string name;
  bool pass = false;
  std::string detail;
  std::vector<std::pair<std::string, double>> figures;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

[[gnu::format(printf, 1, 2)]] std::string format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

GateResult check_gate(const Act& act, const std::map<std::string, Outcome>& ran) {
  const Outcome& self = ran.at(act.name);
  const Outcome* ref = ran.count(act.ref) ? &ran.at(act.ref) : nullptr;
  GateResult g;
  switch (act.gate) {
    case Gate::kIsolation: {
      g.name = "isolation";
      const TenantReport* solo = ref ? ref->report("clinic") : nullptr;
      const TenantReport* storm = self.report("clinic");
      if (solo == nullptr || storm == nullptr) {
        g.detail = "needs act " + act.ref;
        break;
      }
      const double p99_ratio = solo->p99_ms > 0.0 ? storm->p99_ms / solo->p99_ms
                                                  : 1.0;
      const double goodput_ratio =
          solo->goodput_per_s > 0.0 ? storm->goodput_per_s / solo->goodput_per_s
                                    : 1.0;
      // Ratio OR absolute slack: solo p99 sits in single-digit ms, where one
      // host scheduling hiccup would blow a pure 20% ratio.
      const bool p99_ok = p99_ratio <= 1.0 + kIsolationTolerance ||
                          storm->p99_ms <= solo->p99_ms + kIsolationSlackMs;
      const bool goodput_ok = goodput_ratio >= 1.0 - kIsolationTolerance;
      g.pass = p99_ok && goodput_ok;
      g.detail = format(
          "clinic p99 %.1f -> %.1f ms (%.2fx, %s), goodput %.1f -> %.1f/s "
          "(%.2fx, %s)",
          solo->p99_ms, storm->p99_ms, p99_ratio, p99_ok ? "ok" : "OUTSIDE",
          solo->goodput_per_s, storm->goodput_per_s, goodput_ratio,
          goodput_ok ? "ok" : "OUTSIDE");
      g.figures = {{"p99_ratio", p99_ratio}, {"goodput_ratio", goodput_ratio},
                   {"tolerance", kIsolationTolerance},
                   {"slack_ms", kIsolationSlackMs}};
      break;
    }
    case Gate::kWireRatio: {
      g.name = "wire";
      if (ref == nullptr) {
        g.detail = "needs act " + act.ref;
        break;
      }
      const double r = ratio(self.sim_fps, ref->sim_fps);
      g.pass = r >= kMinWireRatio;
      g.detail = format("sim FPS %.1f wire / %.1f inproc = %.2f (>= %.2f)",
                        self.sim_fps, ref->sim_fps, r, kMinWireRatio);
      g.figures = {{"ratio", r}, {"min_ratio", kMinWireRatio}};
      break;
    }
    case Gate::kChaos: {
      g.name = "chaos";
      std::uint64_t ok = 0, migrated = 0, expired = 0;
      for (const auto& r : self.reports) {
        ok += r.ok;
        migrated += r.migrated;
        expired += r.expired;
      }
      // The kill must have happened and stranded work on the victim, or
      // the zero-loss check has nothing to check.
      g.pass = self.killed && self.migrations > 0 && migrated == 0 &&
               expired == 0 && ok > 0 && self.expired == 0 && self.restarted;
      g.detail = format(
          "%llu ok, %llu migrated + %llu expired reached clients, %llu "
          "expired cluster-wide, %llu migrations, kill %s, restart %s",
          static_cast<unsigned long long>(ok),
          static_cast<unsigned long long>(migrated),
          static_cast<unsigned long long>(expired),
          static_cast<unsigned long long>(self.expired),
          static_cast<unsigned long long>(self.migrations),
          self.killed ? "ok" : "MISSED",
          !self.killed ? "-" : self.restarted ? "ok" : "TIMED OUT");
      g.figures = {{"migrations", static_cast<double>(self.migrations)},
                   {"restart_wait_s", kRestartWaitS}};
      break;
    }
    case Gate::kNone: break;
  }
  return g;
}

const char* to_string(Topology t) {
  switch (t) {
    case Topology::kServer: return "server";
    case Topology::kReplicated: return "replicated";
    case Topology::kPartitioned: return "partitioned";
    case Topology::kWire: return "wire";
  }
  return "?";
}

std::string board_list(const std::vector<std::uint64_t>& v) {
  std::string s;
  for (const auto n : v) {
    if (!s.empty()) s += '/';
    s += std::to_string(n);
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  const std::string json_path = cli.get("json", "");
  const bool strict = cli.get_bool("strict", false);

  const std::vector<Act> table = acts();
  std::vector<const Act*> selected;
  if (cli.has("act")) {
    std::stringstream list(cli.get("act", ""));
    for (std::string name; std::getline(list, name, ',');) {
      const Act* found = nullptr;
      for (const auto& act : table) {
        if (act.name == name) found = &act;
      }
      if (found == nullptr) {
        std::string known;
        for (const auto& act : table) known += " " + act.name;
        throw std::invalid_argument("unknown act '" + name + "'; acts:" +
                                    known);
      }
      selected.push_back(found);
    }
  } else {
    for (const auto& act : table) selected.push_back(&act);
  }

  std::map<std::string, Outcome> ran;
  for (const Act* act : selected) {
    std::printf("act %-11s %s x%d [", act->name.c_str(),
                to_string(act->topology), act->boards);
    for (const auto& rung : act->ladder) std::printf(" %s", rung.c_str());
    std::printf(" ] %.1f s trace ...", act->duration_s());
    std::fflush(stdout);
    ran[act->name] = run_act(*act, seed);
    std::printf(" %.2f s\n", ran[act->name].wall_s);
  }

  eval::Table acts_table({"Act", "Topology", "Boards", "Model cap/s",
                          "Model load", "Served", "Degraded", "Expired",
                          "Migrations", "sim FPS", "FPS/W", "Board served",
                          "Wall s"});
  eval::Table tenants_table({"Act", "Tenant", "Offered", "OK", "Rejected",
                             "Migrated", "Expired", "p50 [ms]", "p99 [ms]",
                             "Goodput/s", "p99 vs ref", "Goodput vs ref"});
  bench::JsonWriter json;
  for (const Act* act : selected) {
    const Outcome& o = ran.at(act->name);
    const bool cluster = act->topology != Topology::kServer;
    std::string boards = board_list(o.board_served);
    if (!o.board_served_mid.empty()) {
      boards = board_list(o.board_served_mid) + " at event, " + boards;
    }
    acts_table.add_row(
        {act->name, to_string(act->topology), std::to_string(act->boards),
         eval::Table::num(o.capacity_fps, 0), eval::Table::num(o.load, 2),
         std::to_string(o.served), std::to_string(o.degraded),
         std::to_string(o.expired), std::to_string(o.migrations),
         cluster ? eval::Table::num(o.sim_fps, 1) : "-",
         cluster ? eval::Table::num(o.fps_per_w, 2) : "-", boards,
         eval::Table::num(o.wall_s, 2)});
    json.obj()
        .field("row", "act")
        .field("act", act->name)
        .field("topology", to_string(act->topology))
        .field("boards", act->boards)
        .field("model_capacity_fps", o.capacity_fps)
        .field("model_load", o.load)
        .field("served", o.served)
        .field("degraded", o.degraded)
        .field("expired", o.expired)
        .field("migrations", o.migrations)
        .field("sim_fps", o.sim_fps)
        .field("fps_per_w", o.fps_per_w)
        .field("board_served", boards)
        .field("wall_s", o.wall_s);

    const auto ref_it = ran.find(act->ref);
    for (const auto& r : o.reports) {
      const TenantReport* base =
          ref_it != ran.end() ? ref_it->second.report(r.name) : nullptr;
      const double p99_vs = base ? ratio(r.p99_ms, base->p99_ms) : 0.0;
      const double goodput_vs =
          base ? ratio(r.goodput_per_s, base->goodput_per_s) : 0.0;
      tenants_table.add_row(
          {act->name, r.name, std::to_string(r.offered), std::to_string(r.ok),
           std::to_string(r.rejected), std::to_string(r.migrated),
           std::to_string(r.expired), eval::Table::num(r.p50_ms, 1),
           eval::Table::num(r.p99_ms, 1), eval::Table::num(r.goodput_per_s, 1),
           base ? eval::Table::num(p99_vs, 2) + "x" : "-",
           base ? eval::Table::num(goodput_vs, 2) + "x" : "-"});
      json.obj()
          .field("row", "tenant")
          .field("act", act->name)
          .field("tenant", static_cast<int>(r.tenant))
          .field("name", r.name)
          .field("offered", r.offered)
          .field("ok", r.ok)
          .field("rejected", r.rejected)
          .field("migrated", r.migrated)
          .field("expired", r.expired)
          .field("errors", r.errors)
          .field("within_deadline", r.within_deadline)
          .field("wall_s", r.wall_s)
          .field("mean_ms", r.mean_ms)
          .field("p50_ms", r.p50_ms)
          .field("p95_ms", r.p95_ms)
          .field("p99_ms", r.p99_ms)
          .field("offered_per_s", r.offered_per_s)
          .field("goodput_per_s", r.goodput_per_s);
      if (base != nullptr) {
        json.field("ref", act->ref)
            .field("p99_vs_ref", p99_vs)
            .field("goodput_vs_ref", goodput_vs);
      }
    }
  }
  std::printf("\n%s\n%s\n", acts_table.render().c_str(),
              tenants_table.render().c_str());

  bool pass = true;
  for (const Act* act : selected) {
    if (act->gate == Gate::kNone) continue;
    const GateResult g = check_gate(*act, ran);
    pass = pass && g.pass;
    std::printf("%s gate: %s -> %s\n", g.name.c_str(), g.detail.c_str(),
                g.pass ? "PASS" : "FAIL");
    json.obj().field("row", "gate").field("gate", g.name).field("pass", g.pass);
    for (const auto& [key, value] : g.figures) json.field(key, value);
  }
  bench::write_json_file(json_path, json.str());
  return strict && !pass ? 1 : 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "serve_trace: %s\n", e.what());
  return 1;
}
