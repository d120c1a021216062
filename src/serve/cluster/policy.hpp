#pragma once
// Pluggable routing policies for the cluster tier. The router snapshots
// every board into a BoardState and asks the policy to pick one; policies
// are pure over that snapshot (plus internal counters), so they are unit-
// testable without servers.
//
//   round-robin         — spread blindly across healthy boards
//   join-shortest-queue — min (queue depth + inflight) over healthy boards
//   energy-aware        — among healthy boards whose estimated completion
//                         meets the request's deadline, pick the one whose
//                         *current rung* costs the fewest joules per frame
//                         (degraded rungs cost less energy, so routing and
//                         per-board degradation cooperate: a degraded board
//                         looks cheap and keeps the load that keeps it
//                         degraded, instead of the router fighting the
//                         ladder). Falls back to join-shortest-queue when
//                         no board can meet the deadline.
//
// All policies prefer healthy boards and only fall back to the full set
// when the whole cluster is unhealthy, so every request routes somewhere
// and its future resolves.

#include <cstdint>
#include <memory>
#include <vector>

#include "serve/request.hpp"

namespace seneca::serve::cluster {

enum class PolicyKind : std::uint8_t {
  kRoundRobin = 0,
  kJoinShortestQueue = 1,
  kEnergyAware = 2,
};

const char* to_string(PolicyKind kind);

/// Router-visible snapshot of one board at pick time.
struct BoardState {
  int board = 0;
  bool healthy = true;
  std::size_t queue_depth = 0;
  std::uint64_t inflight = 0;
  int level = 0;                   // board-local degradation rung
  double seconds_per_frame = 0.0;  // at the current rung
  double joules_per_frame = 0.0;   // at the current rung
  double ewma_latency_ms = 0.0;

  std::size_t backlog() const {
    return queue_depth + static_cast<std::size_t>(inflight);
  }
};

struct RouteRequest {
  Priority priority = Priority::kBatch;
  double deadline_ms = 0.0;  // relative to now; 0 = no deadline
};

class RoutingPolicy {
 public:
  virtual ~RoutingPolicy() = default;
  virtual PolicyKind kind() const = 0;
  /// Index into `boards`; -1 only when `boards` is empty. Thread-safe.
  virtual int pick(const std::vector<BoardState>& boards,
                   const RouteRequest& req) = 0;
};

std::unique_ptr<RoutingPolicy> make_policy(PolicyKind kind);

}  // namespace seneca::serve::cluster
