#include "serve/cluster/policy.hpp"

#include <atomic>
#include <limits>
#include <stdexcept>

namespace seneca::serve::cluster {

const char* to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kRoundRobin: return "round-robin";
    case PolicyKind::kJoinShortestQueue: return "jsq";
    case PolicyKind::kEnergyAware: return "energy";
  }
  return "?";
}

namespace {

/// Least-backlog board, healthy boards first; -1 only on an empty cluster.
int shortest_queue(const std::vector<BoardState>& boards, bool healthy_only) {
  int best = -1;
  std::size_t best_backlog = std::numeric_limits<std::size_t>::max();
  for (std::size_t i = 0; i < boards.size(); ++i) {
    const BoardState& b = boards[i];
    if (healthy_only && !b.healthy) continue;
    if (b.backlog() < best_backlog) {
      best = static_cast<int>(i);
      best_backlog = b.backlog();
    }
  }
  if (best < 0 && healthy_only) return shortest_queue(boards, false);
  return best;
}

class RoundRobinPolicy final : public RoutingPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kRoundRobin; }

  int pick(const std::vector<BoardState>& boards,
           const RouteRequest& /*req*/) override {
    if (boards.empty()) return -1;
    const std::uint64_t start = next_.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t i = 0; i < boards.size(); ++i) {
      const std::size_t idx = (start + i) % boards.size();
      if (boards[idx].healthy) return static_cast<int>(idx);
    }
    return static_cast<int>(start % boards.size());  // all sick: any board
  }

 private:
  std::atomic<std::uint64_t> next_{0};
};

class JoinShortestQueuePolicy final : public RoutingPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kJoinShortestQueue; }

  int pick(const std::vector<BoardState>& boards,
           const RouteRequest& /*req*/) override {
    return shortest_queue(boards, /*healthy_only=*/true);
  }
};

class EnergyAwarePolicy final : public RoutingPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kEnergyAware; }

  int pick(const std::vector<BoardState>& boards,
           const RouteRequest& req) override {
    int best = -1;
    double best_jpf = std::numeric_limits<double>::max();
    std::size_t best_backlog = std::numeric_limits<std::size_t>::max();
    for (std::size_t i = 0; i < boards.size(); ++i) {
      const BoardState& b = boards[i];
      if (!b.healthy) continue;
      // Estimated completion if routed here: everything ahead of the
      // request plus the request itself, at the current rung's pace.
      const double est_ms = static_cast<double>(b.backlog() + 1) *
                            b.seconds_per_frame * 1e3;
      if (req.deadline_ms > 0.0 && est_ms > req.deadline_ms) continue;
      const bool cheaper = b.joules_per_frame < best_jpf;
      const bool tie = b.joules_per_frame == best_jpf &&
                       b.backlog() < best_backlog;
      if (cheaper || tie) {
        best = static_cast<int>(i);
        best_jpf = b.joules_per_frame;
        best_backlog = b.backlog();
      }
    }
    // No board can meet the deadline (or none is healthy): shed energy
    // optimality, not the request.
    if (best < 0) return shortest_queue(boards, /*healthy_only=*/true);
    return best;
  }
};

}  // namespace

std::unique_ptr<RoutingPolicy> make_policy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kRoundRobin:
      return std::make_unique<RoundRobinPolicy>();
    case PolicyKind::kJoinShortestQueue:
      return std::make_unique<JoinShortestQueuePolicy>();
    case PolicyKind::kEnergyAware:
      return std::make_unique<EnergyAwarePolicy>();
  }
  throw std::invalid_argument("make_policy: unknown kind");
}

}  // namespace seneca::serve::cluster
