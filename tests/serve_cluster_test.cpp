// Cluster-tier tests: routing-policy unit tests over synthetic board
// states (round-robin health skipping, join-shortest-queue, energy-aware
// deadline feasibility), topology helpers, and integration through real
// BoardSims — replicated load spreading, fault-driven drain to peers, and
// energy-aware rung picking in partition mode.
#include <gtest/gtest.h>

#include <vector>

#include "dpu/compiler.hpp"
#include "nn/unet.hpp"
#include "quant/quantizer.hpp"
#include "serve/cluster/router.hpp"
#include "util/rng.hpp"

namespace seneca::serve::cluster {
namespace {

using tensor::Shape;
using tensor::TensorF;
using tensor::TensorI8;

dpu::XModel build_model(std::int64_t input_size, int depth,
                        std::int64_t base_filters, std::uint64_t seed) {
  nn::UNet2DConfig cfg;
  cfg.input_size = input_size;
  cfg.depth = depth;
  cfg.base_filters = base_filters;
  cfg.seed = seed;
  auto graph = nn::build_unet2d(cfg);
  util::Rng rng(seed + 1);
  TensorF x(Shape{input_size, input_size, 1});
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1, 1));
  graph->forward(x, true);
  quant::FGraph fg = quant::fold(*graph);
  std::vector<TensorF> calib{x};
  return dpu::compile(quant::quantize(fg, calib));
}

TensorI8 random_input(std::int64_t input_size, std::uint64_t seed) {
  util::Rng rng(seed);
  TensorI8 x(Shape{input_size, input_size, 1});
  for (auto& v : x) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  return x;
}

ServerConfig fast_server_config() {
  ServerConfig cfg;
  cfg.queue.capacity = 64;
  cfg.batcher.max_batch_size = 4;
  cfg.batcher.max_wait_ms = 0.0;
  cfg.degrade.queue_depth_high = 1000;  // degradation off unless enabled
  return cfg;
}

std::vector<ModelSpec> two_rung_ladder() {
  static const dpu::XModel big = build_model(16, 2, 4, 3);
  static const dpu::XModel small = build_model(16, 1, 2, 7);
  std::vector<ModelSpec> ladder;
  ladder.push_back({"4M", big, 1});
  ladder.push_back({"1M", small, 1});
  return ladder;
}

BoardState state(int board, bool healthy, std::size_t depth,
                 std::uint64_t inflight, double spf, double jpf) {
  BoardState s;
  s.board = board;
  s.healthy = healthy;
  s.queue_depth = depth;
  s.inflight = inflight;
  s.seconds_per_frame = spf;
  s.joules_per_frame = jpf;
  return s;
}

// ---------------------------------------------------------------- policies

TEST(RoutingPolicy, RoundRobinCyclesAndSkipsUnhealthy) {
  auto policy = make_policy(PolicyKind::kRoundRobin);
  std::vector<BoardState> boards{state(0, true, 0, 0, 0.01, 1.0),
                                 state(1, false, 0, 0, 0.01, 1.0),
                                 state(2, true, 0, 0, 0.01, 1.0)};
  std::vector<int> picks;
  for (int i = 0; i < 6; ++i) picks.push_back(policy->pick(boards, {}));
  // Board 1 is never picked while unhealthy; both healthy boards share the
  // rotation.
  int served0 = 0;
  int served2 = 0;
  for (int p : picks) {
    EXPECT_NE(p, 1);
    if (p == 0) ++served0;
    if (p == 2) ++served2;
  }
  EXPECT_GT(served0, 0);
  EXPECT_GT(served2, 0);
}

TEST(RoutingPolicy, RoundRobinRoutesSomewhereWhenAllUnhealthy) {
  auto policy = make_policy(PolicyKind::kRoundRobin);
  std::vector<BoardState> boards{state(0, false, 0, 0, 0.01, 1.0),
                                 state(1, false, 0, 0, 0.01, 1.0)};
  const int p = policy->pick(boards, {});
  EXPECT_GE(p, 0);
  EXPECT_LT(p, 2);
}

TEST(RoutingPolicy, JoinShortestQueuePicksLeastBacklog) {
  auto policy = make_policy(PolicyKind::kJoinShortestQueue);
  std::vector<BoardState> boards{state(0, true, 5, 2, 0.01, 1.0),
                                 state(1, true, 1, 1, 0.01, 1.0),
                                 state(2, false, 0, 0, 0.01, 1.0)};
  // Board 2 has the least backlog but is unhealthy.
  EXPECT_EQ(policy->pick(boards, {}), 1);
}

TEST(RoutingPolicy, EnergyAwarePicksCheapestFeasibleBoard) {
  auto policy = make_policy(PolicyKind::kEnergyAware);
  // Board 1 is cheaper but slow: 0.5 s/frame cannot meet a 100 ms deadline.
  std::vector<BoardState> boards{state(0, true, 0, 0, 0.010, 2.0),
                                 state(1, true, 0, 0, 0.500, 1.0)};
  RouteRequest no_deadline;
  EXPECT_EQ(policy->pick(boards, no_deadline), 1);  // cheapest J/frame
  RouteRequest tight{Priority::kInteractive, 100.0};
  EXPECT_EQ(policy->pick(boards, tight), 0);  // deadline overrides energy
}

TEST(RoutingPolicy, EnergyAwareAccountsForBacklogInFeasibility) {
  auto policy = make_policy(PolicyKind::kEnergyAware);
  // Cheap board is fast but 30 frames deep: (30+1)*10ms > 200 ms deadline.
  std::vector<BoardState> boards{state(0, true, 0, 0, 0.010, 2.0),
                                 state(1, true, 20, 10, 0.010, 1.0)};
  RouteRequest deadline{Priority::kInteractive, 200.0};
  EXPECT_EQ(policy->pick(boards, deadline), 0);
}

TEST(RoutingPolicy, EnergyAwareFallsBackToShortestQueueWhenNoneFeasible) {
  auto policy = make_policy(PolicyKind::kEnergyAware);
  std::vector<BoardState> boards{state(0, true, 9, 0, 0.500, 2.0),
                                 state(1, true, 3, 0, 0.500, 1.0)};
  RouteRequest impossible{Priority::kInteractive, 1.0};
  EXPECT_EQ(policy->pick(boards, impossible), 1);  // least backlog
}

TEST(RoutingPolicy, MakePolicyBuildsTheRequestedKind) {
  for (PolicyKind kind :
       {PolicyKind::kRoundRobin, PolicyKind::kJoinShortestQueue,
        PolicyKind::kEnergyAware}) {
    EXPECT_EQ(make_policy(kind)->kind(), kind);
  }
}

// --------------------------------------------------------------- topology

TEST(ClusterTopology, ReplicateGivesEveryBoardTheFullLadder) {
  const auto ladder = two_rung_ladder();
  const auto cfgs = replicate_ladder(ladder, 3, fast_server_config());
  ASSERT_EQ(cfgs.size(), 3u);
  for (const auto& cfg : cfgs) {
    EXPECT_EQ(cfg.ladder.size(), 2u);
    EXPECT_EQ(cfg.rung_offset, 0);
  }
  EXPECT_EQ(cfgs[0].name, "board0");
  EXPECT_EQ(cfgs[2].name, "board2");
}

TEST(ClusterTopology, PartitionSlicesRungsContiguously) {
  const auto ladder = two_rung_ladder();
  const auto cfgs = partition_ladder(ladder, 2, fast_server_config());
  ASSERT_EQ(cfgs.size(), 2u);
  EXPECT_EQ(cfgs[0].ladder.size(), 1u);
  EXPECT_EQ(cfgs[0].ladder[0].name, "4M");
  EXPECT_EQ(cfgs[0].rung_offset, 0);
  EXPECT_EQ(cfgs[1].ladder[0].name, "1M");
  EXPECT_EQ(cfgs[1].rung_offset, 1);
  EXPECT_THROW(partition_ladder(ladder, 3, fast_server_config()),
               std::invalid_argument);
}

// ------------------------------------------------------------ integration

TEST(ClusterRouter, RoundRobinSpreadsReplicatedLoadEvenly) {
  ClusterConfig cluster;
  cluster.policy = PolicyKind::kRoundRobin;
  ClusterRouter router(replicate_ladder(two_rung_ladder(), 2,
                                        fast_server_config()),
                       cluster);
  constexpr int kRequests = 8;
  for (int i = 0; i < kRequests; ++i) {
    const Response r =
        router.submit(Priority::kInteractive, random_input(16, 50 + static_cast<std::uint64_t>(i)))
            .get();
    ASSERT_EQ(r.status, Status::kOk) << "request " << i;
    EXPECT_EQ(r.model_used, "4M");  // no overload: top rung everywhere
  }
  EXPECT_EQ(router.board(0).frames_served(), 4u);
  EXPECT_EQ(router.board(1).frames_served(), 4u);

  const ClusterSnapshot s = router.snapshot();
  EXPECT_EQ(s.served, static_cast<std::uint64_t>(kRequests));
  EXPECT_GT(s.energy_joules, 0.0);
  EXPECT_GT(s.busy_seconds_max, 0.0);
  EXPECT_GT(s.simulated_fps, 0.0);
  EXPECT_GT(s.fps_per_watt, 0.0);
  EXPECT_FALSE(s.format().empty());
}

TEST(ClusterRouter, FaultedBoardDrainsToPeers) {
  ClusterConfig cluster;
  cluster.policy = PolicyKind::kRoundRobin;
  ClusterRouter router(replicate_ladder(two_rung_ladder(), 2,
                                        fast_server_config()),
                       cluster);
  router.board(0).inject_fault(true);
  constexpr int kRequests = 6;
  for (int i = 0; i < kRequests; ++i) {
    const Response r =
        router.submit(Priority::kInteractive, random_input(16, 80 + static_cast<std::uint64_t>(i)))
            .get();
    ASSERT_EQ(r.status, Status::kOk) << "request " << i;
  }
  EXPECT_EQ(router.board(0).frames_served(), 0u)
      << "fault-injected board kept receiving traffic";
  EXPECT_EQ(router.board(1).frames_served(),
            static_cast<std::uint64_t>(kRequests));

  // Recovery: clearing the fault readmits the board to the rotation.
  router.board(0).inject_fault(false);
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(router.submit(Priority::kInteractive,
                            random_input(16, 120 + static_cast<std::uint64_t>(i)))
                  .get()
                  .status,
              Status::kOk);
  }
  EXPECT_GT(router.board(0).frames_served(), 0u);
}

TEST(ClusterRouter, EnergyAwarePartitionRoutesToCheapestRung) {
  // Board 0 hosts the big rung, board 1 the small one. With no deadline
  // pressure the energy-aware policy should send every frame to the board
  // whose current rung costs the fewest joules per frame.
  ClusterConfig cluster;
  cluster.policy = PolicyKind::kEnergyAware;
  ClusterRouter router(partition_ladder(two_rung_ladder(), 2,
                                        fast_server_config()),
                       cluster);
  const double jpf_big = router.board(0).rung_cost(0).joules_per_frame;
  const double jpf_small = router.board(1).rung_cost(0).joules_per_frame;
  ASSERT_GT(jpf_big, jpf_small)
      << "the small rung should be the cheaper one";

  constexpr int kRequests = 6;
  for (int i = 0; i < kRequests; ++i) {
    const Response r =
        router.submit(Priority::kBatch, random_input(16, 200 + static_cast<std::uint64_t>(i)))
            .get();
    ASSERT_EQ(r.status, Status::kOk) << "request " << i;
    EXPECT_EQ(r.model_used, "1M");
  }
  EXPECT_EQ(router.board(1).frames_served(),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(router.board(0).frames_served(), 0u);
}

TEST(ClusterRouter, StatesExposeCostAndHealth) {
  ClusterConfig cluster;
  ClusterRouter router(replicate_ladder(two_rung_ladder(), 2,
                                        fast_server_config()),
                       cluster);
  router.board(1).inject_fault(true);
  const auto states = router.states();
  ASSERT_EQ(states.size(), 2u);
  EXPECT_TRUE(states[0].healthy);
  EXPECT_FALSE(states[1].healthy);
  for (const auto& s : states) {
    EXPECT_GT(s.seconds_per_frame, 0.0);
    EXPECT_GT(s.joules_per_frame, 0.0);
    EXPECT_EQ(s.level, 0);
  }
}

}  // namespace
}  // namespace seneca::serve::cluster
