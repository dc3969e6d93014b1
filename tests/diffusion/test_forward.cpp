#include "eim/diffusion/forward.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "eim/graph/generators.hpp"
#include "eim/support/error.hpp"

namespace eim::diffusion {
namespace {

using graph::DiffusionModel;
using graph::Graph;
using graph::VertexId;

Graph make_path(VertexId n) {
  Graph g = Graph::from_edge_list(graph::path_graph(n));
  graph::assign_weights(g, DiffusionModel::IndependentCascade);
  return g;
}

TEST(SimulateIc, SeedsAlwaysCount) {
  const Graph g = make_path(5);
  const std::vector<VertexId> seeds{2};
  EXPECT_GE(simulate_ic(g, seeds, 1, 0), 1u);
}

TEST(SimulateIc, DuplicateSeedsCountOnce) {
  const Graph g = make_path(5);
  const std::vector<VertexId> seeds{2, 2, 2};
  // With all duplicate seeds the baseline activation is still 1.
  EXPECT_GE(simulate_ic(g, seeds, 1, 0), 1u);
  EXPECT_LE(simulate_ic(g, seeds, 1, 0), 5u);
}

TEST(SimulateIc, PathWithUnitWeightsActivatesSuffix) {
  // In-degree weights on a path are all 1/1 = certain activation.
  const Graph g = make_path(6);
  const std::vector<VertexId> seeds{0};
  EXPECT_EQ(simulate_ic(g, seeds, 1, 0), 6u);
}

TEST(SimulateIc, WholeSeedSetMeansFullActivation) {
  const Graph g = make_path(4);
  const std::vector<VertexId> seeds{0, 1, 2, 3};
  EXPECT_EQ(simulate_ic(g, seeds, 9, 3), 4u);
}

TEST(SimulateIc, IsolatedSeedSpreadsNowhere) {
  graph::EdgeList edges(3);
  edges.add_edge(0, 1);
  Graph g = Graph::from_edge_list(edges);
  graph::assign_weights(g, DiffusionModel::IndependentCascade);
  const std::vector<VertexId> seeds{2};
  EXPECT_EQ(simulate_ic(g, seeds, 1, 0), 1u);
}

TEST(SimulateIc, OutOfRangeSeedThrows) {
  const Graph g = make_path(3);
  const std::vector<VertexId> seeds{99};
  EXPECT_THROW((void)simulate_ic(g, seeds, 1, 0), support::Error);
}

TEST(SimulateIc, DeterministicPerTrial) {
  Graph g = Graph::from_edge_list(graph::barabasi_albert(300, 3, 0.2, 5));
  graph::assign_weights(g, DiffusionModel::IndependentCascade);
  const std::vector<VertexId> seeds{0, 5, 9};
  EXPECT_EQ(simulate_ic(g, seeds, 7, 3), simulate_ic(g, seeds, 7, 3));
  // Different trial indices explore different randomness.
  bool any_different = false;
  const std::uint32_t first = simulate_ic(g, seeds, 7, 0);
  for (std::uint64_t t = 1; t < 20 && !any_different; ++t) {
    any_different = simulate_ic(g, seeds, 7, t) != first;
  }
  EXPECT_TRUE(any_different);
}

TEST(SimulateIc, ZeroWeightEdgesNeverSpread) {
  // Regression for the `<=` comparison bug: with every weight forced to 0.0
  // the cascade must never leave the seed set, whatever the trial draws.
  Graph g = Graph::from_edge_list(graph::complete_graph(12));
  graph::assign_weights(g, DiffusionModel::IndependentCascade);
  std::fill(g.mutable_in_weights().begin(), g.mutable_in_weights().end(), 0.0f);
  g.sync_out_weights_from_in();
  const std::vector<VertexId> seeds{0, 3, 7};
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    for (std::uint64_t t = 0; t < 200; ++t) {
      EXPECT_EQ(simulate_ic(g, seeds, seed, t), seeds.size());
    }
  }
}

TEST(SimulateIc, ZeroWeightEdgeSurvivesAnExactZeroDraw) {
  // The sweep only trips the old `<=` bug when a draw is exactly 0.0
  // (probability 2^-24 per draw). Trial 13896210 of seed 0 opens its
  // forward-IC stream with a zero draw (exhaustive scan over the "ICFW"
  // stream tag), so a single-edge zero-weight graph exercises the boundary
  // deterministically: with `<=` the spread would be 2, not 1.
  graph::EdgeList el(2);
  el.add_edge(0, 1);
  Graph g = Graph::from_edge_list(el);
  graph::assign_weights(g, DiffusionModel::IndependentCascade);
  g.mutable_in_weights()[0] = 0.0f;
  g.sync_out_weights_from_in();
  const std::vector<VertexId> seeds{0};
  EXPECT_EQ(simulate_ic(g, seeds, 0, 13896210), 1u);
}

TEST(SimulateIc, GoldenCascadesPinTheDrawOrder) {
  // Golden cascades on a near-critical random graph with mixed weights and
  // duplicate seeds: any change to the breadth-first visit order, the seed
  // deduplication or the one-draw-per-inactive-neighbor rule moves them.
  Graph g = Graph::from_edge_list(graph::erdos_renyi(400, 2400, 13));
  graph::WeightParams wp;
  wp.scheme = graph::WeightScheme::RandomUniform;
  wp.value = 0.4f;
  graph::assign_weights(g, DiffusionModel::IndependentCascade, wp);
  const std::vector<VertexId> seeds{5, 17, 5, 250, 17, 3};
  const std::vector<std::uint32_t> golden{33, 187, 119, 168, 159, 26, 188, 28};
  for (std::uint64_t t = 0; t < golden.size(); ++t) {
    EXPECT_EQ(simulate_ic(g, seeds, 2024, t), golden[t]) << "trial " << t;
  }
  const SpreadEstimate est =
      estimate_spread(g, DiffusionModel::IndependentCascade, seeds, 300, 99);
  EXPECT_DOUBLE_EQ(est.mean, 110.32666666666668);
  EXPECT_DOUBLE_EQ(est.stddev, 52.026684260476877);
  EXPECT_EQ(est.trials, 300u);
}

TEST(SimulateLt, PathActivatesFully) {
  // Single in-neighbor with weight 1.0 >= any threshold in [0,1).
  Graph g = make_path(5);
  graph::assign_weights(g, DiffusionModel::LinearThreshold);
  const std::vector<VertexId> seeds{0};
  EXPECT_EQ(simulate_lt(g, seeds, 3, 0), 5u);
}

TEST(SimulateLt, AllInNeighborsActiveForcesActivation) {
  // v has two in-edges each of weight 1/2; with both sources seeded the sum
  // is 1.0 >= tau always.
  graph::EdgeList edges(3);
  edges.add_edge(0, 2);
  edges.add_edge(1, 2);
  Graph g = Graph::from_edge_list(edges);
  graph::assign_weights(g, DiffusionModel::LinearThreshold);
  const std::vector<VertexId> seeds{0, 1};
  for (std::uint64_t t = 0; t < 16; ++t) EXPECT_EQ(simulate_lt(g, seeds, 5, t), 3u);
}

TEST(SimulateLt, HalfWeightActivatesAboutHalfTheTime) {
  graph::EdgeList edges(2);
  edges.add_edge(0, 1);
  Graph g = Graph::from_edge_list(edges);
  // Manually set the single edge weight to 0.5.
  g.mutable_in_weights()[0] = 0.5f;
  g.sync_out_weights_from_in();
  const std::vector<VertexId> seeds{0};
  int activations = 0;
  constexpr int kTrials = 4000;
  for (int t = 0; t < kTrials; ++t) {
    activations += static_cast<int>(simulate_lt(g, seeds, 11, static_cast<std::uint64_t>(t))) - 1;
  }
  EXPECT_NEAR(static_cast<double>(activations) / kTrials, 0.5, 0.05);
}

TEST(EstimateSpread, MatchesManualAverage) {
  Graph g = Graph::from_edge_list(graph::barabasi_albert(200, 3, 0.1, 9));
  graph::assign_weights(g, DiffusionModel::IndependentCascade);
  const std::vector<VertexId> seeds{0, 1};
  const SpreadEstimate est =
      estimate_spread(g, DiffusionModel::IndependentCascade, seeds, 50, 13);
  double manual = 0;
  for (std::uint32_t t = 0; t < 50; ++t) manual += simulate_ic(g, seeds, 13, t);
  EXPECT_NEAR(est.mean, manual / 50.0, 1e-9);
  EXPECT_EQ(est.trials, 50u);
}

TEST(EstimateSpread, MoreSeedsNeverHurt) {
  Graph g = Graph::from_edge_list(graph::barabasi_albert(400, 3, 0.2, 3));
  graph::assign_weights(g, DiffusionModel::IndependentCascade);
  const std::vector<VertexId> few{0};
  const std::vector<VertexId> more{0, 1, 2, 3, 4, 5, 6, 7};
  const auto spread_few =
      estimate_spread(g, DiffusionModel::IndependentCascade, few, 200, 1);
  const auto spread_more =
      estimate_spread(g, DiffusionModel::IndependentCascade, more, 200, 1);
  EXPECT_GE(spread_more.mean, spread_few.mean);
}

TEST(EstimateSpread, ZeroTrialsRejected) {
  const Graph g = make_path(3);
  const std::vector<VertexId> seeds{0};
  EXPECT_THROW(
      (void)estimate_spread(g, DiffusionModel::IndependentCascade, seeds, 0, 1),
      support::Error);
}

}  // namespace
}  // namespace eim::diffusion
