// Property suite for the append-only SelectionIndex behind GpuSeedSelector:
// a selector reused while its collection grows must answer — seeds,
// covered sets and modeled device charges — exactly like a fresh selector
// that indexes the whole collection from scratch, across models, draw
// modes, scan strategies, arg-max modes and the spill hierarchy.
#include "eim/eim/selection_index.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "eim/eim/pipeline.hpp"
#include "eim/eim/rrr_collection.hpp"
#include "eim/eim/sampler.hpp"
#include "eim/eim/seed_selector.hpp"
#include "eim/eim/tiered_store.hpp"
#include "eim/graph/generators.hpp"
#include "eim/graph/weights.hpp"
#include "eim/imm/imm.hpp"
#include "eim/imm/rrr_store.hpp"
#include "eim/support/metrics.hpp"

namespace eim::eim_impl {
namespace {

using graph::DiffusionModel;
using graph::Graph;
using graph::VertexId;

Graph make_graph(DiffusionModel model, VertexId n = 300) {
  Graph g = Graph::from_edge_list(graph::barabasi_albert(n, 3, 0.3, 7));
  graph::assign_weights(g, model);
  return g;
}

/// Modeled charges one select() call appended to the device ledger.
struct Charges {
  std::vector<std::tuple<gpusim::SegmentKind, std::string, double>> segments;
  bool operator==(const Charges&) const = default;
};

struct Outcome {
  imm::SelectionResult sel;
  Charges charges;
};

Outcome run_select(gpusim::Device& device, GpuSeedSelector& selector,
                   const DeviceRrrCollection& collection, std::uint32_t k) {
  const std::size_t before = device.timeline().segments().size();
  Outcome out;
  out.sel = selector.select(collection, k);
  const auto& segs = device.timeline().segments();
  for (std::size_t i = before; i < segs.size(); ++i) {
    out.charges.segments.emplace_back(segs[i].kind, segs[i].label, segs[i].seconds);
  }
  return out;
}

void expect_same(const Outcome& reused, const Outcome& fresh, const std::string& where) {
  EXPECT_EQ(reused.sel.seeds, fresh.sel.seeds) << where;
  EXPECT_EQ(reused.sel.covered_sets, fresh.sel.covered_sets) << where;
  EXPECT_EQ(reused.sel.coverage_fraction, fresh.sel.coverage_fraction) << where;
  EXPECT_TRUE(reused.charges == fresh.charges) << where;
}

using Case = std::tuple<DiffusionModel, DrawMode, ScanStrategy, ArgMaxMode, bool>;

class GrowingCollection : public ::testing::TestWithParam<Case> {};

TEST_P(GrowingCollection, ReusedSelectorMatchesFreshAfterEveryStep) {
  const auto [model, draw, scan, argmax, spill] = GetParam();
  const Graph g = make_graph(model);
  gpusim::Device device(gpusim::make_benchmark_device(64));

  imm::ImmParams params;
  params.k = 12;
  EimOptions options;
  options.sampler_blocks = 16;
  options.draw_mode = draw;
  EimSampler sampler(device, g, model, params, options);

  DeviceRrrCollection collection(device, g.num_vertices(), /*log_encode=*/true);
  std::unique_ptr<TieredRrrStore> store;
  if (spill) {
    TieredStoreOptions store_options;
    store_options.sets_per_block = 32;
    store = std::make_unique<TieredRrrStore>(device, store_options);
    collection.attach_spill(store.get(), /*device_budget_bytes=*/2048);
  }

  GpuSeedSelector reused(device, scan);
  reused.set_argmax_mode(argmax);
  // The last step adds nothing: the call must go straight to the picks.
  for (const std::uint64_t target : {150u, 600u, 1400u, 1400u}) {
    sampler.sample_to(collection, target);
    const std::string where = "target=" + std::to_string(target);
    // A full stream first, so both measured calls start from the same
    // spill staging-pool state (a no-op without spill).
    GpuSeedSelector warmup(device, scan);
    (void)warmup.select(collection, params.k);

    const Outcome a = run_select(device, reused, collection, params.k);
    GpuSeedSelector fresh(device, scan);
    fresh.set_argmax_mode(argmax);
    const Outcome b = run_select(device, fresh, collection, params.k);
    expect_same(a, b, where);
  }
  EXPECT_EQ(collection.has_spilled(), spill);
}

std::string case_name(const ::testing::TestParamInfo<Case>& param_info) {
  const auto& [model, draw, scan, argmax, spill] = param_info.param;
  return std::string(model == DiffusionModel::IndependentCascade ? "IC" : "LT") +
         (draw == DrawMode::Exact ? "_Exact" : "_Skip") +
         (scan == ScanStrategy::ThreadPerSet ? "_Thread" : "_Warp") +
         (argmax == ArgMaxMode::kLazyHeap ? "_Heap" : "_Linear") +
         (spill ? "_Spill" : "_NoSpill");
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, GrowingCollection,
    ::testing::Combine(::testing::Values(DiffusionModel::IndependentCascade,
                                         DiffusionModel::LinearThreshold),
                       ::testing::Values(DrawMode::Exact, DrawMode::Skip),
                       ::testing::Values(ScanStrategy::ThreadPerSet,
                                         ScanStrategy::WarpPerSet),
                       ::testing::Values(ArgMaxMode::kLazyHeap,
                                         ArgMaxMode::kLinearReference),
                       ::testing::Bool()),
    case_name);

TEST(SelectionIndex, ReusedOnAnotherCollectionStartsOver) {
  const Graph g = make_graph(DiffusionModel::IndependentCascade);
  gpusim::Device device(gpusim::make_benchmark_device(64));
  imm::ImmParams params;
  EimOptions options;
  options.sampler_blocks = 16;
  EimSampler sampler(device, g, DiffusionModel::IndependentCascade, params, options);

  GpuSeedSelector reused(device, ScanStrategy::ThreadPerSet);
  // Same storage, new and larger collection: the index must key on the
  // uid, not the address, or it would keep the first collection's sets and
  // append only the second one's tail.
  std::optional<DeviceRrrCollection> collection;
  collection.emplace(device, g.num_vertices(), true);
  sampler.sample_to(*collection, 400);
  (void)reused.select(*collection, 8);

  collection.reset();
  collection.emplace(device, g.num_vertices(), true);
  imm::ImmParams other_params = params;
  other_params.rng_seed = params.rng_seed + 1;  // different sets from id 0 on
  EimSampler other(device, g, DiffusionModel::IndependentCascade, other_params,
                   options);
  other.sample_to(*collection, 900);
  const Outcome a = run_select(device, reused, *collection, 8);
  GpuSeedSelector fresh(device, ScanStrategy::ThreadPerSet);
  const Outcome b = run_select(device, fresh, *collection, 8);
  expect_same(a, b, "second collection");
}

TEST(SelectionIndex, DegradeSelectsOverThePublishedPrefix) {
  // OomPolicy::Degrade stops growth mid-wave: sets past the published
  // prefix may already be committed. The answer must be the exact greedy
  // over the prefix alone — C included — as the CPU reference computes it.
  Graph g = Graph::from_edge_list(graph::barabasi_albert(600, 3, 0.3, 7));
  graph::assign_weights(g, DiffusionModel::IndependentCascade);
  gpusim::DeviceSpec spec = gpusim::make_benchmark_device(1);
  spec.global_memory_bytes = 160 << 10;
  gpusim::Device device(spec);

  imm::ImmParams params;
  params.k = 8;
  params.epsilon = 0.3;
  EimOptions options;
  options.sampler_blocks = 16;
  options.eliminate_sources = false;  // mirror the CPU reference store
  options.oom_policy = OomPolicy::Degrade;
  const EimResult result =
      run_eim(device, g, DiffusionModel::IndependentCascade, params, options);
  ASSERT_TRUE(result.degraded);
  ASSERT_GT(result.num_sets, 0u);

  imm::RrrStore store(g.num_vertices());
  (void)imm::sample_to_target(g, DiffusionModel::IndependentCascade, params, store,
                              result.num_sets);
  const imm::SelectionResult reference = imm::select_seeds_greedy(store, params.k);
  EXPECT_EQ(result.seeds, reference.seeds);
  EXPECT_DOUBLE_EQ(result.estimated_spread,
                   static_cast<double>(g.num_vertices()) * reference.coverage_fraction);
}

TEST(SelectionIndex, CommitsPastThePublishedPrefixStayOutOfC) {
  // The degrade path publishes the contiguous committed prefix while later
  // slots of the failed wave may already hold committed sets. Those must
  // not reach C: the answer is the greedy over the prefix alone.
  const Graph g = make_graph(DiffusionModel::IndependentCascade);
  gpusim::Device device(gpusim::make_benchmark_device(64));
  imm::ImmParams params;
  params.k = 6;
  EimOptions options;
  options.sampler_blocks = 16;
  options.eliminate_sources = false;  // mirror the CPU reference store
  EimSampler sampler(device, g, DiffusionModel::IndependentCascade, params, options);
  DeviceRrrCollection collection(device, g.num_vertices(), true);
  sampler.sample_to(collection, 500);
  collection.reserve(503, collection.total_elements() + 64);
  for (std::uint64_t slot = 501; slot < 503; ++slot) {
    ASSERT_TRUE(collection.try_commit(slot, std::vector<VertexId>{0, 1, 2, 3}));
  }

  GpuSeedSelector selector(device, ScanStrategy::ThreadPerSet);
  const imm::SelectionResult sel = selector.select(collection, params.k);
  imm::RrrStore store(g.num_vertices());
  (void)imm::sample_to_target(g, DiffusionModel::IndependentCascade, params, store, 500);
  const imm::SelectionResult reference = imm::select_seeds_greedy(store, params.k);
  EXPECT_EQ(sel.seeds, reference.seeds);
  EXPECT_EQ(sel.covered_sets, reference.covered_sets);
  SelectionIndex index;
  (void)index.sync(collection);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(index.counts()[v], store.count(v)) << "vertex " << v;
  }
}

TEST(SelectionIndex, CountsAreTheSegmentBucketSums) {
  SelectionIndex index(6);
  const std::vector<std::vector<VertexId>> sets = {{0, 2}, {2, 5}, {1, 2, 3}, {5}};
  const auto length_of = [&](std::uint64_t i) {
    return static_cast<std::uint32_t>(sets[i].size());
  };
  const auto decode = [&](std::uint64_t i, std::span<VertexId> out) {
    std::copy(sets[i].begin(), sets[i].end(), out.begin());
  };
  EXPECT_EQ(index.append(2, length_of, decode, true), 4u);
  EXPECT_EQ(index.append(2, length_of, decode, true), 0u);  // nothing new
  EXPECT_EQ(index.append(4, length_of, decode, false), 4u);
  ASSERT_EQ(index.segments().size(), 2u);
  EXPECT_EQ(index.segments()[1].first_set, 2u);
  const std::vector<std::uint32_t> expect = {1, 1, 3, 1, 0, 2};
  EXPECT_EQ(std::vector<std::uint32_t>(index.counts().begin(), index.counts().end()),
            expect);

  GreedyHooks hooks;
  std::uint64_t covered_len = 0;
  hooks.on_cover = [&](std::uint64_t, std::uint32_t len) { covered_len += len; };
  std::vector<std::uint32_t> gains;
  hooks.on_pick = [&](std::uint32_t gain) { gains.push_back(gain); };
  const imm::SelectionResult sel = greedy_select(index, 4, ArgMaxMode::kLazyHeap, hooks);
  EXPECT_EQ(sel.seeds, (std::vector<VertexId>{2, 5, 0, 1}));
  EXPECT_EQ(gains, (std::vector<std::uint32_t>{3, 1, 0, 0}));
  EXPECT_EQ(sel.covered_sets, 4u);
  EXPECT_EQ(covered_len, 8u);
}

}  // namespace
}  // namespace eim::eim_impl
