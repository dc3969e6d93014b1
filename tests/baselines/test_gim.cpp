#include "eim/baselines/gim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "eim/eim/pipeline.hpp"
#include "eim/graph/generators.hpp"
#include "eim/imm/imm.hpp"

namespace eim::baselines {
namespace {

using graph::DiffusionModel;
using graph::Graph;
using graph::VertexId;

Graph make_graph(DiffusionModel model = DiffusionModel::IndependentCascade,
                 VertexId n = 500) {
  Graph g = Graph::from_edge_list(graph::barabasi_albert(n, 3, 0.3, 7));
  graph::assign_weights(g, model);
  return g;
}

imm::ImmParams make_params(std::uint32_t k = 8, double eps = 0.3) {
  imm::ImmParams p;
  p.k = k;
  p.epsilon = eps;
  return p;
}

TEST(RunGim, ZeroWeightEdgesNeverActivate) {
  // Regression for the `<=` comparison bug in gIM's BFS: with every weight
  // forced to 0.0 each RRR set stays the singleton {source}, so the flat
  // array holds exactly one element per set.
  Graph g = Graph::from_edge_list(graph::complete_graph(32));
  graph::assign_weights(g, DiffusionModel::IndependentCascade);
  std::fill(g.mutable_in_weights().begin(), g.mutable_in_weights().end(), 0.0f);
  g.sync_out_weights_from_in();
  gpusim::Device device(gpusim::make_benchmark_device(256));
  const auto r = run_gim(device, g, DiffusionModel::IndependentCascade, make_params(4));
  EXPECT_GT(r.num_sets, 0u);
  EXPECT_EQ(r.total_elements, r.num_sets);
}

struct ParityCase {
  const char* name;
  DiffusionModel model;
  std::function<graph::EdgeList()> build;
};

class RunGim : public ::testing::TestWithParam<ParityCase> {};

TEST_P(RunGim, MatchesSerialReferenceExactly) {
  // gIM has no source elimination, so its collection equals the serial
  // reference's and the greedy answer must be bit-identical.
  const ParityCase& c = GetParam();
  Graph g = Graph::from_edge_list(c.build());
  graph::assign_weights(g, c.model);
  imm::ImmParams params = make_params();
  gpusim::Device device(gpusim::make_benchmark_device(256));
  const auto gim = run_gim(device, g, c.model, params);

  params.eliminate_sources = false;
  const auto serial = imm::run_imm_serial(g, c.model, params);
  EXPECT_EQ(gim.seeds, serial.seeds);
  EXPECT_EQ(gim.num_sets, serial.num_sets);
  EXPECT_EQ(gim.total_elements, serial.total_elements);
}

INSTANTIATE_TEST_SUITE_P(
    Models, RunGim,
    ::testing::Values(
        ParityCase{"ic", DiffusionModel::IndependentCascade,
                   [] { return graph::barabasi_albert(500, 3, 0.3, 7); }},
        // Mean in-degree ~100: every LT pick scans several warp chunks.
        ParityCase{"lt_dense", DiffusionModel::LinearThreshold,
                   [] { return graph::erdos_renyi(400, 40000, 7); }}),
    [](const ::testing::TestParamInfo<ParityCase>& param_info) {
      return param_info.param.name;
    });

TEST(RunGim, StoresRrrSetsUncompressed) {
  const Graph g = make_graph();
  gpusim::Device device(gpusim::make_benchmark_device(256));
  const auto r = run_gim(device, g, DiffusionModel::IndependentCascade, make_params());
  EXPECT_EQ(r.rrr_bytes, r.rrr_raw_bytes);
  EXPECT_EQ(r.network_bytes, r.network_raw_bytes);
}

TEST(RunGim, CountsDynamicAllocationsOnDeepTraversals) {
  // A near-critical sparse graph produces sets larger than a tiny shared
  // queue, forcing spills (and their mallocs).
  Graph g = Graph::from_edge_list(graph::erdos_renyi(2000, 5600, 3));
  graph::assign_weights(g, DiffusionModel::IndependentCascade);
  gpusim::Device device(gpusim::make_benchmark_device(512));
  GimConfig config;
  config.shared_queue_entries = 16;
  const auto r =
      run_gim(device, g, DiffusionModel::IndependentCascade, make_params(), config);
  EXPECT_GT(r.device_mallocs, 0u);
}

TEST(RunGim, SmallSharedQueueCostsMoreTime) {
  Graph g = Graph::from_edge_list(graph::erdos_renyi(2000, 5600, 3));
  graph::assign_weights(g, DiffusionModel::IndependentCascade);
  GimConfig roomy;
  roomy.shared_queue_entries = 1u << 20;  // never spills
  GimConfig cramped;
  cramped.shared_queue_entries = 16;  // spills constantly

  gpusim::Device d1(gpusim::make_benchmark_device(512));
  gpusim::Device d2(gpusim::make_benchmark_device(512));
  const auto fast = run_gim(d1, g, DiffusionModel::IndependentCascade, make_params(), roomy);
  const auto slow =
      run_gim(d2, g, DiffusionModel::IndependentCascade, make_params(), cramped);
  EXPECT_EQ(fast.seeds, slow.seeds);  // cost model only
  EXPECT_GT(slow.device_seconds, fast.device_seconds);
}

TEST(RunGim, FragmentationTriggersOom) {
  Graph g = Graph::from_edge_list(graph::erdos_renyi(4000, 11'000, 5));
  graph::assign_weights(g, DiffusionModel::IndependentCascade);
  gpusim::Device device(gpusim::make_benchmark_device(4));  // 4 MB budget
  GimConfig config;
  config.shared_queue_entries = 16;
  EXPECT_THROW((void)run_gim(device, g, DiffusionModel::IndependentCascade,
                             make_params(8, 0.15), config),
               support::DeviceOutOfMemoryError);
}

TEST(RunGim, FragmentationIsReleasedAfterFailure) {
  Graph g = Graph::from_edge_list(graph::erdos_renyi(4000, 11'000, 5));
  graph::assign_weights(g, DiffusionModel::IndependentCascade);
  gpusim::Device device(gpusim::make_benchmark_device(4));
  GimConfig config;
  config.shared_queue_entries = 16;
  try {
    (void)run_gim(device, g, DiffusionModel::IndependentCascade, make_params(8, 0.15),
                  config);
  } catch (const support::DeviceOutOfMemoryError&) {
  }
  // Context teardown reclaims everything: the device is reusable.
  EXPECT_EQ(device.memory().allocated_bytes(), 0u);
  const Graph small = make_graph();
  EXPECT_NO_THROW(
      (void)run_gim(device, small, DiffusionModel::IndependentCascade, make_params()));
}

TEST(RunGim, WorksUnderLt) {
  const Graph g = make_graph(DiffusionModel::LinearThreshold);
  gpusim::Device device(gpusim::make_benchmark_device(256));
  const auto r = run_gim(device, g, DiffusionModel::LinearThreshold, make_params());
  EXPECT_EQ(r.seeds.size(), 8u);
  EXPECT_GT(r.device_seconds, 0.0);
}

TEST(RunGim, EimBeatsGimAtTightEpsilon) {
  // The headline comparison: at large theta eIM's thread-based selection
  // and allocation-free sampling win.
  const Graph g = make_graph(DiffusionModel::IndependentCascade, 1000);
  const imm::ImmParams params = make_params(20, 0.12);

  gpusim::Device d1(gpusim::make_benchmark_device(512));
  gpusim::Device d2(gpusim::make_benchmark_device(512));
  eim_impl::EimOptions opts;
  opts.sampler_blocks = d1.spec().num_sms * 4;
  const auto eim_r = run_eim(d1, g, DiffusionModel::IndependentCascade, params, opts);
  const auto gim_r = run_gim(d2, g, DiffusionModel::IndependentCascade, params);
  EXPECT_LT(eim_r.device_seconds, gim_r.device_seconds);
}

}  // namespace
}  // namespace eim::baselines
