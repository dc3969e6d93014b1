#include "eim/diffusion/forward.hpp"

#include <vector>

#include "eim/diffusion/traversal.hpp"
#include "eim/support/error.hpp"
#include "eim/support/rng.hpp"
#include "eim/support/stats.hpp"

namespace eim::diffusion {

using graph::VertexId;
using support::RandomStream;

namespace {
constexpr std::uint64_t kIcForwardTag = 0x49434657u;  // "ICFW"
constexpr std::uint64_t kLtForwardTag = 0x4C544657u;  // "LTFW"
}  // namespace

std::uint32_t simulate_ic(const graph::Graph& g, std::span<const VertexId> seeds,
                          std::uint64_t seed, std::uint64_t trial) {
  for (const VertexId s : seeds) EIM_CHECK_MSG(s < g.num_vertices(), "seed out of range");
  RandomStream rng(seed, support::derive_stream(kIcForwardTag, trial));
  // The deduplicated seeds are the BFS's initial queue and out-edges its
  // slices, so vertices are visited level by level, each level in
  // activation order. One visited array per thread serves every cascade
  // (greedy MC and spread estimation run millions of small ones).
  thread_local traversal::Scratch scratch;
  scratch.begin(g.num_vertices(), seeds);
  traversal::Exact exact(g.out(), g.all_out_weights());
  traversal::NullMeter meter;
  traversal::ic_bfs(scratch, rng, exact, meter);
  return static_cast<std::uint32_t>(scratch.queue.size());
}

std::uint32_t simulate_lt(const graph::Graph& g, std::span<const VertexId> seeds,
                          std::uint64_t seed, std::uint64_t trial) {
  RandomStream rng(seed, support::derive_stream(kLtForwardTag, trial));
  const VertexId n = g.num_vertices();

  // Per-vertex thresholds drawn up front (the model's definition), as one
  // bulk fill — bit-identical to a next_float() per vertex.
  std::vector<float> threshold(n);
  rng.fill_floats(threshold);

  std::vector<bool> active(n, false);
  std::vector<float> influence_in(n, 0.0f);  ///< weight-sum of active in-nbrs
  std::vector<VertexId> frontier;
  std::uint32_t activated = 0;

  for (const VertexId s : seeds) {
    EIM_CHECK_MSG(s < n, "seed out of range");
    if (!active[s]) {
      active[s] = true;
      frontier.push_back(s);
      ++activated;
    }
  }

  std::vector<VertexId> next;
  while (!frontier.empty()) {
    next.clear();
    for (const VertexId u : frontier) {
      const auto vs = g.out().neighbors(u);
      const auto ws = g.out_weights(u);
      for (std::size_t j = 0; j < vs.size(); ++j) {
        const VertexId v = vs[j];
        if (active[v]) continue;
        influence_in[v] += ws[j];
        if (influence_in[v] >= threshold[v]) {
          active[v] = true;
          next.push_back(v);
          ++activated;
        }
      }
    }
    frontier.swap(next);
  }
  return activated;
}

SpreadEstimate estimate_spread(const graph::Graph& g, graph::DiffusionModel model,
                               std::span<const VertexId> seeds, std::uint32_t trials,
                               std::uint64_t seed) {
  EIM_CHECK_MSG(trials > 0, "need at least one trial");
  support::RunningStat stat;
  for (std::uint32_t t = 0; t < trials; ++t) {
    const std::uint32_t spread = model == graph::DiffusionModel::IndependentCascade
                                     ? simulate_ic(g, seeds, seed, t)
                                     : simulate_lt(g, seeds, seed, t);
    stat.push(static_cast<double>(spread));
  }
  return SpreadEstimate{stat.mean(), stat.stddev(), trials};
}

}  // namespace eim::diffusion
