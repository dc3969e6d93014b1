#include "eim/diffusion/reverse.hpp"

#include <algorithm>

#include "eim/support/error.hpp"

namespace eim::diffusion {

using graph::VertexId;
using support::RandomStream;

RrrSampler::RrrSampler(const graph::Graph& g, graph::DiffusionModel model,
                       bool eliminate_source)
    : graph_(&g), model_(model), eliminate_source_(eliminate_source) {}

void RrrSampler::sample_into(VertexId source, RandomStream& rng,
                             std::vector<VertexId>& out) {
  EIM_CHECK_MSG(source < graph_->num_vertices(), "source out of range");
  scratch_.begin(graph_->num_vertices(), source);
  traversal::Exact exact(graph_->in(), graph_->all_in_weights());
  traversal::NullMeter meter;
  traversal::run(model_, scratch_, rng, exact, meter);
  // The source is queue[0]: it was queued first and the set is not yet
  // sorted.
  out.assign(scratch_.queue.begin() + (eliminate_source_ ? 1 : 0), scratch_.queue.end());
  std::sort(out.begin(), out.end());
}

std::vector<VertexId> RrrSampler::sample(VertexId source, RandomStream& rng) {
  std::vector<VertexId> out;
  sample_into(source, rng, out);
  return out;
}

std::vector<VertexId> sample_rrr_ic(const graph::Graph& g, VertexId source,
                                    RandomStream& rng, bool eliminate_source) {
  RrrSampler sampler(g, graph::DiffusionModel::IndependentCascade, eliminate_source);
  return sampler.sample(source, rng);
}

std::vector<VertexId> sample_rrr_lt(const graph::Graph& g, VertexId source,
                                    RandomStream& rng, bool eliminate_source) {
  RrrSampler sampler(g, graph::DiffusionModel::LinearThreshold, eliminate_source);
  return sampler.sample(source, rng);
}

std::vector<VertexId> sample_rrr(const graph::Graph& g, graph::DiffusionModel model,
                                 VertexId source, RandomStream& rng,
                                 bool eliminate_source) {
  RrrSampler sampler(g, model, eliminate_source);
  return sampler.sample(source, rng);
}

}  // namespace eim::diffusion
