// One sharded eIM driver under both multi-device tiers: multi-GPU
// (multi_gpu.hpp) and multi-node (multi_node.hpp) are two fabrics over it.
//
// The driver runs over failure domains, groups of devices that live and die
// together (one device on a PCIe host, one node of D devices on a cluster).
// Global sample id i lives on device (i / |alive|) % group_size of group
// alive[i % |alive|]; streams are keyed by sample id, so the union of shards
// is bit-identical to a single-device run for any topology, alive set or
// failure history. The driver owns striping, checkpoint restore, failover
// regeneration, the SelectionIndex, checkpoints and the result; the fabric
// prices the cross-group traffic and decides when a loss ends the run.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "eim/eim/options.hpp"
#include "eim/gpusim/device.hpp"
#include "eim/gpusim/timeline.hpp"
#include "eim/graph/graph.hpp"
#include "eim/graph/weights.hpp"
#include "eim/imm/params.hpp"

namespace eim::eim_impl {

/// The devices of a sharded run, group-major: group g's device d is
/// devices[g * group_size + d]. `alive` lists the groups in service at the
/// start (at least one); the others' devices are only read for their ledgers.
struct ShardLayout {
  std::vector<gpusim::Device*> devices;
  std::uint32_t group_size = 1;
  std::vector<std::uint32_t> alive;
};

/// The topology-specific half of a sharded run. An op that loses a group
/// throws support::NodeLostError naming it; the driver decommissions the
/// group, regenerates its shard on the survivors and re-runs the op.
class ShardFabric {
 public:
  explicit ShardFabric(const EimOptions& options)
      : metrics_(options.metrics), trace_(options.trace) {}
  virtual ~ShardFabric() = default;
  ShardFabric(const ShardFabric&) = delete;
  ShardFabric& operator=(const ShardFabric&) = delete;

  /// Replicate the staged network across the groups, once, up front.
  virtual void distribute_network(std::uint64_t bytes,
                                  std::span<const std::uint32_t> alive) = 0;
  /// Combine the per-vertex count arrays after a sampling phase grew θ.
  virtual void reduce_counts(std::uint64_t bytes, gpusim::Device& primary,
                             std::span<const std::uint32_t> alive) = 0;
  /// Ship one greedy pick and gather the groups' coverage deltas.
  virtual void exchange_pick(gpusim::Device& primary,
                             std::span<const std::uint32_t> alive) = 0;
  /// `group` is gone with `regenerated` committed sets and `respilled` ids
  /// in all; `alive` no longer holds it and `primary` is promoted when a
  /// group survives. Throws to end the run.
  virtual void group_lost(std::uint32_t group, std::uint64_t regenerated,
                          std::uint64_t respilled, gpusim::Device& primary,
                          std::span<const std::uint32_t> alive) = 0;
  /// True once quorum loss froze θ: the committed prefix is the answer.
  [[nodiscard]] virtual bool degraded() const { return false; }
  /// The fabric's own ledger (none by default); its transfer and backoff
  /// seconds join the primary's in checkpoints and device_seconds.
  [[nodiscard]] virtual const gpusim::DeviceTimeline& network() const {
    static const gpusim::DeviceTimeline kNone;
    return kNone;
  }
  /// Fold the fabric's end-of-run metrics and trace spans.
  virtual void finish() = 0;

 protected:
  support::metrics::MetricsRegistry* metrics_;
  support::trace::TraceRecorder* trace_;
};

struct ShardedResult : EimResult {
  /// Samples a degraded run fell short of the θ target.
  std::uint64_t degrade_shortfall_samples = 0;
};

/// Run eIM over `layout`, with `fabric` pricing the cross-group traffic.
/// OomPolicy::Degrade and spill are single-device answers to memory
/// pressure (run_eim); asking for either throws InvalidArgumentError.
[[nodiscard]] ShardedResult run_sharded(const ShardLayout& layout, ShardFabric& fabric,
                                        const graph::Graph& g,
                                        graph::DiffusionModel model,
                                        const imm::ImmParams& params,
                                        const EimOptions& options);

/// Fold a device's injected-fault deltas into the fault.* counters.
void record_fault_deltas(support::metrics::MetricsRegistry* metrics,
                         const gpusim::FaultStats& before,
                         const gpusim::FaultStats& after);

/// n · F rescaled by the §3.4 kept fraction, so the spread estimate stays an
/// unbiased n · F over all generated samples, singletons included.
[[nodiscard]] double kept_fraction_spread(std::uint32_t num_vertices,
                                          double coverage_fraction,
                                          std::uint64_t num_sets,
                                          std::uint64_t singletons_discarded);

}  // namespace eim::eim_impl
