#include "eim/eim/multi_node.hpp"

#include <string>

#include "eim/eim/sharded_driver.hpp"
#include "eim/gpusim/timeline_trace.hpp"
#include "eim/support/error.hpp"
#include "eim/support/metrics.hpp"
#include "eim/support/trace.hpp"

namespace eim::eim_impl {

namespace {

/// The modeled cluster network: every failure domain is a node of D
/// devices. Collectives run on the cluster's own ledger under
/// `collective_retry`; an exhausted link escalates to node loss; falling
/// below quorum either ends the run or, with `node_degrade`, freezes θ.
class ClusterFabric final : public ShardFabric {
 public:
  ClusterFabric(gpusim::Cluster& cluster, std::span<const std::uint32_t> alive,
                MultiNodeResult& result, const EimOptions& options,
                const MultiNodeOptions& node_options)
      : ShardFabric(options), cluster_(cluster), result_(result),
        node_options_(node_options) {
    // One trace track per device plus one for the fabric; collective
    // instants ride on the fabric track, node.lost on the dying node's.
    if (trace_ != nullptr) {
      for (const std::uint32_t n : alive) {
        for (std::uint32_t d = 0; d < cluster_.spec().node.num_devices; ++d) {
          trace_->register_process(
              "node " + std::to_string(n) + " device " + std::to_string(d),
              &cluster_.node(n).device(d));
        }
      }
      cluster_pid_ = trace_->register_process("cluster network", &cluster_);
    }
    if (metrics_ != nullptr) {
      backoff_hist_ = &metrics_->histogram("collective.backoff_seconds");
    }
    cluster_.timeline().reset();
  }

  void distribute_network(std::uint64_t bytes,
                          std::span<const std::uint32_t> alive) override {
    run_collective("network broadcast", alive, [&] {
      return cluster_.broadcast("network broadcast", bytes, alive);
    });
  }

  void reduce_counts(std::uint64_t bytes, gpusim::Device&,
                     std::span<const std::uint32_t> alive) override {
    run_collective("count allreduce", alive, [&] {
      return cluster_.allreduce("count allreduce", bytes, alive);
    });
    if (metrics_ != nullptr) metrics_->counter("cluster.count_allreduces").add();
  }

  // The chosen vertex and the coverage delta travel in one small allreduce.
  void exchange_pick(gpusim::Device&, std::span<const std::uint32_t> alive) override {
    run_collective("pick exchange", alive, [&] {
      return cluster_.allreduce("pick exchange",
                                sizeof(graph::VertexId) + sizeof(std::uint64_t), alive);
    });
    if (metrics_ != nullptr) metrics_->counter("cluster.pick_exchanges").add();
  }

  void group_lost(std::uint32_t node, std::uint64_t, std::uint64_t respilled,
                  gpusim::Device&, std::span<const std::uint32_t> alive) override {
    cluster_.mark_node_lost(node);
    result_.failed_nodes.push_back(node);
    result_.reshard_samples += respilled;
    if (trace_ != nullptr) {
      const gpusim::Device& lead = cluster_.node(node).device(0);
      if (const auto pid = trace_->pid_of(&lead); pid.has_value()) {
        trace_->instant(*pid, "node.lost", "respilled=" + std::to_string(respilled),
                        lead.timeline().total_seconds());
      }
    }
    if (alive.empty()) {
      throw support::ClusterQuorumError("every node lost", 0, node_options_.quorum);
    }
    // The survivors get the dead shard's id manifest as a plain transfer:
    // collective ordinals (the fault-script key) must not shift on failover.
    const std::uint64_t bytes = respilled * sizeof(std::uint64_t);
    if (bytes > 0) cluster_.charge_transfer("reshard", bytes, alive);
    if (metrics_ != nullptr) {
      metrics_->counter("cluster.node_lost").add();
      metrics_->counter("cluster.reshard_samples").add(respilled);
    }
    if (trace_ != nullptr && bytes > 0) {
      trace_->instant(cluster_pid_, "reshard", "bytes=" + std::to_string(bytes),
                      cluster_.timeline().total_seconds());
    }
    if (alive.size() >= node_options_.quorum) return;
    if (!node_options_.node_degrade) {
      throw support::ClusterQuorumError("node " + std::to_string(node) + " lost",
                                        static_cast<std::uint32_t>(alive.size()),
                                        node_options_.quorum);
    }
    if (degraded_) return;
    degraded_ = true;
    if (metrics_ != nullptr) metrics_->counter("cluster.degraded").add();
    if (trace_ != nullptr) {
      trace_->instant(cluster_pid_, "cluster.degraded",
                      "alive=" + std::to_string(alive.size()) +
                          " quorum=" + std::to_string(node_options_.quorum),
                      cluster_.timeline().total_seconds());
    }
  }

  [[nodiscard]] bool degraded() const override { return degraded_; }

  [[nodiscard]] const gpusim::DeviceTimeline& network() const override {
    return cluster_.timeline();
  }

  void finish() override {
    if (trace_ != nullptr) {
      gpusim::record_timeline_spans(*trace_, cluster_pid_, cluster_.timeline());
    }
    result_.communication_seconds = cluster_.timeline().transfer_seconds();
    if (metrics_ != nullptr) {
      metrics_->phase("cluster.communication").add_modeled(result_.communication_seconds);
      metrics_->counter("cluster.link_faults_injected")
          .add(cluster_.fault_stats().link_faults);
    }
  }

 private:
  // Run one collective under the retry policy: link faults back off on the
  // cluster clock, and an exhausted budget escalates the link's node to dead
  // (NodeLostError). The collective is a non-leaf span on the fabric track
  // with a flow arrow in from each alive node's device 0; if the op unwinds,
  // the span closes zero-length and the arrows dangle: both mark the fault.
  template <typename Op>
  void run_collective(const std::string& label, std::span<const std::uint32_t> alive,
                      Op&& op) {
    support::trace::ScopedSpan span(trace_, cluster_pid_,
                                    support::trace::SpanCategory::Collective, label,
                                    cluster_.timeline().total_seconds());
    std::vector<std::uint64_t> flow_ids;
    if (trace_ != nullptr) {
      for (const std::uint32_t n : alive) {
        const gpusim::Device& lead = cluster_.node(n).device(0);
        const auto pid = trace_->pid_of(&lead);
        if (!pid.has_value()) continue;
        flow_ids.push_back(trace_->new_flow_id());
        trace_->flow_start(*pid, flow_ids.back(), label, lead.timeline().total_seconds());
      }
    }
    try {
      support::retry(node_options_.collective_retry, op,
                     [&](std::uint32_t retry_index, double backoff_seconds,
                         const support::DeviceFaultError&) {
                       ++result_.collective_retries;
                       cluster_.charge_backoff(label + " backoff", backoff_seconds);
                       if (metrics_ != nullptr) {
                         metrics_->counter("collective.retries").add();
                         backoff_hist_->observe_duration(backoff_seconds);
                       }
                       if (trace_ != nullptr) {
                         trace_->instant(cluster_pid_, "collective.retry",
                                         label + " retry=" + std::to_string(retry_index),
                                         cluster_.timeline().total_seconds());
                       }
                     });
    } catch (const support::LinkFaultError& e) {
      cluster_.mark_node_lost(e.node());
      throw support::NodeLostError(label + ": link retry budget exhausted", e.node());
    }
    const double end_ts = cluster_.timeline().total_seconds();
    if (trace_ != nullptr) {
      for (const std::uint64_t id : flow_ids) {
        trace_->flow_end(cluster_pid_, id, label, end_ts);
      }
    }
    span.end(end_ts);
  }

  gpusim::Cluster& cluster_;
  MultiNodeResult& result_;
  const MultiNodeOptions& node_options_;
  support::metrics::Histogram* backoff_hist_ = nullptr;
  std::uint32_t cluster_pid_ = 0;
  bool degraded_ = false;
};

}  // namespace

MultiNodeResult run_eim_cluster(gpusim::Cluster& cluster, const graph::Graph& g,
                                graph::DiffusionModel model, const imm::ImmParams& params,
                                const EimOptions& options,
                                const MultiNodeOptions& node_options) {
  const std::uint32_t num_nodes = cluster.num_nodes();
  const std::uint32_t devices_per_node = cluster.spec().node.num_devices;
  EIM_CHECK_MSG(node_options.quorum >= 1, "quorum must be at least 1");
  EIM_CHECK_MSG(node_options.quorum <= num_nodes,
                "quorum cannot exceed the cluster's node count");
  // Nodes an earlier run on this cluster already killed stay out of the run.
  ShardLayout layout{.devices = {}, .group_size = devices_per_node, .alive = {}};
  for (std::uint32_t n = 0; n < num_nodes; ++n) {
    for (std::uint32_t d = 0; d < devices_per_node; ++d) {
      layout.devices.push_back(&cluster.node(n).device(d));
    }
    if (!cluster.node(n).lost()) layout.alive.push_back(n);
  }
  EIM_CHECK_MSG(!layout.alive.empty(), "cluster has no alive nodes");
  EIM_CHECK_MSG(layout.alive.size() >= node_options.quorum,
                "cluster is below quorum before the run starts");

  MultiNodeResult result;
  result.num_nodes = num_nodes;
  result.devices_per_node = devices_per_node;
  ClusterFabric fabric(cluster, layout.alive, result, options, node_options);
  const ShardedResult run = run_sharded(layout, fabric, g, model, params, options);
  static_cast<EimResult&>(result) = run;
  result.degrade_shortfall_samples = run.degrade_shortfall_samples;
  return result;
}

}  // namespace eim::eim_impl
