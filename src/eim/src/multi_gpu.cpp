#include "eim/eim/multi_gpu.hpp"

#include "eim/eim/sharded_driver.hpp"
#include "eim/support/error.hpp"
#include "eim/support/metrics.hpp"
#include "eim/support/trace.hpp"

namespace eim::eim_impl {

namespace {

/// One host's GPUs behind PCIe: every failure domain is a single device, and
/// all cross-device traffic (count all-reduce, pick broadcast, coverage
/// delta, failover redistribution) is serialized on the primary's copy
/// engine, so the fabric keeps no ledger of its own. There is no quorum: the
/// run survives while one device does.
class PcieFabric final : public ShardFabric {
 public:
  PcieFabric(const std::vector<gpusim::Device*>& devices, MultiGpuResult& result,
             const EimOptions& options)
      : ShardFabric(options), devices_(devices), result_(result) {
    if (trace_ != nullptr) {
      for (std::size_t d = 0; d < devices_.size(); ++d) {
        trace_->register_process("device " + std::to_string(d), devices_[d]);
      }
    }
    if (metrics_ != nullptr) {
      count_allreduces_ = &metrics_->counter("multi.count_allreduces");
      pick_broadcasts_ = &metrics_->counter("multi.pick_broadcasts");
    }
  }

  void distribute_network(std::uint64_t, std::span<const std::uint32_t>) override {}

  // Ring reduce: each surviving non-primary device ships its counts once.
  void reduce_counts(std::uint64_t bytes, gpusim::Device& primary,
                     std::span<const std::uint32_t> alive) override {
    for (std::size_t j = 1; j < alive.size(); ++j) {
      const double before = primary.timeline().transfer_seconds();
      primary.transfer_to_device("count all-reduce", bytes);
      result_.communication_seconds += primary.timeline().transfer_seconds() - before;
      if (count_allreduces_ != nullptr) count_allreduces_->add();
    }
  }

  void exchange_pick(gpusim::Device& primary,
                     std::span<const std::uint32_t> alive) override {
    const double before = primary.timeline().transfer_seconds();
    for (std::size_t j = 1; j < alive.size(); ++j) {
      primary.transfer_to_device("pick broadcast", sizeof(graph::VertexId));
      primary.transfer_to_host("coverage delta", sizeof(std::uint64_t));
      if (pick_broadcasts_ != nullptr) pick_broadcasts_->add();
    }
    result_.communication_seconds += primary.timeline().transfer_seconds() - before;
  }

  // The (possibly just promoted) primary broadcasts the respilled ids.
  void group_lost(std::uint32_t device, std::uint64_t regenerated,
                  std::uint64_t respilled, gpusim::Device& primary,
                  std::span<const std::uint32_t> alive) override {
    result_.failed_devices.push_back(device);
    result_.failover_regenerated_sets += regenerated;
    if (alive.empty()) {
      throw support::DeviceLostError("every device lost; cannot recover the run");
    }
    const std::uint64_t bytes = respilled * sizeof(std::uint64_t);
    if (bytes > 0) {
      primary.transfer_to_device("failover redistribution", bytes);
      result_.failover_transfer_bytes += bytes;
    }
    if (metrics_ != nullptr) {
      metrics_->counter("multi.failover_events").add();
      metrics_->counter("multi.failover_regenerated_sets").add(regenerated);
      metrics_->counter("multi.failover_transfer_bytes").add(bytes);
    }
    if (trace_ == nullptr) return;
    const gpusim::Device& lost = *devices_[device];
    if (const auto pid = trace_->pid_of(&lost); pid.has_value()) {
      trace_->instant(*pid, "device.lost", "respilled=" + std::to_string(respilled),
                      lost.timeline().total_seconds());
    }
    if (const auto pid = trace_->pid_of(&primary); pid.has_value() && bytes > 0) {
      trace_->instant(*pid, "failover.redistribute", "bytes=" + std::to_string(bytes),
                      primary.timeline().total_seconds());
    }
  }

  void finish() override {
    if (metrics_ != nullptr) {
      metrics_->phase("multi.communication").add_modeled(result_.communication_seconds);
    }
  }

 private:
  const std::vector<gpusim::Device*>& devices_;
  MultiGpuResult& result_;
  support::metrics::Counter* count_allreduces_ = nullptr;
  support::metrics::Counter* pick_broadcasts_ = nullptr;
};

}  // namespace

MultiGpuResult run_eim_multi(std::vector<gpusim::Device*> devices, const graph::Graph& g,
                             graph::DiffusionModel model, const imm::ImmParams& params,
                             const EimOptions& options) {
  EIM_CHECK_MSG(!devices.empty(), "need at least one device");
  for (gpusim::Device* d : devices) EIM_CHECK_MSG(d != nullptr, "null device");
  MultiGpuResult result;
  result.num_devices = static_cast<std::uint32_t>(devices.size());
  PcieFabric fabric(devices, result, options);
  ShardLayout layout{.devices = devices, .group_size = 1, .alive = {}};
  for (std::uint32_t d = 0; d < result.num_devices; ++d) layout.alive.push_back(d);
  static_cast<EimResult&>(result) =
      run_sharded(layout, fabric, g, model, params, options);
  return result;
}

}  // namespace eim::eim_impl
