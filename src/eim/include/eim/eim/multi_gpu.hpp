// Multi-GPU eIM — the extension announced in the paper's conclusion. It is
// the PCIe fabric over the shared sharded driver (sharded_driver.hpp):
// device d samples the global ids congruent to d mod D, so the seeds match
// a single-device run. Count all-reduces, pick broadcasts, coverage deltas
// and failover redistribution are serialized on the primary's PCIe copy
// engine. A device lost mid-run (or past its retry budget) has its shard
// regenerated on the survivors with unchanged seeds; losing every device
// raises DeviceLostError (exit code 5). OomPolicy::Degrade and spill are
// single-device only (docs/RESILIENCE.md).
#pragma once

#include <cstdint>
#include <vector>

#include "eim/eim/options.hpp"
#include "eim/gpusim/device.hpp"
#include "eim/graph/graph.hpp"
#include "eim/graph/weights.hpp"
#include "eim/imm/params.hpp"

namespace eim::eim_impl {

struct MultiGpuResult : EimResult {
  std::uint32_t num_devices = 1;
  /// Modeled seconds spent in count all-reduce / pick broadcast.
  double communication_seconds = 0.0;
  /// Devices (indices into the input vector) decommissioned by failover.
  std::vector<std::uint32_t> failed_devices;
  /// RRR sets that had to be regenerated on survivors after device loss.
  std::uint64_t failover_regenerated_sets = 0;
  /// Interconnect bytes spent redistributing lost shards' sample indices.
  std::uint64_t failover_transfer_bytes = 0;
};

/// Run eIM across `devices.size()` simulated GPUs. Seeds (and every other
/// algorithmic output) are identical to the single-device run with the same
/// parameters; only the modeled time changes.
[[nodiscard]] MultiGpuResult run_eim_multi(std::vector<gpusim::Device*> devices,
                                           const graph::Graph& g,
                                           graph::DiffusionModel model,
                                           const imm::ImmParams& params,
                                           const EimOptions& options = {});

}  // namespace eim::eim_impl
