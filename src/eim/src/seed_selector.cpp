#include "eim/eim/seed_selector.hpp"

#include <algorithm>

#include "eim/support/bits.hpp"
#include "eim/support/error.hpp"
#include "eim/support/metrics.hpp"
#include "eim/support/profiler.hpp"

namespace eim::eim_impl {

using graph::VertexId;

imm::SelectionResult GpuSeedSelector::select(const DeviceRrrCollection& collection,
                                             std::uint32_t k) {
  const VertexId n = collection.num_vertices();
  EIM_CHECK_MSG(k >= 1 && k <= n, "k out of range");

  // Host mirror: decode and index only the sets committed since the last
  // call (the data already lives on the device; no transfer is charged).
  const std::uint64_t decoded = index_.sync(collection);

  const std::uint64_t num_sets = collection.num_sets();
  const auto& spec = device_->spec();
  const auto g_lat = static_cast<std::uint64_t>(spec.costs.global_latency);
  const auto a_lat = static_cast<std::uint64_t>(spec.costs.atomic_global);
  const std::uint64_t warp = spec.warp_size;

  // F: one flag per set, device-resident for the selection's duration.
  auto f_flags = device_->alloc<std::uint8_t>(std::max<std::uint64_t>(1, num_sets));

  if (metrics_ != nullptr) {
    metrics_->counter("selector.select_calls").add();
    metrics_->counter("selector.elements_decoded").add(decoded);
  }
  support::metrics::Counter* argmax_kernels =
      metrics_ != nullptr ? &metrics_->counter("selector.argmax_kernels") : nullptr;
  support::metrics::Counter* update_kernels =
      metrics_ != nullptr ? &metrics_->counter("selector.update_kernels") : nullptr;
  support::metrics::Counter* fallback_picks =
      metrics_ != nullptr ? &metrics_->counter("selector.fallback_picks") : nullptr;
  support::metrics::Histogram* gain_hist =
      metrics_ != nullptr ? &metrics_->histogram("selector.gain_per_pick") : nullptr;

  // Running aggregates for the update-kernel cost model.
  const bool thread_scan = strategy_ == ScanStrategy::ThreadPerSet;
  const auto search_cycles = [&](std::uint32_t len) {
    return thread_scan ? binsearch_probes(len) * g_lat
                       : support::div_ceil<std::uint64_t>(
                             std::max<std::uint32_t>(1, len), warp) *
                             g_lat;
  };
  std::uint64_t uncovered_search_cycles = 0;  // sum of per-set search cost
  std::uint32_t max_len = 2;
  index_.for_each_length([&](std::uint64_t, std::uint32_t len) {
    max_len = std::max(max_len, len);
    uncovered_search_cycles += search_cycles(len);
  });

  // Parallelism of the chosen strategy (§3.5's T_n vs W_n).
  const std::uint64_t units =
      thread_scan ? spec.max_resident_threads() : spec.max_resident_warps();

  // arg max over C: a tree reduction, T_n-wide. One launch per pick —
  // including the zero-gain filler picks — so modeled time always reflects
  // k kernel pairs.
  const auto charge_argmax = [&] {
    const std::uint64_t per_unit =
        support::div_ceil<std::uint64_t>(n, spec.max_resident_threads());
    const std::uint64_t cycles =
        per_unit * g_lat + support::ceil_log2(std::max<VertexId>(2, n)) *
                               spec.costs.shuffle_op;
    device_->timeline().add(gpusim::SegmentKind::Kernel, "eim::argmax",
                            spec.costs.kernel_launch_us * 1e-6 +
                                spec.cycles_to_seconds(static_cast<double>(cycles)));
    if (argmax_kernels != nullptr) argmax_kernels->add();
  };

  // Update-kernel makespan: every set costs an F read; uncovered ones add
  // the search; covering units add their decrement walks. Work spreads
  // over min(units, num_sets) parallel units.
  const auto charge_update = [&](std::uint64_t dec_cycles) {
    if (num_sets == 0) return;
    const std::uint64_t f_cycles = num_sets * g_lat;
    const std::uint64_t total = f_cycles + uncovered_search_cycles + dec_cycles;
    const std::uint64_t used = std::max<std::uint64_t>(1, std::min(units, num_sets));
    const std::uint64_t floor_cycles =
        thread_scan ? binsearch_probes(max_len) * g_lat
                    : support::div_ceil<std::uint64_t>(max_len, warp) * g_lat;
    const std::uint64_t makespan = std::max(total / used, floor_cycles);
    device_->timeline().add(gpusim::SegmentKind::Kernel, "eim::update_counts",
                            spec.costs.kernel_launch_us * 1e-6 +
                                spec.cycles_to_seconds(static_cast<double>(makespan)));
    if (update_kernels != nullptr) update_kernels->add();
  };

  // The modeled device always runs a full arg-max reduction; the *host*
  // answer comes from the lazy heap (or the linear reference scan in
  // test mode) — both produce the same (count, smallest-id) winner.
  std::uint64_t dec_cycles = 0;  // this pick's decrement traffic
  GreedyHooks hooks;
  hooks.on_cover = [&](std::uint64_t set_id, std::uint32_t len) {
    f_flags[set_id] = 1;
    // Aggregate bookkeeping: this set leaves the uncovered population.
    uncovered_search_cycles -= search_cycles(len);
    // Decrement pass (Alg. 3 lines 10-12): the finding unit walks the set
    // and atomically subtracts each member's count. A thread does this
    // scalar; a warp coalesces the reads but still issues len atomics.
    dec_cycles += thread_scan
                      ? static_cast<std::uint64_t>(len) * (g_lat + a_lat)
                      : support::div_ceil<std::uint64_t>(std::max<std::uint32_t>(1, len),
                                                         warp) *
                                g_lat +
                            static_cast<std::uint64_t>(len) * a_lat / warp;
  };
  hooks.on_pick = [&](std::uint32_t gain) {
    charge_argmax();
    charge_update(dec_cycles);
    dec_cycles = 0;
    if (gain == 0 && fallback_picks != nullptr) fallback_picks->add();
    if (gain_hist != nullptr) gain_hist->observe(gain);
  };

  const support::profiler::ScopedWallTimer pick_scope(
      profile_ != nullptr ? &profile_->timer("selector.pick") : nullptr);
  return greedy_select(index_, k, argmax_mode_, hooks);
}

}  // namespace eim::eim_impl
