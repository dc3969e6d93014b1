// Seed selection on the simulated device (paper §3.5, Algorithm 3).
//
// The greedy answer itself is computed exactly over a host-side
// SelectionIndex (bit-identical to the serial reference) that the selector
// keeps across calls and extends with only the newly committed sets; what
// the simulator adds is the *device cost* of each pick:
//
//  * an arg-max reduction over C (one kernel per pick), and
//  * the count-update kernel: every launched unit reads F for its sets,
//    binary-searches the picked vertex in the uncovered ones, and on a hit
//    covers the set and decrements C for its members.
//
// The update kernel's makespan is derived from running aggregates
// (uncovered-set count, their summed search cost, decrement traffic) packed
// onto the strategy's parallelism: T_n threads (ThreadPerSet) or W_n warps
// (WarpPerSet). This yields exactly the paper's ceil(N/W_n)*C_w vs
// ceil(N/T_n)*C_t comparison, with C_w < C_t because warp scans coalesce.
#pragma once

#include <cstdint>

#include "eim/eim/options.hpp"
#include "eim/eim/rrr_collection.hpp"
#include "eim/eim/selection_index.hpp"
#include "eim/gpusim/device.hpp"
#include "eim/imm/seed_selection.hpp"

namespace eim::eim_impl {

class GpuSeedSelector {
 public:
  GpuSeedSelector(gpusim::Device& device, ScanStrategy strategy)
      : device_(&device), strategy_(strategy) {}

  /// Test hook: switch the host arg-max implementation. Modeled device
  /// charges are identical either way.
  void set_argmax_mode(ArgMaxMode mode) noexcept { argmax_mode_ = mode; }
  [[nodiscard]] ArgMaxMode argmax_mode() const noexcept { return argmax_mode_; }

  /// Run the full k-pick greedy over the collection's current contents,
  /// charging modeled kernel time per pick. Safe to call repeatedly as the
  /// collection grows: the selector keeps a SelectionIndex keyed to the
  /// collection's uid, so a call decodes and indexes only the sets committed
  /// since the previous one (a different or shrunken collection starts it
  /// over).
  [[nodiscard]] imm::SelectionResult select(const DeviceRrrCollection& collection,
                                            std::uint32_t k);

  [[nodiscard]] ScanStrategy strategy() const noexcept { return strategy_; }

  /// Wire per-pick kernel/decode counters into `registry` (nullptr
  /// detaches). The registry must outlive the selector or the next attach.
  void attach_metrics(support::metrics::MetricsRegistry* registry) noexcept {
    metrics_ = registry;
  }

  /// Wire host wall-clock attribution (codec.decode, selector.preprocess,
  /// selector.pick) into `profile` (nullptr detaches). The profile must
  /// outlive the selector or the next attach.
  void attach_profile(support::profiler::WallProfile* profile) noexcept {
    profile_ = profile;
    index_.attach_profile(profile);
  }

 private:
  gpusim::Device* device_;
  ScanStrategy strategy_;
  ArgMaxMode argmax_mode_ = ArgMaxMode::kLazyHeap;
  support::metrics::MetricsRegistry* metrics_ = nullptr;
  support::profiler::WallProfile* profile_ = nullptr;
  SelectionIndex index_;
};

}  // namespace eim::eim_impl
