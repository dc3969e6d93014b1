#include "eim/eim/sharded_driver.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <ranges>

#include "eim/eim/checkpoint.hpp"
#include "eim/eim/rrr_collection.hpp"
#include "eim/eim/sampler.hpp"
#include "eim/eim/selection_index.hpp"
#include "eim/encoding/packed_csc.hpp"
#include "eim/gpusim/timeline_trace.hpp"
#include "eim/imm/driver.hpp"
#include "eim/support/error.hpp"
#include "eim/support/metrics.hpp"
#include "eim/support/trace.hpp"

namespace eim::eim_impl {

using graph::VertexId;

void record_fault_deltas(support::metrics::MetricsRegistry* metrics,
                         const gpusim::FaultStats& before,
                         const gpusim::FaultStats& after) {
  if (metrics == nullptr) return;
  metrics->counter("fault.kernel_faults_injected")
      .add(after.kernel_faults - before.kernel_faults);
  metrics->counter("fault.transfer_faults_injected")
      .add(after.transfer_faults - before.transfer_faults);
  metrics->counter("fault.alloc_oom_injected").add(after.alloc_ooms - before.alloc_ooms);
  metrics->counter("fault.device_lost").add(after.device_losses - before.device_losses);
}

double kept_fraction_spread(std::uint32_t num_vertices, double coverage_fraction,
                            std::uint64_t num_sets, std::uint64_t singletons_discarded) {
  // The inflated conditional coverage still drives the θ estimate — that is
  // the §3.4 heuristic's speed mechanism; only the reported spread rescales.
  const std::uint64_t generated = num_sets + singletons_discarded;
  const double kept_fraction =
      generated > 0 ? static_cast<double>(num_sets) / static_cast<double>(generated)
                    : 1.0;  // degraded before the first set committed
  return static_cast<double>(num_vertices) * coverage_fraction * kept_fraction;
}

ShardedResult run_sharded(const ShardLayout& layout, ShardFabric& fabric,
                          const graph::Graph& g, graph::DiffusionModel model,
                          const imm::ImmParams& params, const EimOptions& options) {
  if (options.oom_policy == OomPolicy::Degrade ||
      options.spill.policy != SpillPolicy::Off) {
    throw support::InvalidArgumentError(
        "OOM degrade and the spill tiers are single-device only; a sharded run "
        "answers memory pressure by adding devices");
  }
  const std::vector<gpusim::Device*>& devices = layout.devices;
  const std::uint32_t group_size = layout.group_size;
  const auto num_flat = static_cast<std::uint32_t>(devices.size());
  std::vector<std::uint32_t> alive = layout.alive;
  const auto devices_of = [&](std::uint32_t grp) {
    return std::views::iota(grp * group_size, (grp + 1) * group_size);
  };
  const auto live_devices = [&] {
    std::vector<std::uint32_t> live;
    for (const std::uint32_t grp : alive) {
      for (const std::uint32_t f : devices_of(grp)) live.push_back(f);
    }
    return live;
  };

  imm::ImmParams effective = params;
  effective.eliminate_sources = options.eliminate_sources;

  ShardedResult result;
  result.network_raw_bytes = g.csc_bytes();
  result.network_bytes = options.log_encode ? encoding::PackedCsc(g).packed_bytes()
                                            : result.network_raw_bytes;

  std::vector<gpusim::FaultStats> faults_before(num_flat);
  std::ranges::transform(devices, faults_before.begin(), &gpusim::Device::fault_stats);

  support::metrics::MetricsRegistry* metrics = options.metrics;
  support::trace::TraceRecorder* trace = options.trace;
  support::metrics::PhaseTimer* sample_phase =
      metrics != nullptr ? &metrics->phase("sample") : nullptr;
  support::metrics::PhaseTimer* select_phase =
      metrics != nullptr ? &metrics->phase("select") : nullptr;

  // Every live device holds the (packed) graph, a shard and a sampler.
  // `assigned[f]` lists device f's sample ids in local-slot order and
  // owner_of/slot_of invert it; survivors absorb dead shards' ids at the end.
  std::vector<gpusim::DeviceBuffer<std::uint8_t>> network_charges(num_flat);
  std::vector<std::unique_ptr<DeviceRrrCollection>> shards(num_flat);
  std::vector<std::unique_ptr<EimSampler>> samplers(num_flat);
  std::vector<std::vector<std::uint64_t>> assigned(num_flat);
  std::vector<std::uint32_t> owner_of;
  std::vector<std::uint64_t> slot_of;
  for (const std::uint32_t f : live_devices()) {
    gpusim::Device& dev = *devices[f];
    dev.timeline().reset();
    dev.memory().reset_peak();
    network_charges[f] = dev.alloc<std::uint8_t>(result.network_bytes);
    dev.transfer_to_device("network CSC", result.network_bytes);
    shards[f] =
        std::make_unique<DeviceRrrCollection>(dev, g.num_vertices(), options.log_encode);
    samplers[f] = std::make_unique<EimSampler>(dev, g, model, effective, options);
  }
  gpusim::Device* primary = devices[alive.front() * group_size];
  std::uint64_t sampled_global = 0;

  // Checkpoint-restored prefix, kept at run level so its singleton total
  // survives any group's death and failover re-commits restored sets from
  // the snapshot (re-sampling would count their singleton draws twice).
  const CheckpointState* ckpt = options.resume;
  std::uint64_t num_restored = 0;
  std::uint64_t restored_singletons = 0;
  std::vector<std::uint64_t> restore_starts;

  const auto stripe = [&](std::span<const std::uint64_t> ids) {
    std::vector<std::vector<std::uint64_t>> batch(num_flat);
    for (const std::uint64_t id : ids) {
      const std::uint32_t grp = alive[id % alive.size()];
      const auto d = static_cast<std::uint32_t>((id / alive.size()) % group_size);
      batch[grp * group_size + d].push_back(id);
    }
    return batch;
  };
  const auto place = [&](std::uint32_t f, std::uint64_t id) {
    owner_of[id] = f;
    slot_of[id] = assigned[f].size();
    assigned[f].push_back(id);
  };
  // Commit restored ids onto device f straight from the snapshot.
  const auto recommit = [&](std::uint32_t f, std::span<const std::uint64_t> ids) {
    std::uint64_t elems = 0;
    for (const std::uint64_t id : ids) elems += ckpt->lengths[id];
    shards[f]->reserve(assigned[f].size() + ids.size(),
                       shards[f]->total_elements() + elems);
    for (const std::uint64_t id : ids) {
      const std::span<const VertexId> set(ckpt->elements.data() + restore_starts[id],
                                          ckpt->lengths[id]);
      EIM_CHECK_MSG(shards[f]->try_commit(assigned[f].size(), set),
                    "checkpoint restore: set did not fit reserved shard capacity");
      place(f, id);
    }
    shards[f]->set_num_sets(assigned[f].size());
    devices[f]->transfer_to_device(
        "checkpoint restore",
        elems * sizeof(VertexId) + ids.size() * sizeof(std::uint32_t));
  };

  // Decommission a group: respill its ids and the in-flight ones into `todo`,
  // free its device state, and let the fabric price (or refuse) the recovery.
  const auto lose_group = [&](std::uint32_t grp, std::vector<std::uint64_t>& todo,
                              std::span<const std::uint64_t> in_flight) {
    std::uint64_t regenerated = 0;
    for (const std::uint32_t f : devices_of(grp)) {
      regenerated += assigned[f].size();
      todo.insert(todo.end(), assigned[f].begin(), assigned[f].end());
      assigned[f].clear();
      // Teardown is safe on a lost device: deallocation stays permitted.
      samplers[f].reset();
      shards[f].reset();
      network_charges[f] = gpusim::DeviceBuffer<std::uint8_t>{};
    }
    todo.insert(todo.end(), in_flight.begin(), in_flight.end());
    alive.erase(std::find(alive.begin(), alive.end(), grp));
    if (!alive.empty()) primary = devices[alive.front() * group_size];
    fabric.group_lost(grp, regenerated, regenerated + in_flight.size(), *primary, alive);
  };

  // Commit `todo` on the current alive set until every id lands somewhere; a
  // device fault retires its whole group (a host whose GPU died is drained).
  const auto regenerate = [&](std::vector<std::uint64_t>& todo) {
    while (!todo.empty()) {
      std::sort(todo.begin(), todo.end());
      const std::vector<std::vector<std::uint64_t>> batch = stripe(todo);
      todo.clear();
      const std::vector<std::uint32_t> round = alive;  // lose_group mutates alive
      for (const std::uint32_t grp : round) {
        for (const std::uint32_t f : devices_of(grp)) {
          if (batch[f].empty()) continue;
          const std::size_t committed_before = assigned[f].size();
          try {
            // Restored ids re-commit from the snapshot; only fresh ids
            // re-sample from their index-keyed streams.
            const auto fresh = std::partition_point(
                batch[f].begin(), batch[f].end(),
                [&](std::uint64_t id) { return id < num_restored; });
            if (fresh != batch[f].begin()) {
              recommit(f, std::span(batch[f].begin(), fresh));
            }
            if (fresh != batch[f].end()) {
              samplers[f]->sample_assigned(*shards[f],
                                           std::span(fresh, batch[f].end()));
              for (auto it = fresh; it != batch[f].end(); ++it) place(f, *it);
            }
            continue;
          } catch (const support::DeviceLostError&) {
          } catch (const support::DeviceFaultError&) {  // past the retry budget
          }
          // Ids committed before the fault (a re-committed restored prefix)
          // respill with the shard; the rest of the group's batch is in flight.
          std::vector<std::uint64_t> in_flight(
              batch[f].begin() + static_cast<std::ptrdiff_t>(assigned[f].size() -
                                                             committed_before),
              batch[f].end());
          for (std::uint32_t rest = f + 1; rest < (grp + 1) * group_size; ++rest) {
            in_flight.insert(in_flight.end(), batch[rest].begin(), batch[rest].end());
          }
          lose_group(grp, todo, in_flight);
          break;
        }
      }
    }
  };

  // Run a fabric op; a group it loses is decommissioned and its shard
  // regenerated on the survivors before the op re-runs over them.
  const auto with_failover = [&](auto&& op) {
    for (;;) {
      try {
        return op();
      } catch (const support::NodeLostError& e) {
        std::vector<std::uint64_t> todo;
        lose_group(e.node(), todo, {});
        regenerate(todo);
      }
    }
  };
  // Commit global ids [sampled_global, target) somewhere.
  const auto extend_to = [&](std::uint64_t target) {
    std::vector<std::uint64_t> todo(target - sampled_global);
    std::iota(todo.begin(), todo.end(), sampled_global);
    sampled_global = target;
    owner_of.resize(sampled_global);
    slot_of.resize(sampled_global);
    regenerate(todo);
  };

  with_failover([&] { fabric.distribute_network(result.network_bytes, alive); });

  // Resume: the snapshot holds sets in global id order, so a checkpoint from
  // any topology re-stripes over this run's alive set bit-identically.
  if (ckpt != nullptr) {
    validate_checkpoint(*ckpt, g, model, params, options);
    num_restored = ckpt->lengths.size();
    restore_starts.assign(num_restored + 1, 0);
    std::inclusive_scan(ckpt->lengths.begin(), ckpt->lengths.end(),
                        restore_starts.begin() + 1, std::plus<>{}, std::uint64_t{0});
    extend_to(num_restored);
    restored_singletons = ckpt->singletons_discarded;
    carry_resume(*primary, *ckpt, options);
  }
  std::uint64_t requested_global = sampled_global;
  for (const auto& shard : shards) {
    if (shard != nullptr) shard->attach_metrics(metrics);
  }

  // Sampling grows the committed prefix, then reduces the counts. Once the
  // fabric degrades the prefix is final and further θ is the shortfall.
  std::uint64_t sample_round = 0;
  auto sample_to = [&](std::uint64_t target) {
    requested_global = std::max(requested_global, target);
    if (target <= sampled_global || fabric.degraded()) return;
    std::optional<support::metrics::ScopedPhase> scope;
    if (sample_phase != nullptr) scope.emplace(*sample_phase);
    // The spans ride on the primary at the round's start, even if failover
    // promotes another mid-round.
    gpusim::Device* const span_dev = primary;
    const std::uint32_t span_pid =
        trace != nullptr ? trace->pid_of(span_dev).value_or(0) : 0;
    const double span_start = span_dev->timeline().total_seconds();
    support::trace::ScopedSpan phase_span(
        trace, span_pid, support::trace::SpanCategory::Phase, "sample", span_start);
    support::trace::ScopedSpan round_span(
        trace, span_pid, support::trace::SpanCategory::Round,
        "round " + std::to_string(sample_round++), span_start);

    extend_to(target);
    const std::uint64_t count_bytes =
        static_cast<std::uint64_t>(g.num_vertices()) * sizeof(std::uint32_t);
    with_failover([&] { fabric.reduce_counts(count_bytes, *primary, alive); });
    round_span.end(span_dev->timeline().total_seconds());
    phase_span.end(span_dev->timeline().total_seconds());
  };

  // Selection: exact greedy on the append-only host index; each pick costs
  // the slowest live shard scan plus the fabric's exchange. A group lost in
  // the exchange restarts the pass over the same index: same seeds.
  SelectionIndex index(g.num_vertices());
  auto select_once = [&] {
    std::optional<support::metrics::ScopedPhase> scope;
    if (select_phase != nullptr) scope.emplace(*select_phase);
    gpusim::Device* const span_dev = primary;
    const std::uint32_t span_pid =
        trace != nullptr ? trace->pid_of(span_dev).value_or(0) : 0;
    support::trace::ScopedSpan phase_span(trace, span_pid,
                                          support::trace::SpanCategory::Phase, "select",
                                          span_dev->timeline().total_seconds());
    // Regenerated sets are bit-identical: a relayout never stales the index.
    index.append(
        sampled_global,
        [&](std::uint64_t i) { return shards[owner_of[i]]->set_length(slot_of[i]); },
        [&](std::uint64_t i, std::span<VertexId> out) {
          shards[owner_of[i]]->decode_set(slot_of[i], out);
        },
        /*parallel=*/true);

    // Zero-gain tail picks still launch the kernel and round-trip the pick.
    const std::vector<std::uint32_t> live = live_devices();
    ShardScanCost scan(primary->spec(), index, owner_of, num_flat);
    GreedyHooks hooks;
    hooks.on_cover = std::bind_front(&ShardScanCost::cover, &scan);
    hooks.on_pick = [&](std::uint32_t) {
      primary->timeline().add(gpusim::SegmentKind::Kernel, "eim::multi_update",
                              scan.pick_seconds(live));
      fabric.exchange_pick(*primary, alive);
    };
    imm::SelectionResult sel =
        greedy_select(index, effective.k, ArgMaxMode::kLazyHeap, hooks);
    phase_span.end(span_dev->timeline().total_seconds());
    return sel;
  };

  // Devices run concurrently: the slowest one's kernels (pre-loss work too).
  const auto max_kernel_seconds = [&] {
    double max_kernel = 0.0;
    for (const gpusim::Device* d : devices) {
      max_kernel = std::max(max_kernel, d->timeline().kernel_seconds());
    }
    return max_kernel;
  };
  const auto singletons_discarded = [&] {
    std::uint64_t total = restored_singletons;
    for (const std::uint32_t f : live_devices()) {
      total += samplers[f]->singletons_discarded();
    }
    return total;
  };

  // Round-boundary checkpoints hold the shards merged in global id order.
  std::function<void(const imm::FrameworkRoundState&)> on_round;
  if (!options.checkpoint_dir.empty()) {
    on_round = [&](const imm::FrameworkRoundState& fr) {
      CheckpointState state;
      state.lengths.resize(sampled_global);
      for (std::uint64_t i = 0; i < sampled_global; ++i) {
        const std::uint32_t len = shards[owner_of[i]]->set_length(slot_of[i]);
        state.lengths[i] = len;
        const std::size_t at = state.elements.size();
        state.elements.resize(at + len);
        shards[owner_of[i]]->decode_set(slot_of[i],
                                        std::span(state.elements.data() + at, len));
      }
      state.singletons_discarded = singletons_discarded();
      state.kernel_seconds = max_kernel_seconds();
      state.transfer_seconds =
          primary->timeline().transfer_seconds() + fabric.network().transfer_seconds();
      state.allocation_seconds = primary->timeline().allocation_seconds();
      state.backoff_seconds =
          primary->timeline().backoff_seconds() + fabric.network().backoff_seconds();
      publish_checkpoint(state, g, model, effective, options, num_flat, fr, *primary);
    };
  }

  const imm::FrameworkOutcome outcome = imm::run_imm_framework(
      g.num_vertices(), effective, sample_to, [&] { return with_failover(select_once); },
      ckpt != nullptr ? &ckpt->round : nullptr, on_round);

  primary->transfer_to_host("seed set",
                            outcome.final_selection.seeds.size() * sizeof(VertexId));

  // Fold every device's ledger (dead ones' too) into its trace track.
  if (trace != nullptr) {
    for (const gpusim::Device* d : devices) {
      if (const auto pid = trace->pid_of(d); pid.has_value()) {
        gpusim::record_timeline_spans(*trace, *pid, d->timeline());
      }
    }
  }

  result.seeds = outcome.final_selection.seeds;
  result.num_sets = sampled_global;
  result.lower_bound = outcome.lower_bound;
  result.estimation_rounds = outcome.estimation_rounds;
  result.singletons_discarded = singletons_discarded();
  for (const std::uint32_t f : live_devices()) {
    result.total_elements += shards[f]->total_elements();
    result.rrr_bytes += shards[f]->stored_bytes();
    result.rrr_raw_bytes += shards[f]->raw_equivalent_bytes();
  }
  for (const gpusim::Device* d : devices) {
    result.peak_device_bytes =
        std::max(result.peak_device_bytes, d->memory().peak_bytes());
  }
  if (fabric.degraded()) {
    result.degraded = true;
    result.degrade_shortfall_samples = requested_global - sampled_global;
    // The same shortfall in bytes, priced at the committed sets' average
    // stored size, so every tier reports one `degrade_shortfall_bytes`.
    if (result.num_sets > 0) {
      result.degrade_shortfall_bytes =
          result.degrade_shortfall_samples * (result.rrr_bytes / result.num_sets);
    }
  }
  result.estimated_spread =
      kept_fraction_spread(g.num_vertices(), outcome.final_selection.coverage_fraction,
                           result.num_sets, result.singletons_discarded);

  // Modeled time: slowest kernels + the primary's transfers, allocation and
  // backoff + the fabric's own ledger.
  result.kernel_seconds = max_kernel_seconds();
  result.transfer_seconds = primary->timeline().transfer_seconds();
  result.device_seconds = result.kernel_seconds + result.transfer_seconds +
                          primary->timeline().allocation_seconds() +
                          primary->timeline().backoff_seconds() +
                          fabric.network().total_seconds();

  if (metrics != nullptr) {
    metrics->counter("imm.estimation_rounds").add(result.estimation_rounds);
    metrics->gauge("imm.theta").set(result.num_sets);
  }
  for (std::uint32_t f = 0; f < num_flat; ++f) {
    record_fault_deltas(metrics, faults_before[f], devices[f]->fault_stats());
  }
  fabric.finish();
  return result;
}

}  // namespace eim::eim_impl
