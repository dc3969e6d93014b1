#include "query.hpp"

#include <time.h>

#include <chrono>
#include <memory>

#include "eim/eim/multi_gpu.hpp"
#include "eim/eim/pipeline.hpp"
#include "eim/eim/rrr_collection.hpp"
#include "eim/eim/sampler.hpp"
#include "eim/eim/seed_selector.hpp"
#include "eim/eim/tiered_store.hpp"
#include "eim/encoding/packed_csc.hpp"
#include "eim/gpusim/device.hpp"
#include "eim/imm/driver.hpp"
#include "eim/support/metrics.hpp"

namespace eim::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Simulated device memory per device: eim_cli's default.
constexpr std::uint64_t kDeviceMemoryMb = 512;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

eim_impl::EimOptions make_options(const QueryConfig& config) {
  eim_impl::EimOptions options;
  options.draw_mode = config.draw_mode;
  if (config.spill_budget_bytes > 0) {
    options.spill.policy = eim_impl::SpillPolicy::Spill;
    options.spill.device_budget_bytes = config.spill_budget_bytes;
    options.spill.dir = config.spill_dir;
  }
  return options;
}

std::vector<std::unique_ptr<gpusim::Device>> make_devices(const QueryConfig& config) {
  std::vector<std::unique_ptr<gpusim::Device>> devices;
  for (std::uint32_t d = 0; d < config.devices; ++d) {
    devices.push_back(std::make_unique<gpusim::Device>(
        gpusim::make_benchmark_device(kDeviceMemoryMb)));
  }
  return devices;
}

QueryOutcome run_with_options(const QueryConfig& config, const graph::Graph& g,
                              const eim_impl::EimOptions& options) {
  const double cpu_start = process_cpu_seconds();
  const auto start = Clock::now();
  QueryOutcome out;
  auto devices = make_devices(config);
  if (config.devices == 1) {
    out.result = eim_impl::run_eim(*devices.front(), g, config.model, config.params, options);
  } else {
    std::vector<gpusim::Device*> ptrs;
    for (const auto& d : devices) ptrs.push_back(d.get());
    const eim_impl::MultiGpuResult multi =
        eim_impl::run_eim_multi(ptrs, g, config.model, config.params, options);
    out.result = multi;
    out.communication_seconds = multi.communication_seconds;
  }
  out.wall_seconds = seconds_since(start);
  out.cpu_seconds = process_cpu_seconds() - cpu_start;
  return out;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer values every traced query reports, from the result and the
/// registry. Driver-specific timings are filled in by the callers.
void fill_common_layers(const QueryOutcome& q, support::metrics::MetricsRegistry& reg,
                        std::map<std::string, double>& layers) {
  const eim_impl::EimResult& r = q.result;
  const auto count = [&](std::string_view name) {
    return static_cast<double>(reg.counter(name).value());
  };
  layers["encoding.rrr_bytes_ratio"] =
      ratio(static_cast<double>(r.rrr_bytes), static_cast<double>(r.rrr_raw_bytes));
  const double committed = count("sampler.samples_committed");
  layers["sampler.commit_useful_ratio"] =
      ratio(committed, committed + count("sampler.commit_retries"));
  layers["sampler.singleton_regens"] = count("sampler.singleton_regens");
  layers["sampler.waves"] = count("sampler.waves");
  layers["sampler.draws_skipped"] = count("sampler.draws_skipped");
  layers["sampler.alias_picks"] = count("sampler.alias_picks");
  layers["selector.elements_decoded"] = count("selector.elements_decoded");
  layers["imm.theta"] = static_cast<double>(r.num_sets);
  layers["imm.estimation_rounds"] = static_cast<double>(r.estimation_rounds);
  layers["imm.select_calls"] = static_cast<double>(r.estimation_rounds) + 1.0;
  layers["rrr.commit_rejects"] = count("rrr.commit_rejects");
  layers["rrr.regrow_r"] = count("rrr.regrow_r");
  const double fetches = count("spill.fetches");
  layers["spill.evicted_sets"] = count("spill.evicted_sets");
  layers["spill.fetches"] = fetches;
  layers["spill.staging_hit_ratio"] = ratio(count("spill.staging_hits"), fetches);
  layers["spill.compressed_bytes"] = static_cast<double>(r.spill_bytes_compressed);
  layers["multi.communication_s"] = q.communication_seconds;
  layers["gpusim.kernel_s"] = r.kernel_seconds;
  layers["gpusim.transfer_s"] = r.transfer_seconds;

  // Time rows: the single-device seams and the multi-device phases are
  // exclusive, so each query fills one pair and the other reads zero.
  for (const char* name : {"encoding.pack_csc_s", "sampler.sample_s", "selector.select_s",
                           "multi.sample_s", "multi.select_s"}) {
    layers.emplace(name, 0.0);
  }
}

/// Derived per-layer rates and the unattributed remainder of the ledger.
void finish_layers(const QueryOutcome& q, std::map<std::string, double>& layers,
                   const std::vector<std::string>& ledger_rows) {
  const double sample_s = layers["sampler.sample_s"] + layers["multi.sample_s"];
  const double select_s = layers["selector.select_s"] + layers["multi.select_s"];
  layers["sampler.sets_per_s"] = ratio(layers["imm.theta"], sample_s);
  layers["selector.s_per_call"] = ratio(select_s, layers["imm.select_calls"]);
  double attributed = 0.0;
  for (const std::string& row : ledger_rows) attributed += layers[row];
  layers["pipeline.unattributed_s"] = q.wall_seconds - attributed;
}

/// run_eim, composed from the public pieces with a span around each call.
/// Mirrors src/eim/src/pipeline.cpp for a fault-free, non-resumed run.
TracedOutcome traced_single(const QueryConfig& config, const graph::Graph& g,
                            SpanRecorder& spans, std::uint64_t request) {
  TracedOutcome out;
  support::metrics::MetricsRegistry reg;
  eim_impl::EimOptions options = make_options(config);
  options.metrics = &reg;
  const auto start = Clock::now();
  {
    const ScopedSpan root(spans, "query", SpanRecorder::kNoParent, request);
    gpusim::Device device(gpusim::make_benchmark_device(kDeviceMemoryMb));
    imm::ImmParams effective = config.params;
    effective.eliminate_sources = options.eliminate_sources;
    eim_impl::EimResult& result = out.query.result;

    std::uint64_t network_bytes = 0;
    {
      const ScopedSpan span(spans, "encoding.pack_csc", root.id(), request);
      const encoding::PackedCsc packed(g);
      network_bytes = packed.packed_bytes();
    }
    auto network_charge = device.alloc<std::uint8_t>(network_bytes);
    device.transfer_to_device("network CSC", network_bytes);

    eim_impl::DeviceRrrCollection collection(device, g.num_vertices(), options.log_encode);
    eim_impl::EimSampler sampler(device, g, config.model, effective, options);
    eim_impl::GpuSeedSelector selector(device, options.scan);
    selector.attach_metrics(&reg);

    std::unique_ptr<eim_impl::TieredRrrStore> store;
    if (options.spill.policy != eim_impl::SpillPolicy::Off) {
      eim_impl::TieredStoreOptions store_options;
      store_options.dir = options.spill.dir;
      store_options.sets_per_block = options.spill.sets_per_block;
      store_options.staging_blocks = options.spill.staging_blocks;
      store = std::make_unique<eim_impl::TieredRrrStore>(device, store_options);
      store->attach_metrics(&reg);
      store->set_resample_hook(
          [&sampler](std::uint64_t set_id, std::vector<graph::VertexId>& members) {
            sampler.resample_set(set_id, members);
          });
      collection.attach_spill(store.get(), options.spill.device_budget_bytes);
    }
    collection.attach_metrics(&reg);

    const imm::FrameworkOutcome outcome = imm::run_imm_framework(
        g.num_vertices(), effective,
        [&](std::uint64_t target) {
          const ScopedSpan span(spans, "sampler.sample_to", root.id(), request);
          sampler.sample_to(collection, target);
        },
        [&] {
          const ScopedSpan span(spans, "selector.select", root.id(), request);
          return selector.select(collection, effective.k);
        });
    device.transfer_to_host("seed set",
                            outcome.final_selection.seeds.size() * sizeof(graph::VertexId));

    result.seeds = outcome.final_selection.seeds;
    result.num_sets = collection.num_sets();
    result.total_elements = collection.total_elements();
    result.lower_bound = outcome.lower_bound;
    result.estimation_rounds = outcome.estimation_rounds;
    result.singletons_discarded = sampler.singletons_discarded();
    const std::uint64_t generated = collection.num_sets() + result.singletons_discarded;
    const double kept = generated > 0 ? static_cast<double>(collection.num_sets()) /
                                            static_cast<double>(generated)
                                      : 1.0;
    result.estimated_spread = static_cast<double>(g.num_vertices()) *
                              outcome.final_selection.coverage_fraction * kept;
    result.device_seconds = device.timeline().total_seconds();
    result.kernel_seconds = device.timeline().kernel_seconds();
    result.transfer_seconds = device.timeline().transfer_seconds();
    result.peak_device_bytes = device.memory().peak_bytes();
    result.rrr_bytes = collection.stored_bytes();
    result.rrr_raw_bytes = collection.raw_equivalent_bytes();
    if (store != nullptr) {
      result.spilled_sets = store->spilled_sets();
      result.spill_bytes_compressed = store->compressed_bytes();
    }
    out.layers["encoding.pack_csc_s"] = spans.children_seconds(root.id(), "encoding.pack_csc");
    out.layers["sampler.sample_s"] = spans.children_seconds(root.id(), "sampler.sample_to");
    out.layers["selector.select_s"] = spans.children_seconds(root.id(), "selector.select");
  }
  out.query.wall_seconds = seconds_since(start);
  fill_common_layers(out.query, reg, out.layers);
  out.ledger_rows = {"encoding.pack_csc_s", "sampler.sample_s", "selector.select_s"};
  finish_layers(out.query, out.layers, out.ledger_rows);
  return out;
}

/// run_eim_multi with the metrics registry attached: its sample/select
/// phase timers are the finest seam the multi-device driver exposes.
TracedOutcome traced_multi(const QueryConfig& config, const graph::Graph& g,
                           SpanRecorder& spans, std::uint64_t request) {
  TracedOutcome out;
  support::metrics::MetricsRegistry reg;
  eim_impl::EimOptions options = make_options(config);
  options.metrics = &reg;
  {
    const ScopedSpan root(spans, "query", SpanRecorder::kNoParent, request);
    out.query = run_with_options(config, g, options);
  }
  out.layers["multi.sample_s"] = reg.phase("sample").wall_seconds();
  out.layers["multi.select_s"] = reg.phase("select").wall_seconds();
  fill_common_layers(out.query, reg, out.layers);
  out.ledger_rows = {"multi.sample_s", "multi.select_s"};
  finish_layers(out.query, out.layers, out.ledger_rows);
  return out;
}

}  // namespace

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

QueryOutcome run_query(const QueryConfig& config, const graph::Graph& g) {
  return run_with_options(config, g, make_options(config));
}

TracedOutcome run_traced_query(const QueryConfig& config, const graph::Graph& g,
                               SpanRecorder& spans, std::uint64_t request) {
  return config.devices == 1 ? traced_single(config, g, spans, request)
                             : traced_multi(config, g, spans, request);
}

}  // namespace eim::perfbench
