// One influence-maximization query as the benchmark issues it: a fixed
// (graph, model, draw mode, device count, k, epsilon, spill budget) run on
// fresh simulated devices.
//
// run_query() goes through the library's end-to-end entry points
// (eim_impl::run_eim / run_eim_multi) with no instrumentation attached.
// run_traced_query() composes the same single-device run from the public
// pieces — PackedCsc, DeviceRrrCollection, EimSampler, GpuSeedSelector,
// TieredRrrStore and imm::run_imm_framework — with benchmark-side spans
// around each call; the multi-device run has no finer public seam, so its
// traced form reads the EimOptions::metrics registry instead.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "eim/eim/options.hpp"
#include "eim/graph/graph.hpp"
#include "eim/graph/weights.hpp"
#include "eim/imm/params.hpp"
#include "spans.hpp"

namespace eim::perfbench {

struct QueryConfig {
  graph::DiffusionModel model = graph::DiffusionModel::IndependentCascade;
  eim_impl::DrawMode draw_mode = eim_impl::DrawMode::Exact;
  std::uint32_t devices = 1;
  /// k, epsilon and rng_seed; eliminate_sources follows EimOptions.
  imm::ImmParams params;
  /// Device byte cap on the RRR element array; 0 = no spill hierarchy.
  std::uint64_t spill_budget_bytes = 0;
  /// Directory for the spill store's disk tier (kept inside the checkout).
  std::string spill_dir;
};

struct QueryOutcome {
  eim_impl::EimResult result;
  /// Modeled count all-reduce / pick broadcast seconds (multi-device only).
  double communication_seconds = 0.0;
  /// Host wall seconds of the whole query, device construction included.
  double wall_seconds = 0.0;
  /// CPU seconds of the whole process (all threads) during the query.
  double cpu_seconds = 0.0;
};

/// CPU seconds used so far by every thread of this process.
[[nodiscard]] double process_cpu_seconds();

/// Untraced query through run_eim (1 device) or run_eim_multi (>1).
[[nodiscard]] QueryOutcome run_query(const QueryConfig& config, const graph::Graph& g);

struct TracedOutcome {
  QueryOutcome query;
  /// Per-layer metrics of this query, keyed by their benchmark names.
  std::map<std::string, double> layers;
  /// Ledger rows (names from `layers`) whose self times plus
  /// pipeline.unattributed_s sum to query.wall_seconds.
  std::vector<std::string> ledger_rows;
};

/// Traced query; every span is recorded under `request` in `spans`.
[[nodiscard]] TracedOutcome run_traced_query(const QueryConfig& config,
                                             const graph::Graph& g, SpanRecorder& spans,
                                             std::uint64_t request);

}  // namespace eim::perfbench
