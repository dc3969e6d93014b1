// imbench: closed-loop influence-maximization query benchmark.
//
// One client thread issues back-to-back IM queries for one fixed workload,
// each on fresh simulated devices, for a fixed wall budget, then checks
// every answer and prints the metrics. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//   imbench --workload NAME --seed N --seconds S --trace 0|1
//           --dataset WV --graph-seed G --model ic|lt --draw exact|skip --devices D
//           --k K --eps E [--spill-budget BYTES] [--expected-file PATH]
//           [--work-dir DIR] [--spans-out PATH]
//
// --trace 0 reports the end-to-end metrics with no instrumentation attached.
// --trace 1 alternates untraced queries with traced ones (benchmark-side
// spans around the library's public seams) and reports the per-layer
// metrics, the per-layer ledger and the tracing overhead. perfbench/README.md
// documents every metric.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "eim/graph/registry.hpp"
#include "eim/support/thread_pool.hpp"
#include "query.hpp"
#include "spans.hpp"

namespace eim::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// The traced run's set-up repeats until it has run this long and this often.
// The untraced run times kMinSetupReps builds before the first query and
// builds again for kSetupSecondsPerQuery after every query, so its set-up
// median samples the host across the whole run, not one moment of it. The
// loop issues at least kMinQueries so the bit-identity check always compares
// answers.
constexpr double kSetupSeconds = 0.5;
constexpr std::size_t kMinSetupReps = 5;
constexpr double kSetupSecondsPerQuery = 0.1;
constexpr std::size_t kMinQueries = 3;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  /// Query RNG seed (ImmParams::rng_seed).
  std::uint64_t seed = 0;
  /// Dataset generator seed (graph::build_dataset); fixed per workload.
  std::uint64_t graph_seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string dataset;
  QueryConfig query;
  std::string expected_file;
  std::string work_dir = ".";
  std::string spans_out;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "imbench: %s\n", message.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  bool have_graph_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--graph-seed") {
      a.graph_seed = std::stoull(value);
      have_graph_seed = true;
    } else if (flag == "--dataset") {
      a.dataset = value;
    } else if (flag == "--model") {
      if (value != "ic" && value != "lt") usage_error("--model must be ic or lt");
      a.query.model = value == "ic" ? graph::DiffusionModel::IndependentCascade
                                    : graph::DiffusionModel::LinearThreshold;
    } else if (flag == "--draw") {
      if (value != "exact" && value != "skip") usage_error("--draw must be exact or skip");
      a.query.draw_mode =
          value == "skip" ? eim_impl::DrawMode::Skip : eim_impl::DrawMode::Exact;
    } else if (flag == "--devices") {
      a.query.devices = static_cast<std::uint32_t>(std::stoul(value));
    } else if (flag == "--k") {
      a.query.params.k = static_cast<std::uint32_t>(std::stoul(value));
    } else if (flag == "--eps") {
      a.query.params.epsilon = std::stod(value);
    } else if (flag == "--spill-budget") {
      a.query.spill_budget_bytes = std::stoull(value);
    } else if (flag == "--expected-file") {
      a.expected_file = value;
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else {
      usage_error("unknown flag " + std::string(flag));
    }
  }
  if (a.workload.empty() || a.dataset.empty() || !have_seed || !have_graph_seed ||
      a.seconds <= 0.0) {
    usage_error("need --workload, --dataset, --seed, --graph-seed and --seconds > 0");
  }
  if (a.query.devices == 0) usage_error("--devices must be at least 1");
  a.query.params.rng_seed = a.seed;
  a.query.spill_dir = a.work_dir + "/spill";
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The closed loop's wall budget: another query is issued only while a
/// typical (median) query still fits, so a run measures about `seconds`.
class QueryClock {
 public:
  explicit QueryClock(double seconds) : budget_(seconds), start_(Clock::now()) {}
  void add(double query_seconds) { durations_.push_back(query_seconds); }
  [[nodiscard]] bool next_fits() const {
    return seconds_since(start_) + median(durations_) <= budget_;
  }

 private:
  double budget_;
  Clock::time_point start_;
  std::vector<double> durations_;
};

/// Committed answer for one (workload, seed): theta and the seed list.
struct Expected {
  std::uint64_t theta = 0;
  std::vector<graph::VertexId> seeds;
};

/// File format: "theta <n>" on one line, "seeds <v1> <v2> ..." on the next.
Expected load_expected(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage_error("cannot read expected file " + path);
  Expected e;
  std::string key;
  while (in >> key) {
    if (key == "theta") {
      in >> e.theta;
    } else if (key == "seeds") {
      graph::VertexId v = 0;
      while (in >> v) e.seeds.push_back(v);
    }
  }
  return e;
}

/// One answered (or failed) query and the first check it failed, if any.
struct Record {
  std::optional<QueryOutcome> outcome;
  std::string failure;
};

Record attempt(const std::function<QueryOutcome()>& query) {
  Record r;
  try {
    r.outcome = query();
  } catch (const std::exception& e) {
    r.failure = std::string("threw: ") + e.what();
  }
  return r;
}

/// Applies every correctness check to the records that have not failed yet.
class Checker {
 public:
  Checker(const Args& args, const graph::Graph& g) : args_(&args) {
    if (!args.expected_file.empty()) expected_ = load_expected(args.expected_file);
    // Reference answers from a different execution path, run untimed.
    QueryConfig ref = args.query;
    if (args.query.spill_budget_bytes > 0) {
      ref.spill_budget_bytes = 0;
      reference_name_ = "unconstrained (no spill) run";
    } else if (args.query.devices > 1) {
      ref.devices = 1;
      reference_name_ = "single-device run";
    }
    if (!reference_name_.empty()) {
      const Record r = attempt([&] { return run_query(ref, g); });
      if (r.outcome) {
        reference_ = r.outcome->result.seeds;
      } else {
        reference_error_ = r.failure;
      }
    }
  }

  /// `anchor` is the seed list every query of the run must reproduce.
  void check(Record& r, const std::vector<graph::VertexId>& anchor) const {
    if (!r.failure.empty()) return;
    const eim_impl::EimResult& res = r.outcome->result;
    if (res.degraded) {
      r.failure = "degraded result";
    } else if (res.seeds != anchor) {
      r.failure = "seeds differ from the run's first query";
    } else if (args_->query.spill_budget_bytes > 0 && res.spilled_sets == 0) {
      r.failure = "spill budget set but no set spilled";
    } else if (args_->query.spill_budget_bytes == 0 && res.spilled_sets != 0) {
      r.failure = "sets spilled without a spill budget";
    } else if (!reference_error_.empty()) {
      r.failure = reference_name_ + " failed: " + reference_error_;
    } else if (!reference_name_.empty() && res.seeds != reference_) {
      r.failure = "seeds differ from the " + reference_name_;
    } else if (expected_ && (res.seeds != expected_->seeds || res.num_sets != expected_->theta)) {
      r.failure = "seeds or theta differ from the expected file";
    }
  }

 private:
  const Args* args_;
  std::optional<Expected> expected_;
  std::string reference_name_;
  std::vector<graph::VertexId> reference_;
  std::string reference_error_;
};

const std::vector<graph::VertexId>* first_answer(const std::vector<Record>& records) {
  for (const Record& r : records) {
    if (r.outcome) return &r.outcome->result.seeds;
  }
  return nullptr;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

std::size_t report_failures(const std::vector<Record>& records) {
  std::size_t failed = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].failure.empty()) continue;
    ++failed;
    std::fprintf(stderr, "imbench: query %zu failed: %s\n", i, records[i].failure.c_str());
  }
  return failed;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB
}

int run_untraced(const Args& args, const graph::DatasetSpec& spec) {
  // Set-up: the dataset build (edges, CSC, weights, DrawPlan), repeated and
  // timed in process CPU seconds, like the queries below.
  std::vector<double> setup_cpu, setup_wall;
  const auto timed_build = [&] {
    const double cpu_start = process_cpu_seconds();
    const auto start = Clock::now();
    graph::Graph built = graph::build_dataset(spec, args.query.model, args.graph_seed);
    setup_wall.push_back(seconds_since(start));
    setup_cpu.push_back(process_cpu_seconds() - cpu_start);
    return built;
  };
  const graph::Graph g = timed_build();
  while (setup_cpu.size() < kMinSetupReps) (void)timed_build();

  // Host peak is read after the first query: set-up plus one query in a
  // fresh process. Later queries add allocator carry-over that varies run
  // to run with the order in which worker threads free their scratch.
  std::vector<Record> records;
  double host_peak_mb = 0.0;
  QueryClock clock(args.seconds);
  while (records.size() < kMinQueries || clock.next_fits()) {
    const auto start = Clock::now();
    records.push_back(attempt([&] { return run_query(args.query, g); }));
    clock.add(seconds_since(start));
    if (records.size() == 1) host_peak_mb = peak_rss_mb();
    const auto setup_start = Clock::now();
    do {
      (void)timed_build();
    } while (seconds_since(setup_start) < kSetupSecondsPerQuery);
  }

  const Checker checker(args, g);
  const std::vector<graph::VertexId>* anchor = first_answer(records);
  std::vector<double> solve_cpu, solve_wall, device, peak, spread;
  for (Record& r : records) {
    if (anchor != nullptr) checker.check(r, *anchor);
    if (!r.failure.empty()) continue;
    const eim_impl::EimResult& res = r.outcome->result;
    solve_cpu.push_back(r.outcome->cpu_seconds);
    solve_wall.push_back(r.outcome->wall_seconds);
    device.push_back(res.device_seconds);
    peak.push_back(static_cast<double>(res.peak_device_bytes) / 1e6);
    spread.push_back(res.estimated_spread);
  }
  const std::size_t failed = report_failures(records);
  const std::size_t attempted = records.size();
  std::printf("queries: %zu attempted, %zu failed; solve_cpu_s is the median of %zu\n",
              attempted, failed, solve_cpu.size());
  std::printf("  cpu s: ");
  for (const double t : solve_cpu) std::printf(" %.3f", t);
  std::printf("\n  wall s:");
  for (const double t : solve_wall) std::printf(" %.3f", t);
  std::printf("\n  median wall s %.6f per query, %.6f per set-up (no bound: it moves with host "
              "load)\n",
              median(solve_wall), median(setup_wall));
  print_result(failed == 0, attempted, failed,
               {{"solve_cpu_s", "s", median(solve_cpu)},
                {"setup_s", "s", median(setup_cpu)},
                {"device_s", "s", median(device)},
                {"device_peak_mb", "MB", median(peak)},
                {"host_peak_mb", "MB", host_peak_mb},
                {"spread_est", "vertices", median(spread)},
                {"ok_frac", "fraction",
                 static_cast<double>(attempted - failed) / static_cast<double>(attempted)}});
  return 0;
}

/// Per-layer metric names and units, in report order. Time rows that no
/// ledger of this workload uses read zero.
const std::vector<std::pair<std::string, std::string>>& layer_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"graph.build_s", "s"},
      {"graph.weights_s", "s"},
      {"encoding.pack_csc_s", "s"},
      {"encoding.rrr_bytes_ratio", "ratio"},
      {"sampler.sample_s", "s"},
      {"sampler.sets_per_s", "1/s"},
      {"sampler.commit_useful_ratio", "ratio"},
      {"sampler.singleton_regens", "count"},
      {"sampler.waves", "count"},
      {"sampler.draws_skipped", "count"},
      {"sampler.alias_picks", "count"},
      {"selector.select_s", "s"},
      {"selector.s_per_call", "s"},
      {"selector.elements_decoded", "count"},
      {"imm.theta", "count"},
      {"imm.estimation_rounds", "count"},
      {"imm.select_calls", "count"},
      {"rrr.commit_rejects", "count"},
      {"rrr.regrow_r", "count"},
      {"spill.evicted_sets", "count"},
      {"spill.fetches", "count"},
      {"spill.staging_hit_ratio", "ratio"},
      {"spill.compressed_bytes", "bytes"},
      {"multi.communication_s", "s"},
      {"multi.sample_s", "s"},
      {"multi.select_s", "s"},
      {"gpusim.kernel_s", "s"},
      {"gpusim.transfer_s", "s"},
      {"pipeline.unattributed_s", "s"},
      {"trace.solve_s", "s"},
      {"trace.overhead_s", "s"},
      {"solve.wall_s", "s"},
      {"solve.parallelism", "ratio"},
  };
  return units;
}

int run_traced(const Args& args, const graph::DatasetSpec& spec) {
  SpanRecorder spans;
  // Set-up split into its two layers; the queries use build_dataset's graph.
  std::vector<double> build_times, weight_times;
  const auto setup_start = Clock::now();
  while (build_times.size() < kMinSetupReps || seconds_since(setup_start) < kSetupSeconds) {
    const ScopedSpan setup(spans, "setup", SpanRecorder::kNoParent, 0);
    graph::Graph g;
    {
      const ScopedSpan span(spans, "graph.build", setup.id(), 0);
      g = graph::Graph::from_edge_list(graph::build_dataset_edges(spec, args.graph_seed));
    }
    {
      const ScopedSpan span(spans, "graph.weights", setup.id(), 0);
      graph::assign_weights(g, args.query.model,
                            graph::WeightParams{.scheme = graph::WeightScheme::InDegree,
                                                .seed = args.graph_seed});
    }
    build_times.push_back(spans.children_seconds(setup.id(), "graph.build"));
    weight_times.push_back(spans.children_seconds(setup.id(), "graph.weights"));
  }
  const graph::Graph g = graph::build_dataset(spec, args.query.model, args.graph_seed);

  // Alternate untraced and traced queries so both see the same host state.
  std::vector<Record> untraced;
  std::vector<Record> traced;
  std::vector<TracedOutcome> traced_layers;
  QueryClock clock(args.seconds);
  for (std::uint64_t request = 1; untraced.empty() || traced.empty() || clock.next_fits();
       ++request) {
    const auto start = Clock::now();
    if (request % 2 == 1) {
      untraced.push_back(attempt([&] { return run_query(args.query, g); }));
      clock.add(seconds_since(start));
      continue;
    }
    Record r;
    try {
      traced_layers.push_back(run_traced_query(args.query, g, spans, request));
      r.outcome = traced_layers.back().query;
    } catch (const std::exception& e) {
      r.failure = std::string("traced query threw: ") + e.what();
    }
    traced.push_back(std::move(r));
    clock.add(seconds_since(start));
  }

  // Every traced answer must equal run_eim's (the first untraced answer).
  const Checker checker(args, g);
  const std::vector<graph::VertexId>* anchor = first_answer(untraced);
  std::vector<Record> all = untraced;
  all.insert(all.end(), traced.begin(), traced.end());
  for (Record& r : all) {
    if (anchor == nullptr && r.failure.empty()) r.failure = "no untraced query succeeded";
    if (anchor != nullptr) checker.check(r, *anchor);
  }
  const std::size_t failed = report_failures(all);

  std::vector<double> untraced_solve, parallelism;
  for (const Record& r : untraced) {
    if (!r.outcome) continue;
    untraced_solve.push_back(r.outcome->wall_seconds);
    parallelism.push_back(r.outcome->cpu_seconds / r.outcome->wall_seconds);
  }
  std::map<std::string, double> layers;
  for (const auto& [name, unit] : layer_units()) layers[name] = 0.0;
  // Wall time per query is reported here, without a bound: on a shared host
  // it moves with the neighbours' load far more than solve_cpu_s does.
  layers["solve.wall_s"] = median(untraced_solve);
  layers["solve.parallelism"] = median(parallelism);
  if (!traced_layers.empty()) {
    // Report the traced query with the median wall time, so its ledger
    // rows sum exactly to the reported traced solve_s.
    std::vector<const TracedOutcome*> order;
    for (const TracedOutcome& t : traced_layers) order.push_back(&t);
    std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
      return a->query.wall_seconds < b->query.wall_seconds;
    });
    const TracedOutcome& mid = *order[(order.size() - 1) / 2];
    for (const auto& [name, value] : mid.layers) layers[name] = value;
    layers["trace.solve_s"] = mid.query.wall_seconds;
    layers["trace.overhead_s"] = median([&] {
      std::vector<double> v;
      for (const TracedOutcome* t : order) v.push_back(t->query.wall_seconds);
      return v;
    }()) - median(untraced_solve);

    std::printf("ledger (median traced query, self seconds):\n");
    double sum = 0.0;
    std::vector<std::string> rows = mid.ledger_rows;
    rows.emplace_back("pipeline.unattributed_s");
    for (const std::string& row : rows) {
      std::printf("  %-28s %12.6f  %5.1f%%\n", row.c_str(), layers[row],
                  100.0 * layers[row] / mid.query.wall_seconds);
      sum += layers[row];
    }
    std::printf("  %-28s %12.6f  (traced solve_s %.6f)\n", "sum", sum,
                mid.query.wall_seconds);
  }
  layers["graph.build_s"] = median(build_times);
  layers["graph.weights_s"] = median(weight_times);

  if (!args.spans_out.empty()) {
    std::ofstream out(args.spans_out);
    spans.write_json(out);
  }
  std::printf("queries: %zu untraced + %zu traced, %zu failed\n", untraced.size(),
              traced.size(), failed);
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : layer_units()) metrics.push_back({name, unit, layers[name]});
  print_result(failed == 0, all.size(), failed, metrics);
  return 0;
}

}  // namespace
}  // namespace eim::perfbench

int main(int argc, char** argv) {
  using namespace eim::perfbench;
  const Args args = parse_args(argc, argv);
  const auto spec = eim::graph::find_dataset(args.dataset);
  if (!spec) usage_error("unknown dataset " + args.dataset);
  std::printf("workload %s seed %llu: dataset %s (graph seed %llu), k=%u, eps=%g, devices=%u, "
              "spill budget %llu B, pool %zu threads\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.dataset.c_str(), static_cast<unsigned long long>(args.graph_seed),
              args.query.params.k, args.query.params.epsilon,
              args.query.devices,
              static_cast<unsigned long long>(args.query.spill_budget_bytes),
              eim::support::ThreadPool::global().size());
  return args.trace ? run_traced(args, *spec) : run_untraced(args, *spec);
}
