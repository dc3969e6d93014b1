// Append-only host index behind every eIM seed selector (paper §3.5, Alg. 3).
//
// The IMM loop (Alg. 1) only ever appends RRR sets between selections, so
// the host mirror the exact greedy runs over is kept across calls instead of
// rebuilt: each call that finds new sets decodes just those into a fresh
// segment and builds that segment's inverted index (vertex -> local set
// ids, u32). Earlier segments are never touched again. The per-vertex
// frequency counts C are the running sum of the segments' bucket sizes, so
// C needs no per-element atomics on the commit path.
//
// One greedy loop (greedy_select) serves the single-device selector and the
// multi-GPU / multi-node coordinators; each passes its own modeled-cost
// hooks, because only the simulator's charges differ between them — the
// host answer is the same exact greedy over the same sets.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "eim/gpusim/device_spec.hpp"
#include "eim/graph/types.hpp"
#include "eim/imm/seed_selection.hpp"
#include "eim/support/bits.hpp"

namespace eim::support::profiler {
class WallProfile;
}  // namespace eim::support::profiler

namespace eim::eim_impl {

class DeviceRrrCollection;

/// How the host computes each pick's arg-max. Both produce bit-identical
/// seed sequences (same tie-break: smallest vertex id among maximal
/// counts); LinearReference exists so tests can property-check the heap
/// against the obviously-correct O(n)-per-pick scan.
enum class ArgMaxMode : std::uint8_t {
  kLazyHeap,         ///< CELF-style lazy max-heap (default, O(log n) amortized)
  kLinearReference,  ///< full scan per pick — test-only reference
};

/// Scalar binary-search cost in global reads: probes of a sorted set.
[[nodiscard]] inline std::uint64_t binsearch_probes(std::uint32_t len) {
  return 1 + support::ceil_log2(std::max<std::uint32_t>(2, len));
}

class SelectionIndex {
 public:
  /// The sets one append added: global ids [first_set, first_set + size).
  struct Segment {
    std::uint64_t first_set = 0;
    std::vector<std::uint64_t> starts;          ///< member offsets, size sets+1
    std::vector<graph::VertexId> members;       ///< decoded sets, concatenated
    std::vector<std::uint64_t> bucket_offsets;  ///< v's ids: [off[v], off[v+1])
    std::vector<std::uint32_t> set_ids;         ///< local ids, ascending per vertex

    [[nodiscard]] std::uint64_t size() const noexcept { return starts.size() - 1; }
  };

  using LengthFn = std::function<std::uint32_t(std::uint64_t)>;
  using DecodeFn = std::function<void(std::uint64_t, std::span<graph::VertexId>)>;

  explicit SelectionIndex(graph::VertexId num_vertices = 0) { reset(num_vertices); }

  /// Decode and index global sets [num_sets(), total) as one new segment;
  /// a no-op when nothing was added. `length_of(i)` / `decode(i, out)` read
  /// set i. Decoding fans out over the thread pool unless `parallel` is
  /// false (callers whose decode has ordered side effects). Returns the
  /// number of elements decoded.
  std::uint64_t append(std::uint64_t total, const LengthFn& length_of,
                       const DecodeFn& decode, bool parallel);

  /// Bring the index up to `collection`'s committed prefix, resetting it
  /// first when the collection's uid changes or its set count shrinks.
  /// Under spill, already-indexed sets that have since been evicted are
  /// still streamed through the store, in set order, and discarded — the
  /// spill traffic and its modeled transfers match a full re-decode, and
  /// the appended sets then decode serially. Returns the elements decoded
  /// (appended plus re-streamed).
  std::uint64_t sync(const DeviceRrrCollection& collection);

  [[nodiscard]] graph::VertexId num_vertices() const noexcept { return n_; }
  [[nodiscard]] std::uint64_t num_sets() const noexcept { return num_sets_; }
  /// Per-vertex frequency counts C over every indexed set.
  [[nodiscard]] std::span<const std::uint32_t> counts() const noexcept { return counts_; }
  [[nodiscard]] const std::vector<Segment>& segments() const noexcept { return segments_; }

  /// Call fn(global set id, length) for every indexed set, in id order.
  template <typename Fn>
  void for_each_length(Fn&& fn) const {
    for (const Segment& seg : segments_) {
      for (std::uint64_t j = 0; j < seg.size(); ++j) {
        fn(seg.first_set + j, static_cast<std::uint32_t>(seg.starts[j + 1] - seg.starts[j]));
      }
    }
  }

  /// Wire host wall-clock attribution (codec.decode, selector.preprocess)
  /// into `profile` (nullptr detaches); both cover appended sets only.
  void attach_profile(support::profiler::WallProfile* profile) noexcept {
    profile_ = profile;
  }

 private:
  /// Drop every segment and start over for a graph of `num_vertices`.
  void reset(graph::VertexId num_vertices);

  graph::VertexId n_ = 0;
  std::uint64_t num_sets_ = 0;
  std::uint64_t collection_uid_ = 0;  ///< 0 = not keyed to a collection
  std::vector<Segment> segments_;
  std::vector<std::uint32_t> counts_;
  support::profiler::WallProfile* profile_ = nullptr;
};

/// Modeled-cost hooks of greedy_select. `on_cover(set, len)` runs once per
/// newly covered set; `on_pick(gain)` runs after each pick's covering, with
/// gain 0 for the zero-gain filler picks that complete a saturated run.
struct GreedyHooks {
  std::function<void(std::uint64_t, std::uint32_t)> on_cover;
  std::function<void(std::uint32_t)> on_pick;
};

/// The exact k-pick greedy over `index`: arg-max by count (ties to the
/// smallest id), cover the pick's uncovered sets and decrement their
/// members' counts; once every set is covered, the remaining picks are the
/// smallest unchosen ids.
[[nodiscard]] imm::SelectionResult greedy_select(const SelectionIndex& index,
                                                 std::uint32_t k, ArgMaxMode mode,
                                                 const GreedyHooks& hooks);

/// Per-pick update-scan cost of the sharded (multi-GPU / multi-node)
/// coordinators: every live shard scans its own sets concurrently, one
/// thread per set, and the slowest shard governs the pick.
class ShardScanCost {
 public:
  ShardScanCost(const gpusim::DeviceSpec& spec, const SelectionIndex& index,
                std::span<const std::uint32_t> owner_of, std::uint32_t num_shards);

  /// Set `set_id` left the uncovered population; its owner walks it.
  void cover(std::uint64_t set_id, std::uint32_t len);
  /// The pick's scan makespan over `live` shards; clears its decrements.
  [[nodiscard]] double pick_seconds(std::span<const std::uint32_t> live);

 private:
  const gpusim::DeviceSpec* spec_;
  std::span<const std::uint32_t> owner_of_;
  std::uint64_t g_lat_;
  std::uint64_t a_lat_;
  std::vector<std::uint64_t> sets_;
  std::vector<std::uint64_t> search_;
  std::vector<std::uint64_t> dec_;
};

}  // namespace eim::eim_impl
