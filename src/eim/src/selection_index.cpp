#include "eim/eim/selection_index.hpp"

#include <algorithm>
#include <limits>

#include "eim/eim/rrr_collection.hpp"
#include "eim/support/error.hpp"
#include "eim/support/profiler.hpp"
#include "eim/support/thread_pool.hpp"

namespace eim::eim_impl {

using graph::VertexId;

namespace {

/// CELF-style lazy arg-max. Marginal counts only ever decrease as sets get
/// covered, so a max-heap keyed by *cached* counts holds an upper bound for
/// every vertex: a popped top whose cached count still matches its current
/// count is the true arg-max. Keys pack (count << 32) | ~v, so equal counts
/// order by the smallest id — exactly the linear reference scan's strict
/// `>` tie-break, which ArgMaxMode::kLinearReference keeps for the tests.
class LazyArgMaxHeap {
 public:
  explicit LazyArgMaxHeap(std::span<const std::uint32_t> counts) {
    keys_.reserve(counts.size());
    for (std::size_t v = 0; v < counts.size(); ++v) {
      keys_.push_back(pack(counts[v], static_cast<VertexId>(v)));
    }
    std::make_heap(keys_.begin(), keys_.end());
  }

  /// Pop the arg-max of `counts` over vertices not yet `chosen`, re-keying
  /// stale entries. Returns false when every remaining count is zero (the
  /// filler path); the heap is left intact.
  [[nodiscard]] bool pop_best(std::span<const std::uint32_t> counts,
                              std::span<const std::uint8_t> chosen, VertexId& best,
                              std::uint32_t& best_count) {
    while (!keys_.empty()) {
      std::pop_heap(keys_.begin(), keys_.end());
      const std::uint64_t key = keys_.back();
      keys_.pop_back();
      const auto v = static_cast<VertexId>(~static_cast<std::uint32_t>(key));
      if (chosen[v] != 0) continue;  // permanently drained
      const std::uint32_t current = counts[v];
      if (current != static_cast<std::uint32_t>(key >> 32)) {
        push(pack(current, v));  // stale upper bound: re-key and retry
        continue;
      }
      if (current == 0) {
        push(key);  // accurate top with count 0: all remaining counts are 0
        return false;
      }
      best = v;
      best_count = current;
      return true;
    }
    return false;
  }

 private:
  [[nodiscard]] static std::uint64_t pack(std::uint32_t cnt, VertexId v) noexcept {
    return (static_cast<std::uint64_t>(cnt) << 32) | static_cast<std::uint32_t>(~v);
  }
  void push(std::uint64_t key) {
    keys_.push_back(key);
    std::push_heap(keys_.begin(), keys_.end());
  }

  std::vector<std::uint64_t> keys_;
};

/// Build a segment's inverted index vertex -> local set ids. Deterministic
/// regardless of parallelism: sets are split into contiguous chunks, pass 1
/// counts each chunk's per-vertex occurrences, a serial prefix turns the
/// histograms into per-chunk write bases, and pass 2 scatters set ids at
/// those bases — reproducing the serial layout exactly (ids ascending
/// within each vertex's bucket).
void build_inverted_index(SelectionIndex::Segment& seg, VertexId n) {
  auto& pool = support::ThreadPool::global();
  const std::uint64_t num_sets = seg.size();
  const std::vector<std::uint64_t>& starts = seg.starts;
  const std::vector<VertexId>& flat = seg.members;
  // Parallelism only pays once the scatter dwarfs the O(chunks * n)
  // histogram footprint; small segments keep the single-chunk (serial)
  // path.
  const std::size_t num_chunks =
      (pool.size() > 1 && flat.size() >= 65536 && flat.size() >= n)
          ? std::min<std::size_t>(4 * pool.size(), static_cast<std::size_t>(num_sets))
          : 1;
  const auto chunk_begin = [&](std::size_t c) {
    return static_cast<std::uint64_t>(num_sets * c / num_chunks);
  };

  std::vector<std::vector<std::uint64_t>> hist(num_chunks);
  pool.parallel_for(
      0, num_chunks,
      [&](std::size_t c) {
        auto& h = hist[c];
        h.assign(static_cast<std::size_t>(n), 0);
        for (std::uint64_t p = starts[chunk_begin(c)]; p < starts[chunk_begin(c + 1)];
             ++p) {
          ++h[flat[p]];
        }
      },
      /*grain=*/1);

  // Serial prefix over (vertex, chunk): turns counts into write cursors.
  seg.bucket_offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  std::uint64_t running = 0;
  for (VertexId v = 0; v < n; ++v) {
    seg.bucket_offsets[v] = running;
    for (std::size_t c = 0; c < num_chunks; ++c) {
      const std::uint64_t cnt = hist[c][v];
      hist[c][v] = running;  // reuse as this chunk's write base for v
      running += cnt;
    }
  }
  seg.bucket_offsets[n] = running;

  seg.set_ids.resize(flat.size());
  pool.parallel_for(
      0, num_chunks,
      [&](std::size_t c) {
        auto& cursor = hist[c];
        for (std::uint64_t i = chunk_begin(c); i < chunk_begin(c + 1); ++i) {
          for (std::uint64_t p = starts[i]; p < starts[i + 1]; ++p) {
            seg.set_ids[cursor[flat[p]]++] = static_cast<std::uint32_t>(i);
          }
        }
      },
      /*grain=*/1);
}

}  // namespace

void SelectionIndex::reset(VertexId num_vertices) {
  n_ = num_vertices;
  num_sets_ = 0;
  collection_uid_ = 0;
  segments_.clear();
  counts_.assign(num_vertices, 0);
}

std::uint64_t SelectionIndex::append(std::uint64_t total, const LengthFn& length_of,
                                     const DecodeFn& decode, bool parallel) {
  if (total <= num_sets_) return 0;
  const std::uint64_t added = total - num_sets_;
  EIM_CHECK_MSG(added <= std::numeric_limits<std::uint32_t>::max(),
                "selection index segment exceeds u32 set ids");

  Segment seg;
  seg.first_set = num_sets_;
  seg.starts.resize(added + 1, 0);
  for (std::uint64_t j = 0; j < added; ++j) {
    seg.starts[j + 1] = seg.starts[j] + length_of(seg.first_set + j);
  }
  seg.members.resize(seg.starts[added]);
  {
    const support::profiler::ScopedWallTimer decode_scope(
        profile_ != nullptr ? &profile_->timer("codec.decode") : nullptr);
    // Disjoint output slices, so the parallel layout equals the serial one.
    const auto decode_one = [&](std::size_t j) {
      decode(seg.first_set + j,
             std::span<VertexId>(seg.members.data() + seg.starts[j],
                                 seg.starts[j + 1] - seg.starts[j]));
    };
    if (parallel) {
      support::ThreadPool::global().parallel_for(0, added, decode_one, /*grain=*/0);
    } else {
      for (std::uint64_t j = 0; j < added; ++j) decode_one(j);
    }
  }
  {
    const support::profiler::ScopedWallTimer preprocess_scope(
        profile_ != nullptr ? &profile_->timer("selector.preprocess") : nullptr);
    build_inverted_index(seg, n_);
    for (VertexId v = 0; v < n_; ++v) {
      counts_[v] += static_cast<std::uint32_t>(seg.bucket_offsets[v + 1] -
                                               seg.bucket_offsets[v]);
    }
  }
  const std::uint64_t elements = seg.members.size();
  num_sets_ = total;
  segments_.push_back(std::move(seg));
  return elements;
}

std::uint64_t SelectionIndex::sync(const DeviceRrrCollection& collection) {
  const std::uint64_t total = collection.num_sets();
  if (collection.uid() != collection_uid_ || total < num_sets_) {
    reset(collection.num_vertices());
    collection_uid_ = collection.uid();
  }
  std::uint64_t decoded = 0;
  const bool spilled = collection.has_spilled();
  if (spilled) {
    std::vector<VertexId> discard;
    for (std::uint64_t i = 0; i < num_sets_; ++i) {
      if (!collection.is_spilled(i)) continue;
      discard.resize(collection.set_length(i));
      collection.decode_set(i, discard);
      decoded += discard.size();
    }
  }
  return decoded + append(
                       total, [&](std::uint64_t i) { return collection.set_length(i); },
                       [&](std::uint64_t i, std::span<VertexId> out) {
                         collection.decode_set(i, out);
                       },
                       /*parallel=*/!spilled);
}

imm::SelectionResult greedy_select(const SelectionIndex& index, std::uint32_t k,
                                   ArgMaxMode mode, const GreedyHooks& hooks) {
  const VertexId n = index.num_vertices();
  std::vector<std::uint32_t> counts(index.counts().begin(), index.counts().end());
  // uint8_t, not vector<bool>: the bit proxies sit inside the inner
  // decrement loop and cost a shift+mask per touch.
  std::vector<std::uint8_t> covered(index.num_sets(), 0);
  std::vector<std::uint8_t> chosen(n, 0);
  imm::SelectionResult result;
  result.seeds.reserve(k);

  LazyArgMaxHeap heap{mode == ArgMaxMode::kLazyHeap
                          ? std::span<const std::uint32_t>(counts)
                          : std::span<const std::uint32_t>()};

  while (result.seeds.size() < k) {
    VertexId best = graph::kInvalidVertex;
    std::uint32_t best_count = 0;
    if (mode == ArgMaxMode::kLazyHeap) {
      if (!heap.pop_best(counts, chosen, best, best_count)) best = graph::kInvalidVertex;
    } else {
      for (VertexId v = 0; v < n; ++v) {
        if (chosen[v] == 0 && counts[v] > best_count) {
          best = v;
          best_count = counts[v];
        }
      }
    }
    if (best == graph::kInvalidVertex) {
      // Every set is covered; the remaining picks are tie-broken zeros.
      for (VertexId v = 0; v < n && result.seeds.size() < k; ++v) {
        if (chosen[v] == 0) {
          chosen[v] = 1;
          result.seeds.push_back(v);
          hooks.on_pick(0);
        }
      }
      break;
    }
    chosen[best] = 1;
    result.seeds.push_back(best);

    // Cover best's sets, segment by segment (global ids stay ascending),
    // and decrement their members' counts (Alg. 3 lines 10-12).
    for (const SelectionIndex::Segment& seg : index.segments()) {
      for (std::uint64_t idx = seg.bucket_offsets[best];
           idx < seg.bucket_offsets[best + 1]; ++idx) {
        const std::uint32_t local = seg.set_ids[idx];
        const std::uint64_t set_id = seg.first_set + local;
        if (covered[set_id] != 0) continue;
        covered[set_id] = 1;
        ++result.covered_sets;
        const std::uint64_t begin = seg.starts[local];
        const std::uint64_t end = seg.starts[local + 1];
        hooks.on_cover(set_id, static_cast<std::uint32_t>(end - begin));
        for (std::uint64_t p = begin; p < end; ++p) --counts[seg.members[p]];
      }
    }
    hooks.on_pick(best_count);
  }

  result.coverage_fraction =
      index.num_sets() == 0 ? 0.0
                            : static_cast<double>(result.covered_sets) /
                                  static_cast<double>(index.num_sets());
  return result;
}

ShardScanCost::ShardScanCost(const gpusim::DeviceSpec& spec, const SelectionIndex& index,
                             std::span<const std::uint32_t> owner_of,
                             std::uint32_t num_shards)
    : spec_(&spec),
      owner_of_(owner_of),
      g_lat_(spec.costs.global_latency),
      a_lat_(spec.costs.atomic_global),
      sets_(num_shards, 0),
      search_(num_shards, 0),
      dec_(num_shards, 0) {
  index.for_each_length([&](std::uint64_t i, std::uint32_t len) {
    ++sets_[owner_of_[i]];
    search_[owner_of_[i]] += binsearch_probes(len) * g_lat_;
  });
}

void ShardScanCost::cover(std::uint64_t set_id, std::uint32_t len) {
  const std::uint32_t owner = owner_of_[set_id];
  search_[owner] -= binsearch_probes(len) * g_lat_;
  dec_[owner] += static_cast<std::uint64_t>(len) * (g_lat_ + a_lat_);
}

double ShardScanCost::pick_seconds(std::span<const std::uint32_t> live) {
  const std::uint64_t units = spec_->max_resident_threads();
  double seconds = 0.0;
  for (const std::uint32_t s : live) {
    if (sets_[s] == 0) continue;
    const std::uint64_t total = sets_[s] * g_lat_ + search_[s] + dec_[s];
    const std::uint64_t used = std::max<std::uint64_t>(1, std::min(units, sets_[s]));
    seconds = std::max(seconds, spec_->costs.kernel_launch_us * 1e-6 +
                                    spec_->cycles_to_seconds(static_cast<double>(total / used)));
  }
  std::fill(dec_.begin(), dec_.end(), 0);
  return seconds;
}

}  // namespace eim::eim_impl
