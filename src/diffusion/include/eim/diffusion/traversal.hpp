// The one traversal core (paper §3.2-§3.3) that the eIM kernel, the gIM
// baseline, the serial reference (RrrSampler) and forward IC all run:
//
//  * ic_bfs — the queue-is-the-set BFS. The queue holds every visited vertex
//    in discovery order; a draw policy expands each dequeued vertex's slice
//    (in-edges for RRR sampling, out-edges for a forward cascade).
//  * lt_walk — the single-activator LT walk: each step picks at most one
//    in-neighbor; the walk stops when no one is picked or a loop closes.
//
// Exact draws (one float per unvisited edge via support::ic_sweep, the LT
// pick by a sequential cumulative-weight sum) are the library's draw-order
// contract; every exact-mode caller runs this same code, so their
// collections agree by construction. Skip is eIM's DrawPlan fast path.
//
// Modeled cost is a template parameter: a meter prices the events below
// (NullMeter prices nothing). The device meters live with their kernels,
// so this library needs no simulator dependency.
//
//   dequeue()          one frontier vertex read off the queue
//   slice(deg)         an exact sweep over a deg-edge slice
//   activate(len)      a vertex joined the queue, which is now len long
//   draw()             lane 0 drew one uniform (LT tau, a geometric skip)
//   lt_scan(deg, stop) an exact LT pick scanned in-edges [0, stop) of deg
//   probe()            one gathered neighbor id or alias-table line (Skip)
//   broadcast(deg)     a Saturated slice read in full (Skip)
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "eim/graph/draw_plan.hpp"
#include "eim/graph/graph.hpp"
#include "eim/graph/weights.hpp"
#include "eim/support/ic_sweep.hpp"
#include "eim/support/rng.hpp"

namespace eim::diffusion::traversal {

using graph::VertexId;
using support::RandomStream;

/// The state a traversal runs in, one per serial sampler or per simulated
/// block: the queue (which IS the result set), the visited array M as
/// epoch stamps, and the bulk activation-draw buffer.
struct Scratch {
  std::vector<VertexId> queue;       ///< visited vertices in discovery order
  std::vector<std::uint32_t> stamp;  ///< visited iff stamp[v] == epoch
  std::uint32_t epoch = 0;
  support::FloatDrawBuffer draws;

  /// Start a traversal over `n` vertices with `sources` queued, each once,
  /// in first-occurrence order. A fresh epoch stands in for clearing M; the
  /// stamps are allocated on first use (an idle block never pays the n-word
  /// touch) and wiped only when the epoch wraps.
  void begin(std::size_t n, std::span<const VertexId> sources) {
    if (stamp.size() != n) stamp.assign(n, 0);
    if (++epoch == 0) {
      std::fill(stamp.begin(), stamp.end(), 0u);
      epoch = 1;
    }
    queue.clear();
    for (const VertexId s : sources) {
      if (stamp[s] == epoch) continue;
      stamp[s] = epoch;
      queue.push_back(s);
    }
  }
  void begin(std::size_t n, VertexId source) { begin(n, std::span(&source, 1)); }
};

/// Prices nothing: the serial reference and forward IC.
struct NullMeter {
  void dequeue() noexcept {}
  void slice(std::size_t) noexcept {}
  void activate(std::size_t) noexcept {}
  void draw() noexcept {}
  void lt_scan(std::size_t, std::size_t) noexcept {}
};

/// Lane counts of the warp chunks an exact LT pick scanned: the chunks of
/// `warp` in-edges up to the one holding edge stop - 1.
template <typename PerChunk>
void for_each_lt_chunk(std::size_t deg, std::size_t stop, std::size_t warp,
                       PerChunk&& per_chunk) {
  const std::size_t covered = std::min(deg, (stop + warp - 1) / warp * warp);
  for (std::size_t c = 0; c < covered; c += warp) per_chunk(std::min(warp, covered - c));
}

/// Queue-is-the-set BFS from the sources already queued in `s`.
template <typename Draws, typename Meter>
void ic_bfs(Scratch& s, RandomStream& rng, Draws& draws, Meter& meter) {
  // The callee stamps v before this runs (Alg. 2 l.18).
  const auto enqueue = [&](VertexId v) {
    s.queue.push_back(v);
    draws.enqueued(v);
    meter.activate(s.queue.size());
  };
  draws.begin(s, rng);
  for (std::size_t head = 0; head < s.queue.size(); ++head) {
    meter.dequeue();
    draws.expand(s, rng, meter, head, enqueue);
  }
  draws.finish(s, rng);
}

/// Single-activator LT walk from the one source queued in `s`.
template <typename Draws, typename Meter>
void lt_walk(Scratch& s, RandomStream& rng, Draws& draws, Meter& meter) {
  for (VertexId u = s.queue.front();;) {
    const VertexId chosen = draws.pick(u, rng, meter);
    if (chosen == graph::kInvalidVertex) break;  // no in-edges, or tau in the gap
    if (s.stamp[chosen] == s.epoch) break;       // the walk closed a loop
    s.stamp[chosen] = s.epoch;
    s.queue.push_back(chosen);
    meter.activate(s.queue.size());
    u = chosen;
  }
}

/// The model's traversal: IC BFS or LT walk.
template <typename Draws, typename Meter>
void run(graph::DiffusionModel model, Scratch& s, RandomStream& rng, Draws& draws,
         Meter& meter) {
  if (model == graph::DiffusionModel::IndependentCascade) {
    ic_bfs(s, rng, draws, meter);
  } else {
    lt_walk(s, rng, draws, meter);
  }
}

/// Exact draws over one direction of the adjacency (in-edges for the
/// reverse samplers, out-edges for forward IC).
class Exact {
 public:
  Exact(const graph::Adjacency& adj, std::span<const graph::Weight> weights) noexcept
      : adj_(&adj), weights_(weights) {}

  void begin(Scratch& s, const RandomStream& rng) {
    c_ = s.draws.begin_sample(rng);
    pending_ = 0;
    for (const VertexId v : s.queue) enqueued(v);
  }
  // pending_ is the degree sum of queued-but-unswept vertices: refills are
  // sized to it, so a cascade that dies young fills no surplus draws.
  void enqueued(VertexId v) noexcept { pending_ += adj_->degree(v); }

  template <typename Meter, typename Enqueue>
  void expand(Scratch& s, RandomStream& rng, Meter& meter, std::size_t head,
              Enqueue& enqueue) {
    const VertexId u = s.queue[head];
    const auto ins = adj_->neighbors(u);
    meter.slice(ins.size());
    c_ = s.draws.ensure(c_, rng, ins.size(), pending_);
    const auto ws = weights_.subspan(adj_->offsets[u], ins.size());
    support::ic_sweep(ins, ws, s.stamp, s.epoch, c_, enqueue);
    pending_ -= ins.size();
  }

  void finish(Scratch& s, RandomStream& rng) const { s.draws.finish_sample(rng, c_); }

  /// §3.3: draw tau and take the first in-neighbor whose cumulative weight,
  /// summed in slice order, exceeds it. The device kernel's warp prefix
  /// scan is its meter's cost; the sum itself is sequential, so every
  /// caller picks the same neighbor for the same tau.
  template <typename Meter>
  VertexId pick(VertexId u, RandomStream& rng, Meter& meter) const {
    const auto ins = adj_->neighbors(u);
    if (ins.empty()) return graph::kInvalidVertex;
    const auto ws = weights_.subspan(adj_->offsets[u], ins.size());
    const float tau = rng.next_float();
    meter.draw();
    float cumulative = 0.0f;
    std::size_t j = 0;
    while (j < ins.size() && !(tau < (cumulative += ws[j]))) ++j;
    meter.lt_scan(ins.size(), std::min(j + 1, ins.size()));
    return j < ins.size() ? ins[j] : graph::kInvalidVertex;
  }

 private:
  const graph::Adjacency* adj_;
  std::span<const graph::Weight> weights_;  ///< parallel to adj_->targets
  support::FloatDrawBuffer::Cursor c_{nullptr, 0};
  std::size_t pending_ = 0;
};

/// DrawPlan fast draws over the in-edges, one per simulated block: the
/// frontier's CSC slice and row kind are cached (struct of arrays) at
/// enqueue, so the sweep streams flat arrays instead of re-reading the
/// offset table and the plan per vertex.
class Skip {
 public:
  Skip(const graph::Graph& g, const graph::DrawPlan& plan) noexcept
      : g_(&g), plan_(&plan) {}

  std::uint64_t draws_skipped = 0;  ///< Bernoulli draws avoided
  std::uint64_t alias_picks = 0;    ///< O(1) LT picks taken

  void begin(Scratch& s, const RandomStream&) {
    begin_.clear();
    len_.clear();
    kind_.clear();
    for (const VertexId v : s.queue) enqueued(v);
  }
  void enqueued(VertexId v) {
    const graph::EdgeId b = g_->in().offsets[v];
    begin_.push_back(b);
    len_.push_back(static_cast<std::uint32_t>(g_->in().offsets[v + 1] - b));
    kind_.push_back(plan_->ic_kind[v]);
  }
  void finish(Scratch&, RandomStream&) const noexcept {}

  template <typename Meter, typename Enqueue>
  void expand(Scratch& s, RandomStream& rng, Meter& meter, std::size_t head,
              Enqueue& enqueue) {
    using Kind = graph::DrawPlan::IcKind;
    const std::uint32_t deg = len_[head];
    const std::span<const VertexId> ins(g_->in().targets.data() + begin_[head], deg);
    const auto visit = [&](VertexId v) {
      if (s.stamp[v] == s.epoch) return;
      s.stamp[v] = s.epoch;
      enqueue(v);
    };
    switch (static_cast<Kind>(kind_[head])) {
      case Kind::Empty:
      case Kind::Zero:  // weight <= 0: no draw can succeed
        draws_skipped += deg;
        return;
      case Kind::Uniform: {
        // One uniform per run of failures, jumping straight to the next
        // success. Positions count every in-edge, visited ones included (a
        // success on a visited vertex is a no-op), so each edge keeps its
        // exact Bernoulli law.
        const double log1m = plan_->ic_log1m[s.queue[head]];
        std::uint64_t taken = 1;
        meter.draw();
        for (std::uint64_t j = support::geometric_skip(rng, log1m); j < deg;) {
          meter.probe();
          visit(ins[j]);
          const std::uint64_t skip = support::geometric_skip(rng, log1m);
          ++taken;
          meter.draw();
          if (skip >= deg - 1 - j) break;  // the next success lands past the slice
          j += 1 + skip;
        }
        if (deg > taken) draws_skipped += deg - taken;
        return;
      }
      case Kind::Saturated:  // p_eff >= 1: every in-edge fires, nothing drawn
        meter.broadcast(deg);
        for (const VertexId v : ins) visit(v);
        draws_skipped += deg;
        return;
      case Kind::Mixed: {
        // The Exact sweep over this slice, with the stream rewound after it
        // so the geometric and alias draws that follow see it unbuffered.
        meter.slice(deg);
        auto c = s.draws.begin_sample(rng);
        c = s.draws.ensure(c, rng, deg);
        const auto ws = g_->in_weights(s.queue[head]);
        support::ic_sweep(ins, ws, s.stamp, s.epoch, c, enqueue);
        s.draws.finish_sample(rng, c);
        return;
      }
    }
  }

  /// O(1) alias pick: one uniform split into (bucket, coin) against the
  /// vertex's Vose table replaces the O(in-degree) scan.
  template <typename Meter>
  VertexId pick(VertexId u, RandomStream& rng, Meter& meter) {
    const graph::EdgeId b = g_->in().offsets[u];
    if (g_->in().offsets[u + 1] == b) return graph::kInvalidVertex;
    const float tau = rng.next_float();
    meter.draw();
    meter.probe();  // alias-table line (prob + alias)
    const std::uint32_t p = graph::alias_pick_lt(*plan_, *g_, u, tau);
    ++alias_picks;
    if (p == graph::kNoAliasPick) return graph::kInvalidVertex;
    meter.probe();  // neighbor id
    return g_->in().targets[b + p];
  }

 private:
  const graph::Graph* g_;
  const graph::DrawPlan* plan_;
  std::vector<graph::EdgeId> begin_;
  std::vector<std::uint32_t> len_;
  std::vector<std::uint8_t> kind_;
};

}  // namespace eim::diffusion::traversal
