// Exact IC edge sweep: the one inner loop of every exact-mode reverse BFS.
//
// For each in-edge (v, w) of a frontier vertex, in slice order: skip v if it
// is already stamped with the current epoch; otherwise consume the next
// activation draw and activate v iff draw < w (strict: a zero-weight edge
// never fires). An activation stamps v before the next edge is examined, so
// a duplicate neighbor later in the same slice sees it as visited. This is
// the draw-consumption contract the eIM sampler, the serial reference
// (diffusion::RrrSampler) and the gIM baseline share, and it is why all
// three produce the identical RRR collection for one seed.
//
// Two bodies implement it:
//  * ic_sweep_scalar — the per-edge loop;
//  * ic_sweep_avx512 — 16 edges per step: gather the stamps, expand the
//    next popcount(unvisited) draws into the unvisited lanes, compare, and
//    stop at the first activating lane. Nothing changes state before the
//    first activation, so resuming the scan one edge later after the
//    callback is bit-identical to the scalar loop by construction.
// ic_sweep picks the AVX-512 body once per process when the host supports
// it (and the stamp array is small enough for 32-bit gather indices).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#include "eim/support/rng.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define EIM_IC_SWEEP_X86 1
#else
#define EIM_IC_SWEEP_X86 0
#endif

namespace eim::support {

/// True when this host runs ic_sweep's AVX-512 body; probed once per
/// process with the CPUID test rng.cpp's Philox fill dispatch uses.
[[nodiscard]] inline bool ic_sweep_avx512_enabled() noexcept {
#if EIM_IC_SWEEP_X86
  static const bool enabled =
      __builtin_cpu_supports("avx512f") != 0 && __builtin_cpu_supports("popcnt") != 0;
  return enabled;
#else
  return false;
#endif
}

/// Per-edge body. Consumes one draw per unvisited neighbor from `draws`
/// (which must hold at least ins.size() draws), stamps and reports each
/// activated neighbor through `on_activate(v)` in slice order, advances
/// `draws` past the consumed draws and returns their count.
template <typename OnActivate>
std::size_t ic_sweep_scalar(std::span<const std::uint32_t> ins,
                            std::span<const float> ws, std::span<std::uint32_t> stamp,
                            std::uint32_t epoch, FloatDrawBuffer::Cursor& draws,
                            OnActivate&& on_activate) {
  assert(ws.size() == ins.size() && draws.avail >= ins.size());
  std::uint32_t* const st = stamp.data();
  const float* const d = draws.p;
  std::size_t t = 0;
  for (std::size_t j = 0; j < ins.size(); ++j) {
    const std::uint32_t v = ins[j];
    if (st[v] == epoch) continue;
    // Strict <: P(draw < w) = w exactly for draws on the 2^-24 grid, and a
    // weight-0.0 edge never fires, even on a zero draw.
    if (d[t++] < ws[j]) {
      st[v] = epoch;  // mark BEFORE the callback enqueues (Alg. 2 l.18)
      on_activate(v);
    }
  }
  draws.p += t;
  draws.avail -= t;
  return t;
}

#if EIM_IC_SWEEP_X86

/// Where one AVX-512 scan stopped: `edge` is the offset of the first
/// activating edge (== len when none fires) and `draws` the draws consumed
/// up to and including it.
struct IcSweepHit {
  std::size_t edge;
  std::size_t draws;
};

/// The vector kernel: scan `len` edges 16 at a time until the first one
/// that activates. Reads stamps but writes nothing. External linkage so
/// sampling-profiler frames name it (prof_report's `sampler` bucket).
__attribute__((target("avx512f,popcnt"))) IcSweepHit ic_sweep_avx512_scan(
    const std::uint32_t* ins, const float* ws, std::size_t len,
    const std::uint32_t* stamp, std::uint32_t epoch, const float* draws) noexcept;

/// AVX-512 body, same contract as ic_sweep_scalar. Requires a host where
/// ic_sweep_avx512_enabled() and stamp.size() <= INT32_MAX.
template <typename OnActivate>
std::size_t ic_sweep_avx512(std::span<const std::uint32_t> ins,
                            std::span<const float> ws, std::span<std::uint32_t> stamp,
                            std::uint32_t epoch, FloatDrawBuffer::Cursor& draws,
                            OnActivate&& on_activate) {
  assert(ws.size() == ins.size() && draws.avail >= ins.size());
  assert(stamp.size() <= static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()));
  std::uint32_t* const st = stamp.data();
  const float* const d = draws.p;
  const std::size_t n = ins.size();
  std::size_t j = 0;
  std::size_t t = 0;
  while (j < n) {
    const IcSweepHit hit =
        ic_sweep_avx512_scan(ins.data() + j, ws.data() + j, n - j, st, epoch, d + t);
    t += hit.draws;
    j += hit.edge;
    if (j == n) break;
    const std::uint32_t v = ins[j];
    st[v] = epoch;
    on_activate(v);
    ++j;
  }
  draws.p += t;
  draws.avail -= t;
  return t;
}

#endif  // EIM_IC_SWEEP_X86

/// The exact IC sweep every exact-mode reverse BFS calls; dispatches to the
/// AVX-512 body where available, else the scalar one. Same contract and
/// bit-identical results either way.
template <typename OnActivate>
std::size_t ic_sweep(std::span<const std::uint32_t> ins, std::span<const float> ws,
                     std::span<std::uint32_t> stamp, std::uint32_t epoch,
                     FloatDrawBuffer::Cursor& draws, OnActivate&& on_activate) {
#if EIM_IC_SWEEP_X86
  // i32gather indices are signed: vertex ids past INT32_MAX stay scalar.
  if (stamp.size() <= static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()) &&
      ic_sweep_avx512_enabled()) {
    return ic_sweep_avx512(ins, ws, stamp, epoch, draws, on_activate);
  }
#endif
  return ic_sweep_scalar(ins, ws, stamp, epoch, draws, on_activate);
}

}  // namespace eim::support
