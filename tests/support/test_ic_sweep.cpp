#include "eim/support/ic_sweep.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "eim/support/rng.hpp"

namespace eim::support {
namespace {

/// One slice sweep's inputs: neighbor ids, weights, the stamp array before
/// the sweep, the epoch, and at least ins.size() draws.
struct SweepCase {
  std::string label;
  std::vector<std::uint32_t> ins;
  std::vector<float> ws;
  std::vector<std::uint32_t> stamp;
  std::uint32_t epoch = 1;
  std::vector<float> draws;
};

struct SweepResult {
  std::vector<std::uint32_t> activated;
  std::size_t consumed = 0;
  std::size_t cursor_advance = 0;
  std::vector<std::uint32_t> stamp;
};

enum class Body { Scalar, Avx512, Dispatched };

SweepResult run(const SweepCase& c, Body body) {
  SweepResult r;
  r.stamp = c.stamp;
  FloatDrawBuffer::Cursor cur{c.draws.data(), c.draws.size()};
  const auto on_activate = [&](std::uint32_t v) { r.activated.push_back(v); };
  switch (body) {
    case Body::Scalar:
      r.consumed = ic_sweep_scalar(c.ins, c.ws, r.stamp, c.epoch, cur, on_activate);
      break;
    case Body::Avx512:
#if EIM_IC_SWEEP_X86
      r.consumed = ic_sweep_avx512(c.ins, c.ws, r.stamp, c.epoch, cur, on_activate);
#endif
      break;
    case Body::Dispatched:
      r.consumed = ic_sweep(c.ins, c.ws, r.stamp, c.epoch, cur, on_activate);
      break;
  }
  r.cursor_advance = static_cast<std::size_t>(cur.p - c.draws.data());
  EXPECT_EQ(cur.avail, c.draws.size() - r.cursor_advance) << c.label;
  return r;
}

void expect_same(const SweepCase& c, const SweepResult& ref, const SweepResult& got) {
  EXPECT_EQ(got.activated, ref.activated) << c.label;
  EXPECT_EQ(got.consumed, ref.consumed) << c.label;
  EXPECT_EQ(got.cursor_advance, ref.consumed) << c.label;
  EXPECT_EQ(got.stamp, ref.stamp) << c.label;
}

/// Random slices over a small vertex range (so neighbors repeat), with a
/// mix of pre-stamped vertices, stale stamps one epoch either side, weights
/// of 0.0, 1.0, random, and one ulp either side of (or equal to) a draw,
/// and epochs at and around the u32 wrap.
std::vector<SweepCase> make_cases() {
  std::vector<SweepCase> cases;
  RandomStream rng(0x5eed, 13);
  const std::uint32_t epochs[] = {1u, 2u, 0x7FFFFFFFu, 0x80000000u, 0xFFFFFFFEu,
                                  0xFFFFFFFFu};
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 40; ++len) lengths.push_back(len);
  lengths.push_back(1000);  // a hub

  for (const std::size_t len : lengths) {
    for (int variant = 0; variant < 12; ++variant) {
      SweepCase c;
      c.epoch = epochs[static_cast<std::size_t>(variant) % std::size(epochs)];
      const std::uint32_t n = len >= 1000 ? 600u : 8u + rng.next_below(40);
      c.label = "len=" + std::to_string(len) + " variant=" + std::to_string(variant) +
                " epoch=" + std::to_string(c.epoch);

      // Stamps: current epoch (visited), its neighbors on the u32 ring
      // (stale, must read as unvisited), or 0.
      c.stamp.resize(n);
      const bool all_visited = variant == 5;
      for (std::uint32_t v = 0; v < n; ++v) {
        switch (all_visited ? 0u : rng.next_below(4)) {
          case 0:  c.stamp[v] = c.epoch; break;
          case 1:  c.stamp[v] = c.epoch - 1; break;
          case 2:  c.stamp[v] = c.epoch + 1; break;
          default: c.stamp[v] = 0; break;
        }
      }
      if (variant == 6) {
        for (auto& s : c.stamp) s = c.epoch - 1;  // nothing visited
      }

      c.draws.resize(len);
      rng.fill_floats(c.draws);
      // Exact zero draws: a weight-0.0 edge must not fire even then.
      for (auto& d : c.draws) {
        if (rng.next_below(16) == 0) d = 0.0f;
      }

      c.ins.resize(len);
      c.ws.resize(len);
      for (std::size_t j = 0; j < len; ++j) {
        c.ins[j] = variant == 7 && j > 0 ? c.ins[j - 1]  // one vertex repeated
                                         : rng.next_below(n);
        const float near = len > 0 ? c.draws[rng.next_below(
                                         static_cast<std::uint32_t>(j + 1))]
                                   : 0.5f;
        switch (variant == 8 ? 0u : variant == 9 ? 1u : rng.next_below(7)) {
          case 0:  c.ws[j] = 0.0f; break;
          case 1:  c.ws[j] = 1.0f; break;
          case 2:  c.ws[j] = near; break;
          case 3:  c.ws[j] = std::nextafter(near, 2.0f); break;
          case 4:  c.ws[j] = std::nextafter(near, -1.0f); break;
          default: c.ws[j] = rng.next_float() * 0.3f; break;
        }
      }
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

TEST(IcSweep, ScalarFollowsTheEdgeOrderContract) {
  // Edges: 4 (visited), 2, 2 (duplicate), 7, 3. Draws go to unvisited
  // edges only, in order; the activated 2 makes its duplicate visited.
  SweepCase c;
  c.epoch = 9;
  c.stamp = {0, 0, 0, 0, 9, 0, 0, 8};
  c.ins = {4, 2, 2, 7, 3};
  c.ws = {1.0f, 0.5f, 1.0f, 0.25f, 0.0f};
  c.draws = {0.25f, 0.25f, 0.0f, 0.9f, 0.9f};
  const SweepResult r = run(c, Body::Scalar);
  EXPECT_EQ(r.activated, (std::vector<std::uint32_t>{2}));  // 7: 0.25 !< 0.25
  EXPECT_EQ(r.consumed, 3u);  // 2, 7, 3 (weight 0 with a 0.0 draw: no fire)
  EXPECT_EQ(r.stamp, (std::vector<std::uint32_t>{0, 0, 9, 0, 9, 0, 0, 8}));
}

TEST(IcSweep, DispatchedMatchesScalar) {
  for (const SweepCase& c : make_cases()) {
    expect_same(c, run(c, Body::Scalar), run(c, Body::Dispatched));
  }
}

TEST(IcSweep, Avx512MatchesScalar) {
  if (!ic_sweep_avx512_enabled()) {
    GTEST_SKIP() << "host lacks AVX-512F/POPCNT; only the scalar sweep runs here";
  }
  std::size_t activations = 0;
  for (const SweepCase& c : make_cases()) {
    const SweepResult ref = run(c, Body::Scalar);
    activations += ref.activated.size();
    expect_same(c, ref, run(c, Body::Avx512));
  }
  EXPECT_GT(activations, 1000u);  // the cases do exercise the resume path
}

}  // namespace
}  // namespace eim::support
