// Tests for the design-space exploration engine (dataflow/dse.hpp):
// memo-cache hit accounting, monotone-pruning correctness against the
// brute-force staircase, and the max_capacity bound of the single-channel
// searches.
#include "dataflow/dse.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <numeric>

#include "common/rng.hpp"
#include "dataflow/buffer_sizing.hpp"
#include "dataflow/graph.hpp"

namespace acc::df {
namespace {

// ---------------------------------------------------------------- fixtures

struct ProducerConsumer {
  Graph g;
  ActorId a;
  ActorId b;
  Channel ch;
};

ProducerConsumer make_pc(Time da, Time db, std::int64_t p, std::int64_t c,
                         std::int64_t cap) {
  ProducerConsumer pc;
  pc.a = pc.g.add_sdf_actor("A", da);
  pc.b = pc.g.add_sdf_actor("B", db);
  pc.ch = pc.g.add_channel(pc.a, pc.b, {p}, {c}, cap);
  return pc;
}

/// Reference implementation: the pre-engine serial staircase DFS, probing
/// the graph directly with measure_throughput. Ground truth for pruning
/// correctness.
MultiBufferResult brute_force_minimize(Graph& g,
                                       const std::vector<Channel>& channels,
                                       ActorId reference,
                                       const Rational& target,
                                       const BufferSizingOptions& opt) {
  const std::size_t k = channels.size();
  std::vector<std::int64_t> saved;
  for (const Channel& ch : channels) saved.push_back(g.channel_capacity(ch));

  std::vector<std::int64_t> lower(k), upper(k);
  for (const Channel& ch : channels)
    g.set_channel_capacity(ch, opt.max_capacity);
  for (std::size_t i = 0; i < k; ++i) {
    // Single-channel exact minimum by linear scan (small graphs only).
    for (std::int64_t c = channel_capacity_lower_bound(g, channels[i]);; ++c) {
      ACC_CHECK(c <= opt.max_capacity);
      g.set_channel_capacity(channels[i], c);
      if (measure_throughput(g, reference, opt) >= target) {
        lower[i] = c;
        break;
      }
    }
    g.set_channel_capacity(channels[i], opt.max_capacity);
  }
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j)
      g.set_channel_capacity(channels[j], j == i ? opt.max_capacity : lower[j]);
    for (std::int64_t c = channel_capacity_lower_bound(g, channels[i]);; ++c) {
      ACC_CHECK(c <= opt.max_capacity);
      g.set_channel_capacity(channels[i], c);
      if (measure_throughput(g, reference, opt) >= target) {
        upper[i] = c;
        break;
      }
    }
  }

  const std::int64_t base_total =
      std::accumulate(lower.begin(), lower.end(), std::int64_t{0});
  const std::int64_t max_total =
      std::accumulate(upper.begin(), upper.end(), std::int64_t{0});
  std::vector<std::int64_t> caps(k);
  MultiBufferResult best;
  std::function<bool(std::size_t, std::int64_t)> dfs =
      [&](std::size_t idx, std::int64_t slack) -> bool {
    if (idx + 1 == k) {
      if (lower[idx] + slack > upper[idx]) return false;
      caps[idx] = lower[idx] + slack;
      for (std::size_t j = 0; j < k; ++j)
        g.set_channel_capacity(channels[j], caps[j]);
      return measure_throughput(g, reference, opt) >= target;
    }
    for (std::int64_t extra = 0; extra <= slack; ++extra) {
      if (lower[idx] + extra > upper[idx]) break;
      caps[idx] = lower[idx] + extra;
      if (dfs(idx + 1, slack - extra)) return true;
    }
    return false;
  };
  for (std::int64_t total = base_total; total <= max_total; ++total) {
    if (dfs(0, total - base_total)) {
      best.capacities = caps;
      best.total = total;
      break;
    }
  }
  for (std::size_t i = 0; i < k; ++i)
    g.set_channel_capacity(channels[i], saved[i]);
  ACC_CHECK(!best.capacities.empty());
  return best;
}

// ---------------------------------------------------------------- memo cache

TEST(DseEngine, MemoCacheCountsHitsAndMisses) {
  ProducerConsumer pc = make_pc(1, 1, 1, 1, 2);
  DseEngine engine(pc.g, {pc.ch}, pc.a);
  const Rational t1 = engine.throughput({2});
  const Rational t2 = engine.throughput({2});
  EXPECT_EQ(t1, t2);
  const DseStats s = engine.stats();
  EXPECT_EQ(s.simulations, 1);
  EXPECT_EQ(s.cache_misses, 1);
  EXPECT_EQ(s.cache_hits, 1);
  EXPECT_GT(s.cache_hit_rate(), 0.0);
}

TEST(DseEngine, MemoCacheSharedAcrossSearchPhases) {
  // The saturation doubling probes and the min-capacity binary search hit
  // overlapping capacity vectors — the shared memo must convert the overlap
  // into hits.
  ProducerConsumer pc = make_pc(1, 1, 2, 3, 3);
  DseEngine engine(pc.g, {pc.ch}, pc.b);
  const Rational best = engine.max_throughput_unbounded();
  (void)engine.min_capacity_for(0, engine.snapshot_capacities(), best);
  EXPECT_GT(engine.stats().cache_hits, 0);
}

TEST(DseEngine, FingerprintSeparatesStructures) {
  ProducerConsumer pc1 = make_pc(1, 2, 1, 1, 2);
  ProducerConsumer pc2 = make_pc(1, 2, 1, 1, 2);
  ProducerConsumer pc3 = make_pc(1, 3, 1, 1, 2);
  DseEngine e1(pc1.g, {pc1.ch}, pc1.a);
  DseEngine e2(pc2.g, {pc2.ch}, pc2.a);
  DseEngine e3(pc3.g, {pc3.ch}, pc3.a);
  EXPECT_EQ(e1.graph_fingerprint(), e2.graph_fingerprint());
  EXPECT_NE(e1.graph_fingerprint(), e3.graph_fingerprint());
  // Capacity changes must NOT change the fingerprint (they are the memo key,
  // not part of it).
  pc1.g.set_channel_capacity(pc1.ch, 7);
  DseEngine e4(pc1.g, {pc1.ch}, pc1.a);
  EXPECT_EQ(e1.graph_fingerprint(), e4.graph_fingerprint());
}

// ---------------------------------------------------------------- pruning

TEST(DseEngine, MonotonePruningOnComparableChain) {
  // One channel: capacity vectors form a chain, so every query after the
  // first two is decidable from the frontier alone.
  ProducerConsumer pc = make_pc(1, 1, 1, 1, 1);
  DseEngine engine(pc.g, {pc.ch}, pc.a);
  const Rational target(1);
  EXPECT_FALSE(engine.feasible({1}, target));  // simulated
  EXPECT_TRUE(engine.feasible({2}, target));   // simulated
  EXPECT_TRUE(engine.feasible({5}, target));   // >= feasible 2: pruned
  const DseStats s = engine.stats();
  EXPECT_EQ(s.simulations, 2);
  EXPECT_EQ(s.pruned_feasible, 1);
  EXPECT_EQ(s.pruned_infeasible, 0);
}

TEST(DseEngine, PruningNeverChangesAnswers) {
  // Pruned feasibility answers must equal fresh simulation on a second
  // engine with a cold cache.
  SplitMix64 rng(0xDE5E);
  for (int trial = 0; trial < 10; ++trial) {
    ProducerConsumer pc =
        make_pc(rng.uniform(1, 3), rng.uniform(1, 3), rng.uniform(1, 2),
                rng.uniform(1, 2), 1);
    DseEngine warm(pc.g, {pc.ch}, pc.a);
    const Rational target(1, rng.uniform(1, 3));
    // Warm the frontier from both sides, then query the whole range.
    (void)warm.feasible({1}, target);
    (void)warm.feasible({6}, target);
    for (std::int64_t c = 1; c <= 6; ++c) {
      DseEngine cold(pc.g, {pc.ch}, pc.a);
      EXPECT_EQ(warm.feasible({c}, target), cold.feasible({c}, target))
          << "cap=" << c;
    }
  }
}

/// A -> B -> C with random durations and rates; B is the reference actor.
struct Chain3 {
  Graph g;
  ActorId b = 0;
  std::vector<Channel> channels;
};

Chain3 random_chain3(SplitMix64& rng) {
  Chain3 c3;
  const ActorId a = c3.g.add_sdf_actor("A", rng.uniform(1, 3));
  c3.b = c3.g.add_sdf_actor("B", rng.uniform(1, 4));
  const ActorId c = c3.g.add_sdf_actor("C", rng.uniform(1, 3));
  c3.channels.push_back(c3.g.add_channel(a, c3.b, {rng.uniform(1, 2)}, {1}, 2));
  c3.channels.push_back(c3.g.add_channel(c3.b, c, {1}, {rng.uniform(1, 2)}, 2));
  return c3;
}

TEST(DseEngine, MinimizeMatchesBruteForceOnSmallGraphs) {
  SplitMix64 rng(0xACC);
  for (int trial = 0; trial < 8; ++trial) {
    Chain3 c3 = random_chain3(rng);
    BufferSizingOptions opt;
    opt.max_capacity = 64;
    const Rational target = max_throughput_with_unbounded_channels(
        c3.g, c3.channels, c3.b, opt);
    const MultiBufferResult ref =
        brute_force_minimize(c3.g, c3.channels, c3.b, target, opt);
    const MultiBufferResult res =
        minimize_total_capacity(c3.g, c3.channels, c3.b, target, opt);
    EXPECT_EQ(res.total, ref.total) << "trial=" << trial;
    EXPECT_EQ(res.capacities, ref.capacities) << "trial=" << trial;
  }
}

// One engine answering a second target after a first: the memo carries over
// (throughput does not depend on the target), the pruning frontier must not.
// Each call must still match the brute-force staircase.
void check_second_target_on_warm_engine(bool lower_first) {
  SplitMix64 rng(0x7A6E7);
  for (int trial = 0; trial < 8; ++trial) {
    Chain3 c3 = random_chain3(rng);
    BufferSizingOptions opt;
    opt.max_capacity = 64;
    const Rational high = max_throughput_with_unbounded_channels(
        c3.g, c3.channels, c3.b, opt);
    const Rational low = high * Rational(2, 3);
    const Rational first = lower_first ? low : high;
    const Rational second = lower_first ? high : low;
    DseEngine engine(c3.g, c3.channels, c3.b, opt);
    for (const Rational& target : {first, second}) {
      const MultiBufferResult ref =
          brute_force_minimize(c3.g, c3.channels, c3.b, target, opt);
      const MultiBufferResult res = engine.minimize_total(target);
      EXPECT_EQ(res.total, ref.total)
          << "trial=" << trial << " target=" << target;
      EXPECT_EQ(res.capacities, ref.capacities)
          << "trial=" << trial << " target=" << target;
    }
  }
}

TEST(DseEngine, LowerTargetAfterHigherMatchesBruteForce) {
  // Points infeasible for the high target may be feasible for the low one.
  check_second_target_on_warm_engine(/*lower_first=*/false);
}

TEST(DseEngine, HigherTargetAfterLowerMatchesBruteForce) {
  // Points feasible for the low target may be infeasible for the high one.
  check_second_target_on_warm_engine(/*lower_first=*/true);
}

// ------------------------------------------------------- max_capacity bound

// A 6:1 channel between unit-duration actors: the consumer idles one cycle
// per producer firing at the structural minimum 6 (throughput 6/7) and
// saturates at 1 from capacity 7 on.
ProducerConsumer six_to_one() { return make_pc(1, 1, 6, 1, 6); }

TEST(DseEngine, MinCapacityNeverExceedsMaxCapacity) {
  ProducerConsumer pc = six_to_one();
  const Rational saturated =
      max_throughput_with_unbounded_channels(pc.g, {pc.ch}, pc.b);
  ASSERT_EQ(saturated, Rational(1));
  BufferSizingOptions opt;
  opt.max_capacity = 7;
  EXPECT_EQ(
      min_channel_capacity_for_throughput(pc.g, pc.ch, pc.b, saturated, opt),
      7);
  // Capacity 7 is needed but the bound is 6: the search must throw, not
  // answer with a capacity above the bound.
  opt.max_capacity = 6;
  EXPECT_THROW(
      (void)min_channel_capacity_for_throughput(pc.g, pc.ch, pc.b, saturated,
                                                opt),
      invariant_error);
}

TEST(DseEngine, MaxThroughputProbesMaxCapacityItself) {
  // Doubling from the lower bound 6 would jump to 12 > 10; the last step
  // must probe 10, where the channel already reaches throughput 1.
  ProducerConsumer pc = six_to_one();
  BufferSizingOptions opt;
  opt.max_capacity = 10;
  DseStats stats;
  opt.stats = &stats;
  EXPECT_EQ(max_throughput_with_unbounded_channels(pc.g, {pc.ch}, pc.b, opt),
            Rational(1));
  EXPECT_EQ(stats.simulations, 2);  // capacities 6 and 10
}

TEST(DseEngine, MaxThroughputBelowLowerBoundThrows) {
  ProducerConsumer pc = six_to_one();
  BufferSizingOptions opt;
  opt.max_capacity = 5;  // below the structural lower bound 6
  EXPECT_THROW(
      (void)max_throughput_with_unbounded_channels(pc.g, {pc.ch}, pc.b, opt),
      invariant_error);
}

TEST(DseEngine, MinCapacityBelowLowerBoundThrows) {
  // Capacity 6 reaches 6/7, but the bound 5 admits no capacity at all.
  ProducerConsumer pc = six_to_one();
  BufferSizingOptions opt;
  opt.max_capacity = 5;
  EXPECT_THROW((void)min_channel_capacity_for_throughput(pc.g, pc.ch, pc.b,
                                                         Rational(6, 7), opt),
               invariant_error);
}

TEST(DseEngine, ParetoStaircaseReachesSaturationBelowMaxCapacity) {
  // The sweep stops at the saturation estimate, so that estimate must see
  // capacity 7 even though the doubling from 6 overshoots max_capacity 10.
  ProducerConsumer pc = six_to_one();
  BufferSizingOptions opt;
  opt.max_capacity = 10;
  const std::vector<ParetoPoint> pts =
      pareto_buffer_sweep(pc.g, pc.ch, pc.b, opt);
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].capacity, 6);
  EXPECT_EQ(pts[0].throughput, Rational(6, 7));
  EXPECT_EQ(pts[1].capacity, 7);
  EXPECT_EQ(pts[1].throughput, Rational(1));
}

// ------------------------------------------------------------ executor path

TEST(DseEngine, AssumeValidatedExecutorMatchesValidatingOne) {
  ProducerConsumer pc = make_pc(2, 3, 2, 3, 6);
  SelfTimedExecutor checked(pc.g);
  SelfTimedExecutor unchecked(pc.g, assume_validated);
  const ThroughputResult a = checked.analyze_throughput(pc.b);
  const ThroughputResult b = unchecked.analyze_throughput(pc.b);
  EXPECT_EQ(a.deadlocked, b.deadlocked);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.period, b.period);
  EXPECT_EQ(a.firings_in_period, b.firings_in_period);
}

}  // namespace
}  // namespace acc::df
