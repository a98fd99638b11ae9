// Differential suite for the executor's drift-window skipping.
//
// analyze_throughput() skips linear-drift transients in closed form only
// when no ExecObservers callback is set, so attaching a no-op observer forces
// plain per-firing stepping: the same executor is its own oracle. Every case
// must agree on deadlock, throughput, period and firings per period. The
// steady-state answers of a live graph rarely depend on its transient, so
// each case also checks that the state the skipping analysis ends in is a
// state of plain stepping: run on by one reference firing, it must match a
// plain run to the same firing count in clock, tokens, completions and
// per-edge maximum occupancy.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/rng.hpp"
#include "dataflow/executor.hpp"
#include "sharing/csdf_model.hpp"
#include "sharing/sdf_model.hpp"

namespace acc::df {
namespace {

void observe(SelfTimedExecutor& exec) {
  exec.set_observers({[](ActorId, std::int32_t, Time, Time) {}, {}});
}

struct Snapshot {
  Time now = 0;
  std::vector<std::int64_t> tokens;
  std::vector<std::int64_t> max_tokens;
  std::vector<std::int64_t> completed;
  bool operator==(const Snapshot&) const = default;
};

Snapshot snapshot(const Graph& g, const SelfTimedExecutor& exec) {
  Snapshot s;
  s.now = exec.now();
  for (EdgeId e = 0; e < static_cast<EdgeId>(g.num_edges()); ++e) {
    s.tokens.push_back(exec.tokens(e));
    s.max_tokens.push_back(exec.max_tokens_seen(e));
  }
  for (ActorId a = 0; a < static_cast<ActorId>(g.num_actors()); ++a)
    s.completed.push_back(exec.completed_firings(a));
  return s;
}

struct Tally {
  int cases = 0;
  int skipped = 0;  // cases in which at least one window was skipped
};

/// Analyze with and without an observer and require identical answers and
/// a reachable end state.
void expect_same(const Graph& g, ActorId reference, const std::string& what,
                 Tally* tally = nullptr) {
  SelfTimedExecutor plain(g);
  observe(plain);
  const ThroughputResult want = plain.analyze_throughput(reference);
  SelfTimedExecutor fast(g);
  const ThroughputResult got = fast.analyze_throughput(reference);
  if (tally) {
    ++tally->cases;
    if (got.skipped_iterations > 0) ++tally->skipped;
  }
  EXPECT_EQ(want.skipped_iterations, 0) << what;
  ASSERT_EQ(want.deadlocked, got.deadlocked) << what;
  EXPECT_EQ(want.throughput, got.throughput) << what;
  EXPECT_EQ(want.period, got.period) << what;
  EXPECT_EQ(want.firings_in_period, got.firings_in_period) << what;
  EXPECT_LE(got.firings, want.firings) << what;
  if (want.deadlocked) return;
  EXPECT_GE(got.transient_iterations, want.transient_iterations) << what;

  const std::int64_t count = fast.completed_firings(reference) + 1;
  ASSERT_TRUE(fast.run_until_firings(reference, count).has_value()) << what;
  SelfTimedExecutor replay(g);
  observe(replay);
  ASSERT_TRUE(replay.run_until_firings(reference, count).has_value()) << what;
  EXPECT_TRUE(snapshot(g, fast) == snapshot(g, replay))
      << what << " (end state after " << count << " reference firings)";
}

/// Paper Fig. 7: vP -> [alpha0] -> vS -> [alpha3] -> vC.
sharing::SdfStreamModel fig7(std::int64_t eta, Time gamma, Time period,
                             std::int64_t chunk, std::int64_t alpha0,
                             std::int64_t alpha3) {
  sharing::SdfModelOptions o;
  o.eta = eta;
  o.shared_duration = gamma;
  o.producer_period = period;
  o.consumer_period = chunk * period;
  o.consumer_chunk = chunk;
  o.alpha0 = alpha0;
  o.alpha3 = alpha3;
  return sharing::build_sdf_stream_model(o);
}

TEST(DriftWindow, NearThresholdStreamSkipsItsTransient) {
  // A wide-open input buffer one step from the throughput threshold fills by
  // about two tokens per iteration: hundreds of iterations of plain
  // stepping before the state recurs.
  const sharing::SdfStreamModel m = fig7(325, 16210, 50, 1, 1298, 647);
  SelfTimedExecutor plain(m.graph);
  observe(plain);
  const ThroughputResult want = plain.analyze_throughput(m.consumer);
  const ThroughputResult got =
      SelfTimedExecutor(m.graph).analyze_throughput(m.consumer);
  EXPECT_GT(got.skipped_iterations, 0);
  EXPECT_LT(got.firings * 10, want.firings);
  expect_same(m.graph, m.consumer, "near-threshold stream");
}

TEST(DriftWindow, SkippedIterationsCountAgainstTheBudget) {
  const sharing::SdfStreamModel m = fig7(325, 16210, 50, 1, 1298, 647);
  for (const bool observed : {true, false}) {
    SelfTimedExecutor exec(m.graph);
    if (observed) observe(exec);
    EXPECT_THROW((void)exec.analyze_throughput(m.consumer, 296),
                 invariant_error);
    EXPECT_EQ(exec.analyze_throughput(m.consumer, 297).transient_iterations,
              297);
  }
}

TEST(DriftWindow, UnboundedDriftExhaustsTheBudget) {
  // Tokens pile up on an unbounded edge forever: no check ever bounds the
  // skip, which must stop at the iteration budget like plain stepping.
  Graph g;
  const ActorId fast_producer = g.add_sdf_actor("p", 1);
  const ActorId slow_consumer = g.add_sdf_actor("c", 2);
  g.add_sdf_edge(fast_producer, slow_consumer, 1, 1, 0);
  for (const bool observed : {true, false}) {
    SelfTimedExecutor exec(g);
    if (observed) observe(exec);
    EXPECT_THROW((void)exec.analyze_throughput(slow_consumer, 5000),
                 invariant_error);
  }
}

TEST(DriftWindow, Fig7StreamModelsMatchPlainStepping) {
  SplitMix64 rng(0xD41F7);
  Tally tally;
  for (int i = 0; i < 3000; ++i) {
    const std::int64_t eta = rng.uniform(1, 40);
    const Time period = rng.uniform(1, 40);
    const Time nominal = eta * period;
    const Time gamma = rng.uniform(nominal * 8 / 10, nominal * 12 / 10);
    const std::int64_t chunk = rng.uniform(1, 4);
    const std::int64_t alpha0 = rng.uniform(eta, 4 * eta + 8);
    const std::int64_t alpha3 =
        rng.uniform(std::max(eta, chunk), 4 * eta + 8);
    const sharing::SdfStreamModel m =
        fig7(eta, gamma, period, chunk, alpha0, alpha3);
    expect_same(m.graph, m.consumer,
                "fig7 eta=" + std::to_string(eta) +
                    " gamma=" + std::to_string(gamma) +
                    " P=" + std::to_string(period) +
                    " chunk=" + std::to_string(chunk) +
                    " a0=" + std::to_string(alpha0) +
                    " a3=" + std::to_string(alpha3),
                &tally);
    if (HasFatalFailure()) return;
  }
  // The generator must exercise the skip, not only the fallback.
  EXPECT_GT(tally.skipped, tally.cases / 20);
}

struct Link {
  int from;
  int to;
  std::int64_t prod;
  std::int64_t cons;
  std::int64_t capacity;
};

/// SDF actors a0, a1, ... with the given durations, joined by channels.
Graph linked(const std::vector<Time>& durations,
             const std::vector<Link>& links) {
  Graph g;
  for (std::size_t i = 0; i < durations.size(); ++i)
    g.add_sdf_actor("a" + std::to_string(i), durations[i]);
  for (const Link& l : links)
    g.add_channel(l.from, l.to, {l.prod}, {l.cons}, l.capacity);
  return g;
}

TEST(DriftWindow, ForkedPipelinesStopTheSkipWhereAShiftChangesTheTrace) {
  // a0 feeds two branches and waits for space on one of them while that
  // space grows window by window: a few windows on, a0 would start earlier
  // than in the recorded window. Only the failed-check bound (and its
  // exact rounding) stops the skip there.
  expect_same(linked({4, 12, 4, 11},
                     {{0, 1, 1, 1, 7}, {1, 2, 2, 3, 19}, {0, 3, 3, 3, 20}}),
              3, "fork a0 -> a1 -> a2, a0 -> a3");
  // A shape that recurs with a different token change than the window
  // that detected it: the window's own drift must be compared.
  expect_same(linked({8, 2, 2, 4, 5}, {{0, 1, 2, 3, 21},
                                       {1, 2, 4, 1, 21},
                                       {2, 3, 4, 2, 14},
                                       {0, 4, 2, 3, 7}}),
              4, "fork a0 -> a1 -> a2 -> a3, a0 -> a4");
}

TEST(DriftWindow, MultiRatePipelinesMatchPlainStepping) {
  // Multi-rate pipelines of 2-5 stages; every stage after the first reads
  // from a random earlier stage, so some pipelines fork.
  SplitMix64 rng(0x91BE);
  Tally tally;
  for (int i = 0; i < 2000; ++i) {
    Graph g;
    const auto stages = static_cast<int>(rng.uniform(2, 5));
    std::vector<ActorId> actors;
    std::string what = "pipeline";
    for (int s = 0; s < stages; ++s) {
      const Time d = rng.uniform(1, 12);
      actors.push_back(g.add_sdf_actor("a" + std::to_string(s), d));
      what += " d" + std::to_string(d);
    }
    for (int s = 1; s < stages; ++s) {
      const std::int64_t from = rng.chance(0.7) ? s - 1 : rng.uniform(0, s - 1);
      const std::int64_t prod = rng.uniform(1, 4);
      const std::int64_t cons = rng.uniform(1, 4);
      const std::int64_t cap =
          rng.uniform(std::max(prod, cons), 4 * (prod + cons) + 8);
      g.add_channel(actors[static_cast<std::size_t>(from)],
                    actors[static_cast<std::size_t>(s)], {prod}, {cons}, cap);
      what += " [" + std::to_string(from) + "->" + std::to_string(s) + " " +
              std::to_string(prod) + "/" + std::to_string(cons) + " cap " +
              std::to_string(cap) + "]";
    }
    expect_same(g, actors.back(), what, &tally);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(tally.skipped, 0);
}

TEST(DriftWindow, Fig5CsdfStreamModelsMatchPlainStepping) {
  SplitMix64 rng(0xF165);
  Tally tally;
  for (int i = 0; i < 1200; ++i) {
    sharing::SharedSystemSpec sys;
    sys.chain.accel_cycles_per_sample.assign(
        static_cast<std::size_t>(rng.uniform(1, 3)), 0);
    for (Time& rho : sys.chain.accel_cycles_per_sample)
      rho = rng.uniform(1, 4);
    sys.chain.entry_cycles_per_sample = rng.uniform(1, 16);
    sys.chain.exit_cycles_per_sample = rng.uniform(1, 3);
    sys.streams = {{"s", Rational(1, rng.uniform(20, 100)),
                    rng.uniform(0, 400)}};
    sharing::CsdfModelOptions o;
    o.eta = rng.uniform(1, 24);
    o.producer_period = rng.uniform(1, 40);
    o.consumer_period = rng.uniform(1, 40);
    o.contention = rng.uniform(0, 300);
    o.alpha0 = rng.uniform(o.eta, 4 * o.eta + 8);
    o.alpha3 = rng.uniform(o.eta, 4 * o.eta + 8);
    const sharing::CsdfStreamModel m =
        sharing::build_csdf_stream_model(sys, 0, o);
    expect_same(m.graph, m.consumer,
                "fig5 eta=" + std::to_string(o.eta) +
                    " P=" + std::to_string(o.producer_period) +
                    " C=" + std::to_string(o.consumer_period) +
                    " s=" + std::to_string(o.contention) +
                    " a0=" + std::to_string(o.alpha0) +
                    " a3=" + std::to_string(o.alpha3),
                &tally);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(tally.skipped, 0);
}

}  // namespace
}  // namespace acc::df
