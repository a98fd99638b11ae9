// Cycle-exact equivalence of the two steppers: System::run (wake-list,
// selective ticking of woken components) must be indistinguishable from
// System::run_dense (the reference every-cycle loop) in EVERY externally
// visible respect — trace contents, final state, stats, delivered data, and
// the deterministic fault pattern — on randomized gateway chains with fixed
// seeds, fault-free and under fault injection, on small hand-built
// source/sink and processor-tile systems, and on the full PAL decoder
// demonstrator.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <utility>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "app/pal_system.hpp"
#include "obs/metrics.hpp"
#include "sim/fault.hpp"
#include "sim/proc_tile.hpp"
#include "sim/system.hpp"
#include "sim/trace.hpp"

#include "../support/random_chain.hpp"

namespace acc::sim {
namespace {

// Generators shared with the metrics-determinism suite: both suites must
// stress the SAME population of random system shapes.
using testsupport::Params;
using testsupport::Scenario;
using testsupport::random_params;

/// Everything externally visible about one finished run.
struct Digest {
  Cycle now = 0;
  std::string trace_csv;
  std::int64_t emitted = 0;
  std::int64_t drops = 0;
  std::vector<Flit> received;
  std::vector<Cycle> stamps;
  std::int64_t underruns = 0;
  GatewayStats gw;
  std::int64_t exit_delivered = 0;
  std::int64_t ring_data_delivered = 0;
  std::int64_t ring_credit_delivered = 0;
  Cycle ring_data_stalls = 0;
  Cycle ring_credit_stalls = 0;
  std::int64_t in_pushed = 0;
  std::int64_t mid_popped = 0;
  std::int64_t proc_invocations = -1;
  Cycle proc_busy = -1;
  std::array<FaultSiteStats, kNumFaultSites> fsite{};
  StepperStats stepper;
};

Digest run_scenario(const Params& p, StepperKind kind) {
  Scenario s(p);
  s.sys.run_with(kind, p.run_cycles);

  Digest d;
  d.now = s.sys.now();
  d.trace_csv = s.trace.to_csv();
  d.emitted = s.src->emitted();
  d.drops = s.src->dropped();
  d.received = s.sink->received();
  d.stamps = s.sink->timestamps();
  d.underruns = s.sink->underruns();
  d.gw = s.chain.entry->stats();
  d.exit_delivered = s.chain.exit->samples_delivered();
  d.ring_data_delivered = s.sys.ring().data().delivered();
  d.ring_credit_delivered = s.sys.ring().credit().delivered();
  d.ring_data_stalls = s.sys.ring().data().stall_cycles();
  d.ring_credit_stalls = s.sys.ring().credit().stall_cycles();
  d.in_pushed = s.in->total_pushed();
  d.mid_popped = s.mid->total_popped();
  if (s.proc != nullptr) {
    d.proc_invocations = s.proc->invocations(0);
    d.proc_busy = s.proc->busy_cycles();
  }
  for (int i = 0; i < kNumFaultSites; ++i)
    d.fsite[static_cast<std::size_t>(i)] =
        s.fault.stats(static_cast<FaultSite>(i));
  d.stepper = s.sys.stepper_stats();
  return d;
}

void expect_equivalent(const Digest& dense, const Digest& event) {
  EXPECT_EQ(dense.now, event.now);
  EXPECT_EQ(dense.trace_csv, event.trace_csv);
  EXPECT_EQ(dense.emitted, event.emitted);
  EXPECT_EQ(dense.drops, event.drops);
  EXPECT_EQ(dense.received, event.received);
  EXPECT_EQ(dense.stamps, event.stamps);
  EXPECT_EQ(dense.underruns, event.underruns);
  EXPECT_EQ(dense.gw.blocks, event.gw.blocks);
  EXPECT_EQ(dense.gw.samples_forwarded, event.gw.samples_forwarded);
  EXPECT_EQ(dense.gw.data_cycles, event.gw.data_cycles);
  EXPECT_EQ(dense.gw.reconfig_cycles, event.gw.reconfig_cycles);
  EXPECT_EQ(dense.gw.wait_cycles, event.gw.wait_cycles);
  EXPECT_EQ(dense.gw.notify_timeouts, event.gw.notify_timeouts);
  EXPECT_EQ(dense.gw.notify_retries, event.gw.notify_retries);
  EXPECT_EQ(dense.gw.notify_recoveries, event.gw.notify_recoveries);
  EXPECT_EQ(dense.gw.credit_stalls, event.gw.credit_stalls);
  EXPECT_EQ(dense.gw.credit_stall_cycles, event.gw.credit_stall_cycles);
  EXPECT_EQ(dense.exit_delivered, event.exit_delivered);
  EXPECT_EQ(dense.ring_data_delivered, event.ring_data_delivered);
  EXPECT_EQ(dense.ring_credit_delivered, event.ring_credit_delivered);
  EXPECT_EQ(dense.ring_data_stalls, event.ring_data_stalls);
  EXPECT_EQ(dense.ring_credit_stalls, event.ring_credit_stalls);
  EXPECT_EQ(dense.in_pushed, event.in_pushed);
  EXPECT_EQ(dense.mid_popped, event.mid_popped);
  EXPECT_EQ(dense.proc_invocations, event.proc_invocations);
  EXPECT_EQ(dense.proc_busy, event.proc_busy);
  for (std::size_t i = 0; i < kNumFaultSites; ++i) {
    SCOPED_TRACE("fault site " + std::to_string(i));
    EXPECT_EQ(dense.fsite[i].consults, event.fsite[i].consults);
    EXPECT_EQ(dense.fsite[i].injected, event.fsite[i].injected);
    EXPECT_EQ(dense.fsite[i].dropped, event.fsite[i].dropped);
    EXPECT_EQ(dense.fsite[i].delay_cycles, event.fsite[i].delay_cycles);
    EXPECT_EQ(dense.fsite[i].max_delay_seen, event.fsite[i].max_delay_seen);
  }
  // Conservation: every simulated cycle was either ticked or skipped.
  EXPECT_EQ(event.stepper.dense_ticks + event.stepper.skipped_cycles,
            event.now);
  EXPECT_EQ(dense.stepper.dense_ticks, dense.now);
  EXPECT_EQ(dense.stepper.skips, 0);
  EXPECT_EQ(dense.stepper.wakes, 0);
  EXPECT_EQ(dense.stepper.horizon_queries, 0);
}

TEST(EventHorizon, RandomChainsFaultFree) {
  std::mt19937_64 rng(0xACC0);  // fixed seed: the suite is reproducible
  std::int64_t skipped_wake = 0;
  std::int64_t wake_notifications = 0;
  std::int64_t dense_component_ticks = 0;
  std::int64_t wake_component_ticks = 0;
  for (int iter = 0; iter < 10; ++iter) {
    const Params p = random_params(rng, /*with_fault=*/false);
    SCOPED_TRACE("iteration " + std::to_string(iter));
    const Digest dense = run_scenario(p, StepperKind::kDense);
    const Digest wake = run_scenario(p, StepperKind::kWakeList);
    expect_equivalent(dense, wake);
    skipped_wake += wake.stepper.skipped_cycles;
    wake_notifications += wake.stepper.wakes;
    dense_component_ticks += dense.stepper.component_ticks;
    wake_component_ticks += wake.stepper.component_ticks;
  }
  // The machinery must actually engage — a stepper that never skips (or a
  // wake list that never fires, or that ticks everything anyway) would pass
  // every equivalence check vacuously.
  EXPECT_GT(skipped_wake, 0);
  EXPECT_GT(wake_notifications, 0);
  EXPECT_LT(wake_component_ticks, dense_component_ticks);
}

TEST(EventHorizon, RandomChainsWithFaults) {
  std::mt19937_64 rng(0xACC1);
  std::int64_t skipped_wake = 0;
  for (int iter = 0; iter < 8; ++iter) {
    const Params p = random_params(rng, /*with_fault=*/true);
    SCOPED_TRACE("iteration " + std::to_string(iter));
    const Digest dense = run_scenario(p, StepperKind::kDense);
    const Digest wake = run_scenario(p, StepperKind::kWakeList);
    expect_equivalent(dense, wake);
    skipped_wake += wake.stepper.skipped_cycles;
  }
  EXPECT_GT(skipped_wake, 0);
}

TEST(EventHorizon, SkipsDominateQuiescentTail) {
  // Payload drains within a few thousand cycles; the remaining tail is pure
  // quiescence the wake-list stepper should jump over nearly for free.
  Params p;
  p.run_cycles = 30000;
  const Digest wake = run_scenario(p, StepperKind::kWakeList);
  EXPECT_GT(wake.stepper.skips, 0);
  EXPECT_GT(wake.stepper.skipped_cycles, p.run_cycles / 2);
}

TEST(EventHorizon, RunUntilMatchesDenseStepping) {
  // run_until with a STATE-based predicate must fire at the same cycle the
  // dense reference finds by single-stepping.
  Params p;
  const std::int64_t want =
      p.eta * p.payload_blocks / 2;  // mid-run, not at the quiescent tail
  Scenario dense(p);
  Cycle dense_fired = -1;
  for (Cycle c = 0; c < p.run_cycles; ++c) {
    if (dense.sink->received().size() >= static_cast<std::size_t>(want)) {
      dense_fired = dense.sys.now();
      break;
    }
    dense.sys.run_dense(1);
  }
  ASSERT_GE(dense_fired, 0);

  Scenario event(p);
  SinkTile* snk = event.sink;
  const bool fired = event.sys.run_until(
      [snk, want](Cycle) {
        return snk->received().size() >= static_cast<std::size_t>(want);
      },
      p.run_cycles);
  ASSERT_TRUE(fired);
  EXPECT_EQ(event.sys.now(), dense_fired);
  EXPECT_EQ(event.sink->received(), dense.sink->received());
}

TEST(EventHorizon, RunUntilEvaluatesPredicateOncePerStep) {
  // Regression: run_until used to evaluate the predicate twice per loop
  // step. The contract is one evaluation per visited cycle — observable
  // with a counting predicate: the cycles it sees must strictly increase
  // (no cycle presented twice) even across quiescent jumps.
  Params p;
  Scenario s(p);
  std::vector<Cycle> seen;
  const bool fired = s.sys.run_until(
      [&seen](Cycle now) {
        seen.push_back(now);
        return false;
      },
      2000);
  EXPECT_FALSE(fired);
  ASSERT_FALSE(seen.empty());
  for (std::size_t i = 1; i < seen.size(); ++i) {
    ASSERT_LT(seen[i - 1], seen[i])
        << "predicate evaluated twice at cycle " << seen[i];
  }
  // The final evaluation happens at the budget end.
  EXPECT_EQ(seen.back(), 2000);
  // And one evaluation per visited cycle at most: never more evaluations
  // than cycles + 1 (the +1 is the entry check at cycle 0).
  EXPECT_LE(seen.size(), static_cast<std::size_t>(2001));
}

// --- Hand-built source/sink and processor-tile systems -------------------

struct StaggeredOutcome {
  std::vector<Flit> received;
  std::vector<Cycle> timestamps;
  std::int64_t emitted = 0;
  std::int64_t dropped = 0;
  std::int64_t underruns = 0;
  std::string metrics;
};

// A fast source feeding a slow, phase-shifted sink through one-cycle-lag
// visibility: the sink sleeps between DAC deadlines while the source keeps
// pushing, so the wake-list calendar holds long single-component stretches.
StaggeredOutcome run_staggered(StepperKind kind) {
  System sys(2);
  CFifo& f = sys.add_fifo("f", 64, /*read_visibility_lag=*/1,
                          /*write_visibility_lag=*/1);
  obs::MetricsRegistry metrics;
  f.set_metrics(&metrics);
  auto& sink = sys.add<SinkTile>("sink", f, /*period=*/50, /*prefill=*/1);
  std::vector<Flit> data;
  for (Flit i = 0; i < 40; ++i) data.push_back(100 + i);
  auto& src = sys.add<SourceTile>("src", f, data, /*period=*/4);
  sink.set_metrics(&metrics);
  src.set_metrics(&metrics);
  sys.run_with(kind, 2100);

  StaggeredOutcome o;
  o.received = sink.received();
  o.timestamps = sink.timestamps();
  o.emitted = src.emitted();
  o.dropped = src.dropped();
  o.underruns = sink.underruns();
  o.metrics = metrics.snapshot_text();
  return o;
}

TEST(EventHorizon, StaggeredSourceSinkMatchesDense) {
  const StaggeredOutcome dense = run_staggered(StepperKind::kDense);
  const StaggeredOutcome wake = run_staggered(StepperKind::kWakeList);
  EXPECT_EQ(wake.received, dense.received);
  EXPECT_EQ(wake.timestamps, dense.timestamps);
  EXPECT_EQ(wake.emitted, dense.emitted);
  EXPECT_EQ(wake.dropped, dense.dropped);
  EXPECT_EQ(wake.underruns, dense.underruns);
  // Per-token FIFO traffic, occupancy histogram, source/sink counters.
  EXPECT_EQ(wake.metrics, dense.metrics);
  EXPECT_EQ(dense.dropped, 0);
  EXPECT_EQ(dense.received.size(), 40u);
}

TEST(EventHorizon, HintedProcessorMatchesDense) {
  // A lone hinted task that is always ready: invocation counts, busy
  // accounting and the budget-replenishment grid must match dense exactly
  // while the wake-list stepper jumps between invocation completions.
  auto run = [](StepperKind kind) {
    System sys(2);
    CFifo& f = sys.add_fifo("f", 8, 1, 1);
    auto& pt = sys.add<ProcessorTile>("pt", /*replenish=*/100);
    Task t;
    t.name = "work";
    t.invoke = [](Cycle) -> Cycle { return 10; };
    t.budget = 50;
    t.next_ready = [](Cycle now) -> Cycle { return now; };
    t.wake_on_push = {&f};
    pt.add_task(std::move(t));
    sys.run_with(kind, 1000);
    return std::make_tuple(pt.invocations(0), pt.busy_cycles(),
                           sys.state_digest(), sys.stepper_stats());
  };
  const auto [dense_runs, dense_busy, dense_digest, dense_stats] =
      run(StepperKind::kDense);
  const auto [wake_runs, wake_busy, wake_digest, wake_stats] =
      run(StepperKind::kWakeList);
  EXPECT_EQ(wake_runs, dense_runs);
  EXPECT_EQ(wake_busy, dense_busy);
  EXPECT_EQ(wake_digest, dense_digest);
  EXPECT_GT(dense_runs, 0);
  EXPECT_GT(wake_stats.skipped_cycles, 0);
}

TEST(EventHorizon, UnhintedTaskIsPolledEveryIdleCycleLikeDense) {
  // Without a hint the tile cannot say when its task unblocks, so the
  // wake-list stepper must poll it on every cycle it is not busy — the
  // same attempts, at the same cycles, as dense ticking. The test pushes
  // into the input between runs, which no watcher would report.
  auto run = [](StepperKind kind) {
    System sys(2);
    CFifo& in = sys.add_fifo("in", 4, /*read_visibility_lag=*/3,
                             /*write_visibility_lag=*/1);
    auto& pt = sys.add<ProcessorTile>("pt", /*replenish=*/100);
    std::vector<Cycle> polls;
    Task t;
    t.name = "copy";
    t.invoke = [&](Cycle now) -> Cycle {
      polls.push_back(now);
      if (!in.can_pop(now)) return 0;
      (void)in.pop(now);
      return 6;
    };
    t.budget = 100;
    pt.add_task(std::move(t));
    sys.run_with(kind, 20);
    in.push(sys.now(), 1);
    in.push(sys.now(), 2);
    sys.run_with(kind, 40);
    return std::make_tuple(polls, pt.invocations(0), pt.busy_cycles(),
                           sys.state_digest());
  };
  const auto dense = run(StepperKind::kDense);
  const auto wake = run(StepperKind::kWakeList);
  EXPECT_EQ(wake, dense);
  const std::vector<Cycle>& polls = std::get<0>(wake);
  // 60 cycles less the 5 busy tail cycles of each of the two invocations.
  ASSERT_EQ(polls.size(), 50u);
  for (Cycle c = 0; c < 20; ++c)
    EXPECT_EQ(polls[static_cast<std::size_t>(c)], c);
  EXPECT_EQ(std::get<1>(wake), 2);
}

TEST(EventHorizon, SpaceHintedProducerWakesOnPopLikeDense) {
  // A producer task whose hint waits for writer-visible space parks with
  // no horizon while its output is full; only the slow sink's pops, routed
  // through the task's wake_on_pop FIFO, can wake it.
  auto run = [](StepperKind kind) {
    System sys(2);
    CFifo& out = sys.add_fifo("out", 2, /*read_visibility_lag=*/1,
                              /*write_visibility_lag=*/2);
    auto& pt = sys.add<ProcessorTile>("pt", /*replenish=*/50);
    auto& sink = sys.add<SinkTile>("sink", out, /*period=*/9);
    std::vector<Cycle> produced;
    Flit next = 1;
    Task t;
    t.name = "produce";
    t.invoke = [&](Cycle now) -> Cycle {
      if (!out.can_push(now)) return 0;
      out.push(now, next++);
      produced.push_back(now);
      return 2;
    };
    t.budget = 20;
    t.next_ready = [&out](Cycle now) { return out.when_space_visible(1, now); };
    t.wake_on_pop = {&out};
    pt.add_task(std::move(t));
    sys.run_with(kind, 300);
    return std::make_tuple(produced, sink.received(), sink.timestamps(),
                           pt.busy_cycles(), sys.state_digest(),
                           sys.stepper_stats().skipped_cycles);
  };
  const auto dense = run(StepperKind::kDense);
  const auto wake = run(StepperKind::kWakeList);
  EXPECT_EQ(std::get<0>(wake), std::get<0>(dense));
  EXPECT_EQ(std::get<1>(wake), std::get<1>(dense));
  EXPECT_EQ(std::get<2>(wake), std::get<2>(dense));
  EXPECT_EQ(std::get<3>(wake), std::get<3>(dense));
  EXPECT_EQ(std::get<4>(wake), std::get<4>(dense));
  // The sink paces the producer: one token per DAC period after the fill.
  EXPECT_GT(std::get<0>(dense).size(), 30u);
  EXPECT_GT(std::get<5>(wake), 0);
}

TEST(EventHorizon, PriorityBudgetHintedTasksMatchDense) {
  // A high-priority consumer, woken by its input's pushes, and an
  // always-ready low-priority filler share one budgeted tile. Both exhaust
  // their budgets, so the tile parks until the replenishment grid refills
  // them: priority order, budget accounting and the grid's phase must all
  // match dense.
  auto run = [](StepperKind kind) {
    System sys(2);
    CFifo& in = sys.add_fifo("in", 8, /*read_visibility_lag=*/2,
                             /*write_visibility_lag=*/2);
    std::vector<Flit> data;
    for (Flit i = 0; i < 60; ++i) data.push_back(i);
    auto& src = sys.add<SourceTile>("src", in, data, /*period=*/5,
                                    /*start_at=*/3);
    src.set_jitter(/*max_jitter=*/3, /*seed=*/11);
    auto& pt = sys.add<ProcessorTile>("pt", /*replenish=*/40,
                                      SchedulerPolicy::kPriorityBudget);
    std::vector<std::pair<Cycle, Flit>> consumed;
    Task hi;
    hi.name = "consume";
    hi.priority = 2;
    hi.budget = 12;
    hi.invoke = [&](Cycle now) -> Cycle {
      if (!in.can_pop(now)) return 0;
      consumed.emplace_back(now, in.pop(now));
      return 3;
    };
    hi.next_ready = [&in](Cycle now) { return in.when_fill_visible(1, now); };
    hi.wake_on_push = {&in};
    pt.add_task(std::move(hi));
    Task lo;
    lo.name = "filler";
    lo.priority = 1;
    lo.budget = 16;
    lo.invoke = [](Cycle) -> Cycle { return 4; };
    lo.next_ready = [](Cycle now) { return now; };
    lo.wake_on_push = {&in};
    pt.add_task(std::move(lo));
    sys.run_with(kind, 400);
    return std::make_tuple(consumed, pt.invocations(0), pt.invocations(1),
                           pt.busy_cycles(), src.dropped(), sys.state_digest(),
                           sys.stepper_stats().skipped_cycles);
  };
  const auto dense = run(StepperKind::kDense);
  const auto wake = run(StepperKind::kWakeList);
  EXPECT_EQ(std::get<0>(wake), std::get<0>(dense));
  EXPECT_EQ(std::get<1>(wake), std::get<1>(dense));
  EXPECT_EQ(std::get<2>(wake), std::get<2>(dense));
  EXPECT_EQ(std::get<3>(wake), std::get<3>(dense));
  EXPECT_EQ(std::get<4>(wake), std::get<4>(dense));
  EXPECT_EQ(std::get<5>(wake), std::get<5>(dense));
  // 4 consumes (12 budget cycles) per 40-cycle period cannot keep up with
  // 8 samples per period: the budget binds, and the filler still runs.
  EXPECT_GT(std::get<4>(dense), 0);
  EXPECT_GT(std::get<2>(dense), 0);
  EXPECT_GT(std::get<6>(wake), 0);
}

TEST(EventHorizon, ProcessorPipelineMatchesDense) {
  // Jittered source -> producer tile -> consumer tile -> sink. The tiles'
  // hints depend on each other's FIFO traffic in both directions (fill for
  // the consumer, space for the producer), with lags on every C-FIFO.
  auto run = [](StepperKind kind) {
    System sys(3);
    CFifo& a = sys.add_fifo("a", 4, 2, 3);
    CFifo& b = sys.add_fifo("b", 3, 4, 1);
    CFifo& c = sys.add_fifo("c", 6, 1, 2);
    std::vector<Flit> data;
    for (Flit i = 0; i < 50; ++i) data.push_back(1000 + i);
    auto& src = sys.add<SourceTile>("src", a, data, /*period=*/7);
    src.set_jitter(/*max_jitter=*/4, /*seed=*/5);
    const auto stage = [](CFifo& in, CFifo& out, Cycle cost, Flit add) {
      Task t;
      t.name = in.name() + "->" + out.name();
      t.invoke = [&in, &out, cost, add](Cycle now) -> Cycle {
        if (!in.can_pop(now) || !out.can_push(now)) return 0;
        out.push(now, in.pop(now) + add);
        return cost;
      };
      t.next_ready = [&in, &out](Cycle now) {
        return std::max(in.when_fill_visible(1, now),
                        out.when_space_visible(1, now));
      };
      t.wake_on_push = {&in};
      t.wake_on_pop = {&out};
      return t;
    };
    auto& first = sys.add<ProcessorTile>("first", /*replenish=*/30);
    first.add_task(stage(a, b, 5, 1));
    auto& second = sys.add<ProcessorTile>("second", /*replenish=*/30);
    second.add_task(stage(b, c, 6, 2));
    auto& sink = sys.add<SinkTile>("sink", c, /*period=*/7, /*prefill=*/3);
    sys.run_with(kind, 800);
    return std::make_tuple(sink.received(), sink.timestamps(),
                           sink.underruns(), src.dropped(),
                           first.busy_cycles(), second.busy_cycles(),
                           sys.state_digest());
  };
  const auto dense = run(StepperKind::kDense);
  const auto wake = run(StepperKind::kWakeList);
  EXPECT_EQ(wake, dense);
  EXPECT_GT(std::get<0>(dense).size(), 40u);
  EXPECT_EQ(std::get<0>(dense).front(), Flit{1003});
}

// --- Full PAL decoder demonstrator -------------------------------------

app::PalSimConfig small_pal() {
  app::PalSimConfig cfg;
  cfg.input_samples = 1 << 11;  // short but covers many blocks per stream
  return cfg;
}

void expect_same_pal(const app::PalSimResult& dense,
                     const app::PalSimResult& event) {
  EXPECT_EQ(dense.left, event.left);
  EXPECT_EQ(dense.right, event.right);
  EXPECT_EQ(dense.source_drops, event.source_drops);
  EXPECT_EQ(dense.sink_underruns, event.sink_underruns);
  EXPECT_EQ(dense.cycles_run, event.cycles_run);
  EXPECT_EQ(dense.max_audio_latency, event.max_audio_latency);
  EXPECT_EQ(dense.cordic_samples, event.cordic_samples);
  EXPECT_EQ(dense.fir_samples, event.fir_samples);
  EXPECT_EQ(dense.cordic_busy, event.cordic_busy);
  EXPECT_EQ(dense.fir_busy, event.fir_busy);
  EXPECT_EQ(dense.blocks_per_stream, event.blocks_per_stream);
  EXPECT_EQ(dense.gateway.blocks, event.gateway.blocks);
  EXPECT_EQ(dense.gateway.samples_forwarded, event.gateway.samples_forwarded);
  EXPECT_EQ(dense.gateway.data_cycles, event.gateway.data_cycles);
  EXPECT_EQ(dense.gateway.reconfig_cycles, event.gateway.reconfig_cycles);
  EXPECT_EQ(dense.gateway.wait_cycles, event.gateway.wait_cycles);
  EXPECT_EQ(dense.gateway.credit_stall_cycles,
            event.gateway.credit_stall_cycles);
}

TEST(EventHorizon, PalDecoderEquivalence) {
  app::PalSimConfig cfg = small_pal();
  cfg.stepper = StepperKind::kDense;
  const app::PalSimResult dense = app::run_pal_decoder(cfg);
  cfg.stepper = StepperKind::kWakeList;
  const app::PalSimResult wake = app::run_pal_decoder(cfg);
  expect_same_pal(dense, wake);
  EXPECT_EQ(dense.stepper.skips, 0);
  EXPECT_GT(wake.stepper.skipped_cycles, 0);
  EXPECT_GT(wake.stepper.wakes, 0);
  // Selective ticking: the wake list must tick strictly fewer components
  // than an all-or-nothing skipper would (every component on every stepped
  // cycle).
  const std::int64_t components =
      dense.stepper.component_ticks / dense.stepper.dense_ticks;
  EXPECT_LT(wake.stepper.component_ticks,
            components * wake.stepper.dense_ticks);
}

TEST(EventHorizon, PalDecoderEquivalenceUnderFaults) {
  const auto run = [](StepperKind kind) {
    FaultInjector inj(0xFA117);
    FaultSpec ring;
    ring.probability = 0.01;
    ring.max_delay = 4;
    ring.min_spacing = 200;
    inj.configure(FaultSite::kRingLink, ring);
    FaultSpec bus;
    bus.probability = 0.4;
    bus.max_delay = 50;
    inj.configure(FaultSite::kConfigBus, bus);
    FaultSpec notify;
    notify.probability = 0.3;
    notify.max_delay = 20;
    notify.drop_probability = 0.1;
    inj.configure(FaultSite::kExitNotify, notify);
    TraceLog trace(1 << 18);
    app::PalSimConfig cfg = small_pal();
    cfg.stepper = kind;
    cfg.fault = &inj;
    cfg.trace = &trace;
    cfg.notify_timeout = 2000;  // recovery: drops must not deadlock
    app::PalSimResult res = app::run_pal_decoder(cfg);
    return std::make_pair(std::move(res), trace.to_csv());
  };
  const auto [dense, dense_csv] = run(StepperKind::kDense);
  const auto [wake, wake_csv] = run(StepperKind::kWakeList);
  expect_same_pal(dense, wake);
  EXPECT_EQ(dense_csv, wake_csv);
  EXPECT_EQ(dense.gateway.notify_timeouts, wake.gateway.notify_timeouts);
  EXPECT_EQ(dense.gateway.notify_recoveries, wake.gateway.notify_recoveries);
}

TEST(EventHorizon, PalDedicatedDecoderEquivalence) {
  app::PalSimConfig cfg = small_pal();
  cfg.stepper = StepperKind::kDense;
  const app::PalSimResult dense = app::run_pal_decoder_dedicated(cfg);
  cfg.stepper = StepperKind::kWakeList;
  const app::PalSimResult wake = app::run_pal_decoder_dedicated(cfg);
  expect_same_pal(dense, wake);
}

}  // namespace
}  // namespace acc::sim
