#include "sim/proc_tile.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "sim/cfifo.hpp"
#include "sim/system.hpp"

namespace acc::sim {
namespace {

TEST(ProcessorTile, RunsTasksAndChargesCost) {
  System sys(2);
  auto& pt = sys.add<ProcessorTile>("pt", /*replenish=*/100);
  int runs = 0;
  pt.add_task(Task{"t", [&](Cycle) -> Cycle {
                     ++runs;
                     return 10;
                   },
                   /*budget=*/100});
  sys.run(100);
  // Each invocation costs 10 cycles: ~10 invocations in 100 cycles.
  EXPECT_GE(runs, 9);
  EXPECT_LE(runs, 11);
  EXPECT_EQ(pt.invocations(0), runs);
}

TEST(ProcessorTile, BudgetLimitsTaskShare) {
  System sys(2);
  auto& pt = sys.add<ProcessorTile>("pt", /*replenish=*/100);
  int greedy = 0;
  pt.add_task(Task{"greedy", [&](Cycle) -> Cycle {
                     ++greedy;
                     return 10;
                   },
                   /*budget=*/30});
  sys.run(1000);
  // 30 cycles of budget per 100-cycle period -> at most 3 runs per period.
  EXPECT_LE(greedy, 3 * 10 + 1);
  EXPECT_GE(greedy, 3 * 10 - 3);
}

TEST(ProcessorTile, RoundRobinSharesBetweenTasks) {
  System sys(2);
  auto& pt = sys.add<ProcessorTile>("pt", 100);
  int a = 0;
  int b = 0;
  pt.add_task(Task{"a", [&](Cycle) -> Cycle {
                     ++a;
                     return 5;
                   },
                   50});
  pt.add_task(Task{"b", [&](Cycle) -> Cycle {
                     ++b;
                     return 5;
                   },
                   50});
  sys.run(1000);
  EXPECT_NEAR(a, b, 2);
  EXPECT_GT(a, 50);
}

TEST(ProcessorTile, BlockedTaskYieldsToOthers) {
  System sys(2);
  auto& pt = sys.add<ProcessorTile>("pt", 100);
  int blocked_polls = 0;
  int worker = 0;
  pt.add_task(Task{"blocked", [&](Cycle) -> Cycle {
                     ++blocked_polls;
                     return 0;  // never has work
                   },
                   50});
  pt.add_task(Task{"worker", [&](Cycle) -> Cycle {
                     ++worker;
                     return 4;
                   },
                   50});
  sys.run(400);
  EXPECT_GT(worker, 40);  // got the cycles the blocked task couldn't use
}

TEST(ProcessorTile, HintedTaskWithoutWakeFifosIsRejected) {
  // The wake-list stepper trusts a next_ready hint only while C-FIFO
  // traffic can invalidate it, so a hinted task must name a wake FIFO.
  System sys(2);
  CFifo& f = sys.add_fifo("f", 4, 1, 1);
  auto& pt = sys.add<ProcessorTile>("pt", /*replenish=*/100);
  const auto task = [](bool hinted) {
    Task t;
    t.name = hinted ? "hinted" : "plain";
    t.invoke = [](Cycle) -> Cycle { return 1; };
    if (hinted) t.next_ready = [](Cycle now) { return now; };
    return t;
  };
  EXPECT_THROW(pt.add_task(task(true)), precondition_error);
  EXPECT_THROW((void)pt.invocations(0), precondition_error);  // not added
  Task on_push = task(true);
  on_push.wake_on_push = {&f};
  EXPECT_NO_THROW(pt.add_task(std::move(on_push)));
  Task on_pop = task(true);
  on_pop.wake_on_pop = {&f};
  EXPECT_NO_THROW(pt.add_task(std::move(on_pop)));
  EXPECT_NO_THROW(pt.add_task(task(false)));  // unhinted: ticks densely
  EXPECT_EQ(pt.invocations(2), 0);
}

TEST(PriorityBudget, HighPriorityDominatesWhileItHoldsBudget) {
  System sys(2);
  auto& pt = sys.add<ProcessorTile>("pt", /*replenish=*/100,
                                    SchedulerPolicy::kPriorityBudget);
  int low = 0;
  int high = 0;
  pt.add_task(Task{"low", [&](Cycle) -> Cycle {
                     ++low;
                     return 10;
                   },
                   /*budget=*/100, /*priority=*/1});
  pt.add_task(Task{"high", [&](Cycle) -> Cycle {
                     ++high;
                     return 10;
                   },
                   /*budget=*/40, /*priority=*/9});
  sys.run(1000);
  // Per 100-cycle period: high runs its full 40-cycle budget (4 runs),
  // low fills the remaining 60 (6 runs).
  EXPECT_NEAR(high, 40, 3);
  EXPECT_NEAR(low, 60, 3);
}

TEST(PriorityBudget, BudgetExhaustionYieldsToLowerPriority) {
  // Even the highest priority cannot starve others beyond its budget —
  // the temporal-isolation property the dataflow analysis needs.
  System sys(2);
  auto& pt = sys.add<ProcessorTile>("pt", 100,
                                    SchedulerPolicy::kPriorityBudget);
  int greedy = 0;
  int meek = 0;
  pt.add_task(Task{"greedy", [&](Cycle) -> Cycle {
                     ++greedy;
                     return 5;
                   },
                   /*budget=*/20, /*priority=*/100});
  pt.add_task(Task{"meek", [&](Cycle) -> Cycle {
                     ++meek;
                     return 5;
                   },
                   /*budget=*/80, /*priority=*/0});
  sys.run(1000);
  EXPECT_NEAR(greedy, 4 * 10, 2);   // 20/5 runs per period
  EXPECT_NEAR(meek, 16 * 10, 3);    // 80/5 runs per period
}

TEST(PriorityBudget, EqualPriorityFallsBackToRegistrationOrder) {
  System sys(2);
  auto& pt = sys.add<ProcessorTile>("pt", 100,
                                    SchedulerPolicy::kPriorityBudget);
  int first = 0;
  int second = 0;
  pt.add_task(Task{"first", [&](Cycle) -> Cycle {
                     ++first;
                     return 10;
                   },
                   /*budget=*/50, /*priority=*/5});
  pt.add_task(Task{"second", [&](Cycle) -> Cycle {
                     ++second;
                     return 10;
                   },
                   /*budget=*/50, /*priority=*/5});
  sys.run(500);
  // Both get their 50-cycle budgets per period.
  EXPECT_NEAR(first, 25, 2);
  EXPECT_NEAR(second, 25, 2);
}

TEST(SourceTile, EmitsAtFixedRateAndCountsDrops) {
  System sys(2);
  CFifo& f = sys.add_fifo("f", 4, 0, 0);
  std::vector<Flit> data(10, 7);
  auto& src = sys.add<SourceTile>("src", f, data, /*period=*/3);
  sys.run(100);
  // Nobody drains: 4 accepted, 6 dropped.
  EXPECT_EQ(src.emitted(), 4);
  EXPECT_EQ(src.dropped(), 6);
  EXPECT_TRUE(src.exhausted());
}

TEST(SourceTile, NoDropsWhenDrained) {
  System sys(2);
  CFifo& f = sys.add_fifo("f", 4, 0, 0);
  std::vector<Flit> data(20, 9);
  auto& src = sys.add<SourceTile>("src", f, data, 3);
  auto& sink = sys.add<SinkTile>("sink", f, 3, 1);
  // Run just past the stream's natural end: a DAC counts demands beyond the
  // end of the broadcast as underruns, so the horizon matters.
  sys.run(58);
  EXPECT_EQ(src.dropped(), 0);
  EXPECT_EQ(sink.received().size(), 20u);
  EXPECT_EQ(sink.underruns(), 0);
}

TEST(SinkTile, WaitsForPrefillThenConsumesPeriodically) {
  System sys(2);
  CFifo& f = sys.add_fifo("f", 16, 0, 0);
  auto& sink = sys.add<SinkTile>("sink", f, /*period=*/5, /*prefill=*/3);
  sys.run(10);
  EXPECT_FALSE(sink.started());
  f.push(sys.now(), 1);
  f.push(sys.now(), 2);
  sys.run(10);
  EXPECT_FALSE(sink.started());  // below prefill
  f.push(sys.now(), 3);
  sys.run(20);
  EXPECT_TRUE(sink.started());
  ASSERT_GE(sink.timestamps().size(), 2u);
  EXPECT_EQ(sink.timestamps()[1] - sink.timestamps()[0], 5);
}

TEST(SinkTile, CountsUnderruns) {
  System sys(2);
  CFifo& f = sys.add_fifo("f", 16, 0, 0);
  auto& sink = sys.add<SinkTile>("sink", f, 2, 1);
  f.push(0, 1);
  sys.run(21);
  // Started at t=0 with one sample; 10 more demands with nothing there.
  EXPECT_EQ(sink.received().size(), 1u);
  EXPECT_GE(sink.underruns(), 9);
}

}  // namespace
}  // namespace acc::sim
