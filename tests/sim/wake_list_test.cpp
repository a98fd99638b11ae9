// Wake-path edge cases for the wake-list stepper (System::run).
//
// The equivalence suite (event_horizon_test.cpp) checks whole-workload
// digests; these tests pin the individual scheduling rules at the exact
// boundaries where a missed or double-counted wake would diverge from
// dense semantics:
//
//   1. a wake arriving at the very cycle a cached horizon expires must
//      tick the component exactly once (due-and-woken is not twice-due);
//   2. a data-ring delivery and a credit-ring delivery landing on the
//      same node in the same cycle must both be observed on the next tick;
//   3. the FaultInjector's seeded RNG stream must be consulted at the same
//      cycles even when those consults fall inside a range the wake-list
//      stepper skipped — fault stats and delivery timing stay bit-identical
//      to dense;
//   4. System::retire: only a parked component may leave the calendar, a
//      wake routed to a retired component fails loudly, a component added
//      between runs ticks when dense would, and all three steppers agree
//      on the digest across a retirement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/cfifo.hpp"
#include "sim/fault.hpp"
#include "sim/system.hpp"

namespace acc::sim {
namespace {

// --- 1. wake on the exact cycle a cached horizon expires -------------------

/// Sleeps until `fire_at`, then pushes one flit and parks forever.
class OneShotEmitter final : public Component {
 public:
  OneShotEmitter(CFifo& out, Cycle fire_at, Flit value)
      : out_(out), fire_at_(fire_at), value_(value) {}

  void tick(Cycle now) override {
    if (!fired_ && now >= fire_at_) {
      out_.push(now, value_);
      fired_ = true;
    }
  }
  [[nodiscard]] Cycle next_event(Cycle now) const override {
    if (fired_) return kNeverCycle;
    return std::max(fire_at_, now + 1);
  }

 private:
  CFifo& out_;
  Cycle fire_at_;
  Flit value_;
  bool fired_ = false;
};

/// Pops everything visible each tick. Self-schedules one poll at `poll_at`
/// (so its cached horizon expires there) and otherwise relies on the
/// C-FIFO push watcher for wakes.
class PollingListener final : public Component {
 public:
  PollingListener(CFifo& in, Cycle poll_at) : in_(in), poll_at_(poll_at) {
    in_.add_push_watcher(this);
  }

  void tick(Cycle now) override {
    tick_log_.push_back(now);
    while (in_.can_pop(now)) pops_.emplace_back(now, in_.pop(now));
  }
  [[nodiscard]] Cycle next_event(Cycle now) const override {
    Cycle h = in_.when_fill_visible(1, now);
    if (poll_at_ > now) h = std::min(h, poll_at_);
    return h == kNeverCycle ? kNeverCycle : std::max(h, now + 1);
  }

  [[nodiscard]] const std::vector<std::pair<Cycle, Flit>>& pops() const {
    return pops_;
  }
  [[nodiscard]] std::int64_t ticks_at(Cycle c) const {
    return std::count(tick_log_.begin(), tick_log_.end(), c);
  }
  [[nodiscard]] const std::vector<Cycle>& tick_log() const { return tick_log_; }

 private:
  CFifo& in_;
  Cycle poll_at_;
  std::vector<std::pair<Cycle, Flit>> pops_;
  std::vector<Cycle> tick_log_;
};

/// Build the two-component scenario (listener polls at exactly the cycle
/// the emitter fires), run it with `kind`, and return what the listener
/// popped. `listener_first` selects the registration order, covering both
/// wake directions: toward an already-processed slot (lands at now + 1)
/// and toward a not-yet-scanned slot (picked up in the same cycle).
struct ExpiryResult {
  std::vector<std::pair<Cycle, Flit>> pops;
  std::int64_t ticks_at_fire = 0;
  StepperStats stats;
};

ExpiryResult run_expiry_scenario(StepperKind kind, bool listener_first) {
  constexpr Cycle kFireAt = 40;
  constexpr Flit kValue = 0xC0FFEE;
  System sys{2};
  // Zero visibility lag: the push becomes visible the cycle it happens, so
  // scheduling the woken listener even one cycle late would change when it
  // pops — the tightest possible probe of the wake timing rule.
  CFifo& fifo = sys.add_fifo("f", 8, 0, 0);
  PollingListener* listener = nullptr;
  if (listener_first) {
    listener = &sys.add<PollingListener>(fifo, kFireAt);
    sys.add<OneShotEmitter>(fifo, kFireAt, kValue);
  } else {
    sys.add<OneShotEmitter>(fifo, kFireAt, kValue);
    listener = &sys.add<PollingListener>(fifo, kFireAt);
  }
  sys.run_with(kind, 64);
  return {listener->pops(), listener->ticks_at(kFireAt), sys.stepper_stats()};
}

TEST(WakeListEdge, WakeOnExactHorizonExpiryTicksOnce) {
  for (const bool listener_first : {true, false}) {
    SCOPED_TRACE(listener_first ? "listener before emitter"
                                : "emitter before listener");
    const ExpiryResult dense =
        run_expiry_scenario(StepperKind::kDense, listener_first);
    const ExpiryResult wake =
        run_expiry_scenario(StepperKind::kWakeList, listener_first);

    ASSERT_EQ(dense.pops.size(), 1u);
    EXPECT_EQ(wake.pops, dense.pops);
    // Due-and-woken on the same cycle must not double-tick.
    EXPECT_EQ(dense.ticks_at_fire, 1);
    EXPECT_EQ(wake.ticks_at_fire, 1);
    // The run must actually have exercised the wake-list machinery.
    EXPECT_GT(wake.stats.skipped_cycles, 0);
    EXPECT_GT(wake.stats.wakes, 0);
    EXPECT_LT(wake.stats.component_ticks, dense.stats.component_ticks);
  }
}

// --- 2. simultaneous data delivery + credit return, same node, same cycle --

/// At `fire_at`, injects one data flit and one credit toward `dst` (equal
/// hop counts on the counter-rotating rings, so both eject the same cycle).
class DualInjector final : public Component {
 public:
  DualInjector(DualRing& ring, std::int32_t src, std::int32_t dst,
               Cycle fire_at)
      : ring_(ring), src_(src), dst_(dst), fire_at_(fire_at) {}

  void tick(Cycle now) override {
    if (fired_ || now < fire_at_) return;
    RingMsg data;
    data.dst = dst_;
    data.tag = 7;
    data.payload = 0xDA7A;
    RingMsg credit;
    credit.dst = dst_;
    credit.tag = 9;
    ASSERT_OK(ring_.data().try_inject(src_, data));
    ASSERT_OK(ring_.credit().try_inject(src_, credit));
    fired_ = true;
  }
  [[nodiscard]] Cycle next_event(Cycle now) const override {
    return fired_ ? kNeverCycle : std::max(fire_at_, now + 1);
  }

 private:
  static void ASSERT_OK(bool injected) { ACC_CHECK(injected); }

  DualRing& ring_;
  std::int32_t src_;
  std::int32_t dst_;
  Cycle fire_at_;
  bool fired_ = false;
};

/// Drains both rings at its node every tick, logging what arrived when.
class NodeObserver final : public Component {
 public:
  NodeObserver(DualRing& ring, std::int32_t node) : ring_(ring), node_(node) {}

  void tick(Cycle now) override {
    ring_.data().drain_into(node_, rx_);
    for (const RingMsg& m : rx_) data_log_.emplace_back(now, m.payload);
    const std::int64_t credits = ring_.credit().drain_count(node_);
    if (credits > 0) credit_log_.emplace_back(now, credits);
  }
  [[nodiscard]] Cycle next_event(Cycle) const override { return kNeverCycle; }
  [[nodiscard]] std::int32_t ring_node() const override { return node_; }

  [[nodiscard]] const std::vector<std::pair<Cycle, Flit>>& data_log() const {
    return data_log_;
  }
  [[nodiscard]] const std::vector<std::pair<Cycle, std::int64_t>>& credit_log()
      const {
    return credit_log_;
  }

 private:
  DualRing& ring_;
  std::int32_t node_;
  std::vector<RingMsg> rx_;
  std::vector<std::pair<Cycle, Flit>> data_log_;
  std::vector<std::pair<Cycle, std::int64_t>> credit_log_;
};

struct DeliveryResult {
  std::vector<std::pair<Cycle, Flit>> data_log;
  std::vector<std::pair<Cycle, std::int64_t>> credit_log;
  StepperStats stats;
};

DeliveryResult run_delivery_scenario(StepperKind kind) {
  // 4-node rings, src 0 -> dst 2: two hops clockwise on the data ring, two
  // hops counter-clockwise on the credit ring — both deliveries eject at
  // node 2 in the same cycle.
  System sys{4};
  sys.add<DualInjector>(sys.ring(), 0, 2, /*fire_at=*/50);
  NodeObserver& obs = sys.add<NodeObserver>(sys.ring(), 2);
  sys.run_with(kind, 200);
  return {obs.data_log(), obs.credit_log(), sys.stepper_stats()};
}

TEST(WakeListEdge, SimultaneousDataAndCreditDeliverySameNode) {
  const DeliveryResult dense = run_delivery_scenario(StepperKind::kDense);
  const DeliveryResult wake = run_delivery_scenario(StepperKind::kWakeList);

  ASSERT_EQ(dense.data_log.size(), 1u);
  ASSERT_EQ(dense.credit_log.size(), 1u);
  // Both rings delivered to node 2 in the same cycle, and the observer saw
  // both on one tick.
  EXPECT_EQ(dense.data_log[0].first, dense.credit_log[0].first);
  EXPECT_EQ(wake.data_log, dense.data_log);
  EXPECT_EQ(wake.credit_log, dense.credit_log);
  // A purely reactive observer (next_event = never) must still see the
  // deliveries — only the ring_delivery wake can get it there.
  EXPECT_GT(wake.stats.wakes, 0);
  EXPECT_GT(wake.stats.skipped_cycles, 0);
}

// --- 3. fault RNG consults inside a skipped range --------------------------

/// Sends one flit toward `dst` every `period` cycles (self-scheduled).
class PeriodicPinger final : public Component {
 public:
  PeriodicPinger(DualRing& ring, std::int32_t src, std::int32_t dst,
                 Cycle period, std::int64_t count)
      : ring_(ring), src_(src), dst_(dst), period_(period), left_(count) {}

  void tick(Cycle now) override {
    if (left_ <= 0 || now < next_fire_) return;
    RingMsg m;
    m.dst = dst_;
    m.tag = 1;
    m.payload = static_cast<Flit>(left_);
    if (!ring_.data().try_inject(src_, m)) return;  // retry next tick
    --left_;
    next_fire_ = now + period_;
  }
  [[nodiscard]] Cycle next_event(Cycle now) const override {
    if (left_ <= 0) return kNeverCycle;
    return std::max(next_fire_, now + 1);
  }

 private:
  DualRing& ring_;
  std::int32_t src_;
  std::int32_t dst_;
  Cycle period_;
  std::int64_t left_;
  Cycle next_fire_ = 0;
};

struct FaultResult {
  FaultSiteStats ring_stats;
  std::vector<std::pair<Cycle, Flit>> deliveries;
  Cycle data_stall_cycles = 0;
  StepperStats stats;
};

FaultResult run_fault_scenario(StepperKind kind, std::uint64_t seed) {
  System sys{4};
  FaultInjector inj(seed);
  FaultSpec spec;
  spec.probability = 0.5;
  spec.max_delay = 3;
  spec.min_spacing = 11;
  spec.window_from = 20;
  spec.window_until = 1500;
  inj.configure(FaultSite::kRingLink, spec);
  sys.ring().set_fault(&inj);

  sys.add<PeriodicPinger>(sys.ring(), 0, 2, /*period=*/60, /*count=*/8);
  NodeObserver& obs = sys.add<NodeObserver>(sys.ring(), 2);
  sys.run_with(kind, 2000);

  FaultResult r;
  r.ring_stats = inj.stats(FaultSite::kRingLink);
  r.deliveries = obs.data_log();
  r.data_stall_cycles = sys.ring().data().stall_cycles();
  r.stats = sys.stepper_stats();
  return r;
}

TEST(WakeListEdge, FaultRngConsultedInsideSkippedRange) {
  for (const std::uint64_t seed : {11ULL, 97ULL, 5150ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const FaultResult dense = run_fault_scenario(StepperKind::kDense, seed);
    const FaultResult wake = run_fault_scenario(StepperKind::kWakeList, seed);

    // The traffic is sparse (8 pings, period 60), so the rings sit idle
    // between bursts — but the fault window stays open, and dense ticking
    // consults the seeded RNG at every eligible cycle in those gaps. The
    // wake-list run skips the gaps and must land on exactly the same
    // consult cycles, or the deterministic fault pattern desyncs.
    EXPECT_EQ(wake.ring_stats.consults, dense.ring_stats.consults);
    EXPECT_EQ(wake.ring_stats.injected, dense.ring_stats.injected);
    EXPECT_EQ(wake.ring_stats.delay_cycles, dense.ring_stats.delay_cycles);
    EXPECT_EQ(wake.ring_stats.max_delay_seen, dense.ring_stats.max_delay_seen);
    EXPECT_EQ(wake.data_stall_cycles, dense.data_stall_cycles);
    EXPECT_EQ(wake.deliveries, dense.deliveries);

    // Prove the scenario exercises what it claims: consults happened, some
    // triggered, and the wake-list run really skipped cycles.
    EXPECT_GT(dense.ring_stats.consults, 0);
    EXPECT_GT(dense.ring_stats.injected, 0);
    EXPECT_GT(wake.stats.skipped_cycles, 0);
    EXPECT_LT(wake.stats.dense_ticks, dense.stats.dense_ticks);
  }
}

// --- 4. retirement --------------------------------------------------------

TEST(WakeListRetire, RetiringAScheduledComponentFailsTheContract) {
  System sys{2};
  CFifo& fifo = sys.add_fifo("f", 8, 0, 0);
  OneShotEmitter& emitter = sys.add<OneShotEmitter>(fifo, 40, Flit{1});
  EXPECT_THROW(sys.retire(emitter), invariant_error);  // before any run
  sys.run(10);
  EXPECT_THROW(sys.retire(emitter), invariant_error);  // still due at 40
  sys.run(40);                                          // fired: parked
  EXPECT_NO_THROW(sys.retire(emitter));
  EXPECT_THROW(sys.retire(emitter), invariant_error);  // retired twice

  System other{2};
  CFifo& g = other.add_fifo("g", 8, 0, 0);
  PollingListener& foreign = other.add<PollingListener>(g, 0);
  EXPECT_THROW(sys.retire(foreign), invariant_error);  // not sys's component
}

TEST(WakeListRetire, WakeRoutedToARetiredComponentFails) {
  {  // C-FIFO push watcher -> System::wake
    System sys{2};
    CFifo& fifo = sys.add_fifo("f", 8, 0, 0);
    sys.add<OneShotEmitter>(fifo, 40, Flit{1});
    PollingListener& listener = sys.add<PollingListener>(fifo, 0);
    sys.run(10);
    sys.retire(listener);  // parked: nothing visible, no poll pending
    EXPECT_THROW(sys.run(64), invariant_error);
  }
  {  // ring delivery -> the node owner's slot
    System sys{4};
    sys.add<DualInjector>(sys.ring(), 0, 2, /*fire_at=*/50);
    NodeObserver& obs = sys.add<NodeObserver>(sys.ring(), 2);
    sys.run(10);
    sys.retire(obs);
    EXPECT_THROW(sys.run(200), invariant_error);
  }
}

struct LateAddResult {
  std::vector<Cycle> tick_log;
  std::vector<std::pair<Cycle, Flit>> pops;
};

/// A listener joins a running system between two runs; the emitter fires
/// after the join, so the pop also proves the rebuilt calendar routes the
/// push watcher's wake to the newcomer.
LateAddResult run_late_add_scenario(StepperKind kind) {
  System sys{2};
  CFifo& fifo = sys.add_fifo("f", 8, 0, 0);
  sys.add<OneShotEmitter>(fifo, 30, Flit{0xAB});
  sys.run_with(kind, 20);
  PollingListener& late = sys.add<PollingListener>(fifo, 0);
  sys.run_with(kind, 40);
  return {late.tick_log(), late.pops()};
}

TEST(WakeListRetire, ComponentAddedBetweenRunsFirstTicksLikeDense) {
  const LateAddResult dense = run_late_add_scenario(StepperKind::kDense);
  const LateAddResult wake = run_late_add_scenario(StepperKind::kWakeList);
  ASSERT_FALSE(dense.tick_log.empty());
  ASSERT_FALSE(wake.tick_log.empty());
  EXPECT_EQ(dense.tick_log.front(), 20);
  EXPECT_EQ(wake.tick_log.front(), dense.tick_log.front());
  ASSERT_EQ(dense.pops.size(), 1u);
  EXPECT_EQ(wake.pops, dense.pops);
}

/// Emits `count` flits, one every `period` cycles from `start`, then parks
/// for good (the shape of a departed session's source).
class FiniteSource final : public Component {
 public:
  FiniteSource(CFifo& out, Cycle start, Cycle period, std::int64_t count)
      : out_(out), next_(start), period_(period), count_(count) {}

  void tick(Cycle now) override {
    ++ticks_;
    if (sent_ == count_ || now < next_ || !out_.can_push(now)) return;
    out_.push(now, static_cast<Flit>(0x100 + sent_));
    ++sent_;
    next_ += period_;
  }
  [[nodiscard]] Cycle next_event(Cycle now) const override {
    return sent_ == count_ ? kNeverCycle : std::max(next_, now + 1);
  }
  void snapshot_state(StateHasher& h) const override {
    h.mix(sent_);
    h.mix_cycle(next_);
  }
  [[nodiscard]] std::int64_t ticks() const { return ticks_; }

 private:
  CFifo& out_;
  Cycle next_;
  Cycle period_;
  std::int64_t count_;
  std::int64_t sent_ = 0;
  std::int64_t ticks_ = 0;
};

/// Pops everything visible and folds it into a checksum; woken by pushes.
class ChecksumDrain final : public Component {
 public:
  explicit ChecksumDrain(CFifo& in) : in_(in) { in_.add_push_watcher(this); }

  void tick(Cycle now) override {
    ++ticks_;
    while (in_.can_pop(now)) {
      sum_ = sum_ * 31 + in_.pop(now);
      ++received_;
    }
  }
  [[nodiscard]] Cycle next_event(Cycle now) const override {
    const Cycle h = in_.when_fill_visible(1, now);
    return h == kNeverCycle ? kNeverCycle : std::max(h, now + 1);
  }
  void snapshot_state(StateHasher& h) const override {
    h.mix(received_);
    h.mix(sum_);
  }
  [[nodiscard]] std::int64_t ticks() const { return ticks_; }
  [[nodiscard]] std::int64_t received() const { return received_; }

 private:
  CFifo& in_;
  std::int64_t received_ = 0;
  std::uint64_t sum_ = 0;
  std::int64_t ticks_ = 0;
};

struct RetireResult {
  std::vector<std::uint64_t> digests;
  std::int64_t retired_ticks = 0;  // ticks of the retired pair afterwards
  std::int64_t second_received = 0;
};

/// Session-shaped churn: a source/drain pair streams, drains and is
/// retired (under every stepper — dense and global-horizon ignore it);
/// then a second pair joins and streams through a fresh FIFO.
RetireResult run_retire_scenario(StepperKind kind) {
  System sys{2};
  CFifo& a = sys.add_fifo("a", 16, 2, 1);
  FiniteSource& src = sys.add<FiniteSource>(a, 5, 7, 6);
  ChecksumDrain& snk = sys.add<ChecksumDrain>(a);
  RetireResult r;
  sys.run_with(kind, 100);
  r.digests.push_back(sys.state_digest());
  sys.retire(src);
  sys.retire(snk);
  const std::int64_t before = src.ticks() + snk.ticks();

  CFifo& b = sys.add_fifo("b", 16, 2, 1);
  sys.add<FiniteSource>(b, sys.now() + 3, 5, 8);
  ChecksumDrain& snk2 = sys.add<ChecksumDrain>(b);
  sys.run_with(kind, 100);
  r.digests.push_back(sys.state_digest());
  sys.run_with(kind, 50);
  r.digests.push_back(sys.state_digest());
  r.retired_ticks = src.ticks() + snk.ticks() - before;
  r.second_received = snk2.received();
  return r;
}

TEST(WakeListRetire, DigestsStayEqualAcrossRetirement) {
  const RetireResult dense = run_retire_scenario(StepperKind::kDense);
  const RetireResult global = run_retire_scenario(StepperKind::kGlobalHorizon);
  const RetireResult wake = run_retire_scenario(StepperKind::kWakeList);
  EXPECT_EQ(global.digests, dense.digests);
  EXPECT_EQ(wake.digests, dense.digests);
  EXPECT_EQ(dense.second_received, 8);
  EXPECT_EQ(wake.second_received, 8);
  // Dense keeps ticking the retired pair (it is the oracle); the wake-list
  // stepper never touches it again.
  EXPECT_EQ(dense.retired_ticks, 2 * 150);
  EXPECT_EQ(wake.retired_ticks, 0);
}

TEST(WakeListRetire, RetirementSurvivesAForeignHubInstall) {
  // The retirement record is System's own, not the component's hub slot:
  // another hub owner (verify::WakeAudit installs itself on every
  // component) must not bring a retired component back into the calendar.
  System sys{2};
  CFifo& fifo = sys.add_fifo("f", 16, 2, 1);
  FiniteSource& src = sys.add<FiniteSource>(fifo, 5, 3, 2);
  sys.add<ChecksumDrain>(fifo);
  sys.run(20);
  sys.retire(src);
  sys.run(10);
  src.set_wake_hub(nullptr, 0);
  sys.run_dense(1);  // invalidates the calendar: the next run rebuilds it
  const std::int64_t before = src.ticks();
  sys.run(30);
  EXPECT_EQ(src.ticks(), before);
  EXPECT_THROW(sys.retire(src), invariant_error);  // still retired
}

}  // namespace
}  // namespace acc::sim
