// System::copy_state_from differential suite: forking a running gateway
// chain by copy must be indistinguishable from having stepped it there.
//
// The bounded model checker forks its explored states this way
// (src/verify/explorer.hpp), and its own differential test walks the
// verification models. Those models are fault-free, have no retry policy,
// and only rarely hold a busy exit DMA or a backed-up accelerator output at
// an action boundary. These randomized chains reach what they cannot: all
// four fault sites (RNG streams, quiet windows, ring stall windows),
// dropped notifications with timeout recovery, credit-stall episodes, a
// paused entry gateway, resized C-FIFOs, slow exit DMAs, accelerators
// slower than their feed (a backed-up NI with several queued inputs)
// running stateful kernels, and both steppers, the wake-list calendar
// rebuild after a copy included.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "accel/kernel.hpp"
#include "sim/chain_builder.hpp"
#include "sim/fault.hpp"
#include "sim/system.hpp"
#include "sim/trace.hpp"

#include "../support/state_observe.hpp"

namespace acc::sim {
namespace {

/// Stateful kernel: each output is the running sum of the inputs so far,
/// so a lost or repeated kernel step changes every later sample.
class RunningSum final : public accel::StreamKernel {
 public:
  void push(CQ16 in, std::vector<CQ16>& out) override {
    sum_ = static_cast<std::int32_t>(static_cast<std::uint32_t>(sum_) +
                                     static_cast<std::uint32_t>(in.re.raw()));
    out.push_back(CQ16{Q16::from_raw(sum_), in.im});
  }
  [[nodiscard]] std::vector<std::int32_t> save_state() const override {
    return {sum_};
  }
  void restore_state(std::span<const std::int32_t> state) override {
    sum_ = state[0];
  }
  void reset() override { sum_ = 0; }
  [[nodiscard]] std::size_t state_words() const override { return 1; }
  [[nodiscard]] std::string name() const override { return "running_sum"; }
  [[nodiscard]] std::unique_ptr<StreamKernel> clone_fresh() const override {
    return std::make_unique<RunningSum>();
  }

 private:
  std::int32_t sum_ = 0;
};

std::vector<std::unique_ptr<accel::StreamKernel>> running_sums(int n) {
  std::vector<std::unique_ptr<accel::StreamKernel>> v;
  for (int i = 0; i < n; ++i) v.push_back(std::make_unique<RunningSum>());
  return v;
}

struct RigParams {
  int accels = 1;
  Cycle accel_cost = 1;
  Cycle epsilon = 1;
  Cycle delta = 1;
  std::int64_t eta = 4;
  std::int64_t ni_capacity = 2;
  Cycle reconfig = 20;
  std::uint64_t fault_seed = 1;
};

/// `backed_up`: a fast feed into slow accelerators with deep NIs, so
/// inputs queue up in the accelerators' NI buffers.
RigParams random_rig(std::mt19937_64& rng, bool backed_up) {
  const auto pick = [&rng](int lo, int hi) {
    return lo +
           static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  RigParams p;
  p.accels = pick(1, 3);
  p.accel_cost = pick(1, 4);
  p.epsilon = pick(1, 3);
  p.delta = pick(1, 6);  // a slow exit DMA backs samples up in its NI
  p.eta = pick(2, 6);
  p.ni_capacity = pick(1, 3);
  p.reconfig = pick(5, 60);
  p.fault_seed = rng();
  if (backed_up) {
    p.epsilon = 1;
    p.accel_cost = pick(3, 4);
    p.ni_capacity = pick(3, 4);
  }
  return p;
}

/// Input C-FIFO -> entry -> accelerators -> exit -> output C-FIFO, every
/// fault site armed, notification drops recovered by the retry policy, and
/// a trace log small enough to hit its cap. The test itself is the
/// producer and the consumer.
struct Rig {
  explicit Rig(const RigParams& p)
      : sys(p.accels + 2), trace(/*max_events=*/64), fault(p.fault_seed) {
    FaultSpec ring;
    ring.probability = 0.05;
    ring.max_delay = 6;
    ring.min_spacing = 20;
    fault.configure(FaultSite::kRingLink, ring);
    FaultSpec bus;
    bus.probability = 0.5;
    bus.max_delay = 30;
    fault.configure(FaultSite::kConfigBus, bus);
    FaultSpec notify;
    notify.probability = 0.3;
    notify.max_delay = 12;
    notify.drop_probability = 0.3;
    fault.configure(FaultSite::kExitNotify, notify);
    FaultSpec credit;
    credit.probability = 0.1;
    credit.max_delay = 6;
    credit.min_spacing = 8;
    fault.configure(FaultSite::kCreditWithhold, credit);

    ChainConfig cfg;
    cfg.name = "c";
    cfg.accel_cycles.assign(static_cast<std::size_t>(p.accels), p.accel_cost);
    cfg.epsilon = p.epsilon;
    cfg.delta = p.delta;
    cfg.ni_capacity = p.ni_capacity;
    cfg.exit_notify_lag = 3;
    cfg.trace = &trace;
    cfg.fault = &fault;
    cfg.retry = {/*notify_timeout=*/40, /*max_retries=*/4, /*backoff=*/0};
    chain = build_gateway_chain(sys, cfg);
    chain.entry->set_credit_stall_threshold(3);

    in = &sys.add_fifo("in", p.eta * 3);
    out = &sys.add_fifo("out", p.eta * 2);
    in->set_fault(&fault);
    out->set_fault(&fault);
    chain.add_stream({0, "s", p.eta, p.eta, in, out, p.reconfig},
                     running_sums(p.accels));
  }

  void copy_state_from(const Rig& o) {
    sys.copy_state_from(o.sys);
    trace.copy_from(o.trace);
    fault.copy_state_from(o.fault);
  }

  [[nodiscard]] std::string observe() const {
    return testsupport::observe_chain(sys, trace, fault, chain);
  }

  System sys;
  TraceLog trace;
  FaultInjector fault;
  GatewayChain chain;
  CFifo* in = nullptr;
  CFifo* out = nullptr;
};

struct Step {
  enum class Kind { kFeed, kDrain, kPauseToggle, kGrow, kRun } kind =
      Kind::kRun;
  StepperKind stepper = StepperKind::kDense;
  Cycle cycles = 1;
};

/// A random step that is legal in `r`'s current state.
Step random_step(std::mt19937_64& rng, const Rig& r) {
  Step s;
  switch (rng() % 6) {
    case 0: s.kind = Step::Kind::kFeed; break;
    case 1: s.kind = Step::Kind::kDrain; break;
    case 2: s.kind = Step::Kind::kGrow; break;
    case 3:
      if (r.chain.entry->paused() || r.chain.entry->is_idle()) {
        s.kind = Step::Kind::kPauseToggle;
        break;
      }
      [[fallthrough]];
    default:
      s.kind = Step::Kind::kRun;
      s.stepper =
          rng() % 2 == 0 ? StepperKind::kDense : StepperKind::kWakeList;
      s.cycles = 1 + static_cast<Cycle>(rng() % 200);
  }
  return s;
}

void apply(Rig& r, const Step& s) {
  const Cycle now = r.sys.now();
  switch (s.kind) {
    case Step::Kind::kFeed:
      // Flit payloads are a function of the state, so a fork feeds the
      // same values its origin would.
      while (r.in->can_push(now))
        r.in->push(now, static_cast<Flit>(100 + r.in->total_pushed()));
      return;
    case Step::Kind::kDrain:
      while (r.out->can_pop(now)) (void)r.out->pop(now);
      return;
    case Step::Kind::kPauseToggle:
      if (r.chain.entry->paused()) {
        r.chain.entry->resume();
      } else {
        r.chain.entry->pause();
      }
      return;
    case Step::Kind::kGrow:
      // A control-plane resize: capacity is state a fork must carry.
      r.in->set_capacity(r.in->capacity() + 1);
      return;
    case Step::Kind::kRun:
      r.sys.run_with(s.stepper, s.cycles);
      return;
  }
}

// Before every step the fork target is driven somewhere else, then
// overwritten with the origin's state; both must then be indistinguishable,
// and stay so after the same next step.
TEST(StateCopy, ForkEqualsSteppingOnRandomFaultedChains) {
  std::mt19937_64 rng(13);
  for (int trial = 0; trial < 12; ++trial) {
    const RigParams p = random_rig(rng, /*backed_up=*/trial % 2 == 1);
    SCOPED_TRACE("trial " + std::to_string(trial));
    Rig origin(p);
    Rig fork(p);
    for (int i = 0; i < 80; ++i) {
      const int detour = 1 + static_cast<int>(rng() % 3);
      for (int k = 0; k < detour; ++k) apply(fork, random_step(rng, fork));
      fork.copy_state_from(origin);
      ASSERT_EQ(fork.observe(), origin.observe()) << "copy before step " << i;
      const Step s = random_step(rng, origin);
      apply(origin, s);
      apply(fork, s);
      ASSERT_EQ(fork.observe(), origin.observe()) << "step " << i;
    }
  }
}

// The fork's wiring stays its own: after a copy, the fork's traffic lands
// in the fork's C-FIFOs and trace, and the origin is untouched.
TEST(StateCopy, ForkKeepsItsOwnWiring) {
  RigParams p;
  p.eta = 4;
  Rig origin(p);
  Rig fork(p);
  apply(origin, {Step::Kind::kFeed});
  origin.sys.run_dense(60);  // a block mid-flight
  const std::string before = origin.observe();
  fork.copy_state_from(origin);
  fork.sys.run(5000);
  EXPECT_EQ(origin.observe(), before);
  EXPECT_GT(fork.out->total_pushed(), origin.out->total_pushed());
  EXPECT_GT(fork.trace.events().size(), origin.trace.events().size());
}

// A copy needs the same layout on both sides, retirements included: a
// mismatch fails loudly instead of pairing state with the wrong component.
TEST(StateCopy, LayoutsMustMatch) {
  const auto build = [](System& sys) -> AcceleratorTile& {
    return sys.add<AcceleratorTile>("acc", sys.ring(), 0, 1);
  };
  System a(2);
  System b(2);
  AcceleratorTile& parked = build(a);
  (void)build(b);
  b.copy_state_from(a);  // same layout: fine
  a.retire(parked);
  EXPECT_THROW(b.copy_state_from(a), invariant_error);
  System c(2);
  (void)build(c);
  (void)c.add_fifo("extra", 4);
  EXPECT_THROW(c.copy_state_from(b), invariant_error);
}

}  // namespace
}  // namespace acc::sim
