// Shared randomized-chain generators for the differential stepper suites.
//
// The event-horizon equivalence tests (tests/sim/event_horizon_test.cpp)
// and the metrics-determinism tests (tests/obs/metrics_equivalence_test.cpp)
// must stress the SAME population of system shapes: a property proven on
// one set of random chains and checked on a different set would leave a gap
// between "the steppers agree" and "the metrics agree". Both suites seed
// their own std::mt19937_64 and draw Params from here; Scenario
// construction is a pure function of (Params, registry pointer), so two
// instances are bit-identical until stepped.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "accel/kernel.hpp"
#include "obs/metrics.hpp"
#include "sim/chain_builder.hpp"
#include "sim/fault.hpp"
#include "sim/proc_tile.hpp"
#include "sim/system.hpp"
#include "sim/trace.hpp"

namespace acc::sim::testsupport {

/// Identity kernel (no state).
class Pass final : public accel::StreamKernel {
 public:
  void push(CQ16 in, std::vector<CQ16>& out) override { out.push_back(in); }
  [[nodiscard]] std::vector<std::int32_t> save_state() const override {
    return {};
  }
  void restore_state(std::span<const std::int32_t>) override {}
  void reset() override {}
  [[nodiscard]] std::size_t state_words() const override { return 0; }
  [[nodiscard]] std::string name() const override { return "pass"; }
  [[nodiscard]] std::unique_ptr<StreamKernel> clone_fresh() const override {
    return std::make_unique<Pass>();
  }
};

inline std::vector<std::unique_ptr<accel::StreamKernel>> passes(
    std::size_t n) {
  std::vector<std::unique_ptr<accel::StreamKernel>> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(std::make_unique<Pass>());
  return v;
}

/// One randomized system shape. Every stepper gets an independently built
/// but bit-identical instance.
struct Params {
  int accels = 1;
  Cycle accel_cost = 1;
  Cycle epsilon = 2;
  std::int64_t eta = 8;
  Cycle reconfig = 20;
  Cycle source_period = 4;
  Cycle sink_period = 6;
  int payload_blocks = 3;
  bool with_proc = false;    // software copy task between chain and sink
  Cycle proc_cost = 3;
  bool hint_wake_lists = false;  // give the copy task a hint + wake FIFOs
  bool with_fault = false;
  bool with_drops = false;   // notification drops (requires retry recovery)
  std::uint64_t fault_seed = 1;
  Cycle run_cycles = 30000;
};

inline Params random_params(std::mt19937_64& rng, bool with_fault) {
  const auto pick = [&rng](int lo, int hi) {
    return lo +
           static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  Params p;
  p.accels = pick(1, 3);
  p.accel_cost = pick(1, 3);
  p.epsilon = pick(1, 4);
  p.eta = 2 * pick(2, 5);
  p.reconfig = pick(5, 120);
  p.source_period = pick(2, 24);
  p.sink_period = pick(2, 24);
  p.payload_blocks = pick(2, 4);
  p.with_proc = pick(0, 1) == 1;
  p.proc_cost = pick(1, 4);
  // Half the processor variants carry a hint with its wake FIFOs
  // (selective ticking), half carry no hint (the tile then ticks every
  // active cycle).
  p.hint_wake_lists = pick(0, 1) == 1;
  p.with_fault = with_fault;
  p.with_drops = with_fault && pick(0, 1) == 1;
  p.fault_seed = rng();
  return p;
}

/// Source -> entry gateway -> accel chain -> exit gateway [-> copy task]
/// -> sink, with tracing everywhere, (optionally) all four fault sites
/// wired, and (optionally) every interaction point registered in a metrics
/// registry. Construction is a pure function of (Params, registry), so two
/// instances are bit-identical until stepped.
struct Scenario {
  explicit Scenario(const Params& p, obs::MetricsRegistry* metrics = nullptr)
      : sys(p.accels + 2), trace(1 << 18), fault(p.fault_seed) {
    if (p.with_fault) {
      FaultSpec ring;
      ring.probability = 0.02;
      ring.max_delay = 5;
      ring.min_spacing = 40;
      fault.configure(FaultSite::kRingLink, ring);
      FaultSpec bus;
      bus.probability = 0.5;
      bus.max_delay = 30;
      fault.configure(FaultSite::kConfigBus, bus);
      FaultSpec notify;
      notify.probability = 0.3;
      notify.max_delay = 12;
      if (p.with_drops) notify.drop_probability = 0.2;
      fault.configure(FaultSite::kExitNotify, notify);
      FaultSpec credit;
      credit.probability = 0.05;
      credit.max_delay = 6;
      credit.min_spacing = 16;
      fault.configure(FaultSite::kCreditWithhold, credit);
    }

    ChainConfig cfg;
    cfg.name = "c";
    cfg.accel_cycles.assign(static_cast<std::size_t>(p.accels), p.accel_cost);
    cfg.epsilon = p.epsilon;
    cfg.exit_notify_lag = 2;
    cfg.trace = &trace;
    cfg.fault = p.with_fault ? &fault : nullptr;
    cfg.metrics = metrics;
    if (p.with_drops) cfg.retry = {/*notify_timeout=*/64, /*max_retries=*/8,
                                   /*backoff=*/0};
    chain = build_gateway_chain(sys, cfg);

    in = &sys.add_fifo("in", p.eta * 4);
    mid = &sys.add_fifo("mid", p.eta * 4);
    if (p.with_fault) {
      in->set_fault(&fault);
      mid->set_fault(&fault);
    }
    if (metrics != nullptr) {
      in->set_metrics(metrics);
      mid->set_metrics(metrics);
    }
    chain.add_stream({0, "s", p.eta, p.eta, in, mid, p.reconfig},
                     passes(static_cast<std::size_t>(p.accels)));

    std::vector<Flit> payload(static_cast<std::size_t>(p.eta) *
                              static_cast<std::size_t>(p.payload_blocks));
    std::iota(payload.begin(), payload.end(), Flit{100});
    src = &sys.add<SourceTile>("src", *in, payload, p.source_period);

    CFifo* sink_in = mid;
    if (p.with_proc) {
      fin = &sys.add_fifo("fin", p.eta * 4);
      if (metrics != nullptr) fin->set_metrics(metrics);
      auto& cpu = sys.add<ProcessorTile>("cpu", /*replenish_period=*/64);
      Task copy;
      copy.name = "copy";
      copy.budget = 32;
      CFifo* m = mid;
      CFifo* f = fin;
      const Cycle cost = p.proc_cost;
      copy.invoke = [m, f, cost](Cycle now) -> Cycle {
        if (m->fill_visible(now) < 1 || f->space_visible(now) < 1) return 0;
        f->push(now, m->pop(now));
        return cost;
      };
      if (p.hint_wake_lists) {
        copy.next_ready = [m, f](Cycle now) {
          return std::max(m->when_fill_visible(1, now),
                          f->when_space_visible(1, now));
        };
        copy.wake_on_push = {m};
        copy.wake_on_pop = {f};
      }
      cpu.add_task(std::move(copy));
      proc = &cpu;
      sink_in = fin;
    }
    sink = &sys.add<SinkTile>("snk", *sink_in, p.sink_period, /*prefill=*/2);
    if (metrics != nullptr) {
      src->set_metrics(metrics);
      sink->set_metrics(metrics);
      if (proc != nullptr) proc->set_metrics(metrics);
    }
  }

  System sys;
  TraceLog trace;
  FaultInjector fault;
  GatewayChain chain;
  CFifo* in = nullptr;
  CFifo* mid = nullptr;
  CFifo* fin = nullptr;
  SourceTile* src = nullptr;
  SinkTile* sink = nullptr;
  ProcessorTile* proc = nullptr;
};

}  // namespace acc::sim::testsupport
