// Text dump of everything a gateway chain exposes about its simulation
// state, for the fork = replay differential tests (tests/sim/
// state_copy_test.cpp, tests/verify/verify_test.cpp): two systems whose
// dumps are equal are indistinguishable to every observer the simulator
// has — both state digests, the trace, and every counter the components,
// C-FIFOs, rings, fault sites and the stepper keep.
#pragma once

#include <sstream>
#include <string>

#include "sim/chain_builder.hpp"
#include "sim/fault.hpp"
#include "sim/state_hash.hpp"
#include "sim/system.hpp"
#include "sim/trace.hpp"

namespace acc::sim::testsupport {

inline std::string observe_chain(const System& sys, const TraceLog& trace,
                                 const FaultInjector& fault,
                                 const GatewayChain& chain) {
  // Base 0: deadlines compare absolutely, and the accounting channel
  // (full()) covers the skip-replayed counters.
  StateHasher full(0);
  full.mix(sys.now());
  for (std::size_t i = 0; i < sys.num_components(); ++i)
    sys.component(i).snapshot_state(full);
  for (std::size_t i = 0; i < sys.num_fifos(); ++i)
    sys.fifo(i).snapshot_state(full);
  sys.ring().data().snapshot_state(full);
  sys.ring().credit().snapshot_state(full);

  std::ostringstream os;
  os << "now=" << sys.now() << " digest=" << sys.state_digest()
     << " full=" << full.full() << "\n";
  os << "trace dropped=" << trace.dropped() << "\n" << trace.to_csv();
  const GatewayStats& g = chain.entry->stats();
  os << "entry blocks=" << g.blocks << " samples=" << g.samples_forwarded
     << " data=" << g.data_cycles << " reconfig=" << g.reconfig_cycles
     << " wait=" << g.wait_cycles << " timeouts=" << g.notify_timeouts
     << " retries=" << g.notify_retries
     << " recoveries=" << g.notify_recoveries
     << " stalls=" << g.credit_stalls
     << " stall_cycles=" << g.credit_stall_cycles
     << " paused=" << chain.entry->paused() << "\n";
  for (const StreamRoute& route : chain.entry->streams()) {
    os << "completions s" << route.id << ":";
    for (const Cycle c : chain.entry->block_completions(route.id))
      os << " " << c;
    os << "\n";
  }
  for (const AcceleratorTile* t : chain.accels)
    os << t->name() << " processed=" << t->samples_processed()
       << " busy=" << t->busy_cycles() << "\n";
  os << "exit delivered=" << chain.exit->samples_delivered()
     << " notify_dropped=" << chain.exit->notifications_dropped() << "\n";
  for (std::size_t i = 0; i < sys.num_fifos(); ++i) {
    const CFifo& f = sys.fifo(i);
    os << f.name() << " pushed=" << f.total_pushed()
       << " popped=" << f.total_popped() << " peak=" << f.peak_fill()
       << " capacity=" << f.capacity() << "\n";
  }
  for (const Ring* ring : {&sys.ring().data(), &sys.ring().credit()})
    os << "ring delivered=" << ring->delivered()
       << " stalled=" << ring->stall_cycles() << "\n";
  for (int site = 0; site < kNumFaultSites; ++site) {
    const FaultSiteStats& f = fault.stats(static_cast<FaultSite>(site));
    os << "fault " << site << " consults=" << f.consults
       << " injected=" << f.injected << " dropped=" << f.dropped
       << " delay=" << f.delay_cycles << " max=" << f.max_delay_seen << "\n";
  }
  // StepperStats::wakes is left out: a wake only counts while a wake-list
  // calendar is built, and a copy invalidates the fork's calendar, so an
  // environment push between runs is counted on the origin only.
  const StepperStats& st = sys.stepper_stats();
  os << "stepper dense=" << st.dense_ticks << " skips=" << st.skips
     << " skipped=" << st.skipped_cycles << " ticks=" << st.component_ticks
     << " queries=" << st.horizon_queries << "\n";
  return os.str();
}

}  // namespace acc::sim::testsupport
