// System: owns the interconnect, the tiles and the C-FIFOs, and steps the
// whole MPSoC.
//
// Three steppers share one cycle-exact semantics:
//
//  - run_dense: the legacy loop — every component ticks every cycle.
//  - run_global_horizon: after each dense tick, ask every component and
//    both rings for the earliest cycle at which their next tick could have
//    an externally visible effect (Component::next_event). When every
//    answer lies beyond now+1 the whole system is QUIESCENT and now_ jumps
//    straight to the minimum horizon (components replay per-cycle
//    accounting via Component::skip_to). The skip is all-or-nothing: one
//    component reporting now+1 keeps the step dense, and every dense tick
//    pays an O(n) horizon re-scan.
//  - run (wake-list): each component's horizon is CACHED in a flat calendar
//    and only re-queried when its owner ticked or was woken through
//    WakeHub (sim/wake.hpp). Each cycle ticks ONLY the components whose
//    cached horizon is due — partial quiescence falls out for free (idle
//    tiles sleep while the accelerator chain streams) and certifying a
//    jump is a branch-free integer min-scan of the calendar instead of
//    O(n) virtual next_event calls. (A min-heap calendar was measured and
//    rejected: with a dozen-odd slots, re-arming every active slot each
//    cycle churns the heap harder than scanning the whole table costs.
//    That reasoning needs the calendar to stay small: it holds LIVE units
//    only. retire() takes a parked component — a departed session's
//    tiles — out of it for good, so the calendar is bounded by what is
//    running now, not by every component ever added.)
//    Exactness rests on two rules:
//      1. no component may act before its cached horizon unless woken, so
//         every interaction point (C-FIFO push/pop, ring inject/eject,
//         gateway callbacks, fault triggers) must route a wake;
//      2. waking EARLY is always exact (an extra tick is dense behaviour);
//         only a missed wake — acting later than dense would — diverges.
//    Frozen components are synchronized lazily: skip_to replays the
//    accounting for [last tick + 1, wake cycle) right before they run, and
//    sync_all() settles everyone when a run returns.
//    The dense and global-horizon steppers ignore retirement and keep
//    ticking retired components, so they remain the oracle for it.
//    See docs/performance.md for the invariants and the equivalence proof
//    obligations (tests/sim/event_horizon_test.cpp).
#pragma once

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "sim/cfifo.hpp"
#include "sim/component.hpp"
#include "sim/fault.hpp"
#include "sim/ring.hpp"
#include "sim/stepper_stats.hpp"
#include "sim/wake.hpp"

namespace acc::sim {

/// Which stepper advances the system (all three are cycle-exact).
enum class StepperKind {
  kDense = 0,          // reference semantics, every component every cycle
  kGlobalHorizon = 1,  // all-or-nothing skip, O(n) re-scan per dense tick
  kWakeList = 2,       // cached horizons, selective ticking, O(active)
};

class System final : public WakeHub {
 public:
  explicit System(std::int32_t ring_nodes) : ring_(ring_nodes) {
    // Token storage (ring injection queues, C-FIFO deadline queues) bumps
    // from the per-System arena: no steady-state heap traffic, and the
    // queues of one system share locality. arena_ is declared before
    // ring_/fifos_, so it outlives every container carved from it.
    ring_.data().set_arena(&arena_);
    ring_.credit().set_arena(&arena_);
  }

  [[nodiscard]] DualRing& ring() { return ring_; }
  [[nodiscard]] const DualRing& ring() const { return ring_; }
  [[nodiscard]] const Arena& arena() const { return arena_; }

  /// Construct and own a component; ticked in creation order.
  template <typename T, typename... Args>
  T& add(Args&&... args) {
    auto p = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *p;
    ref.set_stepper_stats(&stats_);
    components_.push_back(std::move(p));
    retired_.push_back(false);
    wake_ready_ = false;
    return ref;
  }

  /// Construct and own a software FIFO.
  template <typename... Args>
  CFifo& add_fifo(Args&&... args) {
    fifos_.push_back(std::make_unique<CFifo>(std::forward<Args>(args)...));
    fifos_.back()->set_arena(&arena_);
    fifos_.back()->set_stepper_stats(&stats_);
    wake_ready_ = false;
    return *fifos_.back();
  }

  /// Take a parked component out of the wake-list calendar for good: no
  /// later wake-list run ticks, syncs or scans it. It stays registered, so
  /// state_digest() still covers it and the dense and global-horizon
  /// steppers still tick it — they are the oracle that a retired component
  /// really never acts. The contract is checked: the component must have
  /// no self-scheduled event left, and any wake routed to it once the
  /// calendar is rebuilt (a C-FIFO watcher, a ring delivery, a direct
  /// callback) fails ACC_CHECK. Between runs every slot's accounting is
  /// already settled through now_ - 1 (sync_all), so nothing is replayed
  /// here; retiring freezes what a later skip_to() would have replayed,
  /// so only components without per-cycle counters should be retired.
  void retire(Component& c) {
    ACC_CHECK_MSG(!processing_, "component retired inside a wake-list cycle");
    const auto it =
        std::find_if(components_.begin(), components_.end(),
                     [&c](const auto& p) { return p.get() == &c; });
    ACC_CHECK_MSG(it != components_.end(),
                  "retired component is not owned by this system");
    const auto i = static_cast<std::size_t>(it - components_.begin());
    ACC_CHECK_MSG(!retired_[i], "component retired twice");
    ACC_CHECK_MSG(c.next_event(now_ - 1) == kNeverCycle,
                  "retired component still has a scheduled event");
    retired_[i] = true;
    wake_ready_ = false;
  }

  /// Run for `cycles` clock cycles with the wake-list stepper (cycle-exact
  /// vs run_dense; see file header). The only stepper that issues batching
  /// grants (quiet_until): run_until withholds them so its predicate
  /// observes every intermediate state dense stepping would expose.
  void run(Cycle cycles) {
    const Cycle end = now_ + cycles;
    begin_wake_run();
    run_end_ = end;
    batch_allowed_ = true;
    Cycle due = now_;  // begin_wake_run schedules every slot at now_
    while (now_ < end) {
      if (due > now_) {
        const Cycle target = std::min(due, end);
        stats_.skipped_cycles += target - now_;
        ++stats_.skips;
        now_ = target;
        if (now_ >= end) break;
      }
      due = step_wake_cycle();
    }
    batch_allowed_ = false;
    sync_all(end);
  }

  /// Run for `cycles` clock cycles with the all-or-nothing global-horizon
  /// stepper (the wake-list's predecessor — kept as a second event-driven
  /// reference for the equivalence suite).
  void run_global_horizon(Cycle cycles) {
    wake_ready_ = false;  // cached wake state goes stale under this stepper
    const Cycle end = now_ + cycles;
    while (now_ < end) {
      step_dense();
      skip_if_quiescent(end);
    }
  }

  /// Run for `cycles` clock cycles, ticking every component every cycle
  /// (the legacy stepper — reference semantics for equivalence tests).
  void run_dense(Cycle cycles) {
    wake_ready_ = false;
    const Cycle end = now_ + cycles;
    for (; now_ < end; ++now_) {
      for (auto& c : components_) c->tick(now_);
      ring_.tick();
      ++stats_.dense_ticks;
      stats_.component_ticks += static_cast<std::int64_t>(components_.size());
    }
  }

  /// Dispatch on a stepper selection (bench/config surface).
  void run_with(StepperKind kind, Cycle cycles) {
    switch (kind) {
      case StepperKind::kDense: run_dense(cycles); return;
      case StepperKind::kGlobalHorizon: run_global_horizon(cycles); return;
      case StepperKind::kWakeList: run(cycles); return;
    }
  }

  /// Run until `pred(now)` holds or `max_cycles` elapse; returns true if
  /// the predicate fired. Uses the wake-list stepper: `pred` must be a
  /// function of simulation STATE (not of the numeric value of `now`), so
  /// that its value cannot change across a certified-quiescent range. The
  /// predicate is evaluated exactly once per loop step — at every stepped
  /// cycle and at every jump target — with all lazily-synchronized
  /// accounting settled first.
  template <typename Pred>
  bool run_until(Pred&& pred, Cycle max_cycles) {
    const Cycle end = now_ + max_cycles;
    begin_wake_run();
    while (now_ < end) {
      sync_all(now_);
      if (pred(now_)) return true;
      const Cycle due = next_due();
      if (due > now_) {
        const Cycle target = std::min(due, end);
        stats_.skipped_cycles += target - now_;
        ++stats_.skips;
        now_ = target;
        continue;
      }
      (void)step_wake_cycle();
    }
    sync_all(end);
    return pred(now_);
  }

  [[nodiscard]] Cycle now() const { return now_; }
  [[nodiscard]] const StepperStats& stepper_stats() const { return stats_; }

  // --- Introspection (bounded model checker / wake audit, src/verify/) ---

  [[nodiscard]] std::size_t num_components() const {
    return components_.size();
  }
  [[nodiscard]] Component& component(std::size_t i) { return *components_[i]; }
  [[nodiscard]] const Component& component(std::size_t i) const {
    return *components_[i];
  }
  [[nodiscard]] std::size_t num_fifos() const { return fifos_.size(); }
  [[nodiscard]] CFifo& fifo(std::size_t i) { return *fifos_[i]; }
  [[nodiscard]] const CFifo& fifo(std::size_t i) const { return *fifos_[i]; }

  /// Overwrite the simulation state of every component, C-FIFO and ring,
  /// the clock and the stepper stats with `other`'s. `other` must have been
  /// built the same way: the same components and C-FIFOs, in the same
  /// order, with the same ones retired (the model checker forks one
  /// verification model into another built from the same ModelSpec).
  /// Wiring stays this system's own (see Component::copy_state_from). The
  /// wake-list calendar is invalidated, so the next run() rebuilds it from
  /// the copied state.
  void copy_state_from(const System& other) {
    ACC_CHECK_MSG(!processing_, "system state copied inside a wake-list cycle");
    ACC_CHECK_MSG(components_.size() == other.components_.size() &&
                      fifos_.size() == other.fifos_.size() &&
                      retired_ == other.retired_,
                  "system state copied across different layouts");
    for (std::size_t i = 0; i < components_.size(); ++i)
      components_[i]->copy_state_from(*other.components_[i]);
    for (std::size_t i = 0; i < fifos_.size(); ++i)
      fifos_[i]->copy_state_from(*other.fifos_[i]);
    ring_.copy_state_from(other.ring_);
    now_ = other.now_;
    stats_ = other.stats_;
    wake_ready_ = false;
  }

  /// Canonical frozen digest of the whole system (every component in
  /// registration order, every owned C-FIFO, both rings), with deadlines
  /// canonicalized relative to now(). Equal digests mean equal futures
  /// under identical environment actions — the explorer's dedup key.
  [[nodiscard]] std::uint64_t state_digest() const {
    StateHasher h(now_);
    for (const auto& c : components_) {
      c->snapshot_state(h);
      h.mix(std::uint64_t{0x5EB1});  // component delimiter
    }
    for (const auto& f : fifos_) {
      f->snapshot_state(h);
      h.mix(std::uint64_t{0x5EB2});
    }
    ring_.data().snapshot_state(h);
    ring_.credit().snapshot_state(h);
    return h.frozen();
  }

  // --- WakeHub (wake-list stepper plumbing; see sim/wake.hpp) ------------

  void wake(Component& c) override {
    if (!wake_ready_) return;
    // prepare_wake stamped the slot index (kRetiredSlot for a retired
    // component) along with this hub, so the index is always ours.
    const std::size_t idx = c.wake_slot();
    ACC_CHECK_MSG(idx != kRetiredSlot, "wake routed to a retired component");
    if (grant_live_ && idx < processing_pos_) {
      // Batched run in progress: a conservative "schedule at now_ + 1"
      // would collapse the grant on every watcher notification, even when
      // the watcher demonstrably sleeps far beyond the batch window. Slots
      // BELOW the granted one already had their dense-order turn this
      // cycle, so their earliest possible reaction is next_event(now_) —
      // re-deriving it here is exact (never later than dense) and keeps
      // the window open when the woken component genuinely stays idle.
      // Slots at or above the granted one may still act THIS cycle, so
      // they take the conservative path, which aborts the batch.
      ++stats_.wakes;
      ++stats_.horizon_queries;
      const Cycle h = c.next_event(now_);
      const Cycle target =
          h == kNeverCycle ? kNeverCycle : std::max(h, now_ + 1);
      Slot& s = slots_[idx];
      if (target < s.at) {
        s.at = target;
        wake_floor_min_ = std::min(wake_floor_min_, target);
      }
      return;
    }
    wake_slot(idx);
  }

  void ring_activity(Ring& r) override {
    if (!wake_ready_) return;
    wake_slot(&r == &ring_.data() ? data_slot() : credit_slot());
  }

  void ring_delivery(Ring& r, std::int32_t node) override {
    (void)r;  // both rings deliver to the same node owner
    if (!wake_ready_) return;
    const std::size_t owner = node_owner_[static_cast<std::size_t>(node)];
    if (owner == kNoSlot) return;
    ACC_CHECK_MSG(owner != kRetiredSlot, "ring delivery to a retired tile");
    wake_slot(owner);
  }

  void fault_site_changed(FaultSite site) override {
    // Only kRingLink feeds cached horizons (Ring::next_event consults
    // next_eligible); the other sites' RNG draws happen inside component
    // ticks that are scheduled anyway. A trigger moves quiet_until FORWARD,
    // so the fresh horizon may be later than the cached one — re-deriving
    // it (rather than the schedule-early wake rule) is what keeps the rings
    // skippable across the quiet window.
    if (!wake_ready_ || site != FaultSite::kRingLink) return;
    requery_ring(data_slot());
    requery_ring(credit_slot());
  }

  /// Batching grant (see sim/wake.hpp): min over every OTHER slot's
  /// scheduled cycle, clamped to the end of the active run(). Grants are
  /// only issued mid-cycle under the wake-list stepper with batching
  /// allowed, and never while a wake-unsafe component exists (its parked
  /// slot carries no schedule the window could trust). Issuing a grant
  /// arms the requery-on-wake path above until the granted tick returns.
  [[nodiscard]] Cycle quiet_until(std::size_t self_slot) const override {
    if (!wake_ready_ || !processing_ || !batch_allowed_ || !unsafe_.empty())
      return 0;
    Cycle m = run_end_;
    for (std::size_t j = 0; j < slots_.size(); ++j) {
      if (j != self_slot) m = std::min(m, slots_[j].at);
    }
    grant_live_ = true;
    return m;
  }

 private:
  /// Scheduling slot per live unit: the non-retired components in
  /// registration order (live_), then the data ring, then the credit ring
  /// — matching the dense tick order, which the active-cycle scan
  /// preserves by visiting slots in ascending index order.
  struct Slot {
    Cycle at = 0;       // authoritative scheduled cycle (kNeverCycle = parked)
    Cycle synced = -1;  // last cycle whose accounting is settled
  };

  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  // Hub slot stamped on retired components and their ring nodes: a wake
  // routed there fails the retirement contract.
  static constexpr std::size_t kRetiredSlot = kNoSlot - 1;

  [[nodiscard]] std::size_t data_slot() const { return slots_.size() - 2; }
  [[nodiscard]] std::size_t credit_slot() const { return slots_.size() - 1; }

  /// One dense cycle: every component, then the interconnect.
  void step_dense() {
    for (auto& c : components_) c->tick(now_);
    ring_.tick();
    ++now_;
    ++stats_.dense_ticks;
    stats_.component_ticks += static_cast<std::int64_t>(components_.size());
  }

  /// Global-horizon core: if every horizon lies beyond the next cycle, jump
  /// to the earliest one (clamped to `end`), replaying per-cycle accounting
  /// along the way.
  void skip_if_quiescent(Cycle end) {
    const Cycle ticked = now_ - 1;  // cycle step_dense just completed
    ++stats_.horizon_queries;
    Cycle h = ring_.next_event();
    for (const auto& c : components_) {
      if (h <= now_) return;  // someone acts next cycle: stay dense
      ++stats_.horizon_queries;
      h = std::min(h, c->next_event(ticked));
    }
    const Cycle target = std::min(h, end);
    if (target <= now_) return;
    for (auto& c : components_) c->skip_to(now_, target);
    ring_.skip_to(target);
    stats_.skipped_cycles += target - now_;
    ++stats_.skips;
    now_ = target;
  }

  // --- Wake-list core ----------------------------------------------------

  /// (Re)build the wake-list bookkeeping: slot table for the live
  /// components, ring-node routing and hub installation. Invalidated by
  /// add, retire and the other steppers (which advance state without
  /// maintaining cached horizons).
  void prepare_wake() {
    live_.clear();
    unsafe_.clear();
    unsafe_mask_.clear();
    node_owner_.assign(static_cast<std::size_t>(ring_.data().nodes()),
                       kNoSlot);
    for (std::size_t k = 0; k < components_.size(); ++k) {
      Component* c = components_[k].get();
      const std::size_t i = retired_[k] ? kRetiredSlot : live_.size();
      c->set_wake_hub(this, i);
      if (i != kRetiredSlot) {
        live_.push_back(c);
        unsafe_mask_.push_back(!c->wake_list_safe());
        if (unsafe_mask_.back()) unsafe_.push_back(i);
      }
      const std::int32_t node = c->ring_node();
      if (node >= 0) {
        ACC_CHECK_MSG(node < ring_.data().nodes(),
                      "ring_node out of range for the wake-list scheduler");
        std::size_t& owner = node_owner_[static_cast<std::size_t>(node)];
        ACC_CHECK_MSG(owner == kNoSlot,
                      "two components drain the same ring node");
        owner = i;
      }
    }
    slots_.assign(live_.size() + 2, Slot{});
    ring_.data().set_wake_hub(this);
    ring_.credit().set_wake_hub(this);
    if (FaultInjector* f = ring_.data().fault()) f->set_wake_hub(this);
    if (FaultInjector* f = ring_.credit().fault()) f->set_wake_hub(this);
    for (std::size_t i = 0; i < slots_.size(); ++i) slots_[i].synced = now_ - 1;
    wake_ready_ = true;
  }

  /// Entry of every wake-list run: make the first cycle fully dense so
  /// state mutated BETWEEN runs (test scaffolding poking components or
  /// FIFOs directly, without a wake) is observed before any jump.
  void begin_wake_run() {
    if (!wake_ready_) prepare_wake();
    for (Slot& s : slots_) s.at = now_;
  }

  /// Earliest authoritative scheduled cycle, or kNeverCycle when every
  /// slot is parked. A plain min over the calendar: slot counts are small
  /// (live tiles + gateways + two rings), so the scan is a handful of integer
  /// compares — cheaper per active cycle than maintaining a heap.
  [[nodiscard]] Cycle next_due() const {
    Cycle m = kNeverCycle;
    for (const Slot& s : slots_) m = std::min(m, s.at);
    return m;
  }

  /// Step one ACTIVE cycle: run every due slot in ascending index order
  /// (components before rings, matching dense). Wakes raised mid-cycle for
  /// not-yet-scanned slots land at `now_` and are picked up by the same
  /// scan; wakes for already-passed slots land at now_ + 1 — exactly when
  /// the dense loop would have let them observe the interaction.
  ///
  /// Returns the earliest due cycle after the step (the next_due() scan is
  /// fused into the processing scan — one calendar pass per active cycle
  /// instead of two). Visited slots can be LOWERED afterwards only through
  /// wake_slot / the grant requery path, both of which feed
  /// wake_floor_min_; they can be RAISED only by a mid-cycle ring requery
  /// (fault triggers), which makes the returned minimum conservative-early
  /// — the next iteration scans again, finds nothing due, and returns the
  /// fresh minimum without stepping (the !any path below), so stats stay
  /// identical to the unfused loop.
  [[nodiscard]] Cycle step_wake_cycle() {
    const Cycle t = now_;
    processing_ = true;
    wake_floor_min_ = kNeverCycle;
    Cycle min_next = kNeverCycle;
    bool any = false;
    for (std::size_t idx = 0; idx < slots_.size(); ++idx) {
      if (slots_[idx].at > t) {
        min_next = std::min(min_next, slots_[idx].at);
        continue;
      }
      any = true;
      processing_pos_ = idx;
      run_slot(idx, t);
      min_next = std::min(min_next, slots_[idx].at);
    }
    if (!any) {
      // Stale minimum (a horizon was raised since it was computed): no
      // slot was due, nothing ticked — report the fresh minimum only.
      processing_ = false;
      return min_next;
    }
    // Wake-unsafe components get the global-horizon treatment: a fresh
    // query after every active cycle, so their hints never go stale.
    for (const std::size_t idx : unsafe_) {
      ++stats_.horizon_queries;
      schedule_horizon(idx, live_[idx]->next_event(t), t + 1);
      min_next = std::min(min_next, slots_[idx].at);
    }
    processing_ = false;
    ++now_;
    ++stats_.dense_ticks;
    return std::min(min_next, wake_floor_min_);
  }

  /// Sync a frozen slot's accounting through `t - 1`, tick it at `t`, and
  /// cache its fresh horizon.
  void run_slot(std::size_t idx, Cycle t) {
    Slot& s = slots_[idx];
    if (idx < live_.size()) {
      Component& c = *live_[idx];
      if (s.synced < t - 1) c.skip_to(s.synced + 1, t);
      s.synced = t;
      ++stats_.component_ticks;
      c.tick(t);
      grant_live_ = false;  // any batching grant expires with its tick
      if (unsafe_mask_[idx]) {
        s.at = kNeverCycle;  // re-queried after the cycle completes
        return;
      }
      ++stats_.horizon_queries;
      schedule_horizon(idx, c.next_event(t), t + 1);
    } else {
      Ring& r = idx == data_slot() ? ring_.data() : ring_.credit();
      if (r.cycle() < t) r.skip_to(t);
      s.synced = t;
      r.tick();
      ++stats_.horizon_queries;
      schedule_horizon(idx, r.next_event(), t + 1);
    }
  }

  /// Cache horizon `h` for `idx`, clamped to `floor` (kNeverCycle parks
  /// the slot out of the calendar until a wake).
  void schedule_horizon(std::size_t idx, Cycle h, Cycle floor) {
    slots_[idx].at = h == kNeverCycle ? kNeverCycle : std::max(h, floor);
  }

  /// Deliver a wake: schedule the slot at now_ — or now_ + 1 if this cycle
  /// already processed it (the dense loop, too, would only let it react
  /// next cycle). Never moves a slot later.
  void wake_slot(std::size_t idx) {
    ++stats_.wakes;
    const Cycle target =
        processing_ && idx <= processing_pos_ ? now_ + 1 : now_;
    Slot& s = slots_[idx];
    if (target < s.at) {
      s.at = target;
      wake_floor_min_ = std::min(wake_floor_min_, target);
    }
  }

  /// Re-derive a ring slot's horizon from scratch (fault triggers move
  /// quiet windows forward, so the fresh value may be LATER than the cached
  /// one — still conservative: next_eligible never undershoots truth).
  void requery_ring(std::size_t idx) {
    Ring& r = idx == data_slot() ? ring_.data() : ring_.credit();
    ++stats_.horizon_queries;
    const Cycle floor =
        processing_ && idx <= processing_pos_ ? now_ + 1 : now_;
    schedule_horizon(idx, r.next_event(), floor);
    // Keep the fused next-due minimum sound if this LOWERED a slot the
    // processing scan already visited (raises are covered by the stale-
    // minimum rescan in step_wake_cycle).
    wake_floor_min_ = std::min(wake_floor_min_, slots_[idx].at);
  }

  /// Settle every frozen slot's lazily-deferred accounting through
  /// `upto - 1` (callers read counters and stats after run()/run_until()
  /// returns, and predicates read them at evaluation points).
  void sync_all(Cycle upto) {
    for (std::size_t i = 0; i < live_.size(); ++i) {
      Slot& s = slots_[i];
      if (s.synced < upto - 1) {
        live_[i]->skip_to(s.synced + 1, upto);
        s.synced = upto - 1;
      }
    }
    if (ring_.data().cycle() < upto) ring_.data().skip_to(upto);
    if (ring_.credit().cycle() < upto) ring_.credit().skip_to(upto);
  }

  Arena arena_;  // declared first: backs ring_ and fifos_ token storage
  DualRing ring_;
  std::vector<std::unique_ptr<Component>> components_;
  std::vector<bool> retired_;  // per component: out of the calendar for good
  std::vector<std::unique_ptr<CFifo>> fifos_;
  Cycle now_ = 0;
  StepperStats stats_;

  // Wake-list state (valid while wake_ready_).
  bool wake_ready_ = false;
  std::vector<Slot> slots_;
  std::vector<Component*> live_;         // component slot -> component
  std::vector<std::size_t> node_owner_;  // ring node -> component slot
  std::vector<std::size_t> unsafe_;      // wake-unsafe component slots
  std::vector<bool> unsafe_mask_;
  bool processing_ = false;        // inside step_wake_cycle
  std::size_t processing_pos_ = 0; // slot currently (or last) run this cycle
  Cycle wake_floor_min_ = kNeverCycle;  // lowest at lowered mid-cycle
  // Batched-data-plane grant state (ISSUE 8): grants exist only inside
  // run() — run_until's predicate must observe dense-visible intermediate
  // states, so it never allows them.
  bool batch_allowed_ = false;
  Cycle run_end_ = 0;
  mutable bool grant_live_ = false;  // a granted tick is in progress
};

}  // namespace acc::sim
