#include "verify/explorer.hpp"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "sharing/analysis.hpp"
#include "sim/flit.hpp"

namespace acc::verify {

namespace {

constexpr sim::Cycle kStepQuantum = 64;
constexpr sim::Cycle kRunChunk = 256;

/// Stream s feeds a constant sample so the digest of a state does not
/// depend on HOW MANY blocks were fed before it — block counts are
/// lifetime history, and folding them into the dedup key would make every
/// path unique.
sim::Flit stream_flit(std::int32_t s) {
  return sim::pack_sample(CQ16{Q16::from_raw(s + 1), Q16::from_raw(0)});
}

}  // namespace

Runner::Runner(const ModelSpec& ms)
    : model_(ms),
      admits_(ms.spec.num_streams()),
      drops_declared_(ms.has(Mutation::kDropNotify)) {
  // The initial state is a reachable state: a construction-seeded defect
  // (phantom_credit) must be caught with an EMPTY counterexample.
  check_invariants();
  if (!violations_.empty()) dead_ = true;
}

std::vector<Action> Runner::action_catalog() const {
  std::vector<Action> cat;
  const auto n = static_cast<std::int32_t>(model_.ms.spec.num_streams());
  for (std::int32_t s = 0; s < n; ++s)
    cat.push_back(Action{Action::Kind::kFeed, s});
  for (std::int32_t s = 0; s < n; ++s)
    cat.push_back(Action{Action::Kind::kDrain, s});
  cat.push_back(Action{Action::Kind::kStep, -1});
  cat.push_back(Action{Action::Kind::kRun, -1});
  return cat;
}

bool Runner::enabled(const Action& a) const {
  const sim::Cycle now = model_.sys.now();
  switch (a.kind) {
    case Action::Kind::kFeed: {
      const auto s = static_cast<std::size_t>(a.stream);
      return model_.inputs[s]->space_visible(now) >= model_.ms.etas[s];
    }
    case Action::Kind::kDrain:
      return model_.outputs[static_cast<std::size_t>(a.stream)]->fill_visible(
                 now) >= 1;
    case Action::Kind::kStep:
    case Action::Kind::kRun:
      return true;
  }
  return false;
}

void Runner::copy_state_from(const Runner& other) {
  ACC_CHECK_MSG(admits_.size() == other.admits_.size() &&
                    drops_declared_ == other.drops_declared_,
                "runner state copied across different model specs");
  model_.sys.copy_state_from(other.model_.sys);
  model_.trace.copy_from(other.model_.trace);
  model_.fault.copy_state_from(other.model_.fault);
  violations_ = other.violations_;
  trace_scanned_ = other.trace_scanned_;
  admits_ = other.admits_;
  dead_ = other.dead_;
  advance_capped_ = other.advance_capped_;
}

void Runner::apply(const Action& a) {
  if (dead_) return;
  const sim::Cycle now = model_.sys.now();
  switch (a.kind) {
    case Action::Kind::kFeed: {
      const auto s = static_cast<std::size_t>(a.stream);
      for (std::int64_t i = 0; i < model_.ms.etas[s]; ++i)
        model_.inputs[s]->push(now, stream_flit(a.stream));
      check_invariants();
      break;
    }
    case Action::Kind::kDrain: {
      sim::CFifo* out = model_.outputs[static_cast<std::size_t>(a.stream)];
      while (out->can_pop(now)) (void)out->pop(now);
      check_invariants();
      break;
    }
    case Action::Kind::kStep:
      advance(kStepQuantum);
      break;
    case Action::Kind::kRun: {
      sim::Cycle spent = 0;
      while (!dead_ && spent < model_.ms.max_advance) {
        const sim::Cycle chunk =
            std::min<sim::Cycle>(kRunChunk, model_.ms.max_advance - spent);
        advance(chunk);
        spent += chunk;
        if (!dead_ && stable()) {
          check_stable();
          break;
        }
      }
      if (!dead_ && !stable()) advance_capped_ = true;
      break;
    }
  }
  if (!violations_.empty()) dead_ = true;
}

void Runner::advance(sim::Cycle cycles) {
  try {
    model_.sys.run_global_horizon(cycles);
  } catch (const acc::precondition_error& e) {
    if (model_.ms.has(Mutation::kMidRoundReconfig)) {
      // The seeded rogue agent reconfigures without quiescing; the tile's
      // drained() precondition is what catches it in flight.
      violations_.push_back(
          {"V06",
           std::string("reconfiguration without quiescence: ") + e.what(),
           "route every context switch through the mode-change protocol's "
           "quiesce step — the chain must be drained before reprogramming"});
    } else {
      violations_.push_back(
          {"V03", std::string("protocol precondition violated in flight: ") +
                      e.what(),
           "the gateway admitted a block whose declared shape the chain "
           "cannot honour"});
    }
    dead_ = true;
    return;
  } catch (const acc::invariant_error& e) {
    violations_.push_back(
        {"V03",
         std::string("protocol invariant violated in flight: ") + e.what(),
         "the admission contract (reserve the whole block's input and "
         "output) was not upheld"});
    dead_ = true;
    return;
  }
  check_invariants();
  check_trace();
}

bool Runner::stable() const {
  // The stepper just finished cycle now-1; a component whose horizon is
  // kNeverCycle can only be unblocked by another component, so if EVERY
  // horizon is kNeverCycle and both rings are drained, no component will
  // ever act again without an environment action.
  const sim::Cycle ticked = model_.sys.now() - 1;
  if (!model_.sys.ring().data().idle() || !model_.sys.ring().credit().idle())
    return false;
  for (std::size_t i = 0; i < model_.sys.num_components(); ++i) {
    if (model_.sys.component(i).next_event(ticked) != sim::kNeverCycle)
      return false;
  }
  return true;
}

bool Runner::chain_resting() const {
  if (!model_.chain.entry->is_idle() || !model_.chain.exit->idle())
    return false;
  for (const sim::AcceleratorTile* a : model_.chain.accels)
    if (!a->drained()) return false;
  return model_.sys.ring().data().idle() &&
         model_.sys.ring().credit().idle();
}

void Runner::check_stable() {
  if (chain_resting()) return;
  std::string stuck;
  if (!model_.chain.entry->is_idle()) stuck += " entry-gateway not idle;";
  if (!model_.chain.exit->idle()) stuck += " exit-gateway still armed;";
  for (std::size_t i = 0; i < model_.chain.accels.size(); ++i) {
    if (!model_.chain.accels[i]->drained())
      stuck += " " + model_.chain.accels[i]->name() + " not drained;";
  }
  if (stuck.empty()) stuck = " in-flight ring traffic;";
  violations_.push_back(
      {"V01",
       "deadlock: the model reached a stable state (no component will ever "
       "act again) with unfinished work:" +
           stuck,
       "a dropped or unretried pipeline-idle notification leaves the entry "
       "gateway draining forever — enable the gateway retry policy or fix "
       "the notification path"});
}

void Runner::check_invariants() {
  // --- V02: hardware-credit conservation, per chain link ------------------
  // For each producer -> consumer NI link, the ni_capacity slot tokens are
  // partitioned among: credits held by the producer, data flits in flight
  // on the data ring toward the consumer, samples buffered in the consumer
  // NI queue, credit returns accepted but not yet injected, and credit
  // flits in flight back to the producer. Any other total means a credit
  // was forged or leaked.
  const std::int64_t cap = model_.ms.spec.chain.ni_capacity;
  const auto n = static_cast<std::int32_t>(model_.chain.accels.size());
  const sim::Ring& data = model_.sys.ring().data();
  const sim::Ring& credit = model_.sys.ring().credit();
  for (std::int32_t l = 0; l <= n; ++l) {
    const std::int64_t up_credits =
        l == 0 ? model_.chain.entry->credits()
               : model_.chain.accels[static_cast<std::size_t>(l - 1)]->credits();
    const std::int32_t down_node = l + 1;  // chain is laid out from node 0
    std::int64_t down_fill = 0;
    std::int64_t down_pending = 0;
    std::string down_name;
    if (l == n) {
      down_fill = model_.chain.exit->input_fill();
      down_pending = model_.chain.exit->pending_returns();
      down_name = "exit";
    } else {
      const sim::AcceleratorTile* t =
          model_.chain.accels[static_cast<std::size_t>(l)];
      down_fill = t->input_fill();
      down_pending = t->pending_returns();
      down_name = t->name();
    }
    const std::int64_t in_flight = data.count_to(down_node);
    const std::int64_t returning = credit.count_to(l);
    const std::int64_t total =
        up_credits + in_flight + down_fill + down_pending + returning;
    if (total != cap) {
      violations_.push_back(
          {"V02",
           "credit conservation broken on link " + std::to_string(l) +
               " (-> " + down_name + "): credits " +
               std::to_string(up_credits) + " + in-flight " +
               std::to_string(in_flight) + " + buffered " +
               std::to_string(down_fill) + " + pending-return " +
               std::to_string(down_pending) + " + returning " +
               std::to_string(returning) + " = " + std::to_string(total) +
               ", NI capacity is " + std::to_string(cap),
           "a producer was granted more initial credits than the consumer "
           "NI has slots (or a credit was dropped)"});
    }
  }

  // --- V03: gateway protocol safety --------------------------------------
  if (!model_.chain.exit->idle()) {
    const sim::CFifo* out = model_.chain.exit->armed_output();
    if (out != nullptr) {
      const std::int64_t owed = model_.chain.exit->expected_outputs();
      if (out->true_fill() + owed > out->capacity()) {
        violations_.push_back(
            {"V03",
             "armed block cannot fit: output C-FIFO '" + out->name() +
                 "' holds " + std::to_string(out->true_fill()) +
                 " with " + std::to_string(owed) + " still owed, capacity " +
                 std::to_string(out->capacity()),
             "the admission space check must reserve the whole block's "
             "output before arming the exit gateway"});
      }
    }
  }
  if (!drops_declared_ && model_.chain.exit->notifications_dropped() > 0) {
    violations_.push_back(
        {"V03",
         "pipeline-idle notification dropped in a model with no declared "
         "exit_notify fault",
         "the verification model is fault-free by construction; a drop "
         "here is a protocol defect"});
  }
}

void Runner::check_trace() {
  // --- V04: Eq. 2 bound soundness ----------------------------------------
  // Every admit -> block.delivered pair must complete within tau_hat plus
  // a fixed interconnect slack: tau_hat models the pipelined pass but not
  // the ring hop latency (1 cycle/hop, n+2 hops, NI depth 4 covers queuing)
  // nor sub-cycle rounding (the conformance suite's precedent slack, 16).
  const auto& events = model_.trace.events();
  const std::int64_t n_accels =
      static_cast<std::int64_t>(model_.chain.accels.size());
  const sim::Cycle slack = (n_accels + 2) * 4 + 16;
  for (; trace_scanned_ < events.size(); ++trace_scanned_) {
    const sim::TraceEvent& e = events[trace_scanned_];
    const auto s = static_cast<std::size_t>(e.value);
    if (e.event == "admit") {
      admits_[s].cycles.push_back(e.cycle);
    } else if (e.event == "block.delivered") {
      AdmitQueue& q = admits_[s];
      if (q.head == q.cycles.size()) continue;  // defensive: unmatched
      const sim::Cycle admitted = q.cycles[q.head++];
      const sharing::Time bound =
          sharing::tau_hat(model_.ms.spec, s, model_.ms.etas[s]);
      const sim::Cycle took = e.cycle - admitted;
      if (took > bound + slack) {
        violations_.push_back(
            {"V04",
             "block of stream '" + model_.ms.spec.streams[s].name +
                 "' admitted at cycle " + std::to_string(admitted) +
                 " delivered at cycle " + std::to_string(e.cycle) + " (" +
                 std::to_string(took) + " cycles) exceeds tau_hat " +
                 std::to_string(bound) + " + slack " + std::to_string(slack),
             "Eq. 2 is not a sound bound for this implementation — a stage "
             "is slower than the rho/epsilon/delta the analysis was given"});
      }
    }
  }
}

ExploreResult explore(const ModelSpec& ms, int jobs) {
  ExploreResult res;

  std::vector<Action> catalog;
  std::uint64_t root_digest = 0;
  {
    Runner root(ms);
    catalog = root.action_catalog();
    if (!root.violations().empty()) {
      res.violations = root.violations();
      res.stats.states = 1;
      return res;
    }
    root_digest = root.digest();
  }

  std::unordered_set<std::uint64_t> seen{root_digest};
  res.stats.states = 1;

  struct Child {
    int status = 0;  // 0 = disabled (or unused slot), 1 = clean, 2 = violated
    std::vector<Violation> violations;
    std::uint64_t digest = 0;
    bool capped = false;
  };

  std::vector<std::vector<Action>> frontier{{}};
  const std::size_t n_actions = catalog.size();
  ThreadPool pool(static_cast<std::size_t>(std::max(jobs, 1)));
  // One fork target per worker, built on first use and reused across nodes
  // and levels: copy_state_from overwrites all of its state.
  std::vector<std::unique_ptr<Runner>> scratch(pool.size());

  for (std::int64_t d = 1; d <= ms.depth && !frontier.empty(); ++d) {
    std::vector<Child> children(frontier.size() * n_actions);
    std::vector<std::int64_t> applied(frontier.size(), 0);
    for (std::size_t ni = 0; ni < frontier.size(); ++ni) {
      pool.submit([&, ni](std::size_t worker) {
        Runner node(ms);
        for (const Action& a : frontier[ni]) node.apply(a);
        std::int64_t n_applied =
            static_cast<std::int64_t>(frontier[ni].size());
        if (scratch[worker] == nullptr)
          scratch[worker] = std::make_unique<Runner>(ms);
        Runner& r = *scratch[worker];
        for (std::size_t ai = 0; ai < n_actions; ++ai) {
          if (!node.enabled(catalog[ai])) continue;
          r.copy_state_from(node);
          r.apply(catalog[ai]);
          ++n_applied;
          Child& c = children[ni * n_actions + ai];
          if (!r.violations().empty()) {
            c.status = 2;
            c.violations = r.violations();
          } else {
            c.status = 1;
            c.digest = r.digest();
            c.capped = r.advance_capped();
          }
        }
        applied[ni] = n_applied;
      });
    }
    pool.wait_idle();
    for (const std::int64_t n : applied) res.stats.actions_applied += n;

    // Sequential merge in (node, action) order: the first violation in
    // deterministic order wins, whatever the worker schedule was.
    std::vector<std::vector<Action>> next;
    for (std::size_t ni = 0; ni < frontier.size(); ++ni) {
      for (std::size_t ai = 0; ai < n_actions; ++ai) {
        const Child& c = children[ni * n_actions + ai];
        if (c.status == 0) continue;
        if (c.status == 2) {
          res.violations = c.violations;
          res.counterexample = frontier[ni];
          res.counterexample.push_back(catalog[ai]);
          res.stats.depth = d;
          return res;
        }
        if (c.capped) res.stats.truncated = true;
        if (!seen.insert(c.digest).second) continue;  // already explored
        if (res.stats.states >= ms.states) {
          res.stats.truncated = true;
          continue;
        }
        ++res.stats.states;
        next.push_back(frontier[ni]);
        next.back().push_back(catalog[ai]);
      }
    }
    res.stats.depth = d;
    frontier = std::move(next);
  }
  return res;
}

}  // namespace acc::verify
