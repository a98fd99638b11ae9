// Bounded exhaustive exploration of one verification model's reachable
// state space.
//
// A state is stored as its action path from the initial state: a live
// Runner costs kilobytes, a path a few bytes per action, and the frontier
// can hold a thousand states. Expanding a frontier node REPLAYS its path
// once, on a fresh Runner (building a Model is a pure function of the
// ModelSpec), and then FORKS every enabled child from it: the node's state
// is copied into a per-worker scratch Runner (Runner::copy_state_from),
// which applies the one action and yields the child's digest. Disabled
// actions cost nothing. Deduplication keys on System::state_digest() — the
// canonical frozen digest with deadlines taken relative to now, so the
// same protocol situation reached at different absolute cycles collapses.
//
// Determinism: frontier nodes are expanded in insertion order and actions
// in catalog order (feed s0.., drain s0.., step, run). Workers fill a
// preallocated child table indexed (node, action); the merge walks that
// table sequentially, so the FIRST violation in (depth, node, action) order
// wins for every --jobs value — byte-identical reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "verify/model.hpp"
#include "verify/verify.hpp"

namespace acc::verify {

/// One temporal-safety violation, already phrased for the lint report.
struct Violation {
  std::string rule;  // "V01".."V04" (V05 comes from the wake audit)
  std::string message;
  std::string hint;
};

struct ExploreStats {
  std::int64_t states = 0;  // distinct canonical states reached
  std::int64_t depth = 0;   // deepest fully-expanded level
  bool truncated = false;   // a budget clipped the search
  /// Runner::apply calls made, path replays included (a work counter; not
  /// part of the acc-verify report).
  std::int64_t actions_applied = 0;
};

struct ExploreResult {
  /// Every rule violated at the first violating state (empty = clean
  /// within budget).
  std::vector<Violation> violations;
  /// Action path to the violating state (empty = initial state violates).
  std::vector<Action> counterexample;
  ExploreStats stats;
};

/// One model instance plus the machinery to drive it through environment
/// actions while checking the V01-V04 oracles. Also used standalone by
/// render_counterexample to replay a reported path.
class Runner {
 public:
  explicit Runner(const ModelSpec& ms);

  /// Make this runner's model and oracle state an exact copy of `other`'s,
  /// which must have been built from an equal ModelSpec. Afterwards both
  /// behave identically under the same actions, as if this runner had
  /// replayed `other`'s path itself.
  void copy_state_from(const Runner& other);

  /// Is `a` enabled in the current state? (kStep/kRun always are.)
  [[nodiscard]] bool enabled(const Action& a) const;

  /// Apply one enabled action, running every oracle at each advance
  /// boundary. Violations accumulate in violations(); once any is found
  /// the runner is terminal (apply becomes a no-op).
  void apply(const Action& a);

  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }
  [[nodiscard]] std::uint64_t digest() const { return model_.sys.state_digest(); }
  [[nodiscard]] Model& model() { return model_; }
  /// A kRun spent the whole max_advance budget without reaching stability.
  [[nodiscard]] bool advance_capped() const { return advance_capped_; }

  /// The full deterministic action catalog for this model (expansion order).
  [[nodiscard]] std::vector<Action> action_catalog() const;

 private:
  void advance(sim::Cycle cycles);
  void check_invariants();   // V02 conservation, V03 protocol safety
  void check_trace();        // V04 Eq. 2 bound on new admit->delivered pairs
  void check_stable();       // V01 once a kRun reaches stability
  [[nodiscard]] bool stable() const;
  [[nodiscard]] bool chain_resting() const;

  Model model_;
  std::vector<Violation> violations_;
  std::size_t trace_scanned_ = 0;
  /// A stream's "admit" cycles in order; those from `head` on are still
  /// waiting for their "block.delivered" event.
  struct AdmitQueue {
    std::vector<sim::Cycle> cycles;
    std::size_t head = 0;
  };
  std::vector<AdmitQueue> admits_;  // per stream
  bool drops_declared_ = false;  // exit_notify faults are expected
  bool dead_ = false;            // an oracle fired or the model threw
  bool advance_capped_ = false;  // a kRun never reached stability
};

/// Breadth-first exploration to the spec's depth/state budgets with `jobs`
/// expansion workers. Deterministic for any `jobs` (see file header).
[[nodiscard]] ExploreResult explore(const ModelSpec& ms, int jobs);

}  // namespace acc::verify
