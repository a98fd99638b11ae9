// Self-timed execution of (C)SDF graphs with exact integer timestamps.
//
// Self-timed execution (every actor fires as soon as it is enabled) yields
// the best-case schedule of a dataflow graph; for strongly-connected,
// consistent graphs its steady state is periodic and its rate equals the
// graph's maximum achievable throughput. The paper's analyses reduce to
// questions this executor answers exactly:
//   - minimum throughput of the per-stream CSDF model (paper Fig. 5),
//   - throughput of the single-actor SDF abstraction (paper Fig. 7),
//   - minimum buffer capacities for a target throughput (paper Fig. 8),
//   - token production times for the-earlier-the-better refinement checks.
//
// Operational semantics: tokens are consumed at firing start and produced at
// firing end; serialized actors (the CSDF default) have at most one firing in
// flight; phases advance cyclically in firing-start order.
//
// Hot path. Starting a firing only consumes tokens, so it can never enable
// another actor: after a completion only the completed actor and the
// destinations of its out-edges are re-checked, in ascending id order, in
// one pass. Per-actor port rows (edge, peer, per-phase quanta) are cached at
// construction so an enabling check touches only flat arrays.
//
// Drift windows. Near a capacity threshold a buffer that is larger than the
// steady state needs fills by a few tokens per graph iteration, and the
// periodic state recurs only once it is full: hundreds of iterations in
// which everything but the token counts repeats. analyze_throughput() takes
// a *shape* of the state at every iteration boundary (the state without
// token counts). When a shape recurs p iterations later with token
// difference d != 0, the next p iterations are stepped while every enabling
// check is recorded together with its slack. If that window again ends at
// the same shape with the same d, the largest J is computed such that every
// recorded check keeps its outcome with the tokens shifted by j*d for every
// j <= J, and J windows are applied in closed form (tokens, clocks, pending
// events, completion counts and max occupancy). Each skipped window is a
// real replay shifted by d, so throughput, period and firings-in-period are
// exact. Jumps never happen while an ExecObservers callback is set: those
// callers must see every firing.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rational.hpp"
#include "dataflow/graph.hpp"
#include "dataflow/repetition.hpp"

namespace acc::df {

/// Observation hooks. `on_firing` is invoked when a firing starts (its end
/// time is already known); `on_produce` once per edge per completed firing
/// that produced a positive number of tokens.
struct ExecObservers {
  std::function<void(ActorId actor, std::int32_t phase, Time start, Time end)>
      on_firing;
  std::function<void(EdgeId edge, std::int64_t count, Time when)> on_produce;
};

/// Post-mortem of a deadlocked execution: which actors starved and what
/// each one was waiting for.
struct DeadlockReport {
  bool deadlocked = false;
  /// Time at which nothing could fire any more.
  Time at = 0;
  /// For every actor that can never fire again: (actor, blocking edge with
  /// too few tokens for its next phase).
  struct Starved {
    ActorId actor = kInvalidActor;
    EdgeId blocking_edge = -1;
    std::int64_t tokens_present = 0;
    std::int64_t tokens_needed = 0;
  };
  std::vector<Starved> starved;
};

/// Run the graph to quiescence and report why it stopped. A live graph
/// (runs past `horizon` without quiescing) reports deadlocked = false.
[[nodiscard]] DeadlockReport diagnose_deadlock(const Graph& g,
                                               Time horizon = 1 << 20);

/// Human-readable rendering of a deadlock report.
[[nodiscard]] std::string describe(const DeadlockReport& r, const Graph& g);

/// Result of steady-state (throughput) analysis.
struct ThroughputResult {
  /// True if execution reached a state where nothing can ever fire again.
  bool deadlocked = false;
  /// Completions of the reference actor per unit time in steady state
  /// (0 if deadlocked).
  Rational throughput;
  /// Length of the detected periodic phase in time units.
  Time period = 0;
  /// Reference-actor completions within one period.
  std::int64_t firings_in_period = 0;
  /// Graph iterations (executed plus skipped) up to the one at which the
  /// periodic state was detected. With drift windows skipped the detection
  /// may come later than plain stepping would find it.
  std::int64_t transient_iterations = 0;
  /// Iterations of transient_iterations that were skipped in closed form.
  std::int64_t skipped_iterations = 0;
  /// Actor firings the analysis actually executed (skipped ones excluded).
  std::int64_t firings = 0;
};

/// Tag for the validation-skipping constructor: the caller vouches that the
/// graph has already passed Graph::validate(). Used by search drivers
/// (buffer sizing, DSE) that construct thousands of executors on the same
/// pre-validated graph.
struct assume_validated_t {
  explicit assume_validated_t() = default;
};
inline constexpr assume_validated_t assume_validated{};

class SelfTimedExecutor {
 public:
  /// The graph must outlive the executor and must validate().
  explicit SelfTimedExecutor(const Graph& g);
  /// Skip structural validation: the caller guarantees g.validate() passed
  /// (capacity changes via set_channel_capacity never invalidate a graph).
  SelfTimedExecutor(const Graph& g, assume_validated_t);
  /// Guard against dangling references: a temporary graph cannot outlive
  /// the executor.
  explicit SelfTimedExecutor(Graph&&) = delete;
  SelfTimedExecutor(Graph&&, assume_validated_t) = delete;

  /// Restore all token counts and clocks to the initial state.
  void reset();

  void set_observers(ExecObservers obs) { observers_ = std::move(obs); }

  /// Run until `actor` has completed `count` firings in total (since reset).
  /// Returns the completion time of the count-th firing, or nullopt if the
  /// graph deadlocks first.
  std::optional<Time> run_until_firings(ActorId actor, std::int64_t count);

  /// Run until the clock passes `horizon` (events at exactly `horizon` are
  /// processed). Returns false if the graph deadlocked before the horizon.
  bool run_for(Time horizon);

  /// Detect the periodic steady state by state recurrence at iteration
  /// boundaries of `reference` and return the exact throughput. Requires a
  /// consistent graph. `max_iterations` bounds the search (skipped drift
  /// windows count against it).
  ThroughputResult analyze_throughput(ActorId reference,
                                      std::int64_t max_iterations = 100000);

  /// Completion times of the first `count` firings of `actor` (runs the
  /// graph; call on a freshly reset executor for absolute times). Empty
  /// result slots are absent if the graph deadlocks early.
  std::vector<Time> completion_times(ActorId actor, std::int64_t count);

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] std::int64_t tokens(EdgeId e) const { return tokens_[e]; }
  [[nodiscard]] std::int64_t completed_firings(ActorId a) const {
    return completed_[a];
  }
  /// Highest token count ever observed on an edge (buffer occupancy probe).
  [[nodiscard]] std::int64_t max_tokens_seen(EdgeId e) const {
    return max_tokens_[e];
  }

 private:
  struct Event {
    Time when;
    std::int64_t seq;  // tie-break for determinism
    ActorId actor;
    std::int32_t phase;
    friend bool operator>(const Event& a, const Event& b) {
      return std::tie(a.when, a.seq) > std::tie(b.when, b.seq);
    }
  };

  /// Cached port row of an actor: the edge, the actor at its other end and
  /// the offset of its per-phase quanta in rates_.
  struct Port {
    EdgeId edge;
    ActorId peer;
    std::int32_t rates;
  };
  /// Cached per-actor data. Port ranges end where the next row's begin
  /// (rows_ has a sentinel entry).
  struct ActorRow {
    std::int32_t in_begin;
    std::int32_t out_begin;
    std::int32_t durations;  // offset into durations_
    std::int32_t phases;
    bool auto_concurrent;
  };

  /// A drift window being recorded by analyze_throughput.
  struct DriftWindow {
    std::int64_t iterations = 0;  // p
    std::int64_t end_iter = 0;
    std::vector<std::int64_t> shape;  // exact shape at the window start
    std::vector<std::int64_t> tokens;
    std::vector<std::int64_t> completed;
    Time now = 0;
    std::int64_t seq = 0;
  };

  /// Start every enabled firing among the candidate actors (those whose
  /// enabling may have changed since the last call) at the current time.
  void start_enabled();
  [[nodiscard]] bool enabled(ActorId a) const;
  /// enabled() while a drift window records: evaluates every in-edge and
  /// tightens jump_bound_ so the outcome holds under a shift by j*drift_.
  bool record_check(ActorId a);
  void start_firing(ActorId a);
  void complete(const Event& ev);
  /// Advance to the next event time and process all completions there.
  /// Returns false if no events remain.
  bool step();

  /// Expose the heap's underlying storage so the boundary keys can
  /// enumerate pending events without the O(n log n) pop-everything copy.
  class EventQueue
      : public std::priority_queue<Event, std::vector<Event>, std::greater<>> {
   public:
    [[nodiscard]] const std::vector<Event>& container() const { return c; }
    /// Add the same offsets to every event; (when, seq) order is unchanged,
    /// so the heap stays valid.
    void shift(Time dt, std::int64_t dseq) {
      for (Event& ev : c) {
        ev.when += dt;
        ev.seq += dseq;
      }
    }
  };

  /// Hashes taken at a reference-iteration boundary. `state` covers the
  /// timing-relevant state (token counts, next phases, and the
  /// (when - now, actor, phase) of every in-flight completion in (when, seq)
  /// order); `shape` covers the same without token counts plus the
  /// reference actor's overshoot past the boundary (in-flight counts are
  /// implied by the pending list). Allocation-free after the first call.
  struct BoundaryKeys {
    std::uint64_t state;
    std::uint64_t shape;
  };
  [[nodiscard]] BoundaryKeys boundary_keys(std::int64_t overshoot) const;
  /// The exact shape hashed by boundary_keys (compared at a window's end).
  [[nodiscard]] std::vector<std::int64_t> shape(std::int64_t overshoot) const;
  /// Pending events in (when, seq) order, into scratch_.
  void sort_pending() const;
  /// The pre-optimization serialized state key; kept for the NDEBUG-off
  /// collision check in analyze_throughput.
  [[nodiscard]] std::string state_key_string() const;

  /// Open a drift window of `iterations` iterations expected to drift by
  /// `drift` (the next boundary is `iter`).
  void begin_window(std::int64_t iter, std::int64_t iterations,
                    std::vector<std::int64_t> drift, std::int64_t overshoot);
  /// Close the open window; returns how many more windows may be skipped
  /// (0 if the window did not end at its start shape with the same drift).
  std::int64_t end_window(std::int64_t overshoot);
  /// Apply `windows` replays of the window just closed.
  void skip_windows(std::int64_t windows);

  const Graph& g_;
  std::vector<ActorRow> rows_;  // num_actors + 1 (sentinel)
  std::vector<Port> in_ports_;
  std::vector<Port> out_ports_;
  std::vector<std::int64_t> rates_;
  std::vector<Time> durations_;

  Time now_ = 0;
  std::int64_t seq_ = 0;
  std::int64_t firings_ = 0;  // firings started since reset()
  std::vector<std::int64_t> tokens_;
  std::vector<std::int64_t> max_tokens_;
  std::vector<std::int32_t> next_phase_;
  std::vector<std::int32_t> in_flight_;
  std::vector<std::int64_t> completed_;
  std::vector<ActorId> candidates_;
  EventQueue pending_;
  mutable std::vector<Event> scratch_;  // sort_pending() working storage
  ExecObservers observers_;

  bool recording_ = false;
  DriftWindow window_;
  std::vector<std::int64_t> drift_;       // expected token change per window
  std::vector<std::int64_t> window_max_;  // per-edge maximum in the window
  std::int64_t jump_bound_ = 0;           // windows the checks allow
};

}  // namespace acc::df
