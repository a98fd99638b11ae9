#include "dataflow/executor.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

namespace acc::df {

namespace {

const Graph& validated(const Graph& g) {
  g.validate();
  return g;
}

/// Row-major copy of a list of per-phase quanta; returns its offset.
std::int32_t append(std::vector<std::int64_t>& out,
                    const std::vector<std::int64_t>& v) {
  const auto at = static_cast<std::int32_t>(out.size());
  out.insert(out.end(), v.begin(), v.end());
  return at;
}

}  // namespace

SelfTimedExecutor::SelfTimedExecutor(const Graph& g)
    : SelfTimedExecutor(validated(g), assume_validated) {
  for (ActorId a = 0; a < static_cast<ActorId>(g_.num_actors()); ++a) {
    // An unconstrained auto-concurrent actor could start infinitely many
    // firings at one instant; reject the model instead of hanging.
    ACC_EXPECTS_MSG(!g_.actor(a).auto_concurrent || !g_.in_edges(a).empty(),
                    "auto-concurrent actor '" + g_.actor(a).name +
                        "' needs at least one input edge");
  }
}

SelfTimedExecutor::SelfTimedExecutor(const Graph& g, assume_validated_t)
    : g_(g) {
  for (ActorId a = 0; a < static_cast<ActorId>(g_.num_actors()); ++a) {
    const Actor& actor = g_.actor(a);
    rows_.push_back(ActorRow{static_cast<std::int32_t>(in_ports_.size()),
                             static_cast<std::int32_t>(out_ports_.size()),
                             static_cast<std::int32_t>(durations_.size()),
                             static_cast<std::int32_t>(actor.phases()),
                             actor.auto_concurrent});
    durations_.insert(durations_.end(), actor.phase_durations.begin(),
                      actor.phase_durations.end());
    for (EdgeId e : g_.in_edges(a)) {
      const Edge& edge = g_.edge(e);
      in_ports_.push_back(Port{e, edge.src, append(rates_, edge.cons)});
    }
    for (EdgeId e : g_.out_edges(a)) {
      const Edge& edge = g_.edge(e);
      out_ports_.push_back(Port{e, edge.dst, append(rates_, edge.prod)});
    }
  }
  rows_.push_back(ActorRow{static_cast<std::int32_t>(in_ports_.size()),
                           static_cast<std::int32_t>(out_ports_.size()),
                           static_cast<std::int32_t>(durations_.size()), 0,
                           false});
  reset();
}

void SelfTimedExecutor::reset() {
  now_ = 0;
  seq_ = 0;
  firings_ = 0;
  tokens_.assign(g_.num_edges(), 0);
  max_tokens_.assign(g_.num_edges(), 0);
  for (std::size_t e = 0; e < g_.num_edges(); ++e) {
    tokens_[e] = g_.edge(static_cast<EdgeId>(e)).initial_tokens;
    max_tokens_[e] = tokens_[e];
  }
  next_phase_.assign(g_.num_actors(), 0);
  in_flight_.assign(g_.num_actors(), 0);
  completed_.assign(g_.num_actors(), 0);
  // Every actor is a candidate until the first start_enabled().
  candidates_.resize(g_.num_actors());
  for (std::size_t a = 0; a < candidates_.size(); ++a)
    candidates_[a] = static_cast<ActorId>(a);
  pending_ = {};
  recording_ = false;
}

bool SelfTimedExecutor::enabled(ActorId a) const {
  const ActorRow& row = rows_[a];
  if (!row.auto_concurrent && in_flight_[a] > 0) return false;
  const std::int32_t p = next_phase_[a];
  const std::int32_t end = rows_[a + 1].in_begin;
  for (std::int32_t i = row.in_begin; i < end; ++i) {
    const Port& port = in_ports_[i];
    if (tokens_[port.edge] < rates_[port.rates + p]) return false;
  }
  return true;
}

bool SelfTimedExecutor::record_check(ActorId a) {
  const ActorRow& row = rows_[a];
  // A busy serialized actor fails regardless of tokens.
  if (!row.auto_concurrent && in_flight_[a] > 0) return false;
  const std::int32_t p = next_phase_[a];
  const std::int32_t end = rows_[a + 1].in_begin;
  bool ok = true;
  for (std::int32_t i = row.in_begin; i < end; ++i) {
    const Port& port = in_ports_[i];
    if (tokens_[port.edge] < rates_[port.rates + p]) ok = false;
  }
  // Slack of edge e is tokens - need. A pass survives a shift by j*d_e
  // while slack + j*d_e >= 0 on every edge; a failure survives while some
  // failing edge keeps slack + j*d_e < 0.
  std::int64_t bound = ok ? INT64_MAX : 0;
  for (std::int32_t i = row.in_begin; i < end; ++i) {
    const Port& port = in_ports_[i];
    const std::int64_t slack = tokens_[port.edge] - rates_[port.rates + p];
    const std::int64_t d = drift_[port.edge];
    if (ok) {
      if (d < 0) bound = std::min(bound, slack / -d);
    } else if (slack < 0) {
      bound = std::max(bound, d <= 0 ? INT64_MAX : (-slack + d - 1) / d - 1);
    }
  }
  jump_bound_ = std::min(jump_bound_, bound);
  return ok;
}

void SelfTimedExecutor::start_firing(ActorId a) {
  const ActorRow& row = rows_[a];
  const std::int32_t p = next_phase_[a];
  const std::int32_t end = rows_[a + 1].in_begin;
  for (std::int32_t i = row.in_begin; i < end; ++i) {
    const Port& port = in_ports_[i];
    tokens_[port.edge] -= rates_[port.rates + p];
  }
  const Time finish = now_ + durations_[row.durations + p];
  pending_.push(Event{finish, seq_++, a, p});
  ++in_flight_[a];
  ++firings_;
  next_phase_[a] = p + 1 == row.phases ? 0 : p + 1;
  if (observers_.on_firing) observers_.on_firing(a, p, now_, finish);
}

void SelfTimedExecutor::complete(const Event& ev) {
  const std::int32_t p = ev.phase;
  const std::int32_t end = rows_[ev.actor + 1].out_begin;
  for (std::int32_t i = rows_[ev.actor].out_begin; i < end; ++i) {
    const Port& port = out_ports_[i];
    candidates_.push_back(port.peer);
    const std::int64_t q = rates_[port.rates + p];
    if (q > 0) {
      const std::int64_t t = tokens_[port.edge] += q;
      max_tokens_[port.edge] = std::max(max_tokens_[port.edge], t);
      if (recording_)
        window_max_[port.edge] = std::max(window_max_[port.edge], t);
      if (observers_.on_produce) observers_.on_produce(port.edge, q, now_);
    }
  }
  candidates_.push_back(ev.actor);
  --in_flight_[ev.actor];
  ++completed_[ev.actor];
}

void SelfTimedExecutor::start_enabled() {
  // Starting a firing only consumes tokens, so it never enables another
  // actor: one ascending pass over the candidates reaches the fixpoint of
  // an all-actor sweep, starting the same firings in the same order.
  std::sort(candidates_.begin(), candidates_.end());
  candidates_.erase(std::unique(candidates_.begin(), candidates_.end()),
                    candidates_.end());
  for (ActorId a : candidates_) {
    while (recording_ ? record_check(a) : enabled(a)) {
      start_firing(a);
      if (!rows_[a].auto_concurrent) break;
    }
  }
  candidates_.clear();
}

bool SelfTimedExecutor::step() {
  if (pending_.empty()) return false;
  now_ = pending_.top().when;
  // Complete everything scheduled for this instant, then start newly enabled
  // firings; zero-duration firings scheduled "at now" are drained in the same
  // loop so time never runs backwards. The drain counter guards against Zeno
  // behaviour (a cycle of zero-duration actors firing forever at one instant).
  std::int64_t drains = 0;
  while (!pending_.empty() && pending_.top().when == now_) {
    ACC_CHECK_MSG(++drains < 1'000'000,
                  "zero-duration firing cycle: graph never advances time");
    while (!pending_.empty() && pending_.top().when == now_) {
      const Event ev = pending_.top();
      pending_.pop();
      complete(ev);
    }
    start_enabled();
  }
  return true;
}

std::optional<Time> SelfTimedExecutor::run_until_firings(ActorId actor,
                                                         std::int64_t count) {
  ACC_EXPECTS(count >= 0);
  start_enabled();
  // Zero-duration firings enabled at t=0 need one drain before stepping.
  while (!pending_.empty() && pending_.top().when == now_) step();
  while (completed_[actor] < count) {
    if (!step()) return std::nullopt;  // deadlock
  }
  return now_;
}

bool SelfTimedExecutor::run_for(Time horizon) {
  start_enabled();
  while (!pending_.empty() && pending_.top().when <= horizon) {
    if (!step()) break;
  }
  return !pending_.empty() || now_ >= horizon;
}

std::vector<Time> SelfTimedExecutor::completion_times(ActorId actor,
                                                      std::int64_t count) {
  std::vector<Time> times;
  times.reserve(static_cast<std::size_t>(count));
  ExecObservers saved = observers_;
  ExecObservers obs = saved;
  // Wrap (not replace) any user observer so both see the events.
  obs.on_firing = [&, saved](ActorId a, std::int32_t ph, Time s, Time e) {
    if (saved.on_firing) saved.on_firing(a, ph, s, e);
    if (a == actor && static_cast<std::int64_t>(times.size()) <
                          count)  // record completion time
      times.push_back(e);
  };
  set_observers(obs);
  run_until_firings(actor, count);
  set_observers(saved);
  // Completion order equals start order for serialized actors; sort anyway
  // so auto-concurrent reference actors report monotone times.
  std::sort(times.begin(), times.end());
  times.resize(std::min<std::size_t>(times.size(),
                                     static_cast<std::size_t>(count)));
  return times;
}

namespace {

/// Incremental FNV-1a over 64-bit words. Hashing whole words (not bytes)
/// keeps the loop branch-free and is plenty mixing for recurrence detection.
struct Fnv1a64 {
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  void mix(std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;  // FNV prime
  }
  void mix_i64(std::int64_t x) { mix(static_cast<std::uint64_t>(x)); }
};

}  // namespace

void SelfTimedExecutor::sort_pending() const {
  scratch_.assign(pending_.container().begin(), pending_.container().end());
  std::sort(scratch_.begin(), scratch_.end(),
            [](const Event& a, const Event& b) {
              return std::tie(a.when, a.seq) < std::tie(b.when, b.seq);
            });
}

SelfTimedExecutor::BoundaryKeys SelfTimedExecutor::boundary_keys(
    std::int64_t overshoot) const {
  // Pending events are enumerated in the heap's pop order — (when, seq)
  // ascending — so the state hash covers exactly the words the string key
  // serializes, without the per-call heap copy + string allocation.
  Fnv1a64 state;
  Fnv1a64 shape;
  for (std::int64_t t : tokens_) state.mix_i64(t);
  for (std::int32_t p : next_phase_) {
    state.mix_i64(p);
    shape.mix_i64(p);
  }
  sort_pending();
  for (const Event& ev : scratch_) {
    for (const std::int64_t x : {ev.when - now_, std::int64_t{ev.actor},
                                 std::int64_t{ev.phase}}) {
      state.mix_i64(x);
      shape.mix_i64(x);
    }
  }
  shape.mix_i64(overshoot);
  return BoundaryKeys{state.h, shape.h};
}

std::vector<std::int64_t> SelfTimedExecutor::shape(
    std::int64_t overshoot) const {
  std::vector<std::int64_t> v(next_phase_.begin(), next_phase_.end());
  sort_pending();
  for (const Event& ev : scratch_) {
    v.push_back(ev.when - now_);
    v.push_back(ev.actor);
    v.push_back(ev.phase);
  }
  v.push_back(overshoot);
  return v;
}

std::string SelfTimedExecutor::state_key_string() const {
  std::vector<std::int64_t> v;
  v.reserve(tokens_.size() + next_phase_.size() + pending_.size() * 3 + 1);
  for (std::int64_t t : tokens_) v.push_back(t);
  for (std::int32_t p : next_phase_) v.push_back(p);
  auto copy = pending_;
  while (!copy.empty()) {
    const Event& ev = copy.top();
    v.push_back(ev.when - now_);
    v.push_back(ev.actor);
    v.push_back(ev.phase);
    copy.pop();
  }
  return std::string(reinterpret_cast<const char*>(v.data()),
                     v.size() * sizeof(std::int64_t));
}

DeadlockReport diagnose_deadlock(const Graph& g, Time horizon) {
  SelfTimedExecutor exec(g);
  DeadlockReport out;
  if (exec.run_for(horizon)) {
    return out;  // events still pending (or horizon reached): live
  }
  // Quiesced: nothing in flight, nothing enabled. Explain each actor.
  out.deadlocked = true;
  out.at = exec.now();
  for (ActorId a = 0; a < static_cast<ActorId>(g.num_actors()); ++a) {
    const Actor& actor = g.actor(a);
    // Reconstruct the next phase from completed firings (serialized actors;
    // auto-concurrent ones report their next phase the same way).
    const auto phase = static_cast<std::int32_t>(
        exec.completed_firings(a) % static_cast<std::int64_t>(actor.phases()));
    for (EdgeId eid : g.in_edges(a)) {
      const Edge& e = g.edge(eid);
      if (exec.tokens(eid) < e.cons[phase]) {
        out.starved.push_back(DeadlockReport::Starved{
            a, eid, exec.tokens(eid), e.cons[phase]});
        break;  // one blocking edge per actor is enough for diagnosis
      }
    }
  }
  return out;
}

std::string describe(const DeadlockReport& r, const Graph& g) {
  std::ostringstream os;
  if (!r.deadlocked) {
    os << "graph is live (no quiescence before the horizon)";
    return os.str();
  }
  os << "deadlock at t=" << r.at << ":";
  for (const DeadlockReport::Starved& s : r.starved) {
    os << "\n  " << g.actor(s.actor).name << " starved on edge '"
       << g.edge(s.blocking_edge).name << "' (" << s.tokens_present << "/"
       << s.tokens_needed << " tokens)";
  }
  return os.str();
}

void SelfTimedExecutor::begin_window(std::int64_t iter,
                                     std::int64_t iterations,
                                     std::vector<std::int64_t> drift,
                                     std::int64_t overshoot) {
  window_.iterations = iterations;
  window_.end_iter = iter + iterations;
  window_.shape = shape(overshoot);
  window_.tokens = tokens_;
  window_.completed = completed_;
  window_.now = now_;
  window_.seq = seq_;
  drift_ = std::move(drift);
  window_max_ = tokens_;
  jump_bound_ = INT64_MAX;
  recording_ = true;
  // The status of every actor at the window start must hold under the
  // shift too. For an idle actor this is implied by its last check in the
  // window (nothing changes its inputs afterwards without a re-check), so
  // this pass mainly asserts that the candidate-only start_enabled() left
  // the boundary a fixpoint.
  for (ActorId a = 0; a < static_cast<ActorId>(rows_.size()) - 1; ++a) {
    const bool started = record_check(a);
    ACC_CHECK(!started);
  }
}

std::int64_t SelfTimedExecutor::end_window(std::int64_t overshoot) {
  recording_ = false;
  for (std::size_t e = 0; e < tokens_.size(); ++e) {
    if (tokens_[e] - window_.tokens[e] != drift_[e]) return 0;
  }
  if (shape(overshoot) != window_.shape) return 0;
  return jump_bound_;
}

void SelfTimedExecutor::skip_windows(std::int64_t windows) {
  for (std::size_t e = 0; e < tokens_.size(); ++e) {
    tokens_[e] += windows * drift_[e];
    max_tokens_[e] = std::max(max_tokens_[e],
                              window_max_[e] + windows * drift_[e]);
  }
  for (std::size_t a = 0; a < completed_.size(); ++a)
    completed_[a] += windows * (completed_[a] - window_.completed[a]);
  const Time dt = windows * (now_ - window_.now);
  const std::int64_t dseq = windows * (seq_ - window_.seq);
  now_ += dt;
  seq_ += dseq;
  pending_.shift(dt, dseq);
}

ThroughputResult SelfTimedExecutor::analyze_throughput(
    ActorId reference, std::int64_t max_iterations) {
  const RepetitionVector rv = compute_repetition_vector(g_);
  ACC_EXPECTS_MSG(rv.consistent, "throughput analysis needs a consistent graph");
  const std::int64_t ref_per_iter = rv.firings[reference];
  ACC_CHECK(ref_per_iter > 0);

  reset();
  ThroughputResult out;
  // Observers must see every firing, so only plain stepping serves them.
  bool may_skip = !observers_.on_firing && !observers_.on_produce;

  // States observed at iteration boundaries of the reference actor, keyed by
  // the 64-bit state hash. A hash collision would mis-detect a recurrence;
  // debug builds cross-check every hash against the full serialized state.
  struct Seen {
    std::int64_t iter;
    Time now;
    std::int64_t completed;
  };
  std::unordered_map<std::uint64_t, Seen> seen;
#ifndef NDEBUG
  std::unordered_map<std::uint64_t, std::string> seen_full;
#endif
  // Latest boundary with each shape, with its token counts.
  std::unordered_map<std::uint64_t,
                     std::pair<std::int64_t, std::vector<std::int64_t>>>
      shapes;
  // First iteration of the current stretch of stepped (never skipped)
  // boundaries. A recurrence within one stretch is the first repeat of the
  // real boundary sequence there, so its period is the minimal one.
  std::int64_t stretch_begin = 1;

  for (std::int64_t iter = 1; iter <= max_iterations; ++iter) {
    if (!run_until_firings(reference, iter * ref_per_iter).has_value()) {
      out.deadlocked = true;
      out.firings = firings_;
      recording_ = false;
      return out;
    }
    const std::int64_t overshoot = completed_[reference] - iter * ref_per_iter;
    if (recording_ && iter == window_.end_iter) {
      const std::int64_t windows = std::min(
          end_window(overshoot),
          (max_iterations - iter) / window_.iterations);
      if (windows > 0) {
        skip_windows(windows);
        iter += windows * window_.iterations;
        out.skipped_iterations += windows * window_.iterations;
        stretch_begin = iter;
        shapes.clear();
      }
    }
    const BoundaryKeys keys = boundary_keys(overshoot);
#ifndef NDEBUG
    {
      const std::string full = state_key_string();
      const auto fit = seen_full.find(keys.state);
      ACC_CHECK_MSG(fit == seen_full.end() || fit->second == full,
                    "state_key 64-bit hash collision");
      seen_full.emplace(keys.state, full);
    }
#endif
    const auto it = seen.find(keys.state);
    if (it != seen.end() && it->second.iter < stretch_begin) {
      // The earlier occurrence lies before a skip: states between them
      // were never hashed, so the period could be a multiple of the
      // minimal one. Step plainly from here until the state recurs again.
      seen.clear();
      shapes.clear();
      recording_ = false;
      may_skip = false;
      stretch_begin = iter;
    } else if (it != seen.end()) {
      out.period = now_ - it->second.now;
      out.firings_in_period = completed_[reference] - it->second.completed;
      ACC_CHECK(out.firings_in_period > 0);
      if (out.period == 0) {
        // Entire period executes in zero time: unbounded rate. Model as a
        // gigantic-but-finite rate so callers can still compare.
        out.throughput = Rational(INT64_MAX / 2);
      } else {
        out.throughput = Rational(out.firings_in_period, out.period);
      }
      out.transient_iterations = iter;
      out.firings = firings_;
      recording_ = false;
      return out;
    }
    seen.emplace(keys.state, Seen{iter, now_, completed_[reference]});
    if (!may_skip || recording_) continue;
    auto [sit, fresh] = shapes.try_emplace(keys.shape, iter, tokens_);
    if (fresh) continue;
    // The shape recurred with different tokens (equal tokens would have
    // been a state recurrence): replay the same number of iterations once
    // more, recording, to see whether the drift repeats.
    const std::int64_t iterations = iter - sit->second.first;
    if (iter + iterations < max_iterations) {
      std::vector<std::int64_t> drift(tokens_);
      for (std::size_t e = 0; e < drift.size(); ++e)
        drift[e] -= sit->second.second[e];
      begin_window(iter, iterations, std::move(drift), overshoot);
    }
    sit->second = {iter, tokens_};
  }
  throw invariant_error(
      "analyze_throughput: no periodic state within iteration budget");
}

}  // namespace acc::df
