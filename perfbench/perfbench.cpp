// perfbench — the repository's end-to-end benchmark program.
//
//   perfbench --workload pal_decode|pal_faulted|session_churn|design_flow
//             --seed N --seconds S --trace 0|1 --repo DIR --state-dir DIR
//
// One client issues complete workload runs closed-loop (the next run starts
// when the previous one returns) for S seconds; the simulator itself runs
// single-threaded. Every input derives from --seed. Every timed run is
// checked against a reference computed outside the timed region (the dense
// stepper for the simulator workloads, pinned verdicts for the design
// flow), and its deterministic work counters must repeat exactly — within
// the process and against any earlier run of the same binary on the same
// (workload, seed), recorded under --state-dir.
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with spans around every call into a library module and the
// metrics registry attached, adds the per-layer probes, and writes the
// spans as Chrome trace-event JSON (opens in Perfetto) to
// <state-dir>/spans/<workload>-seed<N>.trace.json. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
// See README.md next to this file.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "accel/fir.hpp"
#include "accel/kernel.hpp"
#include "accel/mixer.hpp"
#include "app/admission_churn.hpp"
#include "app/fault_campaign.hpp"
#include "app/pal_system.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "ctrl/admission.hpp"
#include "ctrl/workload.hpp"
#include "dataflow/buffer_sizing.hpp"
#include "lint/linter.hpp"
#include "obs/metrics.hpp"
#include "sharing/blocksize.hpp"
#include "sim/fault.hpp"
#include "sim/flit.hpp"
#include "verify/verify.hpp"

namespace {

using namespace acc;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workload sizes. Chosen so one run is well above timer noise and a
// --seconds 20 window holds several complete runs of every workload.

constexpr std::size_t kPalInputSamples = std::size_t{1} << 18;
// One session_churn run replays kChurnTraces independent traces of
// kChurnEvents events each: the seed-to-seed spread of the work a single
// long trace carries is too wide for a steady benchmark (see README.md).
constexpr int kChurnTraces = 8;
constexpr std::int32_t kChurnEvents = 500;
constexpr std::int32_t kChurnProbeEvents = 1000;  // growth probe: N and 2N
constexpr std::int64_t kVerifyStates = 1000;
constexpr std::int64_t kVerifyDepth = 64;
// The branch-and-bound buffer search grows with block size: at slack 0 it
// takes ~10 s on pal_decoder.json (blocks of 2654 samples), so it runs only
// on configs whose Algorithm-1 block total stays within this cap.
constexpr std::int64_t kBnbSlack = 1;
constexpr std::int64_t kBnbMaxTotalEta = 1024;
// Set-up repeats until both limits are met; the median is reported.
constexpr int kSetupReps = 7;
constexpr double kSetupMinSeconds = 0.25;
constexpr int kSetupMaxReps = 5000;
constexpr int kMinRuns = 3;

// ---------------------------------------------------------------------------
// Metric names. BENCHMARK.json lists the same names; run.py checks that the
// emitted set matches it exactly.

const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"sim.cycles_run", "cycles"},
    {"sim.cycles_per_s", "1/s"},
    {"sim.stepped_cycles", "count"},
    {"sim.skipped_cycles", "count"},
    {"sim.component_ticks", "count"},
    {"sim.horizon_queries", "count"},
    {"sim.wakes", "count"},
    {"sim.ns_per_component_tick", "ns"},
    {"sim.ns_per_sim_cycle", "ns"},
    {"sim.ns_per_sim_cycle_growth", "ratio"},
    {"sim.batch_runs", "count"},
    {"sim.batch_tokens_per_run", "ratio"},
    {"sim.audio_latency_cycles_max", "cycles"},
    {"sim.ring.data_hops", "count"},
    {"sim.ring.credit_hops", "count"},
    {"sim.ring.flits", "count"},
    {"sim.ring.hops_per_flit", "ratio"},
    {"sim.cfifo.tokens", "count"},
    {"sim.cfifo.in_max_occupancy", "count"},
    {"sim.gateway.blocks", "count"},
    {"sim.gateway.admission_wait_cycles", "cycles"},
    {"sim.gateway.reconfig_cycles", "cycles"},
    {"sim.gateway.credit_stalls", "count"},
    {"sim.gateway.notify_retries", "count"},
    {"sim.fault.injected", "count"},
    {"sim.fault.delay_cycles", "cycles"},
    {"sim.tile.busy_ratio.cordic", "ratio"},
    {"sim.tile.busy_ratio.fir", "ratio"},
    {"sim.tile.blocks", "count"},
    {"sim.tile.batch_block_ratio", "ratio"},
    {"accel.ns_per_sample.cordic.push", "ns"},
    {"accel.ns_per_sample.cordic.block", "ns"},
    {"accel.ns_per_sample.fir.push", "ns"},
    {"accel.ns_per_sample.fir.block", "ns"},
    {"accel.ns_per_sample.mixer.push", "ns"},
    {"accel.ns_per_sample.mixer.block", "ns"},
    {"accel.share_of_run", "ratio"},
    {"radio.synth_ms", "ms"},
    {"sharing.alg1_us", "us"},
    {"sharing.bnb_ms", "ms"},
    {"dataflow.dse_simulations", "count"},
    {"dataflow.dse_probes", "count"},
    {"dataflow.dse_cache_hit_ratio", "ratio"},
    {"dataflow.dse_pruned", "count"},
    {"dataflow.dse_jobs_speedup", "ratio"},
    {"lint.us_per_config", "us"},
    {"verify.states", "count"},
    {"verify.depth_reached", "count"},
    {"verify.states_per_s", "1/s"},
    {"verify.jobs_speedup", "ratio"},
    {"ctrl.admit_lookups", "count"},
    {"ctrl.admit_cache_hit_ratio", "ratio"},
    {"ctrl.analysis_work", "count"},
    {"ctrl.admit_us_p50", "us"},
    {"ctrl.admit_us_p99", "us"},
    {"ctrl.admit_miss_us_p50", "us"},
    {"ctrl.mode_changes", "count"},
    {"ctrl.reconfig_cycles", "cycles"},
    {"common.json_parse_mb_per_s", "MB/s"},
    {"obs.tracing_overhead", "ratio"},
};

// ---------------------------------------------------------------------------
// Small statistics helpers.

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (numpy's default), q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

unsigned worker_count() {
  return std::max(1U, std::min(4U, std::thread::hardware_concurrency()));
}

// ---------------------------------------------------------------------------
// Spans: recorded from this file around every call into a library module,
// kept in memory, written once at exit as Chrome trace-event JSON.

class SpanRecorder {
 public:
  class Scope {
   public:
    Scope(SpanRecorder* rec, std::string name) : rec_(rec) {
      if (rec_ != nullptr) index_ = rec_->open(std::move(name));
    }
    ~Scope() {
      if (rec_ != nullptr) rec_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    std::size_t index_ = 0;
  };

  /// Record an already-timed span under the innermost open one, so a
  /// sub-microsecond call can be timed without the recorder inside it.
  void record(std::string name, Clock::time_point start,
              Clock::time_point end) {
    Span sp;
    sp.name = std::move(name);
    sp.id = spans_.size();
    sp.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    sp.run = run_;
    sp.start_us = to_us(start);
    sp.end_us = to_us(end);
    spans_.push_back(std::move(sp));
  }

  void begin_run() { ++run_; }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  void write_chrome(const std::string& path) const {
    json::Array events;
    for (const Span& s : spans_) {
      json::Object e;
      e["name"] = s.name;
      e["ph"] = "X";
      e["pid"] = 1;
      e["tid"] = 1;
      e["ts"] = s.start_us;
      e["dur"] = s.end_us - s.start_us;
      json::Object args;
      args["id"] = static_cast<std::int64_t>(s.id);
      args["parent"] = s.parent;
      args["run"] = s.run;
      e["args"] = std::move(args);
      events.push_back(std::move(e));
    }
    json::Object doc;
    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = "ms";
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    std::ofstream(path) << json::Value(std::move(doc)).dump() << "\n";
  }

 private:
  struct Span {
    std::string name;
    std::size_t id = 0;
    std::int64_t parent = -1;
    int run = 0;
    double start_us = 0.0;
    double end_us = 0.0;
  };

  std::size_t open(std::string name) {
    Span s;
    s.name = std::move(name);
    s.id = spans_.size();
    s.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    s.run = run_;
    s.start_us = to_us(Clock::now());
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t index) {
    spans_[index].end_us = to_us(Clock::now());
    stack_.pop_back();
  }

  [[nodiscard]] double to_us(Clock::time_point t) const {
    return micros(origin_, t);
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
  int run_ = 0;
};

// ---------------------------------------------------------------------------
// What one benchmark invocation reports.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path repo = ".";
  std::filesystem::path state_dir = ".bench_build";
};

struct Context {
  Options opt;
  SpanRecorder* spans = nullptr;  // non-null only in the traced run

  [[nodiscard]] SpanRecorder::Scope span(std::string name) const {
    return {spans, std::move(name)};
  }
};

struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<double> setup_s;  // one sample per set-up repetition
  std::vector<double> wall_s;   // one sample per timed workload run
  std::vector<double> cal_s;        // calibration passes of the timed loop
  std::vector<double> setup_cal_s;  // calibration passes around the set-up
  double ops_per_run = 0.0;     // operations of one run (median-run basis)
  std::map<std::string, double> layer;
  /// Workload-specific rows printed for people (name -> value, unit, n).
  std::vector<std::tuple<std::string, double, std::string, std::size_t>> rows;
  /// Deterministic work counters of one run, "key=value" lines.
  std::string fingerprint;

  void fail(std::int64_t ops, std::string why) {
    failed += ops;
    if (errors.size() < 20) errors.push_back(std::move(why));
  }
  /// Every timed run must reproduce the first run's counters exactly.
  void check_fingerprint(const std::string& fp) {
    if (fingerprint.empty()) {
      fingerprint = fp;
    } else if (fp != fingerprint) {
      fail(1, "work counters differ between two runs in one process");
    }
  }
};

// ---------------------------------------------------------------------------
// Host-speed calibration. On a shared host the same run can take 1.7x longer
// for tens of seconds while neighbours load the core and its caches (see
// README.md). A fixed event-driven loop written here — a calendar queue
// driving components through virtual calls over ring buffers, like the
// simulator but sharing no code with the repository, so no program change
// moves it — is timed next to the timed work. The gated times are scaled
// to a reference host on which one pass takes kCalReferenceS.

constexpr double kCalReferenceS = 0.064;

class CalComponent {
 public:
  virtual ~CalComponent() = default;
  CalComponent() = default;
  CalComponent(const CalComponent&) = delete;
  CalComponent& operator=(const CalComponent&) = delete;
  /// Advance one event; returns the delay until this component's next one.
  virtual std::uint32_t step(std::uint64_t r) = 0;

 protected:
  std::vector<std::uint32_t> buf_ = std::vector<std::uint32_t>(4096, 1);
  std::uint32_t head_ = 0;
  std::uint64_t acc_ = 0;
};

class CalProducer final : public CalComponent {
  std::uint32_t step(std::uint64_t r) override {
    buf_[head_++ & 4095] = static_cast<std::uint32_t>(r);
    return 1 + static_cast<std::uint32_t>(r & 7);
  }
};

class CalConsumer final : public CalComponent {
  std::uint32_t step(std::uint64_t r) override {
    const std::uint32_t v = buf_[(head_ += 3) & 4095];
    acc_ ^= v * 2654435761U;
    return 1 + static_cast<std::uint32_t>((v ^ r) & 15);
  }
};

class CalFilter final : public CalComponent {
  std::uint32_t step(std::uint64_t r) override {
    std::uint32_t sum = 0;
    for (std::uint32_t i = 0; i < 8; ++i) sum += buf_[(head_ + i * 512) & 4095];
    ++head_;
    acc_ += sum;
    return (sum & 3) != 0 ? 2 : 9 + static_cast<std::uint32_t>(r & 3);
  }
};

/// Seconds for one fixed pass of the calibration loop.
double calibration_pass() {
  static const std::vector<std::unique_ptr<CalComponent>> comps = [] {
    std::vector<std::unique_ptr<CalComponent>> v;
    for (int i = 0; i < 96; ++i) {
      if (i % 3 == 0) v.push_back(std::make_unique<CalProducer>());
      else if (i % 3 == 1) v.push_back(std::make_unique<CalConsumer>());
      else v.push_back(std::make_unique<CalFilter>());
    }
    return v;
  }();
  using Event = std::pair<std::uint64_t, std::uint32_t>;  // (time, component)
  std::priority_queue<Event, std::vector<Event>, std::greater<>> calendar;
  for (std::uint32_t i = 0; i < comps.size(); ++i) calendar.push({i, i});
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const Clock::time_point t0 = Clock::now();
  for (int n = 0; n < 600000; ++n) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const auto [t, i] = calendar.top();
    calendar.pop();
    calendar.push({t + comps[i]->step(x), i});
  }
  return seconds_since(t0);
}

/// Run `body` closed-loop until --seconds have passed and at least
/// kMinRuns runs completed, with one calibration pass before each run. In
/// the traced run every second run is traced: `body` gets the context to
/// record spans in (span-free on untraced runs) and whether it is traced.
/// Untraced runs give wall_s; the pair gives obs.tracing_overhead.
void timed_loop(const Context& ctx, std::vector<double>& cal_s,
                const std::function<void(const Context&, bool)>& body) {
  const Context quiet{ctx.opt, nullptr};
  const Clock::time_point t0 = Clock::now();
  for (int runs = 0;
       runs < kMinRuns || seconds_since(t0) < ctx.opt.seconds; ++runs) {
    cal_s.push_back(calibration_pass());
    const bool traced = ctx.spans != nullptr && runs % 2 == 1;
    if (ctx.spans != nullptr) ctx.spans->begin_run();
    body(traced ? ctx : quiet, traced);
  }
}

/// Repeat the workload's set-up until kSetupReps repetitions and
/// kSetupMinSeconds have both passed, one setup_s sample per repetition,
/// with a calibration pass before and after. Only the first repetition
/// records spans.
void repeat_setup(const Context& ctx, Outcome& out,
                  const std::function<void(const Context&)>& body) {
  const Context quiet{ctx.opt, nullptr};
  out.setup_cal_s.push_back(calibration_pass());
  const Clock::time_point start = Clock::now();
  for (int rep = 0; rep < kSetupMaxReps; ++rep) {
    if (rep >= kSetupReps && seconds_since(start) >= kSetupMinSeconds) break;
    const Clock::time_point t0 = Clock::now();
    body(rep == 0 ? ctx : quiet);
    out.setup_s.push_back(seconds_since(t0));
  }
  out.setup_cal_s.push_back(calibration_pass());
}

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFU;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Per-workload sub-seeds: one SplitMix64 stream per purpose.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t purpose) {
  SplitMix64 rng(seed * 0x9E3779B97F4A7C15ULL + purpose);
  return rng.next();
}

// ---------------------------------------------------------------------------
// Metrics-registry helpers (snapshot_json is the registry's public view).

/// Registry snapshots of one run (one per simulated System), summed or
/// maxed over every metric whose ID has the given prefix and suffix.
struct Snapshot {
  std::vector<json::Value> docs;

  template <typename F>
  void each(const std::string& prefix, const std::string& suffix,
            const char* field, F&& f) const {
    for (const json::Value& doc : docs) {
      for (const auto& [id, cell] : doc.as_object()) {
        if (!id.starts_with(prefix) || !id.ends_with(suffix)) continue;
        if (const json::Value* v = cell.find(field)) f(v->as_double());
      }
    }
  }
  [[nodiscard]] double sum(const std::string& prefix,
                           const std::string& suffix,
                           const char* field = "value") const {
    double s = 0.0;
    each(prefix, suffix, field, [&s](double v) { s += v; });
    return s;
  }
  [[nodiscard]] double max(const std::string& prefix,
                           const std::string& suffix) const {
    double m = 0.0;
    each(prefix, suffix, "max", [&m](double v) { m = std::max(m, v); });
    return m;
  }
};

void add_registry_layers(const Snapshot& s, Outcome& out) {
  const double data_hops = s.sum("ring.data.", ".hops");
  const double credit_hops = s.sum("ring.credit.", ".hops");
  const double flits =
      s.sum("ring.data.", ".injected") + s.sum("ring.credit.", ".injected");
  out.layer["sim.ring.data_hops"] = data_hops;
  out.layer["sim.ring.credit_hops"] = credit_hops;
  out.layer["sim.ring.flits"] = flits;
  out.layer["sim.ring.hops_per_flit"] = ratio(data_hops + credit_hops, flits);
  out.layer["sim.cfifo.tokens"] = s.sum("cfifo.", ".pushed");
  out.layer["sim.cfifo.in_max_occupancy"] = s.max("cfifo.", ".in.occupancy");
  if (out.layer["sim.cfifo.in_max_occupancy"] == 0.0)
    out.layer["sim.cfifo.in_max_occupancy"] = s.max("cfifo.in.", ".occupancy");
  out.layer["sim.gateway.admission_wait_cycles"] =
      s.sum("gateway.", ".admission_wait", "sum");
  out.layer["sim.gateway.credit_stalls"] = s.sum("gateway.", ".credit_stalls");
  out.layer["sim.gateway.notify_retries"] =
      s.sum("gateway.", ".notify_retries");
  const double batch_blocks = s.sum("tile.", ".batch_blocks");
  const double tile_blocks = s.sum("tile.", ".ctx_switches");
  out.layer["sim.tile.blocks"] = tile_blocks;
  out.layer["sim.tile.batch_block_ratio"] = ratio(batch_blocks, tile_blocks);
}

// ---------------------------------------------------------------------------
// PAL decoder workloads (pal_decode, pal_faulted).

struct PalDigest {
  std::int64_t cycles = 0;
  std::int64_t dac_samples = 0;
  std::int64_t drops = 0;
  std::int64_t underruns = 0;
  std::int64_t blocks = 0;
  std::uint64_t audio = 0;

  friend bool operator==(const PalDigest&, const PalDigest&) = default;
};

PalDigest pal_digest(const app::PalSimResult& r) {
  PalDigest d;
  d.cycles = r.cycles_run;
  d.dac_samples = static_cast<std::int64_t>(r.left.size());
  d.drops = r.source_drops;
  d.underruns = r.sink_underruns;
  for (const std::int64_t b : r.blocks_per_stream) d.blocks += b;
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto* ch : {&r.left, &r.right}) {
    for (const double v : *ch)
      h = fnv_mix(h, static_cast<std::uint64_t>(std::llround(v * 65536.0)));
  }
  d.audio = h;
  return d;
}

std::string pal_fingerprint(const app::PalSimResult& r,
                            const sim::FaultInjector* inj) {
  std::ostringstream o;
  const sim::StepperStats& s = r.stepper;
  o << "cycles=" << r.cycles_run << "\nstepped=" << s.dense_ticks
    << "\nskips=" << s.skips << "\nskipped=" << s.skipped_cycles
    << "\ncomponent_ticks=" << s.component_ticks
    << "\nhorizon_queries=" << s.horizon_queries << "\nwakes=" << s.wakes
    << "\nbatch_runs=" << s.batch_runs << "\nbatch_tokens=" << s.batch_tokens
    << "\ngateway.blocks=" << r.gateway.blocks
    << "\ngateway.samples=" << r.gateway.samples_forwarded
    << "\ngateway.reconfig_cycles=" << r.gateway.reconfig_cycles
    << "\ngateway.wait_cycles=" << r.gateway.wait_cycles
    << "\ngateway.credit_stalls=" << r.gateway.credit_stalls
    << "\ngateway.notify_retries=" << r.gateway.notify_retries
    << "\ncordic_samples=" << r.cordic_samples
    << "\nfir_samples=" << r.fir_samples << "\ncordic_busy=" << r.cordic_busy
    << "\nfir_busy=" << r.fir_busy
    << "\naudio_latency_max=" << r.max_audio_latency
    << "\neta=" << r.eta_stage1 << "," << r.eta_stage2 << "\n";
  if (inj != nullptr) {
    o << "fault.injected=" << inj->total_injected()
      << "\nfault.delay_cycles=" << inj->total_delay_cycles() << "\n";
  }
  return o.str();
}

/// Time `n` samples through a fresh kernel, per sample and per block.
std::pair<double, double> kernel_ns_per_sample(
    const Context& ctx, const accel::StreamKernel& proto,
    const std::vector<CQ16>& in, std::size_t block) {
  std::vector<CQ16> out;
  out.reserve(16);
  auto k = proto.clone_fresh();
  double push_s = 0.0;
  {
    auto s = ctx.span("accel." + proto.name() + ".push");
    const Clock::time_point t0 = Clock::now();
    for (const CQ16& x : in) {
      out.clear();
      k->push(x, out);
    }
    push_s = seconds_since(t0);
  }

  k = proto.clone_fresh();
  std::vector<CQ16> bout(block);
  double block_s = 0.0;
  {
    auto s = ctx.span("accel." + proto.name() + ".process_block");
    const Clock::time_point t1 = Clock::now();
    for (std::size_t i = 0; i < in.size(); i += block) {
      const std::size_t n = std::min(block, in.size() - i);
      (void)k->process_block(std::span<const CQ16>(in.data() + i, n),
                             std::span<CQ16>(bout.data(), bout.size()));
    }
    block_s = seconds_since(t1);
  }
  const auto n = static_cast<double>(in.size());
  return {push_s * 1e9 / n, block_s * 1e9 / n};
}

Outcome run_pal(const Context& ctx, bool faulted) {
  Outcome out;
  app::PalSimConfig cfg;
  cfg.input_samples = kPalInputSamples;
  // The seed picks the stereo tone pair (and, when faulted, the injector
  // seed); neither changes the chain's timing, only the data it carries.
  SplitMix64 tones(sub_seed(ctx.opt.seed, 1));
  cfg.tone_left_hz = 300.0 + static_cast<double>(tones.next() % 500);
  cfg.tone_right_hz = 900.0 + static_cast<double>(tones.next() % 600);
  const std::uint64_t fault_seed = sub_seed(ctx.opt.seed, 2);
  app::FaultLevel moderate;
  for (const app::FaultLevel& l : app::default_fault_levels())
    if (l.label == "moderate") moderate = l;

  // ---- set-up: input synthesis, lint gate, Algorithm-1 sizing ----
  std::vector<sim::Flit> input;
  std::vector<double> synth_ms;
  std::vector<double> lint_us;
  std::vector<double> alg1_us;
  repeat_setup(ctx, out, [&](const Context& sctx) {
    const Clock::time_point t0 = Clock::now();
    {
      auto s = sctx.span("radio.synthesize_pal_input");
      input = app::synthesize_pal_input(cfg);
    }
    const Clock::time_point t1 = Clock::now();
    lint::LintReport rep_lint("pal");
    {
      auto s = sctx.span("lint.lint_input");
      rep_lint = lint::lint_input(app::make_lint_input(cfg));
    }
    const Clock::time_point t2 = Clock::now();
    sharing::BlockSizeResult sizing;
    {
      auto s = sctx.span("sharing.solve_block_sizes_ilp");
      sizing = sharing::solve_block_sizes_ilp(app::make_system_spec(cfg));
    }
    const Clock::time_point t3 = Clock::now();
    synth_ms.push_back(micros(t0, t1) / 1e3);
    lint_us.push_back(micros(t1, t2));
    alg1_us.push_back(micros(t2, t3));
    if (rep_lint.errors() != 0)
      out.fail(1, "PAL configuration fails the lint gate");
    if (!sizing.feasible)
      out.fail(1, "Algorithm 1 finds the PAL system infeasible");
  });
  out.layer["radio.synth_ms"] = median(synth_ms);
  out.layer["lint.us_per_config"] = median(lint_us);
  out.layer["sharing.alg1_us"] = median(alg1_us);
  cfg.prebuilt_input = &input;
  cfg.lint = false;  // the gate ran once above

  const auto run_once = [&](sim::StepperKind kind,
                            obs::MetricsRegistry* metrics,
                            std::optional<sim::FaultInjector>& inj) {
    app::PalSimConfig c = cfg;
    c.stepper = kind;
    c.metrics = metrics;
    inj.reset();
    if (faulted) {
      inj.emplace(fault_seed);
      app::apply_fault_level(*inj, moderate);
      c.fault = &*inj;
    }
    return app::run_pal_decoder(c);
  };

  // ---- reference: the dense stepper on the same inputs, untimed ----
  std::optional<sim::FaultInjector> inj;
  PalDigest ref;
  {
    auto s = ctx.span("app.run_pal_decoder[dense reference]");
    const Clock::time_point t0 = Clock::now();
    ref = pal_digest(run_once(sim::StepperKind::kDense, nullptr, inj));
    out.rows.emplace_back("dense_reference_s", seconds_since(t0), "s", 1);
  }

  // ---- timed runs (wake-list stepper, the shipping default) ----
  app::PalSimResult last;
  std::optional<Snapshot> snapshot;
  std::vector<double> traced_wall;
  timed_loop(ctx, out.cal_s, [&](const Context& rctx, bool traced) {
    obs::MetricsRegistry registry;
    const Clock::time_point t0 = Clock::now();
    app::PalSimResult r;
    {
      auto s = rctx.span("app.run_pal_decoder");
      r = run_once(sim::StepperKind::kWakeList, traced ? &registry : nullptr,
                   inj);
    }
    const double wall = seconds_since(t0);
    (traced ? traced_wall : out.wall_s).push_back(wall);
    if (traced) snapshot = Snapshot{{registry.snapshot_json()}};

    const PalDigest d = pal_digest(r);
    out.attempted += d.dac_samples;
    if (const std::int64_t misses = r.source_drops + r.sink_underruns)
      out.fail(misses, "source drops or DAC underruns in a timed run");
    if (!(d == ref))
      out.fail(d.dac_samples, "outcome digest differs from the dense stepper");
    out.check_fingerprint(pal_fingerprint(r, faulted ? &*inj : nullptr));
    out.ops_per_run = static_cast<double>(d.dac_samples);
    last = std::move(r);
    if (faulted) {
      out.layer["sim.fault.injected"] =
          static_cast<double>(inj->total_injected());
      out.layer["sim.fault.delay_cycles"] =
          static_cast<double>(inj->total_delay_cycles());
    }
  });

  const double wall = median(out.wall_s);
  const sim::StepperStats& st = last.stepper;
  const auto cycles = static_cast<double>(last.cycles_run);
  out.rows.emplace_back("sim_cycles_per_s", cycles / wall, "1/s",
                        out.wall_s.size());
  out.rows.emplace_back("audio_latency_cycles_max",
                        static_cast<double>(last.max_audio_latency), "cycles",
                        out.wall_s.size());
  out.layer["sim.cycles_run"] = cycles;
  out.layer["sim.cycles_per_s"] = cycles / wall;
  out.layer["sim.ns_per_sim_cycle"] = wall * 1e9 / cycles;
  out.layer["sim.stepped_cycles"] = static_cast<double>(st.dense_ticks);
  out.layer["sim.skipped_cycles"] = static_cast<double>(st.skipped_cycles);
  out.layer["sim.component_ticks"] = static_cast<double>(st.component_ticks);
  out.layer["sim.horizon_queries"] = static_cast<double>(st.horizon_queries);
  out.layer["sim.wakes"] = static_cast<double>(st.wakes);
  out.layer["sim.ns_per_component_tick"] =
      wall * 1e9 / static_cast<double>(st.component_ticks);
  out.layer["sim.batch_runs"] = static_cast<double>(st.batch_runs);
  out.layer["sim.batch_tokens_per_run"] = ratio(
      static_cast<double>(st.batch_tokens), static_cast<double>(st.batch_runs));
  out.layer["sim.audio_latency_cycles_max"] =
      static_cast<double>(last.max_audio_latency);
  out.layer["sim.gateway.blocks"] = static_cast<double>(last.gateway.blocks);
  out.layer["sim.gateway.reconfig_cycles"] =
      static_cast<double>(last.gateway.reconfig_cycles);
  out.layer["sim.tile.busy_ratio.cordic"] =
      static_cast<double>(last.cordic_busy) / cycles;
  out.layer["sim.tile.busy_ratio.fir"] =
      static_cast<double>(last.fir_busy) / cycles;

  if (ctx.spans == nullptr) return out;
  ctx.spans->begin_run();  // the probes below get their own run id

  // ---- traced-run probes ----
  if (snapshot) add_registry_layers(*snapshot, out);
  out.layer["obs.tracing_overhead"] = median(traced_wall) / wall;

  // Kernel microbench over the run's per-kernel sample counts: the mixer
  // serves streams 0/1 and the CORDIC FM discriminator streams 2/3 on the
  // CORDIC tile; the FIR tile serves all four.
  std::vector<CQ16> samples;
  samples.reserve(input.size());
  for (const sim::Flit f : input) samples.push_back(sim::unpack_sample(f));
  const auto& blocks = last.blocks_per_stream;
  const double mixer_n = static_cast<double>(
      (blocks.at(0) + blocks.at(1)) * last.eta_stage1);
  const double fm_n = static_cast<double>(
      (blocks.at(2) + blocks.at(3)) * last.eta_stage2);
  const double fir_n = static_cast<double>(last.fir_samples);
  const auto block = static_cast<std::size_t>(last.eta_stage1);
  const double f1 = cfg.carrier1_hz / cfg.sample_rate;
  accel::NcoMixer mixer(accel::NcoMixer::freq_from_normalized(-f1));
  accel::FmDiscriminator fm;
  accel::DecimatingFir fir(
      accel::quantize_taps(accel::design_lowpass(cfg.fir_taps, cfg.fir_cutoff)),
      cfg.decimation);
  std::pair<double, double> ns_mixer;
  std::pair<double, double> ns_fm;
  std::pair<double, double> ns_fir;
  {
    auto s = ctx.span("accel.kernel_microbench");
    ns_mixer = kernel_ns_per_sample(ctx, mixer, samples, block);
    ns_fm = kernel_ns_per_sample(ctx, fm, samples, block);
    ns_fir = kernel_ns_per_sample(ctx, fir, samples, block);
  }
  out.layer["accel.ns_per_sample.mixer.push"] = ns_mixer.first;
  out.layer["accel.ns_per_sample.mixer.block"] = ns_mixer.second;
  out.layer["accel.ns_per_sample.cordic.push"] = ns_fm.first;
  out.layer["accel.ns_per_sample.cordic.block"] = ns_fm.second;
  out.layer["accel.ns_per_sample.fir.push"] = ns_fir.first;
  out.layer["accel.ns_per_sample.fir.block"] = ns_fir.second;
  // Weight each path by the share of blocks the tiles ran batched.
  const double b = out.layer["sim.tile.batch_block_ratio"];
  const auto path = [b](std::pair<double, double> ns) {
    return (1.0 - b) * ns.first + b * ns.second;
  };
  const double kernel_ns =
      path(ns_mixer) * mixer_n + path(ns_fm) * fm_n + path(ns_fir) * fir_n;
  out.layer["accel.share_of_run"] = kernel_ns / (wall * 1e9);
  return out;
}

// ---------------------------------------------------------------------------
// Session churn (E14 trace, wake-list stepper).

bool same_decisions(const app::ChurnRunResult& a,
                    const app::ChurnRunResult& b) {
  if (a.decisions.size() != b.decisions.size()) return false;
  for (std::size_t i = 0; i < a.decisions.size(); ++i) {
    const app::ChurnDecision& x = a.decisions[i];
    const app::ChurnDecision& y = b.decisions[i];
    if (x.kind != y.kind || x.session != y.session ||
        x.accepted != y.accepted || x.cache_hit != y.cache_hit ||
        x.eta != y.eta || x.gamma != y.gamma ||
        x.analysis_work != y.analysis_work ||
        x.reconfig_cycles != y.reconfig_cycles)
      return false;
  }
  return a.cycles_run == b.cycles_run && a.digest == b.digest &&
         a.audio_checksum == b.audio_checksum &&
         a.samples_delivered == b.samples_delivered;
}

std::string churn_fingerprint(const app::ChurnRunResult& r) {
  std::ostringstream o;
  o << "cycles=" << r.cycles_run << "\ndigest=" << r.digest
    << "\naudio=" << r.audio_checksum << "\nsamples=" << r.samples_delivered
    << "\nmode_changes=" << r.mode_changes
    << "\nreconfig_cycles=" << r.reconfig_cycles
    << "\ncache_lookups=" << r.cache_lookups
    << "\ncache_hits=" << r.cache_hits << "\naccepts=" << r.accepts
    << "\nrejects=" << r.rejects << "\nanalysis_work=" << r.analysis_work
    << "\ndecisions=" << r.decisions.size() << "\n";
  return o.str();
}

/// Replay the run's join decisions against a fresh controller, timing each
/// admit() call; every recorded (accepted, eta, gamma, cache_hit) must
/// reproduce. Returns the number of mismatching decisions.
std::int64_t replay_admissions(const Context& ctx, const app::ChurnConfig& cfg,
                               const app::ChurnRunResult& run,
                               std::vector<double>& all_us,
                               std::vector<double>& miss_us) {
  ctrl::AdmissionConfig ac;
  ac.chain.accel_cycles_per_sample.assign(cfg.accel_cycles.begin(),
                                          cfg.accel_cycles.end());
  ac.chain.entry_cycles_per_sample = cfg.epsilon;
  ac.chain.exit_cycles_per_sample = cfg.delta;
  ac.chain.ni_capacity = cfg.ni_capacity;
  ac.eta_max = cfg.eta_max;
  ac.eta_align = cfg.eta_align;
  ctrl::AdmissionController controller(ac);

  struct Live {
    ctrl::StreamRequest req;
    bool active = false;
  };
  std::vector<Live> sessions;  // by session id (join order)
  std::vector<ctrl::StreamRequest> active;
  std::int64_t mismatches = 0;
  auto s = ctx.span("ctrl.replay_admissions");
  for (const app::ChurnDecision& d : run.decisions) {
    if (d.kind == "leave") {
      sessions.at(static_cast<std::size_t>(d.session)).active = false;
      continue;
    }
    if (d.kind != "join") continue;
    const app::ChurnTemplate& t =
        cfg.templates.at(static_cast<std::size_t>(d.template_id));
    ctrl::StreamRequest req;
    req.name = t.name + "#" + std::to_string(d.session);
    req.mu = Rational(1, t.period);
    req.reconfig = t.reconfig;
    req.decimation = t.decimation;
    active.clear();
    for (const Live& l : sessions)
      if (l.active) active.push_back(l.req);

    const Clock::time_point t0 = Clock::now();
    const ctrl::AdmissionDecision got = controller.admit(active, req);
    const Clock::time_point t1 = Clock::now();
    const double us = micros(t0, t1);
    if (ctx.spans != nullptr)
      ctx.spans->record("ctrl.AdmissionController::admit", t0, t1);
    all_us.push_back(us);
    if (!got.cache_hit) miss_us.push_back(us);
    if (got.accepted != d.accepted || got.eta != d.eta ||
        got.gamma != d.gamma || got.cache_hit != d.cache_hit)
      ++mismatches;
    req.eta = got.eta;
    sessions.push_back({req, got.accepted});
  }
  return mismatches;
}

/// Trace `index` of the run: its own SplitMix64 seed derived from --seed.
app::ChurnConfig churn_config(std::uint64_t seed, int index,
                              std::int32_t events) {
  app::ChurnConfig cfg = app::small_churn_config();
  cfg.workload.seed = sub_seed(seed, 16 + static_cast<std::uint64_t>(index));
  cfg.workload.events = events;
  return cfg;
}

Outcome run_churn(const Context& ctx) {
  Outcome out;
  std::vector<app::ChurnConfig> cfgs;
  for (int i = 0; i < kChurnTraces; ++i)
    cfgs.push_back(churn_config(ctx.opt.seed, i, kChurnEvents));

  // ---- set-up: lint gate, Algorithm 1 on the declared templates, traces ----
  std::vector<double> lint_us;
  std::vector<double> alg1_us;
  repeat_setup(ctx, out, [&](const Context& sctx) {
    const Clock::time_point t0 = Clock::now();
    const lint::LintInput li = app::churn_lint_input(cfgs.front());
    lint::LintReport rep_lint("churn");
    {
      auto s = sctx.span("lint.lint_input");
      rep_lint = lint::lint_input(li);
    }
    const Clock::time_point t1 = Clock::now();
    sharing::BlockSizeResult sizing;
    {
      auto s = sctx.span("sharing.solve_block_sizes_ilp");
      sizing = sharing::solve_block_sizes_ilp(*li.spec);
    }
    const Clock::time_point t2 = Clock::now();
    std::size_t events = 0;
    for (const app::ChurnConfig& c : cfgs) {
      auto s = sctx.span("ctrl.generate_session_trace");
      events += ctrl::generate_session_trace(c.workload).size();
    }
    lint_us.push_back(micros(t0, t1));
    alg1_us.push_back(micros(t1, t2));
    if (rep_lint.errors() != 0)
      out.fail(1, "churn configuration fails the lint gate");
    if (!sizing.feasible || events == 0)
      out.fail(1, "churn set-up produced no work");
  });
  out.layer["lint.us_per_config"] = median(lint_us);
  out.layer["sharing.alg1_us"] = median(alg1_us);

  // ---- reference: the dense stepper on every trace, untimed ----
  std::vector<app::ChurnRunResult> refs;
  {
    auto s = ctx.span("app.run_admission_churn[dense reference]");
    const Clock::time_point t0 = Clock::now();
    for (const app::ChurnConfig& c : cfgs)
      refs.push_back(app::run_admission_churn(c, sim::StepperKind::kDense));
    out.rows.emplace_back("dense_reference_s", seconds_since(t0), "s", 1);
  }

  // ---- timed runs: every trace once, wake-list stepper ----
  std::vector<double> admit_us;
  std::vector<double> miss_us;
  std::vector<double> traced_wall;
  std::optional<Snapshot> snapshot;
  app::ChurnRunResult total;  // counters summed over the run's traces
  timed_loop(ctx, out.cal_s, [&](const Context& rctx, bool traced) {
    // One registry per trace: each replay builds its own System.
    std::vector<obs::MetricsRegistry> registries(cfgs.size());
    std::vector<app::ChurnRunResult> runs;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      app::ChurnConfig c = cfgs[i];
      c.metrics = traced ? &registries[i] : nullptr;
      auto s = rctx.span("app.run_admission_churn");
      runs.push_back(app::run_admission_churn(c, sim::StepperKind::kWakeList));
    }
    (traced ? traced_wall : out.wall_s).push_back(seconds_since(t0));
    if (traced) {
      snapshot = Snapshot{};
      for (const obs::MetricsRegistry& r : registries)
        snapshot->docs.push_back(r.snapshot_json());
    }

    total = app::ChurnRunResult{};
    std::string fp;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const app::ChurnRunResult& r = runs[i];
      out.attempted += r.samples_delivered;
      if (r.deadline_misses != 0)
        out.fail(r.deadline_misses, "deadline misses in a timed churn run");
      if (!same_decisions(r, refs[i]))
        out.fail(r.samples_delivered,
                 "churn decisions or digest differ from the dense stepper");
      const std::int64_t bad =
          replay_admissions(rctx, cfgs[i], r, admit_us, miss_us);
      if (bad != 0)
        out.fail(bad, "replayed admission decisions do not reproduce");
      fp += churn_fingerprint(r);
      total.cycles_run += r.cycles_run;
      total.samples_delivered += r.samples_delivered;
      total.cache_lookups += r.cache_lookups;
      total.cache_hits += r.cache_hits;
      total.analysis_work += r.analysis_work;
      total.mode_changes += r.mode_changes;
      total.reconfig_cycles += r.reconfig_cycles;
    }
    out.check_fingerprint(fp);
    out.ops_per_run = static_cast<double>(total.samples_delivered);
  });

  const double wall = median(out.wall_s);
  const auto cycles = static_cast<double>(total.cycles_run);
  out.rows.emplace_back("sim_cycles_per_s", cycles / wall, "1/s",
                        out.wall_s.size());
  out.rows.emplace_back("admit_us_p50", quantile(admit_us, 0.5), "us",
                        admit_us.size());
  out.rows.emplace_back("admit_us_p99", quantile(admit_us, 0.99), "us",
                        admit_us.size());
  out.layer["sim.cycles_run"] = cycles;
  out.layer["sim.cycles_per_s"] = cycles / wall;
  out.layer["sim.ns_per_sim_cycle"] = wall * 1e9 / cycles;
  out.layer["ctrl.admit_lookups"] = static_cast<double>(total.cache_lookups);
  out.layer["ctrl.admit_cache_hit_ratio"] =
      ratio(static_cast<double>(total.cache_hits),
            static_cast<double>(total.cache_lookups));
  out.layer["ctrl.analysis_work"] = static_cast<double>(total.analysis_work);
  out.layer["ctrl.admit_us_p50"] = quantile(admit_us, 0.5);
  out.layer["ctrl.admit_us_p99"] = quantile(admit_us, 0.99);
  out.layer["ctrl.admit_miss_us_p50"] = quantile(miss_us, 0.5);
  out.layer["ctrl.mode_changes"] = static_cast<double>(total.mode_changes);
  out.layer["ctrl.reconfig_cycles"] =
      static_cast<double>(total.reconfig_cycles);

  if (ctx.spans == nullptr) return out;
  ctx.spans->begin_run();  // the probes below get their own run id

  // ---- traced-run probes ----
  if (snapshot) {
    add_registry_layers(*snapshot, out);
    out.layer["sim.gateway.blocks"] = snapshot->sum("gateway.", ".blocks");
    out.layer["sim.gateway.reconfig_cycles"] =
        snapshot->sum("gateway.", ".reconfig_cost");
  }
  out.layer["obs.tracing_overhead"] = median(traced_wall) / wall;

  // Host ns per simulated cycle on one trace of N and of 2N events
  // (1.0 = flat scaling; the System keeps every departed session's tiles).
  double ns_per_cycle[2] = {0.0, 0.0};
  for (int i = 0; i < 2; ++i) {
    const app::ChurnConfig c =
        churn_config(ctx.opt.seed, 0, kChurnProbeEvents * (i + 1));
    auto s = ctx.span("app.run_admission_churn[growth probe]");
    const Clock::time_point t0 = Clock::now();
    const app::ChurnRunResult r =
        app::run_admission_churn(c, sim::StepperKind::kWakeList);
    ns_per_cycle[i] = seconds_since(t0) * 1e9 /
                      static_cast<double>(r.cycles_run);
  }
  out.layer["sim.ns_per_sim_cycle_growth"] =
      ratio(ns_per_cycle[1], ns_per_cycle[0]);
  return out;
}

// ---------------------------------------------------------------------------
// Design flow: every shipped examples/configs/*.json through the tools.

struct ConfigFile {
  std::string name;
  std::string text;
};

std::vector<ConfigFile> read_configs(const std::filesystem::path& repo) {
  std::vector<ConfigFile> out;
  const std::filesystem::path dir = repo / "examples" / "configs";
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() != ".json") continue;
    std::ifstream in(e.path());
    std::ostringstream text;
    text << in.rdbuf();
    out.push_back({e.path().filename().string(), text.str()});
  }
  std::sort(out.begin(), out.end(),
            [](const ConfigFile& a, const ConfigFile& b) {
              return a.name < b.name;
            });
  return out;
}

/// Per-stream sample period for the buffer search: the cycles between two
/// samples at the required throughput, rounded up.
std::vector<sharing::Time> sample_periods(
    const sharing::SharedSystemSpec& spec) {
  std::vector<sharing::Time> out;
  for (const sharing::StreamSpec& s : spec.streams) {
    const Rational inv = Rational(1) / s.mu;
    out.push_back((inv.num() + inv.den() - 1) / inv.den());
  }
  return out;
}

struct FlowTimes {
  double parse_s = 0.0;
  double lint_s = 0.0;
  double alg1_s = 0.0;
  double bnb_s = 0.0;
  double verify_s = 0.0;
  std::int64_t calls = 0;      // tool calls made
  std::int64_t bnb_calls = 0;  // configs the buffer search ran on
  std::int64_t verify_states = 0;
  std::int64_t verify_depth = 0;
  df::DseStats dse;
};

/// Call `f` inside a span, adding its wall time to `acc_s`.
template <typename F>
auto timed_call(const Context& ctx, const char* span, double& acc_s,
                std::int64_t& calls, F&& f) {
  ++calls;
  auto s = ctx.span(span);
  const Clock::time_point t0 = Clock::now();
  auto r = f();
  acc_s += seconds_since(t0);
  return r;
}

/// One pass of the tool path over every config. Returns the number of tool
/// calls whose verdict differs from the expected one (every shipped config
/// parses, lints clean, sizes feasibly and model-checks clean).
std::int64_t design_pass(const Context& ctx,
                         const std::vector<ConfigFile>& cfgs, int jobs,
                         FlowTimes& t, std::string& fingerprint,
                         std::vector<std::string>& errors) {
  std::int64_t bad = 0;
  std::ostringstream fp;
  const auto note = [&](bool ok, const std::string& what) {
    if (ok) return;
    ++bad;
    if (errors.size() < 20) errors.push_back(what);
  };
  for (const ConfigFile& c : cfgs) {
    const std::optional<json::Value> doc = timed_call(
        ctx, "common.json_parse", t.parse_s, t.calls,
        [&] { return json::parse(c.text); });
    note(doc.has_value(), c.name + ": JSON parse failed");
    if (!doc) continue;

    const lint::LintReport lint_rep =
        timed_call(ctx, "lint.lint_config_json", t.lint_s, t.calls,
                   [&] { return lint::lint_config_json(*doc, c.name); });
    note(lint_rep.errors() == 0, c.name + ": lint reports errors");

    lint::LintReport parse_rep(c.name);
    const lint::LintInput li = lint::parse_config(*doc, c.name, parse_rep);
    note(li.spec.has_value(), c.name + ": no system spec");
    if (!li.spec) continue;

    const sharing::BlockSizeResult sizing =
        timed_call(ctx, "sharing.solve_block_sizes_ilp", t.alg1_s, t.calls,
                   [&] { return sharing::solve_block_sizes_ilp(*li.spec); });
    note(sizing.feasible, c.name + ": Algorithm 1 infeasible");

    df::DseStats dse;
    sharing::OptimalBlockResult best;
    if (sizing.total_eta <= kBnbMaxTotalEta) {
      best = timed_call(
          ctx, "sharing.optimal_blocks_for_buffers", t.bnb_s, t.calls, [&] {
            return sharing::optimal_blocks_for_buffers(
                *li.spec, sample_periods(*li.spec), kBnbSlack, {}, jobs, &dse);
          });
      t.dse += dse;
      ++t.bnb_calls;
      note(best.feasible, c.name + ": buffer search infeasible");
    }

    verify::VerifyOptions vo;
    vo.states = kVerifyStates;
    vo.depth = kVerifyDepth;
    vo.jobs = jobs;
    const verify::VerifyResult vr =
        timed_call(ctx, "verify.verify_config_json", t.verify_s, t.calls,
                   [&] {
                     return verify::verify_config_json(*doc, c.name, vo);
                   });
    t.verify_states += vr.states_explored;
    t.verify_depth = std::max(t.verify_depth, vr.depth_reached);
    note(vr.report.errors() == 0 && vr.counterexample.empty(),
         c.name + ": model checker reports a violation");

    fp << c.name << ": lint_diags=" << lint_rep.diagnostics().size()
       << " eta=";
    for (const std::int64_t e : sizing.eta) fp << e << ",";
    fp << " gamma=" << sizing.gamma << " bnb_eta=";
    for (const std::int64_t e : best.eta) fp << e << ",";
    fp << " bnb_buffer=" << best.total_buffer
       << " dse_sims=" << dse.simulations << " dse_hits=" << dse.cache_hits
       << " dse_misses=" << dse.cache_misses << " dse_pruned=" << dse.pruned()
       << " states=" << vr.states_explored << " depth=" << vr.depth_reached
       << " truncated=" << vr.truncated << "\n";
  }
  fingerprint = fp.str();
  return bad;
}

Outcome run_design_flow(const Context& ctx) {
  Outcome out;
  std::vector<ConfigFile> cfgs;
  repeat_setup(ctx, out, [&](const Context& sctx) {
    auto s = sctx.span("read_configs");
    cfgs = read_configs(ctx.opt.repo);
  });
  if (cfgs.empty()) {
    out.fail(1, "no examples/configs/*.json found");
    return out;
  }

  std::vector<double> parse_mb_s;
  std::vector<double> lint_us;
  std::vector<double> alg1_us;
  std::vector<double> bnb_ms;
  std::vector<double> states_per_s;
  std::vector<double> verify_s;
  std::vector<double> bnb_s;
  std::vector<double> traced_wall;
  FlowTimes last;
  double bytes = 0.0;
  for (const ConfigFile& c : cfgs) bytes += static_cast<double>(c.text.size());
  timed_loop(ctx, out.cal_s, [&](const Context& rctx, bool traced) {
    FlowTimes t;
    std::string fp;
    const Clock::time_point t0 = Clock::now();
    const std::int64_t bad = design_pass(rctx, cfgs, 1, t, fp, out.errors);
    (traced ? traced_wall : out.wall_s).push_back(seconds_since(t0));
    out.attempted += t.calls;
    out.failed += bad;
    out.check_fingerprint(fp);
    out.ops_per_run = static_cast<double>(t.calls);
    last = t;
    if (traced) return;  // per-tool timings come from untraced passes
    const auto n = static_cast<double>(cfgs.size());
    parse_mb_s.push_back(bytes / 1e6 / t.parse_s);
    lint_us.push_back(t.lint_s * 1e6 / n);
    alg1_us.push_back(t.alg1_s * 1e6 / n);
    bnb_ms.push_back(ratio(t.bnb_s * 1e3, static_cast<double>(t.bnb_calls)));
    bnb_s.push_back(t.bnb_s);
    verify_s.push_back(t.verify_s);
    states_per_s.push_back(static_cast<double>(t.verify_states) / t.verify_s);
  });

  out.rows.emplace_back("verify_states_per_s", median(states_per_s), "1/s",
                        states_per_s.size());
  out.layer["common.json_parse_mb_per_s"] = median(parse_mb_s);
  out.layer["lint.us_per_config"] = median(lint_us);
  out.layer["sharing.alg1_us"] = median(alg1_us);
  out.layer["sharing.bnb_ms"] = median(bnb_ms);
  out.layer["verify.states"] = static_cast<double>(last.verify_states);
  out.layer["verify.depth_reached"] = static_cast<double>(last.verify_depth);
  out.layer["verify.states_per_s"] = median(states_per_s);
  const df::DseStats& d = last.dse;
  const auto probes = static_cast<double>(d.cache_hits + d.cache_misses);
  out.layer["dataflow.dse_simulations"] = static_cast<double>(d.simulations);
  out.layer["dataflow.dse_probes"] = probes;
  out.layer["dataflow.dse_cache_hit_ratio"] =
      ratio(static_cast<double>(d.cache_hits), probes);
  out.layer["dataflow.dse_pruned"] = static_cast<double>(d.pruned());

  if (ctx.spans == nullptr) return out;
  ctx.spans->begin_run();  // the probes below get their own run id

  out.layer["obs.tracing_overhead"] =
      median(traced_wall) / median(out.wall_s);
  // The same pass with jobs = worker_count() for the parallel speedups.
  FlowTimes par;
  std::string fp;
  std::vector<std::string> errs;
  {
    auto s = ctx.span("design_flow[jobs=" + std::to_string(worker_count()) +
                      "]");
    if (design_pass(ctx, cfgs, static_cast<int>(worker_count()), par, fp,
                    errs) != 0)
      out.fail(1, "verdicts differ at jobs=" + std::to_string(worker_count()));
  }
  out.layer["verify.jobs_speedup"] = median(verify_s) / par.verify_s;
  out.layer["dataflow.dse_jobs_speedup"] = median(bnb_s) / par.bnb_s;
  return out;
}

// ---------------------------------------------------------------------------
// Cross-run fingerprint check: the same binary on the same (workload, seed)
// must count exactly the same work on every run, traced or not.

std::uint64_t binary_hash() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  std::uint64_t h = 1469598103934665603ULL;
  char buf[1 << 16];
  while (in.read(buf, sizeof buf) || in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 1099511628211ULL;
    }
  }
  return h;
}

void check_recorded_fingerprint(const Options& opt, Outcome& out) {
  if (out.fingerprint.empty()) return;
  std::ostringstream name;
  name << opt.workload << "-seed" << opt.seed << "-" << std::hex
       << binary_hash() << ".txt";
  const std::filesystem::path dir = opt.state_dir / "fingerprints";
  const std::filesystem::path file = dir / name.str();
  if (std::filesystem::exists(file)) {
    std::ifstream in(file);
    std::ostringstream prev;
    prev << in.rdbuf();
    if (prev.str() != out.fingerprint)
      out.fail(1, "work counters differ from an earlier run of this binary (" +
                      file.string() + ")");
    return;
  }
  std::filesystem::create_directories(dir);
  std::ofstream(file) << out.fingerprint;
}

// ---------------------------------------------------------------------------

std::string fmt(double v) {
  std::ostringstream o;
  o.precision(10);
  o << v;
  return o.str();
}

int usage() {
  std::cerr << "usage: perfbench --workload pal_decode|pal_faulted|"
               "session_churn|design_flow --seed N --seconds S --trace 0|1 "
               "[--repo DIR] [--state-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string v = argv[++i];
      if (a == "--workload") opt.workload = v;
      else if (a == "--seed") opt.seed = std::stoull(v);
      else if (a == "--seconds") opt.seconds = std::stod(v);
      else if (a == "--trace") opt.trace = v == "1";
      else if (a == "--repo") opt.repo = v;
      else if (a == "--state-dir") opt.state_dir = v;
      else return usage();
    }
  } catch (const std::exception&) {
    return usage();
  }

  (void)calibration_pass();  // build its state outside any measurement
  SpanRecorder recorder;
  Context ctx{opt, opt.trace ? &recorder : nullptr};
  Outcome out;
  try {
    if (opt.workload == "pal_decode") out = run_pal(ctx, false);
    else if (opt.workload == "pal_faulted") out = run_pal(ctx, true);
    else if (opt.workload == "session_churn") out = run_churn(ctx);
    else if (opt.workload == "design_flow") out = run_design_flow(ctx);
    else return usage();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  check_recorded_fingerprint(opt, out);

  const double wall = median(out.wall_s);
  const double cal = median(out.cal_s);
  const double setup_cal = median(out.setup_cal_s);
  std::map<std::string, double> e2e;
  e2e["setup_s"] = median(out.setup_s) * kCalReferenceS / setup_cal;
  e2e["wall_s"] = wall * kCalReferenceS / cal;
  e2e["peak_rss_mb"] = peak_rss_mb();
  const std::map<std::string, std::size_t> samples = {
      {"setup_s", out.setup_s.size()},
      {"wall_s", out.wall_s.size()},
      {"peak_rss_mb", 1}};

  std::cout << "workload " << opt.workload << "  seed " << opt.seed
            << "  trace " << (opt.trace ? 1 : 0) << "\n";
  for (const auto& [name, unit] : kEndToEnd) {
    std::cout << "  " << name << " = " << fmt(e2e[name]) << " " << unit
              << "  (median of n=" << samples.at(name) << ")\n";
  }
  std::cout << "  wall_raw_s = " << fmt(wall) << " s  setup_raw_s = "
            << fmt(median(out.setup_s)) << " s  (host time, unscaled)\n"
            << "  calibration_s = " << fmt(cal) << " s (timed loop), "
            << fmt(setup_cal) << " s (set-up); reference " << kCalReferenceS
            << " s\n"
            << "  ops_per_s = " << fmt(out.ops_per_run / wall)
            << " 1/s  (operations of one run / wall_raw_s)\n";
  for (const auto& [name, value, unit, n] : out.rows) {
    std::cout << "  " << name << " = " << fmt(value) << " " << unit
              << "  (median/percentile of n=" << n << ")\n";
  }
  for (const std::string& e : out.errors)
    std::cout << "  FAILED: " << e << "\n";

  json::Object metrics;
  const auto& names = opt.trace ? kPerLayer : kEndToEnd;
  for (const auto& [name, unit] : names) {
    const double v = opt.trace ? (out.layer.count(name) ? out.layer[name] : 0.0)
                               : e2e[name];
    if (opt.trace)
      std::cout << "  " << name << " = " << fmt(v) << " " << unit << "\n";
    json::Object m;
    m["value"] = v;
    m["unit"] = unit;
    metrics[name] = std::move(m);
  }
  if (opt.trace) {
    const std::string spans_path =
        (opt.state_dir / "spans" /
         (opt.workload + "-seed" + std::to_string(opt.seed) + ".trace.json"))
            .string();
    recorder.write_chrome(spans_path);
    std::cout << "  spans: " << recorder.size() << " written to " << spans_path
              << "\n";
  }

  const bool correct = out.failed == 0 && out.attempted > 0;
  json::Object result;
  result["correct"] = correct;
  result["attempted"] = out.attempted;
  result["failed"] = out.failed;
  result["metrics"] = std::move(metrics);
  std::cout << json::Value(std::move(result)).dump() << std::endl;
  return correct ? 0 : 1;
}
