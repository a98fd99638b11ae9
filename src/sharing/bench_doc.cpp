#include "sharing/bench_doc.hpp"

#include <chrono>

#include "common/thread_pool.hpp"
#include "dataflow/buffer_sizing.hpp"
#include "sharing/blocksize.hpp"
#include "sharing/nonmonotone.hpp"

namespace acc::sharing {

DseWorkload DseWorkload::small() {
  DseWorkload w;
  w.sweep_eta_hi = 6;
  w.fast_period = 6;
  w.slow_period = 24;
  w.reconfig = 8;
  return w;
}

json::Object dse_run(const DseWorkload& w) {
  df::DseStats stats;
  const auto t0 = std::chrono::steady_clock::now();

  (void)chunked_consumer_buffer_sweep(w.sweep_reconfig, w.sweep_per_sample,
                                      w.sweep_sample_period, w.sweep_chunk,
                                      w.sweep_eta_lo, w.sweep_eta_hi, &stats);
  SharedSystemSpec sys;
  sys.chain.accel_cycles_per_sample = {1, 1};
  sys.chain.entry_cycles_per_sample = 2;
  sys.chain.exit_cycles_per_sample = 1;
  sys.streams = {{"fast", Rational(1, w.fast_period), w.reconfig},
                 {"slow", Rational(1, w.slow_period), w.reconfig}};
  const BlockSizeResult blocks = solve_block_sizes_fixpoint(sys);
  for (std::size_t s = 0; s < sys.num_streams(); ++s) {
    const Time period = s == 0 ? w.fast_period : w.slow_period;
    (void)min_buffers_for_stream(sys, s, blocks.eta, period,
                                 /*consumer_chunk=*/1, &stats);
  }

  const auto t1 = std::chrono::steady_clock::now();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  json::Object run;
  run["wall_ms"] = wall_ms;
  run["simulations"] = stats.simulations;
  run["cache_hits"] = stats.cache_hits;
  run["cache_misses"] = stats.cache_misses;
  run["cache_hit_rate"] = stats.cache_hit_rate();
  run["pruned_infeasible"] = stats.pruned_infeasible;
  run["pruned_feasible"] = stats.pruned_feasible;
  return run;
}

json::Value dse_bench_doc(json::Array runs) {
  json::Object doc;
  doc["bench"] = "dse";
  doc["hardware_threads"] =
      static_cast<std::int64_t>(ThreadPool::hardware_threads());
  doc["runs"] = std::move(runs);
  return json::Value(std::move(doc));
}

}  // namespace acc::sharing
