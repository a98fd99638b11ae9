// Machine-readable benchmark documents. The DSE perf-trajectory workload
// and its BENCH_dse.json document live here (instead of inside
// bench_perf_analysis) so the golden-schema tests exercise the exact code
// the bench ships, on a workload scaled down to test size.
#pragma once

#include <cstdint>

#include "common/json.hpp"

namespace acc::sharing {

/// Scale of one DSE workload run: the chunked-consumer Fig. 8 sweep plus
/// the two-stream gateway buffer sizing. Defaults reproduce the historical
/// bench_perf_analysis workload; tests shrink eta_hi / the stream periods.
struct DseWorkload {
  // chunked_consumer_buffer_sweep(reconfig, per_sample, sample_period,
  // chunk, eta_lo, eta_hi, ...)
  std::int64_t sweep_reconfig = 6;
  std::int64_t sweep_per_sample = 1;
  std::int64_t sweep_sample_period = 3;
  std::int64_t sweep_chunk = 4;
  std::int64_t sweep_eta_lo = 3;
  std::int64_t sweep_eta_hi = 16;
  // Two-stream gateway system whose buffers are then sized.
  std::int64_t fast_period = 8;
  std::int64_t slow_period = 64;
  std::int64_t reconfig = 20;

  /// A miniature workload for schema/determinism tests (< 100 ms).
  [[nodiscard]] static DseWorkload small();
};

/// Execute the workload once and return the per-run JSON object:
/// {wall_ms, simulations, cache_hits, cache_misses, cache_hit_rate,
/// pruned_infeasible, pruned_feasible}.
[[nodiscard]] json::Object dse_run(const DseWorkload& w);

/// Assemble the BENCH_dse.json document from per-run objects:
/// {bench: "dse", hardware_threads, runs: [...]}. Validated by
/// common/bench_schema.hpp.
[[nodiscard]] json::Value dse_bench_doc(json::Array runs);

}  // namespace acc::sharing
