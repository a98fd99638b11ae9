// Block-size explorer: interactively study the trade-offs of §V of the
// paper for a single stream on a shared chain.
//
//   usage: blocksize_explorer [--no-lint] [reconfig] [epsilon] [sample_period] [eta_max]
//
// For each block size eta it prints the worst-case block time tau_hat
// (Eq. 2), whether the throughput constraint holds (Eq. 5), and the minimum
// alpha0/alpha3 buffer capacities — making both effects of growing blocks
// visible: amortized reconfiguration vs growing buffers. It finishes with
// the chunked-consumer sweep demonstrating the paper's non-monotonicity
// claim (Fig. 8).
//
// Build & run:  ./build/examples/blocksize_explorer 50 3 8 24
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <vector>

#include "common/table.hpp"
#include "dataflow/buffer_sizing.hpp"
#include "lint/linter.hpp"
#include "sharing/analysis.hpp"
#include "sharing/blocksize.hpp"
#include "sharing/nonmonotone.hpp"

int main(int argc, char** argv) {
  using namespace acc;
  using namespace acc::sharing;

  // Pull --no-lint out of argv (lint::startup_gate below handles it); the
  // rest stays positional.
  std::vector<char*> pos;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--no-lint") != 0) pos.push_back(argv[i]);
  df::DseStats stats;

  const Time reconfig = pos.size() > 0 ? std::atoll(pos[0]) : 50;
  const Time epsilon = pos.size() > 1 ? std::atoll(pos[1]) : 3;
  const Time period = pos.size() > 2 ? std::atoll(pos[2]) : 8;
  const std::int64_t eta_max = pos.size() > 3 ? std::atoll(pos[3]) : 24;

  SharedSystemSpec sys;
  sys.chain.accel_cycles_per_sample = {1};
  sys.chain.entry_cycles_per_sample = epsilon;
  sys.chain.exit_cycles_per_sample = 1;
  sys.streams = {{"s", Rational(1, period), reconfig}};

  // Static admissibility of the user-chosen parameters: infeasible or
  // malformed corners are rejected up front (--no-lint to explore anyway).
  lint::LintInput li;
  li.name = "blocksize-explorer";
  li.spec = sys;
  if (!lint::startup_gate(argc, argv, li, std::cerr)) return 2;

  std::cout << "chain: epsilon=" << epsilon << ", rho_A=1, delta=1, R="
            << reconfig << "; stream rate mu=1/" << period
            << " samples/cycle\n";
  std::cout << "utilization = " << utilization(sys).to_double() << "\n\n";

  const BlockSizeResult minimum = solve_block_sizes_fixpoint(sys);
  if (minimum.feasible)
    std::cout << "Algorithm 1 minimum block: eta = " << minimum.eta[0]
              << " (gamma_hat = " << minimum.gamma << ")\n\n";

  Table t({"eta", "tau_hat", "eta/gamma", "meets mu?", "alpha0", "alpha3",
           "total"});
  for (std::int64_t eta = 1; eta <= eta_max; ++eta) {
    const Time tau = tau_hat(sys, 0, eta);
    const bool ok = throughput_met(sys, {eta});
    std::string a0 = "-";
    std::string a3 = "-";
    std::string tot = "-";
    if (ok) {
      const StreamBufferResult buf = min_buffers_for_stream(
          sys, 0, {eta}, period, /*consumer_chunk=*/1, &stats);
      if (buf.feasible) {
        a0 = std::to_string(buf.alpha0);
        a3 = std::to_string(buf.alpha3);
        tot = std::to_string(buf.total());
      }
    }
    t.add_row({std::to_string(eta), std::to_string(tau),
               fmt_double(static_cast<double>(eta) / static_cast<double>(tau),
                          4),
               ok ? "yes" : "no", a0, a3, tot});
  }
  std::cout << t.render();

  std::cout << "\nNon-monotone buffer demo (shared actor feeding an 8:1 "
               "down-sampling consumer, paper Fig. 8):\n";
  const auto pts = chunked_consumer_buffer_sweep(
      /*reconfig=*/10, /*per_sample=*/1, /*sample_period=*/2, /*chunk=*/8,
      /*eta_lo=*/10, /*eta_hi=*/24, &stats);
  Table nm({"eta", "min buffer"});
  std::vector<std::int64_t> caps;
  for (const auto& p : pts) {
    nm.add_row({std::to_string(p.eta),
                p.min_capacity < 0 ? "infeasible"
                                   : std::to_string(p.min_capacity)});
    if (p.min_capacity >= 0) caps.push_back(p.min_capacity);
  }
  std::cout << nm.render();
  std::cout << "non-monotone: " << (is_non_monotone(caps) ? "YES" : "no")
            << " — smaller blocks can need LARGER buffers\n";

  std::cout << "\nDSE engine: " << stats.simulations
            << " simulations, cache hit rate "
            << fmt_double(stats.cache_hit_rate(), 2) << ", " << stats.pruned()
            << " candidates answered by monotone pruning\n";
  return 0;
}
