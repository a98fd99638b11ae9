// E4 — §VI block-size computation (Algorithm 1) on the PAL case study.
//
// Paper: "for 44.1 kHz audio output, the streams at the start of the chain
// need to multiplex blocks of 10136 samples while the streams at the end of
// the chain will be multiplexed at 1267 samples (note the 8:1 ratio in the
// block sizes due to down-sampling)".
//
// The paper does not publish the clock frequency that yields exactly 10136,
// so we sweep plausible clocks around 100 MHz; the SHAPE is what must
// reproduce: feasibility, the exact 8:1 ratio of the real relaxation, and
// blocks of the same order of magnitude.
#include <iostream>

#include "common/table.hpp"
#include "dataflow/buffer_sizing.hpp"
#include "sharing/analysis.hpp"
#include "sharing/blocksize.hpp"

namespace {

acc::sharing::SharedSystemSpec pal_spec(double clock_hz) {
  using namespace acc;
  using namespace acc::sharing;
  // Front-end rate = 64 * 44.1 kHz = 2.8224 MS/s; chain-end streams run at
  // 1/8 of that (after the first 8:1 down-sampler).
  const double fe = 64 * 44100.0;
  SharedSystemSpec sys;
  sys.chain.accel_cycles_per_sample = {1, 1};
  sys.chain.entry_cycles_per_sample = 15;
  sys.chain.exit_cycles_per_sample = 1;
  auto mu = [&](double rate_hz) {
    // samples/cycle as an exact rational with 1e6 resolution.
    return Rational(static_cast<std::int64_t>(rate_hz * 1e3),
                    static_cast<std::int64_t>(clock_hz * 1e3));
  };
  sys.streams = {{"ch1.start", mu(fe), 4100},
                 {"ch2.start", mu(fe), 4100},
                 {"ch1.end", mu(fe / 8), 4100},
                 {"ch2.end", mu(fe / 8), 4100}};
  return sys;
}

}  // namespace

int main() {
  using namespace acc;
  using namespace acc::sharing;

  std::cout << "=== §VI / Algorithm 1: minimum block sizes for the PAL decoder ===\n\n";
  std::cout << "paper reports: eta_start = 10136, eta_end = 1267 "
               "(exactly 8:1), 44.1 kS/s audio met\n\n";

  Table t({"clock (MHz)", "util", "eta_start (ILP)", "eta_end (ILP)", "ratio",
           "gamma (cycles)", "audio met?"});
  for (const double mhz : {90.0, 95.0, 100.0, 105.0, 110.0, 125.0}) {
    const SharedSystemSpec sys = pal_spec(mhz * 1e6);
    if (utilization(sys) >= Rational(1)) {
      t.add_row({fmt_double(mhz, 0), fmt_double(utilization(sys).to_double(), 3),
                 "-", "-", "-", "-", "infeasible"});
      continue;
    }
    const BlockSizeResult ilp = solve_block_sizes_ilp(sys);
    const BlockSizeResult fix = solve_block_sizes_fixpoint(sys);
    const bool agree = ilp.eta == fix.eta;
    t.add_row({fmt_double(mhz, 0),
               fmt_double(utilization(sys).to_double(), 3),
               fmt_int(ilp.eta[0]), fmt_int(ilp.eta[2]),
               fmt_double(static_cast<double>(ilp.eta[0]) /
                              static_cast<double>(ilp.eta[2]), 3),
               fmt_int(ilp.gamma),
               std::string(throughput_met(sys, ilp.eta) ? "yes" : "NO") +
                   (agree ? "" : " (solver mismatch!)")});
  }
  std::cout << t.render();

  // The real relaxation shows the exact 8:1 structure the paper notes.
  const SharedSystemSpec sys = pal_spec(100e6);
  const std::vector<Rational> relax = block_size_real_relaxation(sys);
  std::cout << "\nreal relaxation at 100 MHz: eta_start = "
            << fmt_double(relax[0].to_double(), 1) << ", eta_end = "
            << fmt_double(relax[2].to_double(), 1) << ", exact ratio = "
            << (relax[0] / relax[2]).str() << " (paper: 8:1 exactly)\n";
  std::cout << "\npaper vs ours: same order of magnitude (1e4 / 1e3), same "
               "8:1 structure; the absolute value depends on the\n"
               "unpublished clock frequency (see EXPERIMENTS.md)\n";

  // Gateway buffer sizing downstream of Algorithm 1, on a 1:1000-scaled
  // PAL shape (the full-size blocks make exact self-timed analysis
  // pointless to run in a table bench). Exercises the DSE engine's
  // two-buffer staircase; counters show the memo/pruning savings.
  std::cout << "\nminimum gateway buffers (alpha0, alpha3) per stream on a "
               "scaled PAL shape (DSE engine):\n";
  {
    SharedSystemSpec small;
    small.chain.accel_cycles_per_sample = {1, 1};
    small.chain.entry_cycles_per_sample = 2;
    small.chain.exit_cycles_per_sample = 1;
    small.streams = {{"ch1.start", Rational(1, 8), 20},
                     {"ch1.end", Rational(1, 64), 20}};
    const BlockSizeResult blocks = solve_block_sizes_fixpoint(small);
    df::DseStats stats;
    Table bt({"stream", "eta", "alpha0", "alpha3"});
    for (std::size_t s = 0; s < small.num_streams(); ++s) {
      const Time period = s == 0 ? 8 : 64;
      const StreamBufferResult r = min_buffers_for_stream(
          small, s, blocks.eta, period, /*consumer_chunk=*/1, &stats);
      bt.add_row({small.streams[s].name, fmt_int(blocks.eta[s]),
                  r.feasible ? fmt_int(r.alpha0) : "-",
                  r.feasible ? fmt_int(r.alpha3) : "-"});
    }
    std::cout << bt.render();
    std::cout << "DSE engine: " << stats.simulations << " simulations, cache "
              << "hit rate " << fmt_double(stats.cache_hit_rate(), 2)
              << ", " << stats.pruned()
              << " candidates answered by monotone pruning\n";
  }
  return 0;
}
