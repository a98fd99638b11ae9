// The branch-and-bound buffer search (paper Sec. V-F) on the shipped example
// configs, pinned: results, the number of exact self-timed simulations, and
// the actor firings those simulations executed. The firing count is the
// machine-independent cost of the search; a change that skips less of the
// self-timed transients (or simulates more) moves it.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "dataflow/buffer_sizing.hpp"
#include "sharing/bench_doc.hpp"
#include "sharing/blocksize.hpp"
#include "sharing/serialize.hpp"

#ifndef ACC_EXAMPLE_CONFIG_DIR
#error "build must define ACC_EXAMPLE_CONFIG_DIR"
#endif

namespace acc::sharing {
namespace {

SharedSystemSpec load(const std::string& name) {
  std::ifstream in(std::string(ACC_EXAMPLE_CONFIG_DIR) + "/" + name);
  std::ostringstream text;
  text << in.rdbuf();
  return spec_from_string(text.str());
}

/// One sample per ceil(1 / mu) cycles: each stream's slowest integer period.
std::vector<Time> sample_periods(const SharedSystemSpec& sys) {
  std::vector<Time> out;
  for (const StreamSpec& s : sys.streams) {
    const Rational inv = Rational(1) / s.mu;
    out.push_back((inv.num() + inv.den() - 1) / inv.den());
  }
  return out;
}

struct Pinned {
  const char* config;
  std::int64_t slack;
  std::vector<std::int64_t> eta;
  std::vector<std::int64_t> alphas;  // alpha0, alpha3 per stream
  std::int64_t total_buffer;
  std::int64_t simulations;
  std::int64_t firings;
};

void expect_pinned(const Pinned& p) {
  const SharedSystemSpec sys = load(p.config);
  df::DseStats stats;
  const OptimalBlockResult r = optimal_blocks_for_buffers(
      sys, sample_periods(sys), p.slack, {}, 1, &stats);
  ASSERT_TRUE(r.feasible) << p.config;
  EXPECT_EQ(r.eta, p.eta) << p.config;
  std::vector<std::int64_t> alphas;
  for (const StreamBufferResult& b : r.buffers) {
    alphas.push_back(b.alpha0);
    alphas.push_back(b.alpha3);
  }
  EXPECT_EQ(alphas, p.alphas) << p.config;
  EXPECT_EQ(r.total_buffer, p.total_buffer) << p.config;
  EXPECT_EQ(stats.simulations, p.simulations) << p.config;
  EXPECT_EQ(stats.firings, p.firings) << p.config;
}

TEST(BufferSearchPinned, BenchmarkConfigsAtSlackOne) {
  // The three configs the benchmark's design flow searches. Plain stepping
  // executes 51,652 / 751,565 / 7,039,184 firings (7,842,401 in total).
  expect_pinned({"fault_demo.json", 1, {27, 27}, {54, 54, 54, 54}, 216, 60,
                 16064});
  expect_pinned({"multi_radio.json", 1, {129, 86}, {258, 258, 172, 172}, 860,
                 80, 375338});
  expect_pinned({"quickstart.json", 1, {324, 203}, {648, 648, 406, 406}, 2108,
                 133, 668936});
}

TEST(BufferSearchPinned, PalDecoderDemonstratorAtSlackZero) {
  // The paper's PAL demonstrator, left out of the benchmark's search. Plain
  // stepping executes 127,099,116 firings here.
  expect_pinned({"pal_decoder.json", 0, {2654, 2654, 332, 332},
                 {5308, 5308, 5308, 5308, 664, 664, 664, 664}, 23888, 104,
                 1560418});
}

TEST(BufferSearchPinned, BenchDseWorkloadCounters) {
  // The workload bench_perf_analysis writes to BENCH_dse.json: the
  // chunked-consumer Fig. 8 sweep plus the two-stream gateway sizing.
  const json::Object run = dse_run(DseWorkload{});
  EXPECT_EQ(run.at("simulations").as_int(), 101);
  EXPECT_EQ(run.at("cache_hits").as_int(), 6);
  EXPECT_EQ(run.at("cache_misses").as_int(), 101);
  EXPECT_EQ(run.at("pruned_infeasible").as_int(), 16);
  EXPECT_EQ(run.at("pruned_feasible").as_int(), 0);
}

}  // namespace
}  // namespace acc::sharing
