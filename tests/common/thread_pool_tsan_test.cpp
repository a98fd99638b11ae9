// Thread-sanitizer harness for common/thread_pool.hpp: waves of tasks with
// per-worker state, the wait_idle() barrier, exception hand-off and the
// destructor's drain, at several pool sizes. Compiled as its own
// TSan-instrumented binary from thread_pool.cpp alone (no gtest — the
// sanitizer must see every thread this process creates), registered in
// tier-1 ctest when the toolchain supports -fsanitize=thread.
#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hpp"

namespace {

int failures = 0;

#define REQUIRE(cond)                                                   \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                       \
    }                                                                   \
  } while (0)

using acc::ThreadPool;

/// Per-worker slots written without locks, read by the submitting thread
/// after each barrier: the pattern acc-verify's frontier expansion uses.
void check_waves(std::size_t threads) {
  ThreadPool pool(threads);
  std::vector<long> per_worker(pool.size(), 0);
  std::vector<int> results(64, 0);
  for (int wave = 0; wave < 20; ++wave) {
    for (int i = 0; i < 64; ++i)
      pool.submit([&, i, wave](std::size_t w) {
        per_worker[w] += i;
        results[static_cast<std::size_t>(i)] = wave + i;
      });
    pool.wait_idle();
    for (int i = 0; i < 64; ++i)
      REQUIRE(results[static_cast<std::size_t>(i)] == wave + i);
  }
  long total = 0;
  for (const long v : per_worker) total += v;
  REQUIRE(total == 20L * 63 * 64 / 2);
}

void check_exception(std::size_t threads) {
  ThreadPool pool(threads);
  std::atomic<int> ok{0};
  for (int i = 0; i < 16; ++i)
    pool.submit([&, i](std::size_t) {
      if (i == 5) throw std::runtime_error("boom");
      ++ok;
    });
  bool threw = false;
  try {
    pool.wait_idle();
  } catch (const std::runtime_error&) {
    threw = true;
  }
  REQUIRE(threw);
  REQUIRE(ok.load() == 15);
  pool.submit([&](std::size_t) { ++ok; });
  pool.wait_idle();  // usable again, no stale exception
  REQUIRE(ok.load() == 16);
}

void check_destructor_drain(std::size_t threads) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(threads);
    for (int i = 0; i < 100; ++i) pool.submit([&](std::size_t) { ++ran; });
  }
  REQUIRE(ran.load() == 100);
}

}  // namespace

int main() {
  for (const std::size_t threads : {1, 2, 4}) {
    check_waves(threads);
    check_exception(threads);
    check_destructor_drain(threads);
  }
  if (failures == 0) std::puts("thread_pool_tsan_test: all checks passed");
  return failures == 0 ? 0 : 1;
}
