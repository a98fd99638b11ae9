// Tests for the fixed-size thread pool (common/thread_pool.hpp): worker ids,
// inline mode, exception propagation and the wait_idle() barrier.
#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

namespace acc {
namespace {

TEST(ThreadPool, RunsEveryTaskOnValidWorkerIds) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> sum{0};
  std::atomic<bool> bad_worker{false};
  for (int i = 0; i < 100; ++i)
    pool.submit([&, i](std::size_t w) {
      if (w >= pool.size()) bad_worker = true;
      sum += i;
    });
  pool.wait_idle();
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
  EXPECT_FALSE(bad_worker.load());
}

TEST(ThreadPool, InlineModeExecutesAtSubmit) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  int calls = 0;
  pool.submit([&](std::size_t w) {
    EXPECT_EQ(w, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);  // ran inline, before wait_idle
  pool.wait_idle();
}

TEST(ThreadPool, TaskExceptionRethrownFromWaitIdle) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    ThreadPool pool(threads);
    pool.submit([](std::size_t) { throw std::runtime_error("boom"); });
    EXPECT_THROW(pool.wait_idle(), std::runtime_error);
    // The pool stays usable after an exception.
    std::atomic<int> ok{0};
    pool.submit([&](std::size_t) { ++ok; });
    pool.wait_idle();
    EXPECT_EQ(ok.load(), 1);
  }
}

TEST(ThreadPool, WorkerIdsGivePrivateSlotsWithoutLocks) {
  // The documented contract: two tasks never run concurrently on the same
  // worker id, so per-worker state needs no lock.
  ThreadPool pool(3);
  std::vector<long> per_worker(pool.size(), 0);
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 1; i <= 200; ++i)
      pool.submit([&, i](std::size_t w) { per_worker[w] += i; });
    pool.wait_idle();
  }
  long total = 0;
  for (const long v : per_worker) total += v;
  EXPECT_EQ(total, 5L * 200 * 201 / 2);
}

TEST(ThreadPool, DestructorRunsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&](std::size_t) { ++ran; });
  }  // no wait_idle: the destructor drains the queue before joining
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, WaitIdleWithoutTasksReturns) {
  ThreadPool pool(2);
  pool.wait_idle();
  EXPECT_GE(ThreadPool::hardware_threads(), 1u);
}

}  // namespace
}  // namespace acc
