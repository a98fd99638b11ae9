// Fixed-size thread pool for embarrassingly parallel work.
//
// Deliberately simple — no work stealing, no futures: callers submit waves
// of independent closures and barrier on wait_idle(). Its users are
// acc-verify's frontier expansion, the fault and churn campaigns and the
// ablation benches. Tasks receive a worker index in [0, size()) so callers
// can hand each concurrent task private mutable state (e.g. a scratch model)
// without locks.
// A pool of size <= 1 runs every task inline at submit() time, so
// single-threaded behaviour is exactly the serial code path (and safe to use
// from contexts that must not spawn threads).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace acc {

class ThreadPool {
 public:
  /// A pool with `threads <= 1` executes tasks inline (worker index 0).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of workers tasks may run on concurrently (>= 1).
  [[nodiscard]] std::size_t size() const {
    return workers_.empty() ? 1 : workers_.size();
  }

  /// Enqueue a task. The first exception a task throws (inline or on a
  /// worker) is captured and rethrown from the next wait_idle().
  void submit(std::function<void(std::size_t worker)> task);

  /// Block until every submitted task has finished; rethrows the first
  /// captured task exception, if any.
  void wait_idle();

  /// std::thread::hardware_concurrency with a floor of 1.
  [[nodiscard]] static std::size_t hardware_threads();

 private:
  void worker_loop(std::size_t id);

  std::vector<std::thread> workers_;
  std::deque<std::function<void(std::size_t)>> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::size_t active_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;
};

}  // namespace acc
