// A reusable fixed-size worker pool.
//
// The parallel miner (chain/pow.cpp) spawns and joins a fresh set of
// std::threads per mine_parallel() call — fine for PoW grinding where one
// call runs for milliseconds, but far too expensive for per-block work like
// batched signature verification at block connect, which wants
// a pool that persists across blocks. ThreadPool keeps N workers parked
// on a condition variable; `submit()` enqueues a task, `wait_idle()` blocks
// until the queue is drained and every worker is parked again, and
// `for_shards()` is the fork-join shape mine_parallel uses (run f(shard) for
// each shard, caller participates, return when all shards are done).
//
// Tasks must not throw (the simulator is exception-free on hot paths); a
// task that does terminates via std::terminate, matching std::thread.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sc::util {

class ThreadPool {
 public:
  /// Starts `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueues a task for any worker. Safe from multiple producers.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished and the queue is empty.
  void wait_idle();

  /// Fork-join helper: runs fn(shard) for shard = 0..shards-1 across the
  /// pool, with the calling thread executing shards too (so a pool of N
  /// workers plus the caller makes N+1 lanes, and shards == 1 runs entirely
  /// on the caller with no synchronization detour). Returns when all shards
  /// completed. Do not call concurrently from two threads on one pool —
  /// wait_idle() would observe the union of both calls' tasks.
  void for_shards(unsigned shards, const std::function<void(unsigned)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;   ///< Signals queued work / shutdown.
  std::condition_variable idle_cv_;   ///< Signals "a task finished".
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;  ///< Tasks dequeued but not yet finished.
  bool stop_ = false;
};

}  // namespace sc::util
