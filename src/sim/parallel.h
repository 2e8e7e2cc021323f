// Persistent worker pool and deterministic sharding for the slot engine.
//
// ThreadPool(T) runs one "batch" at a time on T threads: the thread that
// calls run_shards(k, fn) plus T-1 persistent workers. Shards are assigned
// by fixed striding — thread t (the caller is t = 0) runs shards t, t+T,
// t+2T, ... in order — so there is no shard claiming at all. Determinism
// does not rest on the assignment either: each engine shard writes only
// shard-local staging buffers that the caller merges in fixed shard order
// afterwards (see network.cpp).
//
// Dispatch latency matters more than fairness here — a 128-node lane sweep
// is only a few microseconds of work — so idle workers spin briefly before
// parking on a condition variable.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/prof/pool_stats.h"
#include "util/types.h"

namespace sorn {

// A contiguous slice [begin, end) of the node index space.
struct ShardRange {
  NodeId begin = 0;
  NodeId end = 0;
};

// Split [0, n) into at most `shards` near-equal contiguous ranges (never
// an empty range; fewer ranges when n < shards). Depends only on
// (n, shards), so a given thread count always produces the same plan.
std::vector<ShardRange> shard_ranges(NodeId n, int shards);

class ThreadPool {
 public:
  // threads >= 1; starts threads - 1 workers. A pool of 1 has none, so
  // its batches run on the calling thread with no atomics or locks.
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int thread_count() const { return threads_; }

  // Run fn(0..shards-1) and return when every shard has finished. fn is
  // called concurrently from several threads with distinct shard indices;
  // shard s runs on thread s mod thread_count(). If any shard threw,
  // rethrows the exception of the lowest-indexed throwing shard, after
  // every shard has finished (deterministic regardless of scheduling).
  void run_shards(int shards, const std::function<void(int)>& fn);

  // std::thread::hardware_concurrency with a floor of 1 (the standard
  // allows it to return 0).
  static int default_threads();

  // ---- Utilization accounting (obs/prof) ----
  // When enabled, each thread times its shard bodies (two clock reads per
  // shard, written to its own cache-line-padded counters with relaxed
  // atomics) and the caller times its wait for the workers after its own
  // shards. Disabled — the default — the hot paths pay one relaxed flag
  // load. Call between batches, from the owner thread; enabling resets
  // the counters and starts the utilization window.
  void enable_profiling(bool on);
  bool profiling_enabled() const {
    return profiling_.load(std::memory_order_relaxed);
  }
  // Snapshot of the counters since enable_profiling(true). Owner thread,
  // between batches. window_ns spans enable to this call.
  PoolUtilization utilization() const;

 private:
  void worker_loop(int thread);
  // Run this thread's stride of the current batch: shards thread,
  // thread + threads_, ...
  void run_stride(int thread);

  const int threads_;
  std::vector<std::thread> workers_;  // worker w is thread w + 1

  // Batch state, written by the caller before the epoch_ bump releases
  // it to the workers. epoch_ is the one wake-up signal (workers spin,
  // then park, until it moves past the batch they last ran); remaining_
  // counts the workers yet to check out of the batch. The caller returns
  // only once it reads 0, and resets it only for the next batch, so no
  // worker is still inside a batch when the next one starts.
  std::mutex m_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* fn_ = nullptr;
  int shards_ = 0;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<int> remaining_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::exception_ptr> errors_;  // one slot per shard

  // Profiling counters, one entry per thread (entry 0 is the caller),
  // padded so concurrent relaxed writes from different threads never
  // share a cache line. The caller-side fields (batches, wait time,
  // window start) are touched only from the owner thread.
  struct alignas(64) ThreadCounters {
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> shards{0};
  };
  std::atomic<bool> profiling_{false};
  std::vector<ThreadCounters> counters_;  // sized threads_, fixed
  std::uint64_t prof_batches_ = 0;
  std::uint64_t owner_wait_ns_ = 0;
  std::uint64_t window_start_ns_ = 0;
};

}  // namespace sorn
