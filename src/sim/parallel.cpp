#include "sim/parallel.h"

#include <algorithm>
#include <chrono>

#include "util/assert.h"

namespace sorn {

namespace {

// How long an idle worker (or the caller waiting for the workers) polls
// before parking on a condition variable. At the slot cadence of a large
// sweep (~10 us) the next batch almost always arrives well inside the
// spin window.
constexpr int kSpinIters = 1 << 14;

inline void cpu_relax(int spins) {
  // Yield the timeslice periodically so oversubscribed configurations
  // (more threads than cores, sanitizer runs) make progress instead of
  // burning a quantum per poll.
  if ((spins & 1023) == 0) {
    std::this_thread::yield();
    return;
  }
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

// Poll `ready` inside the spin window, then park on `cv` (under `m`)
// until it holds. Whoever makes `ready` true notifies `cv` under `m`, so
// the wakeup cannot fall between the predicate check and the park.
template <typename Ready>
void spin_then_park(std::mutex& m, std::condition_variable& cv, Ready ready) {
  for (int spins = 1; !ready(); ++spins) {
    if (spins < kSpinIters) {
      cpu_relax(spins);
      continue;
    }
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, ready);
  }
}

inline std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::vector<ShardRange> shard_ranges(NodeId n, int shards) {
  std::vector<ShardRange> out;
  if (n <= 0 || shards <= 0) return out;
  const NodeId k = std::min<NodeId>(n, static_cast<NodeId>(shards));
  const NodeId base = n / k;
  const NodeId rem = n % k;
  out.reserve(static_cast<std::size_t>(k));
  NodeId begin = 0;
  for (NodeId s = 0; s < k; ++s) {
    const NodeId len = base + (s < rem ? 1 : 0);
    out.push_back(ShardRange{begin, begin + len});
    begin += len;
  }
  return out;
}

ThreadPool::ThreadPool(int threads)
    : threads_(threads), counters_(static_cast<std::size_t>(threads)) {
  SORN_ASSERT(threads >= 1, "thread pool needs at least one thread");
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int t = 1; t < threads_; ++t)
    workers_.emplace_back([this, t] { worker_loop(t); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_.store(true, std::memory_order_release);
    work_cv_.notify_all();
  }
  for (std::thread& w : workers_) w.join();
}

int ThreadPool::default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ThreadPool::run_shards(int shards, const std::function<void(int)>& fn) {
  SORN_ASSERT(shards >= 0, "negative shard count");
  fn_ = &fn;
  shards_ = shards;
  errors_.assign(static_cast<std::size_t>(shards), nullptr);
  const bool prof = profiling_.load(std::memory_order_relaxed);
  if (prof) ++prof_batches_;
  const bool helpers = !workers_.empty();
  if (helpers) {
    remaining_.store(static_cast<int>(workers_.size()),
                     std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(m_);
    // The release publishes fn_, shards_, errors_ and remaining_ to every
    // worker that observes the new epoch.
    epoch_.fetch_add(1, std::memory_order_release);
    work_cv_.notify_all();
  }
  run_stride(0);
  if (helpers) {
    // Even when one of the caller's own shards threw, wait for every
    // worker: the lowest-indexed error is only known once all shards ran,
    // and the batch state must not change under a running worker.
    const std::uint64_t wait_start = prof ? steady_now_ns() : 0;
    spin_then_park(m_, done_cv_, [this] {
      return remaining_.load(std::memory_order_acquire) == 0;
    });
    if (prof) owner_wait_ns_ += steady_now_ns() - wait_start;
  }
  for (std::exception_ptr& e : errors_) {
    if (e != nullptr) {
      std::exception_ptr first = e;
      e = nullptr;
      std::rethrow_exception(first);
    }
  }
}

void ThreadPool::run_stride(int thread) {
  const bool prof = profiling_.load(std::memory_order_relaxed);
  ThreadCounters& tc = counters_[static_cast<std::size_t>(thread)];
  for (int s = thread; s < shards_; s += threads_) {
    const std::uint64_t t0 = prof ? steady_now_ns() : 0;
    try {
      (*fn_)(s);
    } catch (...) {
      errors_[static_cast<std::size_t>(s)] = std::current_exception();
    }
    if (prof) {
      tc.busy_ns.fetch_add(steady_now_ns() - t0, std::memory_order_relaxed);
      tc.shards.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::worker_loop(int thread) {
  std::uint64_t seen = 0;  // the last epoch this worker ran
  for (;;) {
    spin_then_park(m_, work_cv_, [&] {
      return epoch_.load(std::memory_order_acquire) != seen ||
             stop_.load(std::memory_order_acquire);
    });
    const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
    // stop_ is set only between batches, so a stopping pool never leaves
    // a batch unrun.
    if (epoch == seen) return;
    seen = epoch;
    run_stride(thread);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Notifying under the lock closes the window between the caller's
      // predicate check and its park, so the wakeup cannot be lost. If
      // the caller already left through its spin, this is harmless: it
      // re-checks remaining_, which only the next batch resets.
      std::lock_guard<std::mutex> lk(m_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::enable_profiling(bool on) {
  if (on) {
    for (ThreadCounters& tc : counters_) {
      tc.busy_ns.store(0, std::memory_order_relaxed);
      tc.shards.store(0, std::memory_order_relaxed);
    }
    prof_batches_ = 0;
    owner_wait_ns_ = 0;
    window_start_ns_ = steady_now_ns();
  }
  profiling_.store(on, std::memory_order_relaxed);
}

PoolUtilization ThreadPool::utilization() const {
  PoolUtilization u;
  u.threads = threads_;
  u.batches = prof_batches_;
  u.owner_wait_ns = owner_wait_ns_;
  u.window_ns =
      window_start_ns_ == 0 ? 0 : steady_now_ns() - window_start_ns_;
  u.workers.reserve(counters_.size());
  for (const ThreadCounters& tc : counters_) {
    PoolWorkerStats ws;
    ws.busy_ns = tc.busy_ns.load(std::memory_order_relaxed);
    ws.shards = tc.shards.load(std::memory_order_relaxed);
    u.shards += ws.shards;
    u.workers.push_back(ws);
  }
  return u;
}

}  // namespace sorn
