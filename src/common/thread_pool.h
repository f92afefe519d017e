// Fixed-size thread pool with TaskGroup-scoped joining and a ParallelFor
// helper.
//
// The paper's experiments ran on a 24-core server; the library's offline
// phases (homogeneous projection, corpus encoding, PG-Index refinement)
// are embarrassingly parallel and use ParallelFor. Every parallel loop is
// deterministic: work is partitioned into contiguous chunks, not stolen.
//
// Execution model (DESIGN.md §9): each TaskGroup/ParallelFor batch has
// its own completion latch, so concurrent callers sharing one pool wait
// only for their own work. TaskGroup::Wait() *helps* — it
// pops and runs this group's queued tasks on the waiting thread instead
// of blocking — which makes ParallelFor nested inside a pool task
// deadlock-free (the worker drains its own sub-group). The first
// exception thrown by a group task is captured, the group's remaining
// queued tasks are cancelled (skipped, not run), and the exception is
// rethrown from Wait(); the pool itself survives and stays reusable.
//
// Tasks are claimed FIFO, but a submit wakes the most recently parked
// worker (a LIFO idle stack, one wake channel per worker): sequential
// work on an idle pool keeps landing on the one core whose caches hold
// its state instead of rotating across cold ones.

#ifndef KPEF_COMMON_THREAD_POOL_H_
#define KPEF_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace kpef {

class ThreadPool;

/// One joinable batch of tasks on a ThreadPool. Submit from any thread;
/// Wait() from any thread (including a pool worker running a task of an
/// *enclosing* group). A group is reusable after Wait() returns or
/// throws. Groups must not outlive their pool.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}

  /// Blocks destruction until every submitted task finished (exceptions,
  /// if any, are swallowed here — join explicitly to observe them).
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues a task on the pool under this group; returns immediately.
  void Submit(std::function<void()> task);

  /// Joins the group: helps run this group's queued tasks on the calling
  /// thread, then blocks until stragglers running elsewhere finish. If
  /// any task threw, rethrows the first captured exception (after every
  /// task finished or was cancelled) and resets the group for reuse.
  void Wait();

 private:
  friend class ThreadPool;

  /// Marks the group cancelled: queued-but-unstarted tasks are skipped
  /// (already-running tasks complete). Wait() still joins normally.
  /// Called when a task throws.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  ThreadPool& pool_;
  /// Tasks submitted but not yet finished/skipped; guarded by the pool
  /// mutex (the completion latch).
  size_t pending_ = 0;
  std::atomic<bool> cancelled_{false};
  std::mutex exception_mutex_;
  std::exception_ptr first_exception_;
};

/// A fixed pool of worker threads executing submitted tasks FIFO; a
/// submit wakes the most recently idle worker.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 = hardware concurrency, min 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Process-wide default pool, sized to the hardware. Created on first
  /// use and intentionally leaked (threads run for the process lifetime).
  static ThreadPool& Default();

  /// Optional process-wide bridge into the metrics registry: called as
  /// hook(counter_name, delta) for "pool.tasks_cancelled" and
  /// "pool.wait_help_runs". Installed by kpef_obs (pipeline_metrics.cc);
  /// the pool itself stays free of the obs dependency. Must be
  /// data-race-free; installed once at startup.
  using MetricsHook = void (*)(const char* counter, uint64_t delta);
  static void SetMetricsHook(MetricsHook hook);

  /// Tasks queued but not yet claimed (all groups); sampled on /metrics
  /// scrapes.
  size_t QueueDepth() const;

  /// Workers (or helping waiters) currently inside a task body.
  size_t ActiveWorkers() const {
    return active_workers_.load(std::memory_order_relaxed);
  }

  /// Workers parked on the idle stack, waiting for a submit.
  size_t IdleWorkersForTest() const;

 private:
  friend class TaskGroup;

  struct QueuedTask {
    TaskGroup* group;
    std::function<void()> fn;
  };

  /// A parked worker's own wake channel; `woken` is guarded by mutex_.
  struct Waiter {
    std::condition_variable cv;
    bool woken = false;
  };

  void WorkerLoop(size_t index);
  /// Runs (or, for a cancelled group, skips) one dequeued task, captures
  /// exceptions into the group, and settles the group's latch.
  void RunTask(QueuedTask task);
  void SubmitToGroup(TaskGroup& group, std::function<void()> task);
  /// The helping join: runs queued tasks of `group` on this thread until
  /// none remain, then blocks for tasks running on other threads.
  void WaitForGroup(TaskGroup& group);

  static void EmitMetric(const char* counter, uint64_t delta);

  mutable std::mutex mutex_;
  std::condition_variable group_settled_;
  std::deque<QueuedTask> tasks_;
  /// Indices of parked workers, most recently parked last.
  std::vector<size_t> idle_;
  std::unique_ptr<Waiter[]> waiters_;
  bool shutting_down_ = false;
  std::atomic<size_t> active_workers_{0};
  std::vector<std::thread> workers_;
};

/// Runs fn(i) for every i in [0, count), split into contiguous chunks
/// across the pool; blocks until complete. With a single-threaded pool
/// (or count small) it degenerates to a plain loop. `fn` must be safe to
/// call concurrently for distinct i. Safe to nest: a ParallelFor issued
/// from inside a pool task joins its own TaskGroup and helps instead of
/// blocking a worker. If fn throws, the first exception is rethrown here
/// after the loop's remaining chunks are cancelled; which indices ran is
/// then unspecified.
void ParallelFor(ThreadPool& pool, size_t count,
                 const std::function<void(size_t)>& fn);

/// ParallelFor over the default pool.
void ParallelFor(size_t count, const std::function<void(size_t)>& fn);

/// Runs fn(begin, end) over contiguous chunks covering [0, count), split
/// across the pool (≈4 chunks per worker). Unlike ParallelFor's per-index
/// callback, the chunk callback lets callers build per-chunk state once
/// (scratch buffers, PNeighborFinder instances) and amortize it over the
/// whole range. `max_workers` caps the number of chunks in flight
/// (0 = pool width; 1 degenerates to one inline fn(0, count) call).
/// Chunk boundaries must not affect the result — callers write disjoint
/// output slots — so the outcome is identical for every pool size.
void ParallelForChunks(ThreadPool& pool, size_t count,
                       const std::function<void(size_t, size_t)>& fn,
                       size_t max_workers = 0);

}  // namespace kpef

#endif  // KPEF_COMMON_THREAD_POOL_H_
