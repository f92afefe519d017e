#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace kpef {

namespace {

std::atomic<ThreadPool::MetricsHook> g_metrics_hook{nullptr};

}  // namespace

void ThreadPool::SetMetricsHook(MetricsHook hook) {
  g_metrics_hook.store(hook, std::memory_order_release);
}

void ThreadPool::EmitMetric(const char* counter, uint64_t delta) {
  if (MetricsHook hook = g_metrics_hook.load(std::memory_order_acquire)) {
    hook(counter, delta);
  }
}

// --- TaskGroup.

TaskGroup::~TaskGroup() { pool_.WaitForGroup(*this); }

void TaskGroup::Submit(std::function<void()> task) {
  pool_.SubmitToGroup(*this, std::move(task));
}

void TaskGroup::Wait() {
  pool_.WaitForGroup(*this);
  std::exception_ptr first;
  {
    std::lock_guard<std::mutex> lock(exception_mutex_);
    first = std::exchange(first_exception_, nullptr);
  }
  // Every task has settled, so the group can be re-armed for reuse
  // whether the join is clean or exceptional.
  cancelled_.store(false, std::memory_order_relaxed);
  if (first) std::rethrow_exception(first);
}

// --- ThreadPool.

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  waiters_ = std::make_unique<Waiter[]>(num_threads);
  idle_.reserve(num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
    for (const size_t index : idle_) waiters_[index].woken = true;
    idle_.clear();
  }
  for (size_t i = 0; i < workers_.size(); ++i) waiters_[i].cv.notify_one();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::SubmitToGroup(TaskGroup& group, std::function<void()> task) {
  Waiter* wake = nullptr;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    ++group.pending_;
    tasks_.push_back({&group, std::move(task)});
    if (!idle_.empty()) {
      wake = &waiters_[idle_.back()];
      idle_.pop_back();
      wake->woken = true;
    }
  }
  if (wake != nullptr) wake->cv.notify_one();
}

size_t ThreadPool::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tasks_.size();
}

size_t ThreadPool::IdleWorkersForTest() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return idle_.size();
}

void ThreadPool::RunTask(QueuedTask task) {
  TaskGroup* group = task.group;
  if (group->cancelled()) {
    // Skip the body but still settle the latch below, so joiners see the
    // task accounted for.
    EmitMetric("pool.tasks_cancelled", 1);
  } else {
    active_workers_.fetch_add(1, std::memory_order_relaxed);
    try {
      task.fn();
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(group->exception_mutex_);
        if (!group->first_exception_) {
          group->first_exception_ = std::current_exception();
        }
      }
      // First failure cancels the rest of the group; the exception
      // surfaces at the join point instead of escaping the worker.
      group->Cancel();
    }
    active_workers_.fetch_sub(1, std::memory_order_relaxed);
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (--group->pending_ == 0) group_settled_.notify_all();
  }
}

void ThreadPool::WorkerLoop(size_t index) {
  Waiter& self = waiters_[index];
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // Park on top of the idle stack until a submit (or the destructor)
      // pops this worker. A helping waiter may claim the task first; the
      // worker then finds the deque empty and parks again.
      while (tasks_.empty()) {
        if (shutting_down_) return;
        self.woken = false;
        idle_.push_back(index);
        self.cv.wait(lock, [&self] { return self.woken; });
      }
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    RunTask(std::move(task));
  }
}

void ThreadPool::WaitForGroup(TaskGroup& group) {
  uint64_t help_runs = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (group.pending_ == 0) break;
      // Help: claim a queued task of *this* group and run it here. This
      // is what makes nested ParallelFor deadlock-free — a worker
      // waiting on its sub-group drains that sub-group itself instead of
      // parking while the sub-group's tasks sit behind it in the queue.
      auto it = std::find_if(
          tasks_.begin(), tasks_.end(),
          [&group](const QueuedTask& t) { return t.group == &group; });
      if (it != tasks_.end()) {
        QueuedTask task = std::move(*it);
        tasks_.erase(it);
        lock.unlock();
        RunTask(std::move(task));
        ++help_runs;
        lock.lock();
        continue;
      }
      // Nothing left to help with: every remaining task of the group is
      // running on some other thread, which will settle the latch.
      group_settled_.wait(lock);
    }
  }
  if (help_runs > 0) EmitMetric("pool.wait_help_runs", help_runs);
}

ThreadPool& ThreadPool::Default() {
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

void ParallelFor(ThreadPool& pool, size_t count,
                 const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  const size_t workers = pool.num_threads();
  if (workers <= 1 || count == 1) {
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  const size_t num_chunks = std::min(count, workers * 4);
  const size_t chunk = (count + num_chunks - 1) / num_chunks;
  TaskGroup group(pool);
  for (size_t start = 0; start < count; start += chunk) {
    const size_t end = std::min(count, start + chunk);
    group.Submit([&fn, start, end] {
      for (size_t i = start; i < end; ++i) fn(i);
    });
  }
  group.Wait();
}

void ParallelFor(size_t count, const std::function<void(size_t)>& fn) {
  ParallelFor(ThreadPool::Default(), count, fn);
}

void ParallelForChunks(ThreadPool& pool, size_t count,
                       const std::function<void(size_t, size_t)>& fn,
                       size_t max_workers) {
  if (count == 0) return;
  size_t workers = pool.num_threads();
  if (max_workers > 0) workers = std::min(workers, max_workers);
  if (workers <= 1 || count == 1) {
    fn(0, count);
    return;
  }
  // An explicit worker cap means the caller is bounding concurrency, so
  // issue exactly that many chunks; otherwise over-decompose 4x for load
  // balance (per-chunk state amortizes either way).
  const size_t num_chunks =
      std::min(count, max_workers > 0 ? workers : workers * 4);
  const size_t chunk = (count + num_chunks - 1) / num_chunks;
  TaskGroup group(pool);
  for (size_t start = 0; start < count; start += chunk) {
    const size_t end = std::min(count, start + chunk);
    group.Submit([&fn, start, end] { fn(start, end); });
  }
  group.Wait();
}

}  // namespace kpef
