// Minimal fixed-size thread pool and ParallelFor helpers.
//
// A *single* query stays single-threaded on each shard to keep the cost
// model's alpha/beta constants meaningful (the paper's per-query CPU-time
// measurements). Parallelism lives one level up: table construction within
// an index, and in engine/sharded_engine.h shard builds, compaction, batch
// execution, and the shard walks of a query that is the only one in flight
// (concurrent callers each walk their shards on their own thread). The
// engine's paths reuse one persistent ThreadPool via ParallelForOn instead
// of spawning threads per call.

#ifndef HYBRIDLSH_UTIL_THREAD_POOL_H_
#define HYBRIDLSH_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace hybridlsh {
namespace util {

/// Fixed-size pool executing void() tasks FIFO.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void Wait();

  /// Number of worker threads.
  size_t num_threads() const { return workers_.size(); }

  /// Tasks queued but not yet started (approximate; for rate limiting and
  /// observability, not synchronization).
  size_t pending() const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::queue<std::function<void()>> tasks_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

/// Counts a related set of tasks on a shared pool and lets the submitter
/// wait for exactly those tasks — pool->Wait() would also wait on unrelated
/// callers' work. The engine uses one long-lived group per concern (e.g.
/// background segment maintenance) and Wait() as its drain barrier before
/// snapshots and shutdown; ParallelForOn uses a short-lived group as its
/// completion latch.
///
/// Submit may race with tasks finishing; Wait blocks until the count of
/// submitted-but-unfinished tasks reaches zero. The destructor waits.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool);
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues `task` on the pool, tracked by this group.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished.
  void Wait();

  /// Submitted-but-unfinished task count (approximate).
  size_t outstanding() const;

 private:
  ThreadPool* pool_;
  mutable std::mutex mu_;
  std::condition_variable done_;
  size_t outstanding_ = 0;
};

/// Runs fn(i) for i in [begin, end) across up to `num_threads` threads in
/// contiguous chunks. Blocks until all iterations complete. If num_threads
/// <= 1 or the range is tiny, runs inline. Spawns fresh threads; prefer
/// ParallelForOn with a long-lived pool on repeated call sites.
void ParallelFor(size_t begin, size_t end, size_t num_threads,
                 const std::function<void(size_t)>& fn);

/// Like ParallelFor, but executes on an existing pool: the range is split
/// into one contiguous chunk per pool worker and submitted as tasks. Blocks
/// until *these* chunks complete (other tasks queued on the pool are not
/// waited for). `fn` must not itself call ParallelForOn on the same pool
/// (the nested wait could deadlock once every worker is occupied).
void ParallelForOn(ThreadPool* pool, size_t begin, size_t end,
                   const std::function<void(size_t)>& fn);

}  // namespace util
}  // namespace hybridlsh

#endif  // HYBRIDLSH_UTIL_THREAD_POOL_H_
