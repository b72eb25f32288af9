// twiddc::common -- work-stealing task scheduler.
//
// A fixed pool of workers, each with its own run queue, and three rules:
//
//   * push: every submission (submit_to) goes to the back of one worker's
//     queue -- a mutexed std::deque plus an atomic size mirror for the
//     lock-free park and steal probes.  A queue operation moves one task per
//     session pass or bank drain, nowhere near the sample hot path, so a lock
//     per operation costs nothing measurable;
//   * pop: the owner takes the front, so a task re-queued by a task of batch
//     k runs after everything already queued in batch k -- N actors on one
//     worker each make bounded progress per cycle (batch-cyclic fairness);
//   * steal: a worker that runs dry takes the back of a sibling's queue while
//     that sibling is inside a task, so work queued behind a grinding worker
//     rebalances instead of stalling.  A quiet worker's queue is left to its
//     owner, so a targeted task on a quiet worker runs there.
//
// Wakeups are targeted: one eventcount per worker, and submit_to(w, task)
// bumps only worker w (plus one sleeper when w is busy and the task is
// stealable).  Completion is not the scheduler's business: a Group counts
// its tasks down and wakes whoever waits on it.
//
// Clients:
//   core::ChannelBank    min(workers, units) - 1 drain tasks per block, each
//                        claiming lane groups from a shared index beside the
//                        calling thread, joined through a Group;
//   stream::StreamEngine actors: each session is scheduled as a task on its
//                        home worker; a stolen task migrates the session.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace twiddc::common {

class TaskScheduler {
 public:
  using Task = std::function<void()>;

  /// Counters for tests and stats_json (monotonic since construction).
  struct Stats {
    std::uint64_t executed = 0;  ///< tasks run to completion
    std::uint64_t stolen = 0;    ///< tasks taken from another worker's queue
    std::uint64_t wakeups = 0;   ///< targeted eventcount bumps issued
    std::uint64_t steal_failures = 0;  ///< full steal sweeps that found nothing
  };

  /// Per-worker observability snapshot (approximate while work is in
  /// flight).
  struct WorkerSnapshot {
    std::size_t queue_depth = 0;
    bool sleeping = false;
  };

  /// Completion handle for a batch of tasks.  expect() the task count, have
  /// each task call complete() (or fail() with its exception) exactly once,
  /// then wait().  The first recorded exception is rethrown by
  /// rethrow_if_error().
  ///
  /// A Group is a copyable HANDLE over shared state: tasks must capture
  /// their Group BY VALUE, so the state outlives a waiter that saw the
  /// count reach zero and unwound while the final completer is still inside
  /// complete() -- the value capture, not the caller's handle, keeps it
  /// alive.  Any thread may complete a task.
  class Group {
   public:
    Group() : state_(std::make_shared<State>()) {}

    void expect(std::size_t n) const {
      state_->pending.fetch_add(n, std::memory_order_relaxed);
    }
    void complete() const {
      if (state_->pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
        state_->pending.notify_all();
    }
    void fail(std::exception_ptr e) const {
      {
        std::lock_guard<std::mutex> lock(state_->err_mu);
        if (!state_->error) state_->error = std::move(e);
      }
      complete();
    }
    [[nodiscard]] bool done() const {
      return state_->pending.load(std::memory_order_acquire) == 0;
    }
    /// Blocks until every expected task completed.  Does not rethrow --
    /// call rethrow_if_error() after.
    void wait() const {
      for (std::size_t n; (n = state_->pending.load(std::memory_order_acquire)) != 0;)
        state_->pending.wait(n, std::memory_order_acquire);
    }
    void rethrow_if_error() const {
      std::lock_guard<std::mutex> lock(state_->err_mu);
      if (state_->error) {
        std::exception_ptr e = std::move(state_->error);
        state_->error = nullptr;
        std::rethrow_exception(e);
      }
    }

   private:
    struct State {
      std::atomic<std::size_t> pending{0};
      std::mutex err_mu;
      std::exception_ptr error;  // guarded by err_mu
    };
    std::shared_ptr<State> state_;
  };

  /// Spawns `threads` persistent worker threads (clamped to >= 1).  Each
  /// stays in the submit_to routing set until shutdown.
  explicit TaskScheduler(int threads);
  /// Joins the workers.  Shutdown is a drain, not a drop: each worker
  /// finishes the tasks already visible in its queue (it checks the stop
  /// flag only when it runs dry), but submissions that arrive after
  /// shutdown began are dropped -- so a self-resubmitting task terminates,
  /// and anything it re-queued late is destroyed unrun.  Clients that need
  /// a completion guarantee must wait() on a Group first; clients whose
  /// tasks must not do real work during teardown must gate them on their
  /// own stop flag (StreamEngine does).
  ///
  /// As with any C++ object, EXTERNAL threads must not race submit_to()
  /// against destruction itself -- the in-flight-submission "drop"
  /// guarantee covers worker-originated submissions (re-queued actors),
  /// which the destructor's join inherently serializes with.
  ~TaskScheduler();

  /// Stops the workers and joins them (the first half of destruction;
  /// idempotent).  Lets an owner read final stats() -- which include the
  /// shutdown drain -- before destroying the object.
  void shutdown();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// Worker count (the submit_to routing modulus).
  [[nodiscard]] int workers() const { return static_cast<int>(workers_.size()); }

  /// Approximate per-worker queue depths (index order).  Lock-free reads;
  /// depths race benignly with execution.
  [[nodiscard]] std::vector<WorkerSnapshot> worker_snapshot() const;

  /// Queues `t` at the back of worker `w`'s queue (FIFO against other
  /// submissions) and wakes only that worker.  Any thread.  After the
  /// scheduler started shutting down the task is dropped.
  void submit_to(int w, Task t);

  /// Index of the calling thread within THIS scheduler, or -1.
  [[nodiscard]] int current_worker_index() const;

  [[nodiscard]] Stats stats() const {
    Stats s;
    s.executed = executed_.load(std::memory_order_relaxed);
    s.stolen = stolen_.load(std::memory_order_relaxed);
    s.wakeups = wakeups_.load(std::memory_order_relaxed);
    s.steal_failures = steal_failures_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct Worker {
    std::mutex mu;
    std::deque<Task> queue;               // guarded by mu
    std::atomic<std::size_t> size{0};     // queue.size() mirror for probes
    alignas(64) std::atomic<std::uint32_t> wake{0};  // per-worker eventcount
    std::atomic<bool> sleeping{false};
    std::atomic<bool> running{false};  ///< inside a task (the steal gate)
    int index = 0;  ///< slot index (set before the thread spawns; immutable)
    std::thread thread;
  };

  void worker_loop(int w);
  /// Takes one task off `w`: the owner takes the front; a thief takes the
  /// back, and only while `w` is inside a task.  Empty when there is
  /// nothing to take.
  Task take(Worker& w, bool thief);
  void run(Task& t);
  /// One sweep over the other workers' queues.
  Task try_steal(int self);
  void wake_worker(Worker& w);
  /// If anyone is parked, wake one sleeper so freshly stealable work (a
  /// submission to a busy worker, the surplus behind a popped task) is not
  /// serialised on its owner.
  void maybe_wake_sleeper();
  [[nodiscard]] bool any_work_visible(const Worker& me) const;

  std::vector<std::unique_ptr<Worker>> workers_;  ///< fixed at construction
  std::atomic<bool> stop_{false};
  std::atomic<int> sleepers_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> stolen_{0};
  std::atomic<std::uint64_t> wakeups_{0};
  std::atomic<std::uint64_t> steal_failures_{0};
};

}  // namespace twiddc::common
