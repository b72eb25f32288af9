// twiddc::common -- work-stealing task scheduler.
//
// The conservative-asynchronous decomposition: per-element work items with
// local handshakes, no global barrier and no global wakeup.
//
//   * one run queue per worker: a mutexed std::deque plus an atomic size
//     mirror for the lock-free park and steal probes.  submit_to, submit
//     and yield push at the back, submit_local at the front, and the owner
//     pops from the front.  A queue operation moves one task per session
//     pass or cache tile, nowhere near the sample hot path, so a lock per
//     operation costs nothing measurable;
//   * targeted wakeups: one eventcount per worker; submit_to(w, task) bumps
//     only worker w -- nobody else leaves their futex;
//   * work stealing: a worker that runs dry takes from the back of a
//     sibling's queue while that sibling is inside a task, so work queued
//     behind a grinding worker (one heavy channel, one hot session)
//     rebalances instead of stalling a static shard.  A quiet worker's
//     queue is left to its owner, so a targeted task on a quiet worker
//     runs there;
//   * batch-cyclic fairness: yield() re-queues at the back and the owner
//     pops from the front, so every task queued in batch k runs before
//     anything a batch-k task re-submitted -- N actors on one worker each
//     make bounded progress per cycle.
//
// Two clients, two idioms:
//   core::ChannelBank   fork-join: submit one chained tile task per channel
//                       with a Group, then wait(group) -- the caller takes
//                       queued tasks and executes alongside the workers;
//   stream::StreamEngine actors: each session is scheduled as a task on its
//                       home worker; a stolen task migrates the session.
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

  /// Fork-join completion tracker.  expect() the task count, have each task
  /// call complete() (or fail() with its exception) exactly once, then
  /// wait() on the owning scheduler.  The first recorded exception is
  /// rethrown by rethrow_if_error().
  ///
  /// A Group is a copyable HANDLE over shared state: tasks must capture
  /// their Group BY VALUE, so the state outlives a waiter that saw done()
  /// and unwound while the final completer is still inside complete() --
  /// the value capture, not the caller's handle, keeps it alive.
  class Group {
   public:
    Group() : state_(std::make_shared<State>()) {}

    void expect(std::size_t n) const {
      state_->pending.fetch_add(n, std::memory_order_seq_cst);
    }
    void complete() const {
      // seq_cst so a wait()er whose park/recheck handshake runs on the
      // scheduler's seq_cst activity counter cannot miss the final
      // decrement.  Completions are assumed to happen inside this
      // scheduler's tasks (every internal client does); a completion from
      // a foreign thread must be followed by a submit, or wait() may not
      // notice it until other activity occurs.
      state_->pending.fetch_sub(1, std::memory_order_seq_cst);
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
    void rethrow_if_error() const {
      std::lock_guard<std::mutex> lock(state_->err_mu);
      if (state_->error) {
        std::exception_ptr e = std::move(state_->error);
        state_->error = nullptr;
        std::rethrow_exception(e);
      }
    }

   private:
    friend class TaskScheduler;
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
  /// guarantee covers worker-originated submissions (chains, yields),
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

  /// submit_to with a rotating target -- distributes unpinned work.
  void submit(Task t);

  /// Pushes `t` at the front of the calling worker's own queue: it runs
  /// next on this worker (LIFO, cache-hot) unless a thief takes it first.
  /// The continuation idiom for chained tasks.  Falls back to submit() when
  /// the caller is not one of this scheduler's workers.
  void submit_local(Task t);

  /// Re-queues `t` behind every task currently runnable on this worker:
  /// the yield idiom for cooperative actors that exhausted their fairness
  /// quantum.  Falls back to submit() off-worker.
  void yield(Task t);

  /// Index of the calling thread within THIS scheduler, or -1.
  [[nodiscard]] int current_worker_index() const;

  /// Blocks until group.done(), taking and executing queued tasks from any
  /// worker's queue while it waits (the fork-join caller works too).  Does
  /// not rethrow -- call group.rethrow_if_error() after.
  void wait(const Group& group);

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
  /// Queues `t` on `w` (front or back) and publishes it to waiters.
  void push(Worker& w, Task t, bool front);
  /// Takes one task off `w`: its front for the owner, its back for a thief.
  /// `gated` thieves take only while `w` is inside a task.  Empty when
  /// there is nothing to take.
  Task take(Worker& w, bool front, bool gated);
  void run(Task& t);
  /// Wakes parked external wait()ers (if any): called whenever work is
  /// published and after every task retires -- a group completion happens
  /// inside its task, so this doubles as the completion signal.
  void note_activity();
  /// One sweep over the other workers' queues.  `self` may be -1 (an
  /// external fork-join waiter, which may take from any queue).
  Task try_steal(int self);
  void wake_worker(Worker& w);
  /// If anyone is parked, wake one sleeper so freshly stealable work (a
  /// chain push, the surplus behind a popped task) is not serialised on
  /// its owner.
  void maybe_wake_sleeper();
  [[nodiscard]] bool any_work_visible(const Worker& me) const;

  std::vector<std::unique_ptr<Worker>> workers_;  ///< fixed at construction
  std::atomic<std::uint32_t> round_robin_{0};
  std::atomic<bool> stop_{false};
  std::atomic<int> sleepers_{0};
  /// Eventcount external fork-join waiters park on; bumped by
  /// note_activity() only while ext_waiters_ says someone is parked, so a
  /// waiter sleeping through freshly queued work (which the per-worker
  /// wakeups cannot reach) is impossible.
  std::atomic<std::uint32_t> activity_{0};
  std::atomic<int> ext_waiters_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> stolen_{0};
  std::atomic<std::uint64_t> wakeups_{0};
  std::atomic<std::uint64_t> steal_failures_{0};
};

}  // namespace twiddc::common
