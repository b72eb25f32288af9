#include "src/common/task_scheduler.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/trace.hpp"

namespace twiddc::common {
namespace {

constexpr trace::Category kTraceCat = trace::Category::kSched;

// Worker identity for submit_local()/yield()/current_worker_index().  Keyed
// by scheduler pointer so nested schedulers (a ChannelBank running inside a
// StreamEngine worker task) resolve to their own queues.
thread_local TaskScheduler* tls_scheduler = nullptr;
thread_local int tls_worker = -1;

}  // namespace

// -------------------------------------------------------------- lifecycle

TaskScheduler::TaskScheduler(int threads) {
  const int n = std::max(1, threads);
  // Every slot exists before any thread does: a worker's steal sweep reads
  // the whole vector.
  workers_.reserve(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->index = w;
  }
  for (int w = 0; w < n; ++w)
    workers_[static_cast<std::size_t>(w)]->thread =
        std::thread([this, w] { worker_loop(w); });
}

std::vector<TaskScheduler::WorkerSnapshot> TaskScheduler::worker_snapshot()
    const {
  std::vector<WorkerSnapshot> out;
  out.reserve(workers_.size());
  for (const auto& w : workers_)
    out.push_back({w->size.load(std::memory_order_relaxed),
                   w->sleeping.load(std::memory_order_relaxed)});
  return out;
}

void TaskScheduler::shutdown() {
  stop_.store(true, std::memory_order_seq_cst);
  for (auto& w : workers_) wake_worker(*w);
  for (auto& w : workers_)
    if (w->thread.joinable()) w->thread.join();
}

// Unrun tasks (submitted after their worker's final drain) are destroyed
// with the queues.
TaskScheduler::~TaskScheduler() { shutdown(); }

// ------------------------------------------------------------- submission

void TaskScheduler::push(Worker& w, Task t, bool front) {
  {
    std::lock_guard<std::mutex> lock(w.mu);
    if (front)
      w.queue.push_front(std::move(t));
    else
      w.queue.push_back(std::move(t));
    // seq_cst publish so a parking worker's size probe orders against the
    // sleeping-flag handshake.
    w.size.store(w.queue.size(), std::memory_order_seq_cst);
  }
  note_activity();
}

void TaskScheduler::submit_to(int w, Task t) {
  if (stop_.load(std::memory_order_acquire)) return;  // shutting down: drop
  auto& target = *workers_[static_cast<std::size_t>(w) % workers_.size()];
  push(target, std::move(t), /*front=*/false);
  wake_worker(target);  // targeted: nobody else is disturbed...
  // ...unless the target is stuck inside a task, in which case the new
  // entry is stealable and a parked sibling may as well come get it.
  if (target.running.load(std::memory_order_seq_cst)) maybe_wake_sleeper();
}

void TaskScheduler::submit(Task t) {
  submit_to(static_cast<int>(round_robin_.fetch_add(
                1, std::memory_order_relaxed)),
            std::move(t));
}

void TaskScheduler::submit_local(Task t) {
  if (stop_.load(std::memory_order_acquire)) return;  // shutting down: drop
  const int w = current_worker_index();
  if (w < 0) {
    submit(std::move(t));
    return;
  }
  // The caller is inside a task, so this entry is stealable at once.
  push(*workers_[static_cast<std::size_t>(w)], std::move(t), /*front=*/true);
  maybe_wake_sleeper();
}

void TaskScheduler::yield(Task t) {
  const int w = current_worker_index();
  if (w < 0) {
    submit(std::move(t));
    return;
  }
  submit_to(w, std::move(t));
}

int TaskScheduler::current_worker_index() const {
  return tls_scheduler == this ? tls_worker : -1;
}

// --------------------------------------------------------------- workers

TaskScheduler::Task TaskScheduler::take(Worker& w, bool front, bool gated) {
  if (w.size.load(std::memory_order_seq_cst) == 0) return {};
  std::lock_guard<std::mutex> lock(w.mu);
  if (w.queue.empty()) return {};
  if (gated && !w.running.load(std::memory_order_seq_cst)) return {};
  Task t;
  if (front) {
    t = std::move(w.queue.front());
    w.queue.pop_front();
  } else {
    t = std::move(w.queue.back());
    w.queue.pop_back();
  }
  w.size.store(w.queue.size(), std::memory_order_seq_cst);
  return t;
}

void TaskScheduler::run(Task& t) {
  executed_.fetch_add(1, std::memory_order_relaxed);
  // Tasks own their error handling (Group::fail; the stream engine turns
  // a failed pass into a typed session fault); an escape here would
  // otherwise take the whole process down via the noexcept thread
  // trampoline.
  try {
    t();
  } catch (...) {
  }
  t = nullptr;
  // After, not during: a completion this task performed is now visible, so
  // a parked external waiter re-checks done() (and the queues) right away.
  note_activity();
}

TaskScheduler::Task TaskScheduler::try_steal(int self) {
  const std::size_t n = workers_.size();
  // Rotate the first victim so concurrent thieves spread out.
  const std::size_t start =
      self >= 0 ? static_cast<std::size_t>(self) + 1
                : round_robin_.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t v = (start + k) % n;
    if (static_cast<int>(v) == self) continue;
    // A worker thief leaves a quiet victim's queue to its (already woken)
    // owner, which keeps targeted submission to a quiet worker
    // deterministic.  The fork-join caller published its work before
    // wait() and takes whatever it finds.
    if (Task t = take(*workers_[v], /*front=*/false, /*gated=*/self >= 0)) {
      stolen_.fetch_add(1, std::memory_order_relaxed);
      if (trace::enabled(kTraceCat)) {
        // arg0 = victim, arg1 = thief + 1 (0 = external fork-join waiter).
        static const std::uint16_t kName = trace::intern("steal");
        trace::emit(kTraceCat, kName, trace::Phase::kInstant, v,
                    static_cast<std::uint64_t>(self + 1));
      }
      return t;
    }
  }
  steal_failures_.fetch_add(1, std::memory_order_relaxed);
  return {};
}

void TaskScheduler::wake_worker(Worker& w) {
  wakeups_.fetch_add(1, std::memory_order_relaxed);
  if (trace::enabled(kTraceCat)) {
    static const std::uint16_t kName = trace::intern("wakeup");
    trace::emit(kTraceCat, kName, trace::Phase::kInstant,
                static_cast<std::uint64_t>(w.index), 0);
  }
  w.wake.fetch_add(1, std::memory_order_seq_cst);
  w.wake.notify_all();
}

void TaskScheduler::maybe_wake_sleeper() {
  if (sleepers_.load(std::memory_order_seq_cst) == 0) return;
  for (auto& w : workers_) {
    if (w->sleeping.load(std::memory_order_seq_cst)) {
      wake_worker(*w);
      return;
    }
  }
}

void TaskScheduler::note_activity() {
  // Publish/park handshake mirrors the worker Dekker: the waiter registers
  // in ext_waiters_ (seq_cst) before its steal sweep, so a producer either
  // sees the registration here and bumps, or its work is visible to that
  // sweep.  No registered waiter, no futex syscall.
  if (ext_waiters_.load(std::memory_order_seq_cst) == 0) return;
  activity_.fetch_add(1, std::memory_order_seq_cst);
  activity_.notify_all();
}

bool TaskScheduler::any_work_visible(const Worker& me) const {
  if (me.size.load(std::memory_order_seq_cst) != 0) return true;
  // What this worker could steal: running is read before size, and a
  // victim stores its size before raising running, so a victim seen
  // running shows the surplus its pop left behind.
  for (const auto& w : workers_)
    if (w->running.load(std::memory_order_seq_cst) &&
        w->size.load(std::memory_order_seq_cst) != 0)
      return true;
  return false;
}

void TaskScheduler::worker_loop(int w) {
  tls_scheduler = this;
  tls_worker = w;
  trace::set_thread_name("worker" + std::to_string(w));
  Worker& me = *workers_[static_cast<std::size_t>(w)];
  for (;;) {
    Task t = take(me, /*front=*/true, /*gated=*/false);
    if (!t) t = try_steal(w);
    if (t) {
      // Raised only after the pop, so a targeted task on a quiet worker is
      // never stolen; while it is up, whatever is left in this queue is
      // stealable, and a sleeper is woken to come get it.
      me.running.store(true, std::memory_order_seq_cst);
      if (me.size.load(std::memory_order_seq_cst) != 0) maybe_wake_sleeper();
      run(t);
      me.running.store(false, std::memory_order_seq_cst);
      continue;
    }
    // Park on the private eventcount.  Token first, then the sleeping flag,
    // then one full recheck: a producer either sees sleeping == true (and
    // bumps our wake) or its push is visible to the recheck -- both sides
    // use seq_cst, so the Dekker handshake cannot lose the task.
    const std::uint32_t token = me.wake.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_acquire)) return;
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    me.sleeping.store(true, std::memory_order_seq_cst);
    if (!any_work_visible(me) && !stop_.load(std::memory_order_acquire))
      me.wake.wait(token, std::memory_order_acquire);
    me.sleeping.store(false, std::memory_order_seq_cst);
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  }
}

// ------------------------------------------------------------- fork-join

void TaskScheduler::wait(const Group& group) {
  ext_waiters_.fetch_add(1, std::memory_order_seq_cst);
  while (!group.done()) {
    const std::uint32_t token = activity_.load(std::memory_order_seq_cst);
    if (Task t = try_steal(-1)) {
      run(t);
      continue;
    }
    if (group.done()) break;
    // Parked on the scheduler-wide activity eventcount, not the group:
    // freshly queued work (a chain link, a new submission) must wake this
    // thread too, or the fork-join caller contributes nothing until a
    // whole chain completes.  Any publish or task retirement between the
    // token read and here bumps it, so the wait returns immediately rather
    // than sleeping through the transition.
    activity_.wait(token, std::memory_order_seq_cst);
  }
  ext_waiters_.fetch_sub(1, std::memory_order_seq_cst);
}

}  // namespace twiddc::common
