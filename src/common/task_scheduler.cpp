#include "src/common/task_scheduler.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/trace.hpp"

namespace twiddc::common {
namespace {

constexpr trace::Category kTraceCat = trace::Category::kSched;

// Worker identity for current_worker_index().  Keyed by scheduler pointer
// so nested schedulers (a ChannelBank running inside a StreamEngine worker
// task) resolve to their own queues.
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

void TaskScheduler::submit_to(int w, Task t) {
  if (stop_.load(std::memory_order_acquire)) return;  // shutting down: drop
  auto& target = *workers_[static_cast<std::size_t>(w) % workers_.size()];
  {
    std::lock_guard<std::mutex> lock(target.mu);
    target.queue.push_back(std::move(t));
    // seq_cst publish so a parking worker's size probe orders against the
    // sleeping-flag handshake.
    target.size.store(target.queue.size(), std::memory_order_seq_cst);
  }
  wake_worker(target);  // targeted: nobody else is disturbed...
  // ...unless the target is stuck inside a task, in which case the new
  // entry is stealable and a parked sibling may as well come get it.
  if (target.running.load(std::memory_order_seq_cst)) maybe_wake_sleeper();
}

int TaskScheduler::current_worker_index() const {
  return tls_scheduler == this ? tls_worker : -1;
}

// --------------------------------------------------------------- workers

TaskScheduler::Task TaskScheduler::take(Worker& w, bool thief) {
  if (w.size.load(std::memory_order_seq_cst) == 0) return {};
  std::lock_guard<std::mutex> lock(w.mu);
  if (w.queue.empty()) return {};
  if (thief && !w.running.load(std::memory_order_seq_cst)) return {};
  Task t;
  if (thief) {
    t = std::move(w.queue.back());
    w.queue.pop_back();
  } else {
    t = std::move(w.queue.front());
    w.queue.pop_front();
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
}

TaskScheduler::Task TaskScheduler::try_steal(int self) {
  const std::size_t n = workers_.size();
  // Start past self so concurrent thieves spread out.
  for (std::size_t k = 1; k < n; ++k) {
    const std::size_t v = (static_cast<std::size_t>(self) + k) % n;
    // A quiet victim's queue is left to its (already woken) owner, which
    // keeps targeted submission to a quiet worker deterministic.
    if (Task t = take(*workers_[v], /*thief=*/true)) {
      stolen_.fetch_add(1, std::memory_order_relaxed);
      if (trace::enabled(kTraceCat)) {
        // arg0 = victim, arg1 = thief.
        static const std::uint16_t kName = trace::intern("steal");
        trace::emit(kTraceCat, kName, trace::Phase::kInstant, v,
                    static_cast<std::uint64_t>(self));
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
    Task t = take(me, /*thief=*/false);
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

}  // namespace twiddc::common
