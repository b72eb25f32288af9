// TaskScheduler: per-worker run queues, targeted submission, work stealing
// off a busy worker's queue, batch-cyclic fairness for re-queued actors, and
// Group completion handles (blocking wait + exception propagation).  Runs
// under TSan in CI alongside the stream suite.
#include "src/common/task_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>


namespace twiddc::common {
namespace {

TEST(TaskScheduler, RunsEverySubmittedTask) {
  TaskScheduler sched(3);
  TaskScheduler::Group group;
  std::atomic<int> ran{0};
  constexpr int kTasks = 200;
  group.expect(kTasks);
  for (int i = 0; i < kTasks; ++i)
    sched.submit_to(i, [&ran, group] {  // tasks hold the group BY VALUE (API rule)
      ran.fetch_add(1, std::memory_order_relaxed);
      group.complete();
    });
  group.wait();
  group.rethrow_if_error();
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_GE(sched.stats().executed, static_cast<std::uint64_t>(kTasks));
}

TEST(TaskScheduler, TargetedSubmissionRunsOnTheTargetWorker) {
  TaskScheduler sched(4);
  for (int w = 0; w < 4; ++w) {
    TaskScheduler::Group group;
    group.expect(1);
    int seen = -1;
    sched.submit_to(w, [&seen, &sched, group] {
      seen = sched.current_worker_index();
      group.complete();
    });
    // No competing work anywhere, and a quiet worker's queue is left to its
    // owner, so nothing can steal the task before its home worker wakes.
    group.wait();
    EXPECT_EQ(seen, w);
  }
  EXPECT_EQ(sched.current_worker_index(), -1);  // this thread is no worker
}

TEST(TaskScheduler, IdleWorkerStealsFromABusyWorkersQueue) {
  TaskScheduler sched(2);
  TaskScheduler::Group group;
  std::atomic<int> done{0};
  constexpr int kChained = 6;
  group.expect(1);
  // The worker that claims this task parks inside it after pushing chained
  // work onto its OWN queue; only another worker can run those, and only
  // by stealing them.
  sched.submit_to(0, [&sched, &done, group] {
    for (int i = 0; i < kChained; ++i)
      sched.submit_to(sched.current_worker_index(),
                      [&done] { done.fetch_add(1, std::memory_order_relaxed); });
    while (done.load(std::memory_order_relaxed) < kChained)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    group.complete();
  });
  group.wait();
  group.rethrow_if_error();
  EXPECT_EQ(done.load(), kChained);
  EXPECT_GE(sched.stats().stolen, static_cast<std::uint64_t>(kChained));
}

TEST(TaskScheduler, QueuedSubmissionsBehindABlockedWorkerAreStolen) {
  TaskScheduler sched(2);
  std::atomic<int> blocker_on{-1};
  std::atomic<bool> release{false};
  // Worker 0 is quiet, so the targeted blocker runs there and parks inside.
  sched.submit_to(0, [&sched, &blocker_on, &release] {
    blocker_on.store(sched.current_worker_index(), std::memory_order_release);
    while (!release.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (blocker_on.load(std::memory_order_acquire) < 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(blocker_on.load(), 0);

  // Queued behind the blocker, these can only run if worker 1 steals them.
  constexpr int kQueued = 4;
  TaskScheduler::Group group;
  group.expect(kQueued);
  std::mutex mu;
  std::vector<int> ran_on;  // guarded by mu
  for (int i = 0; i < kQueued; ++i)
    sched.submit_to(0, [&sched, &mu, &ran_on, group] {
      {
        std::lock_guard<std::mutex> lock(mu);
        ran_on.push_back(sched.current_worker_index());
      }
      group.complete();
    });
  group.wait();
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(ran_on, std::vector<int>(kQueued, 1));
  }
  EXPECT_GE(sched.stats().stolen, static_cast<std::uint64_t>(kQueued));
  release.store(true, std::memory_order_release);
}

TEST(TaskScheduler, YieldingActorsAlternateBatchCyclically) {
  // Two cooperative actors on ONE worker, each re-queueing itself on its
  // own worker between slices (the stream engine's yield): the batch-cyclic
  // queue discipline must interleave them instead of letting the
  // re-submitted actor monopolise the queue.
  TaskScheduler sched(1);
  TaskScheduler::Group group;
  std::mutex mu;
  std::vector<char> order;  // guarded by mu
  group.expect(2);
  constexpr int kSlices = 6;
  struct Actor {
    TaskScheduler* sched;
    TaskScheduler::Group group;  // by value: keeps the shared state alive
    std::mutex* mu;
    std::vector<char>* order;
    char name;
    int left = kSlices;
    void run() {
      {
        std::lock_guard<std::mutex> lock(*mu);
        order->push_back(name);
      }
      if (--left == 0) {
        group.complete();
        return;
      }
      sched->submit_to(sched->current_worker_index(),
                       [self = *this]() mutable { self.run(); });
    }
  };
  // A starter task enrolls both actors from inside the worker, so they
  // land in one batch deterministically (no startup race where the
  // worker drains one before the other is submitted).
  sched.submit_to(0, [&sched, &mu, &order, group] {
    sched.submit_to(0, [&sched, &mu, &order, group] {
      Actor{&sched, group, &mu, &order, 'a'}.run();
    });
    sched.submit_to(0, [&sched, &mu, &order, group] {
      Actor{&sched, group, &mu, &order, 'b'}.run();
    });
  });
  group.wait();
  group.rethrow_if_error();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(2 * kSlices));
  // Once both actors are live, no actor may run more than twice in a row
  // (twice covers the startup batch that held only one of them).
  int longest_run = 1;
  int current = 1;
  for (std::size_t i = 1; i < order.size(); ++i) {
    current = order[i] == order[i - 1] ? current + 1 : 1;
    longest_run = std::max(longest_run, current);
  }
  EXPECT_LE(longest_run, 2) << std::string(order.begin(), order.end());
}

TEST(TaskScheduler, GroupPropagatesTheFirstException) {
  TaskScheduler sched(2);
  TaskScheduler::Group group;
  group.expect(3);
  sched.submit_to(0, [group] { group.complete(); });
  sched.submit_to(1, [group] {
    group.fail(std::make_exception_ptr(std::runtime_error("tile exploded")));
  });
  sched.submit_to(0, [group] { group.complete(); });
  group.wait();
  EXPECT_THROW(group.rethrow_if_error(), std::runtime_error);
  // A second rethrow is a no-op: the error was consumed.
  group.rethrow_if_error();
}

TEST(TaskScheduler, GroupWaitWakesOnAForeignThreadsCompletion) {
  // Completion needs no scheduler: a plain thread's final complete()
  // releases a parked waiter.
  TaskScheduler::Group group;
  group.expect(2);
  std::thread a([group] { group.complete(); });
  std::thread b([group] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    group.complete();
  });
  group.wait();
  EXPECT_TRUE(group.done());
  a.join();
  b.join();
}

TEST(TaskScheduler, ManyProducersManyTasksUnderChurn) {
  // Stress: 4 client threads firehose targeted tasks at a 3-worker
  // scheduler (TSan coverage for the queues, steal, sleep).
  // Targets span [0, 7): submit_to routes modulo workers(), so targets at
  // or past the worker count must still land on a live worker.
  TaskScheduler sched(3);
  TaskScheduler::Group group;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  constexpr int kTargets = 7;
  std::atomic<int> ran{0};
  std::vector<std::atomic<int>> runs(kProducers * kPerProducer);
  group.expect(kProducers * kPerProducer);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        std::atomic<int>& slot =
            runs[static_cast<std::size_t>(p * kPerProducer + i)];
        auto task = [&ran, &slot, group] {
          ran.fetch_add(1, std::memory_order_relaxed);
          slot.fetch_add(1, std::memory_order_relaxed);
          group.complete();
        };
        sched.submit_to((p + i) % kTargets, task);
      }
    });
  }
  for (auto& t : producers) t.join();
  group.wait();
  group.rethrow_if_error();
  EXPECT_EQ(ran.load(), kProducers * kPerProducer);
  for (std::size_t k = 0; k < runs.size(); ++k)
    ASSERT_EQ(runs[k].load(), 1) << "task " << k;
}

TEST(TaskScheduler, OptionsClampBoundsAndCompatCtorIsFixedSize) {
  // The worker count is the one constructor argument, clamped to >= 1.
  TaskScheduler fixed(3);
  EXPECT_EQ(fixed.workers(), 3);
  TaskScheduler floored(0);
  EXPECT_EQ(floored.workers(), 1);
  TaskScheduler negative(-3);
  EXPECT_EQ(negative.workers(), 1);
}

TEST(TaskScheduler, WorkerSnapshotCoversEverySlot) {
  TaskScheduler sched(4);
  const auto snap = sched.worker_snapshot();
  ASSERT_EQ(snap.size(), 4u);
  // Nothing was submitted: every queue is empty.
  for (const auto& w : snap) EXPECT_EQ(w.queue_depth, 0u);
  // Workers park once they find no work.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  auto parked = [&sched] {
    const auto s = sched.worker_snapshot();
    return std::all_of(s.begin(), s.end(),
                       [](const TaskScheduler::WorkerSnapshot& w) { return w.sleeping; });
  };
  while (!parked() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(parked());
}

}  // namespace
}  // namespace twiddc::common
