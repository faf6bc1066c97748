// Tests for parallel::WorkerPool, the thread + queue primitive behind the
// sharded engine and the tenant fleet: in-flight accounting under both
// drop policies, per-worker FIFO order, supervised restart, and shutdown
// with work still queued. Queue semantics themselves are covered by
// parallel_queue_test.

#include "parallel/worker_pool.h"

#include <chrono>
#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "util/failpoints.h"

namespace umicro::parallel {
namespace {

/// Thread-safe log of (worker, item) pairs in handling order. Item 0 can
/// be made to block in the handler until Open() so later items queue up
/// behind it.
class Recorder {
 public:
  explicit Recorder(bool gate_first = false)
      : gate_first_(gate_first), gate_(open_.get_future().share()) {}

  void Handle(std::size_t worker, int item) {
    if (gate_first_ && item == 0) {
      started_.set_value();
      gate_.wait();
    }
    std::lock_guard<std::mutex> lock(mu_);
    log_.emplace_back(worker, item);
  }

  /// Waits until the handler holds item 0.
  void WaitStarted() { started_.get_future().wait(); }
  void Open() { open_.set_value(); }

  std::vector<std::pair<std::size_t, int>> log() const {
    std::lock_guard<std::mutex> lock(mu_);
    return log_;
  }

  /// Items handled on `worker`, in order.
  std::vector<int> On(std::size_t worker) const {
    std::vector<int> items;
    for (const auto& [w, item] : log()) {
      if (w == worker) items.push_back(item);
    }
    return items;
  }

 private:
  const bool gate_first_;
  std::promise<void> started_;
  std::promise<void> open_;
  std::shared_future<void> gate_;
  mutable std::mutex mu_;
  std::vector<std::pair<std::size_t, int>> log_;
};

WorkerPool<int>::Handler HandlerFor(Recorder& recorder) {
  return [&recorder](std::size_t worker, int& item) {
    recorder.Handle(worker, item);
  };
}

class WorkerPoolTest : public ::testing::Test {
 protected:
  void TearDown() override { util::FailpointRegistry::Instance().DisarmAll(); }
};

TEST_F(WorkerPoolTest, DrainReturnsAfterDropOldestDisplacement) {
  Recorder recorder(/*gate_first=*/true);
  WorkerPoolOptions options;
  options.queue_capacity = 2;
  options.policy = BackpressurePolicy::kDropOldest;
  WorkerPool<int> pool(options, HandlerFor(recorder));

  ASSERT_TRUE(pool.Submit(0, 0));
  recorder.WaitStarted();  // item 0 is out of the queue, in the handler
  std::optional<int> displaced;
  ASSERT_TRUE(pool.Submit(0, 1, &displaced));
  ASSERT_TRUE(pool.Submit(0, 2, &displaced));
  EXPECT_FALSE(displaced.has_value());
  ASSERT_TRUE(pool.Submit(0, 3, &displaced));
  ASSERT_EQ(displaced, std::optional<int>(1));
  ASSERT_TRUE(pool.Submit(0, 4));  // displaces 2, caller not told
  recorder.Open();
  pool.Drain();
  EXPECT_EQ(recorder.On(0), (std::vector<int>{0, 3, 4}));

  // The count neither leaked (Drain above returned) nor underflowed: a
  // fresh item is still waited for.
  ASSERT_TRUE(pool.Submit(0, 5));
  pool.Drain();
  EXPECT_EQ(recorder.On(0), (std::vector<int>{0, 3, 4, 5}));
}

TEST_F(WorkerPoolTest, DrainReturnsAfterDropNewestRejection) {
  Recorder recorder(/*gate_first=*/true);
  WorkerPoolOptions options;
  options.queue_capacity = 2;
  options.policy = BackpressurePolicy::kDropNewest;
  WorkerPool<int> pool(options, HandlerFor(recorder));

  ASSERT_TRUE(pool.Submit(0, 0));
  recorder.WaitStarted();
  ASSERT_TRUE(pool.Submit(0, 1));
  ASSERT_TRUE(pool.Submit(0, 2));
  std::optional<int> displaced;
  EXPECT_FALSE(pool.Submit(0, 3, &displaced));
  EXPECT_FALSE(displaced.has_value());
  EXPECT_FALSE(pool.Submit(0, 4));
  recorder.Open();
  pool.Drain();
  EXPECT_EQ(recorder.On(0), (std::vector<int>{0, 1, 2}));

  ASSERT_TRUE(pool.Submit(0, 5));
  pool.Drain();
  EXPECT_EQ(recorder.On(0), (std::vector<int>{0, 1, 2, 5}));
}

TEST_F(WorkerPoolTest, ItemsOnOneWorkerAreHandledInSubmissionOrder) {
  constexpr std::size_t kWorkers = 4;
  constexpr int kItems = 4000;
  Recorder recorder;
  WorkerPoolOptions options;
  options.workers = kWorkers;
  options.queue_capacity = 8;  // small: producers block, queues wrap
  WorkerPool<int> pool(options, HandlerFor(recorder));
  for (int i = 0; i < kItems; ++i) {
    ASSERT_TRUE(pool.Submit(static_cast<std::size_t>(i) % kWorkers, i));
  }
  pool.Drain();
  ASSERT_EQ(recorder.log().size(), static_cast<std::size_t>(kItems));
  for (std::size_t w = 0; w < kWorkers; ++w) {
    std::vector<int> expected;
    for (int i = static_cast<int>(w); i < kItems; i += kWorkers) {
      expected.push_back(i);
    }
    EXPECT_EQ(recorder.On(w), expected) << "worker " << w;
  }
}

TEST_F(WorkerPoolTest, SupervisorAppliesTheOrphanOnceAndFirst) {
  Recorder recorder;
  obs::Counter restarts_metric;
  WorkerPoolOptions options;
  options.workers = 2;
  options.queue_capacity = 4;
  options.supervisor.enabled = true;
  options.supervisor.poll_millis = 1;
  options.restarts_metric = &restarts_metric;
  WorkerPool<int> pool(options, HandlerFor(recorder));

  // Worker 0 dies on its first pop, holding item 0 unhandled; the rest
  // pile up behind it (the producer blocks on the full queue).
  util::FailpointRegistry::Instance().Arm("parallel.worker0.death",
                                          {.limit = 1});
  std::vector<int> expected;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(pool.Submit(0, i));
    expected.push_back(i);
  }
  // Drain can only return once the supervisor revived worker 0.
  pool.Drain();

  EXPECT_EQ(util::FailpointRegistry::Instance().TriggerCount(
                "parallel.worker0.death"),
            1u);
  EXPECT_EQ(restarts_metric.value(), 1u);
  // The orphan (item 0) was handled exactly once and before item 1.
  EXPECT_EQ(recorder.On(0), expected);
  EXPECT_TRUE(recorder.On(1).empty());
}

TEST_F(WorkerPoolTest, DestructionHandlesEveryQueuedItemOnceThenJoins) {
  Recorder recorder(/*gate_first=*/true);
  auto pool = std::make_unique<WorkerPool<int>>(
      [] {
        WorkerPoolOptions options;
        options.workers = 2;
        options.queue_capacity = 16;
        return options;
      }(),
      HandlerFor(recorder));
  // Worker 1 dies unsupervised on its first pop: its orphan and its
  // queue are left for the destructor.
  util::FailpointRegistry::Instance().Arm("parallel.worker1.death",
                                          {.limit = 1});
  ASSERT_TRUE(pool->Submit(0, 0));
  recorder.WaitStarted();
  for (int i = 1; i < 20; ++i) {
    ASSERT_TRUE(pool->Submit(static_cast<std::size_t>(i % 2), i));
  }
  EXPECT_GT(pool->queue(0).size(), 0u);

  // Open the gate only once the destructor is (very likely) waiting in
  // join with items still queued on worker 0.
  std::thread opener([&recorder] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    recorder.Open();
  });
  pool.reset();
  opener.join();

  std::vector<int> even;
  std::vector<int> odd;
  for (int i = 0; i < 20; ++i) (i % 2 == 0 ? even : odd).push_back(i);
  EXPECT_EQ(recorder.On(0), even);
  EXPECT_EQ(recorder.On(1), odd);
}

}  // namespace
}  // namespace umicro::parallel
