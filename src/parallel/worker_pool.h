// WorkerPool: N threads, each draining its own BoundedQueue through one
// handler -- the thread + queue primitive behind the sharded engine (a
// worker per shard) and the tenant fleet (tenants hashed onto workers).
// The caller picks the worker; items on one worker are handled in
// submission order. The pool owns in-flight accounting, Drain, shutdown
// and supervised restart; docs/parallel.md, "Worker pool", has the
// contract. Submit/Drain come from one coordinator thread at a time.

#ifndef UMICRO_PARALLEL_WORKER_POOL_H_
#define UMICRO_PARALLEL_WORKER_POOL_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "parallel/bounded_queue.h"
#include "util/check.h"
#include "util/failpoints.h"

namespace umicro::parallel {

/// Worker supervision (resilience pillar 4): a supervisor thread restarts
/// a worker killed by the "parallel.worker<i>.death" /
/// "parallel.worker.death" failpoints (the code has no exceptions), so a
/// dead worker can no longer wedge Drain() forever.
struct SupervisorOptions {
  /// Master switch; off means no extra thread.
  bool enabled = false;
  /// Liveness poll interval.
  std::size_t poll_millis = 20;
};

/// Configuration of one pool.
struct WorkerPoolOptions {
  /// Worker threads, one queue each (>= 1).
  std::size_t workers = 1;
  /// Per-worker queue capacity in items (>= 1).
  std::size_t queue_capacity = 1024;
  /// Reaction to a full worker queue.
  BackpressurePolicy policy = BackpressurePolicy::kBlock;
  /// Worker liveness supervision (off by default).
  SupervisorOptions supervisor{};
  /// Incremented per supervised restart ("parallel.worker_restarts" in
  /// the sharded engine); may be null.
  obs::Counter* restarts_metric = nullptr;
};

/// Fixed set of workers over per-worker bounded queues.
template <typename Item>
class WorkerPool {
 public:
  /// Handles one item on worker `worker`; may leave it moved-from.
  using Handler = std::function<void(std::size_t worker, Item& item)>;

  /// Starts the workers (and the supervisor when enabled).
  WorkerPool(const WorkerPoolOptions& options, Handler handler)
      : options_(options), handler_(std::move(handler)) {
    UMICRO_CHECK(options_.workers >= 1);
    workers_.reserve(options_.workers);
    for (std::size_t i = 0; i < options_.workers; ++i) {
      workers_.push_back(std::make_unique<Worker>(options_.queue_capacity,
                                                  options_.policy));
    }
    for (std::size_t i = 0; i < workers_.size(); ++i) Start(i);
    if (options_.supervisor.enabled) {
      supervisor_ = std::thread([this] { Supervise(); });
    }
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Stops the supervisor (so it restarts nothing during the joins),
  /// closes every queue, lets the workers handle what is still queued,
  /// and joins them.
  ~WorkerPool() {
    stop_supervisor_.store(true, std::memory_order_release);
    if (supervisor_.joinable()) supervisor_.join();
    for (auto& worker : workers_) worker->queue.Close();
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      Worker& worker = *workers_[i];
      worker.thread.join();
      // A worker that died unsupervised left its orphan and queue behind.
      HandleOrphan(i);
      while (worker.queue.TryPop(&worker.current)) Handle(i, worker.current);
    }
  }

  /// Enqueues `item` on worker `worker`; false when it was rejected
  /// (kDropNewest overflow or a closed queue). An item evicted under
  /// kDropOldest is moved into `*displaced` when non-null. Rejected and
  /// displaced items are never handled and never hold up Drain().
  bool Submit(std::size_t worker, Item item,
              std::optional<Item>* displaced = nullptr) {
    std::optional<Item> evicted;
    if (displaced == nullptr) displaced = &evicted;
    // Count first: the worker may handle the item before Push returns.
    in_flight_.fetch_add(1, std::memory_order_acq_rel);
    const bool accepted =
        workers_[worker]->queue.Push(std::move(item), displaced);
    if (!accepted || displaced->has_value()) Retire();
    return accepted;
  }

  /// Blocks until every accepted item has been handled.
  void Drain() {
    std::unique_lock<std::mutex> lock(drained_mu_);
    drained_cv_.wait(lock, [this] {
      return in_flight_.load(std::memory_order_acquire) == 0;
    });
  }

  std::size_t size() const { return workers_.size(); }

  /// Worker `worker`'s queue (attach metric hooks before any Submit).
  BoundedQueue<Item>& queue(std::size_t worker) {
    return workers_[worker]->queue;
  }

 private:
  struct Worker {
    Worker(std::size_t capacity, BackpressurePolicy policy)
        : queue(capacity, policy) {}
    BoundedQueue<Item> queue;
    /// The popped item being handled. Written by the worker; read by
    /// another thread only after joining it (join orders the accesses).
    Item current{};
    /// Set by a worker that died holding `current` unhandled.
    std::atomic<bool> died{false};
    std::thread thread;
  };

  void Start(std::size_t index) {  // (re)spawns worker `index`
    workers_[index]->thread = std::thread([this, index] { Run(index); });
  }

  void Run(std::size_t index) {
    Worker& worker = *workers_[index];
    const std::string death_name =
        "parallel.worker" + std::to_string(index) + ".death";
    while (worker.queue.Pop(&worker.current)) {
      if (UMICRO_FAILPOINT(death_name) ||
          UMICRO_FAILPOINT("parallel.worker.death")) {
        // Simulated death: the popped item stays unhandled and counted in
        // flight, exactly the state a real crash would leave.
        worker.died.store(true, std::memory_order_release);
        return;
      }
      if (util::FailpointRegistry::Instance().AnyArmed()) {
        const std::size_t stall = util::FailpointRegistry::Instance()
                                      .StallMillis("parallel.worker.stall");
        if (stall > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(stall));
        }
      }
      Handle(index, worker.current);
    }
  }

  /// Runs the handler and retires the item's in-flight count.
  void Handle(std::size_t index, Item& item) {
    handler_(index, item);
    Retire();
  }

  void Retire() {
    if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(drained_mu_);
      drained_cv_.notify_all();
    }
  }

  /// Handles the item a dead, already joined worker left behind.
  void HandleOrphan(std::size_t index) {
    Worker& worker = *workers_[index];
    if (!worker.died.exchange(false, std::memory_order_acq_rel)) return;
    Handle(index, worker.current);
  }

  void Supervise() {
    const auto poll = std::chrono::milliseconds(
        std::max<std::size_t>(1, options_.supervisor.poll_millis));
    while (!stop_supervisor_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(poll);
      for (std::size_t i = 0; i < workers_.size(); ++i) {
        if (stop_supervisor_.load(std::memory_order_acquire)) return;
        if (workers_[i]->died.load(std::memory_order_acquire)) Restart(i);
      }
    }
  }

  /// Joins a dead worker and handles its orphan BEFORE spawning the
  /// replacement: the orphan was popped before everything still queued,
  /// so order holds, and re-enqueueing it could deadlock (a full queue
  /// and a replacement that dies at once leave a kBlock Push with no
  /// consumer).
  void Restart(std::size_t index) {
    workers_[index]->thread.join();
    if (options_.restarts_metric != nullptr) {
      options_.restarts_metric->Increment();
    }
    HandleOrphan(index);
    Start(index);
  }

  const WorkerPoolOptions options_;
  const Handler handler_;
  std::vector<std::unique_ptr<Worker>> workers_;

  /// Accepted, not yet handled items (all workers).
  std::atomic<std::size_t> in_flight_{0};
  std::mutex drained_mu_;
  std::condition_variable drained_cv_;

  std::atomic<bool> stop_supervisor_{false};
  std::thread supervisor_;
};

}  // namespace umicro::parallel

#endif  // UMICRO_PARALLEL_WORKER_POOL_H_
