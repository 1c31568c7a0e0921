#ifndef AXMLX_RUNTIME_JOB_QUEUE_H_
#define AXMLX_RUNTIME_JOB_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "runtime/job.h"

namespace axmlx::obs {
class Histogram;
class MetricsRegistry;
}  // namespace axmlx::obs

namespace axmlx::runtime {

struct JobQueueOptions {
  /// 0 = deterministic mode: Drain() runs everything on the calling thread,
  /// with work stages in a seed-shuffled order (the differential oracle —
  /// varying the seed proves work stages are order-independent, exactly as
  /// query::naive is the oracle for the indexed evaluator). N >= 1 =
  /// parallel mode: N persistent worker threads run work stages
  /// concurrently.
  int workers = 0;

  /// Permutes deterministic-mode work order. Ignored in parallel mode,
  /// where the interleaving is scheduler-chosen — the point of the
  /// differential suite is that results never depend on it.
  uint64_t seed = 1;
};

/// Typed-priority worker pool under the deterministic simulator
/// (DESIGN.md §11).
///
/// Work is organized in *waves*: Drain() repeatedly takes everything
/// currently queued as one wave, runs every job's work stage against the
/// wave-start state (concurrently in parallel mode), then — after a barrier
/// — runs every apply stage serialized on the coordinator in canonical
/// (type priority, submission order) order. Jobs submitted during a wave's
/// apply stages form the next wave. Because both scheduling modes execute
/// the same waves with the same apply order, and work stages may only read
/// shared state, parallel mode is observationally identical to
/// deterministic mode: same documents, same commit/abort decisions
/// (tests/runtime_diff_test.cc holds this at 1/2/4/8 workers).
///
/// Threading contract: Submit() and Drain() are coordinator-only (the
/// calling thread, or apply stages running on it); work stages run on pool
/// threads and must not touch the queue. The only cross-thread state is the
/// wave hand-off protected by `mu_`.
class JobQueue {
 public:
  explicit JobQueue(JobQueueOptions options = {});
  ~JobQueue();

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Enqueues `job` for the next wave. Coordinator-only (callable from
  /// apply stages).
  void Submit(Job job);

  /// Runs waves until the queue is empty. Reentrant calls (from an apply
  /// stage) are no-ops: the outer drain already owns the loop.
  void Drain();

  /// True while Drain() is executing (apply stages observe true).
  [[nodiscard]] bool draining() const { return draining_; }

  [[nodiscard]] int workers() const { return options_.workers; }
  [[nodiscard]] uint64_t seed() const { return options_.seed; }
  [[nodiscard]] bool parallel() const { return options_.workers > 0; }

  /// Jobs currently queued (pending the next wave).
  [[nodiscard]] size_t pending() const { return pending_.size(); }

  struct Stats {
    int64_t submitted = 0;
    int64_t executed = 0;
    int64_t waves = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Publishes runtime.* counters, the runtime.workers gauge, and the
  /// per-type job.* gauges/histograms into `metrics` (not owned; null
  /// detaches). Coordinator-only, like every registry in this codebase.
  void AttachMetrics(obs::MetricsRegistry* metrics);

 private:
  /// A job plus its submission bookkeeping.
  struct Queued {
    Job job;
    int64_t seq = 0;      ///< Submission order (canonical tie-break).
    int64_t work_us = 0;  ///< Wall-clock work-stage duration.
  };

  /// Runs one wave: all work stages (mode-dependent order), barrier, all
  /// apply stages in canonical order.
  void RunWave(std::vector<Queued> wave);

  /// Parallel mode: hands `wave` to the pool and blocks until every work
  /// stage finished. Each entry's work_us lands in the wave.
  void RunWorkStagesParallel(std::vector<Queued>* wave);

  void WorkerLoop(int worker);

  // Everything except the wave hand-off block below is coordinator-only by
  // the threading contract (workers see only their wave slice and their own
  // eval slot), so GUARDED_BY(mu_) would overstate the discipline — the
  // per-member lint:allow(R9) markers record that deliberately.
  JobQueueOptions options_;                  // lint:allow(R9)
  obs::MetricsRegistry* metrics_ = nullptr;  // lint:allow(R9)

  // Cached metric handles (rebuilt by AttachMetrics).
  obs::Histogram* run_us_hist_[kJobTypeCount] = {};  // lint:allow(R9)

  std::vector<Queued> pending_;  // lint:allow(R9)
  int64_t next_seq_ = 0;         // lint:allow(R9)
  // Queued jobs per type (gauges). lint:allow(R9)
  int depth_[kJobTypeCount] = {};
  bool draining_ = false;  // lint:allow(R9)
  Stats stats_;            // lint:allow(R9)

  /// Per-worker EvalContext scratch; slot 0 doubles as the deterministic
  /// mode's single context. Workers only touch their own slot, and only
  /// between the wave hand-off and the completion barrier. lint:allow(R9)
  std::vector<std::unique_ptr<query::EvalContext>> worker_eval_;

  // Wave hand-off (the only cross-thread state). The condition variables
  // are internally synchronized and always used with mu_ held.
  std::mutex mu_;
  std::condition_variable wave_ready_cv_;  // lint:allow(R9)
  std::condition_variable wave_done_cv_;   // lint:allow(R9)
  std::vector<Queued>* wave_ AXMLX_GUARDED_BY(mu_) = nullptr;
  size_t next_index_ AXMLX_GUARDED_BY(mu_) = 0;
  size_t done_count_ AXMLX_GUARDED_BY(mu_) = 0;
  uint64_t generation_ AXMLX_GUARDED_BY(mu_) = 0;
  bool stop_ AXMLX_GUARDED_BY(mu_) = false;

  // Joined by the destructor after stop_; only the coordinator touches the
  // vector itself. lint:allow(R9)
  std::vector<std::thread> threads_;
};

}  // namespace axmlx::runtime

#endif  // AXMLX_RUNTIME_JOB_QUEUE_H_
