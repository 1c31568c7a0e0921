#ifndef AXMLX_RUNTIME_JOB_H_
#define AXMLX_RUNTIME_JOB_H_

#include <functional>

#include "query/eval.h"

namespace axmlx::runtime {

/// Typed job priorities for the worker-pool runtime (DESIGN.md §11).
///
/// Only work that has a concurrent stage is a job: operation evaluation
/// (comp::ConcurrentExecutor::ExecuteBatch) and service calls
/// (bench_parallel_runtime). Table order IS scheduling priority: within one
/// wave the queue runs apply stages in ascending (type, submission) order.
/// Every JobType has a `job.<name>.*` metric family (queue-depth gauge +
/// run-latency histogram) registered in obs/metric_names.h.
enum class JobType {
  kJobEval = 0,
  kJobServiceCall,
};

inline constexpr int kJobTypeCount = 2;

/// Lowercase metric segment for `type` ("eval", "service_call"), a static
/// string.
const char* JobTypeName(JobType type);

/// The `job.<type>.queue_depth` / `job.<type>.run_us` metric names for
/// `type` (kMetric* constants from obs/metric_names.h).
const char* JobTypeQueueDepthMetric(JobType type);
const char* JobTypeRunUsMetric(JobType type);

/// Per-worker execution context handed to a job's work stage. `eval` is the
/// worker-private query::EvalContext scratch (stable for the worker's
/// lifetime); jobs must set its view and invalidate its memos before
/// evaluating, and must not share it with other jobs in flight.
struct WorkerContext {
  int worker = 0;
  query::EvalContext* eval = nullptr;
};

/// One schedulable unit of peer work.
///
/// The two-stage contract is what makes parallel execution a pure
/// optimization (DESIGN.md §11): `work` runs concurrently in parallel mode
/// (in seed-shuffled order in deterministic mode) and must only read shared
/// state and write job-local state through its WorkerContext; `apply` runs
/// on the coordinator, serialized in canonical (type, submission) order,
/// and is where all shared-state mutation belongs. Either stage may be
/// empty.
struct Job {
  JobType type = JobType::kJobEval;

  /// Concurrent stage: read-only over shared state (see class comment).
  std::function<void(WorkerContext&)> work;

  /// Serialized stage: runs on the coordinator in canonical order.
  std::function<void()> apply;
};

}  // namespace axmlx::runtime

#endif  // AXMLX_RUNTIME_JOB_H_
