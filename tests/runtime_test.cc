#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "compensation/concurrent.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "ops/operation.h"
#include "runtime/job.h"
#include "runtime/job_queue.h"
#include "xml/parser.h"

namespace axmlx::runtime {
namespace {

Job MakeJob(JobType type, std::function<void()> apply) {
  Job job;
  job.type = type;
  job.apply = std::move(apply);
  return job;
}

// --- Canonical apply order --------------------------------------------------

TEST(JobQueue, AppliesRunInTypePriorityThenSubmissionOrder) {
  JobQueue queue;  // deterministic mode
  std::vector<std::string> order;
  // Submitted deliberately against priority: service calls first.
  queue.Submit(
      MakeJob(JobType::kJobServiceCall, [&] { order.push_back("call0"); }));
  queue.Submit(MakeJob(JobType::kJobEval, [&] { order.push_back("eval0"); }));
  queue.Submit(
      MakeJob(JobType::kJobServiceCall, [&] { order.push_back("call1"); }));
  queue.Submit(MakeJob(JobType::kJobEval, [&] { order.push_back("eval1"); }));
  queue.Drain();
  EXPECT_EQ(order, (std::vector<std::string>{"eval0", "eval1", "call0",
                                             "call1"}));
  EXPECT_EQ(queue.stats().submitted, 4);
  EXPECT_EQ(queue.stats().executed, 4);
  EXPECT_EQ(queue.stats().waves, 1);
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(JobQueue, JobsSubmittedDuringApplyFormTheNextWave) {
  JobQueue queue;
  std::vector<std::string> order;
  queue.Submit(MakeJob(JobType::kJobServiceCall, [&] {
    order.push_back("first");
    // Higher priority than the wave-mate below, but a wave is a barrier:
    // this lands in wave 2, after everything already queued.
    queue.Submit(MakeJob(JobType::kJobEval, [&] { order.push_back("late"); }));
  }));
  queue.Submit(
      MakeJob(JobType::kJobServiceCall, [&] { order.push_back("second"); }));
  queue.Drain();
  EXPECT_EQ(order, (std::vector<std::string>{"first", "second", "late"}));
  EXPECT_EQ(queue.stats().waves, 2);
}

TEST(JobQueue, ReentrantDrainIsANoOp) {
  JobQueue queue;
  std::vector<int> order;
  queue.Submit(MakeJob(JobType::kJobEval, [&] {
    order.push_back(1);
    queue.Submit(MakeJob(JobType::kJobEval, [&] { order.push_back(2); }));
    EXPECT_TRUE(queue.draining());
    queue.Drain();  // must not run job 2 from inside job 1's apply
    EXPECT_EQ(order.size(), 1u);
  }));
  queue.Drain();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_FALSE(queue.draining());
}

TEST(JobQueue, DestructorRunsWhatIsStillQueued) {
  bool ran = false;
  {
    JobQueue queue;
    queue.Submit(MakeJob(JobType::kJobEval, [&] { ran = true; }));
  }
  EXPECT_TRUE(ran);
}

// --- The empty-queue invariant ----------------------------------------------

// ExecuteBatch is the queue's only submitter and drains before it returns,
// so no job outlives the batch that submitted it — in either mode, and
// whichever entries fail or lose a conflict.
TEST(JobQueue, ExecuteBatchLeavesTheQueueEmpty) {
  for (int workers : {0, 4}) {
    JobQueueOptions options;
    options.workers = workers;
    JobQueue queue(options);
    auto doc = xml::Parse("<inv><s><n>a</n></s><s><n>b</n></s></inv>");
    ASSERT_TRUE(doc.ok()) << doc.status();
    comp::ConcurrentExecutor exec(doc->get(), /*invoker=*/nullptr);
    exec.AttachRuntime(&queue);
    const std::string in_a = "Select s from s in inv/s where s/n = a";
    const comp::TxnHandle t1 = exec.Begin("t1");
    const comp::TxnHandle t2 = exec.Begin("t2");
    const comp::TxnHandle t3 = exec.Begin("t3");
    std::vector<comp::ConcurrentExecutor::BatchOp> batch = {
        {t1, ops::MakeInsert(in_a, "<e/>")},
        {t2, ops::MakeInsert("Select", "<e/>")},  // unparsable location
        {t3, ops::MakeInsert(in_a, "<f/>")},      // loses to t1
    };
    std::vector<comp::ConcurrentExecutor::BatchOutcome> out =
        exec.ExecuteBatch(batch);
    EXPECT_EQ(queue.pending(), 0u) << workers << " workers";
    EXPECT_FALSE(queue.draining());
    EXPECT_EQ(queue.stats().executed, queue.stats().submitted);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_TRUE(out[0].status.ok()) << out[0].status;
    EXPECT_FALSE(out[1].status.ok());
    EXPECT_FALSE(comp::IsWriteConflict(out[1].status)) << out[1].status;
    EXPECT_TRUE(comp::IsWriteConflict(out[2].status)) << out[2].status;
  }
}

// --- Deterministic mode: the seed permutes work order only ------------------

TEST(JobQueue, SeedShufflesWorkOrderButNeverApplyOrder) {
  std::set<std::vector<int>> work_orders;
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    JobQueueOptions options;
    options.seed = seed;
    JobQueue queue(options);
    std::vector<int> work_order;
    std::vector<int> apply_order;
    for (int i = 0; i < 8; ++i) {
      Job job;
      job.type = JobType::kJobEval;
      job.work = [&work_order, i](WorkerContext&) { work_order.push_back(i); };
      job.apply = [&apply_order, i] { apply_order.push_back(i); };
      queue.Submit(std::move(job));
    }
    queue.Drain();
    EXPECT_EQ(apply_order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}))
        << "seed " << seed;
    EXPECT_EQ(work_order.size(), 8u);
    work_orders.insert(work_order);
  }
  // The shuffle is real: five seeds cannot all pick the same permutation.
  EXPECT_GT(work_orders.size(), 1u);
}

TEST(JobQueue, SameSeedIsReproducible) {
  auto run = [](uint64_t seed) {
    JobQueueOptions options;
    options.seed = seed;
    JobQueue queue(options);
    std::vector<int> work_order;
    for (int i = 0; i < 8; ++i) {
      Job job;
      job.type = JobType::kJobEval;
      job.work = [&work_order, i](WorkerContext&) { work_order.push_back(i); };
      queue.Submit(std::move(job));
    }
    queue.Drain();
    return work_order;
  };
  EXPECT_EQ(run(42), run(42));
}

// --- Parallel mode ----------------------------------------------------------

TEST(JobQueue, ParallelWorkersRunWorkStagesAndApplyStaysCanonical) {
  for (int workers : {1, 2, 4}) {
    JobQueueOptions options;
    options.workers = workers;
    JobQueue queue(options);
    EXPECT_TRUE(queue.parallel());
    EXPECT_EQ(queue.workers(), workers);
    std::atomic<int> work_runs{0};
    std::vector<int> apply_order;
    for (int i = 0; i < 16; ++i) {
      Job job;
      job.type = JobType::kJobEval;
      job.work = [&work_runs](WorkerContext& ctx) {
        ASSERT_NE(ctx.eval, nullptr);
        ++work_runs;
      };
      job.apply = [&apply_order, i] { apply_order.push_back(i); };
      queue.Submit(std::move(job));
    }
    queue.Drain();
    EXPECT_EQ(work_runs.load(), 16) << workers << " workers";
    std::vector<int> expect(16);
    for (int i = 0; i < 16; ++i) expect[static_cast<size_t>(i)] = i;
    EXPECT_EQ(apply_order, expect) << workers << " workers";
  }
}

TEST(JobQueue, ParallelWorkersGetPrivateEvalContexts) {
  JobQueueOptions options;
  options.workers = 4;
  JobQueue queue(options);
  std::mutex mu;
  std::set<query::EvalContext*> contexts;
  for (int i = 0; i < 32; ++i) {
    Job job;
    job.type = JobType::kJobEval;
    job.work = [&](WorkerContext& ctx) {
      std::lock_guard<std::mutex> lock(mu);
      contexts.insert(ctx.eval);
    };
    queue.Submit(std::move(job));
  }
  queue.Drain();
  // Every context seen belongs to the pool's fixed per-worker set.
  EXPECT_GE(contexts.size(), 1u);
  EXPECT_LE(contexts.size(), 4u);
}

// --- Observability ----------------------------------------------------------

TEST(JobQueue, MetricsCountSubmissionsExecutionsAndDepths) {
  obs::MetricsRegistry metrics;
  JobQueue queue;
  queue.AttachMetrics(&metrics);
  EXPECT_EQ(metrics.GetGauge(obs::kMetricRuntimeWorkers)->value(), 0);
  queue.Submit(MakeJob(JobType::kJobEval, [] {}));
  queue.Submit(MakeJob(JobType::kJobServiceCall, [] {}));
  queue.Submit(MakeJob(JobType::kJobEval, [] {}));
  EXPECT_EQ(metrics.GetGauge(obs::kMetricJobEvalQueueDepth)->value(), 2);
  EXPECT_EQ(metrics.GetGauge(obs::kMetricJobServiceCallQueueDepth)->value(),
            1);
  queue.Drain();
  EXPECT_EQ(metrics.GetGauge(obs::kMetricJobEvalQueueDepth)->value(), 0);
  EXPECT_EQ(metrics.GetGauge(obs::kMetricJobServiceCallQueueDepth)->value(),
            0);
  EXPECT_EQ(metrics.GetCounter(obs::kMetricRuntimeJobsSubmitted)->value(), 3);
  EXPECT_EQ(metrics.GetCounter(obs::kMetricRuntimeJobsExecuted)->value(), 3);
  EXPECT_EQ(metrics.GetCounter(obs::kMetricRuntimeWaves)->value(), 1);
  auto snap = metrics.Snapshot();
  EXPECT_EQ(snap.histograms.at(obs::kMetricJobEvalRunUs).count, 2);
  EXPECT_EQ(snap.histograms.at(obs::kMetricJobServiceCallRunUs).count, 1);
}

TEST(JobType, EveryTypeHasNameAndMetricNames) {
  std::set<std::string> names;
  std::set<std::string> depth_metrics;
  std::set<std::string> run_metrics;
  for (int i = 0; i < kJobTypeCount; ++i) {
    const JobType type = static_cast<JobType>(i);
    names.insert(JobTypeName(type));
    depth_metrics.insert(JobTypeQueueDepthMetric(type));
    run_metrics.insert(JobTypeRunUsMetric(type));
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kJobTypeCount));
  EXPECT_EQ(depth_metrics.size(), static_cast<size_t>(kJobTypeCount));
  EXPECT_EQ(run_metrics.size(), static_cast<size_t>(kJobTypeCount));
}

}  // namespace
}  // namespace axmlx::runtime
