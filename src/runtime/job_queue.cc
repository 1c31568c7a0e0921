#include "runtime/job_queue.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/rng.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace axmlx::runtime {

namespace {

/// Real elapsed time for the job.<type>.run_us histograms — observability
/// only. Nothing protocol-visible reads it: ordering, WAL bytes, and
/// decisions all derive from submission order.
int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             // lint:allow(R7): wall clock feeds latency histograms only.
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall-clock run-latency buckets for job.<type>.run_us. Local work in the
/// simulator is microsecond-scale; service stubs reach milliseconds.
std::vector<int64_t> RunUsBuckets() {
  return {1, 2, 4, 7, 12, 20, 35, 60, 100, 170, 300, 500,
          850, 1400, 2400, 4000, 7000, 12000, 20000, 35000, 60000, 100000};
}

}  // namespace

const char* JobTypeName(JobType type) {
  switch (type) {
    case JobType::kJobEval:
      return "eval";
    case JobType::kJobServiceCall:
      return "service_call";
  }
  return "unknown";
}

const char* JobTypeQueueDepthMetric(JobType type) {
  switch (type) {
    case JobType::kJobEval:
      return obs::kMetricJobEvalQueueDepth;
    case JobType::kJobServiceCall:
      return obs::kMetricJobServiceCallQueueDepth;
  }
  return obs::kMetricJobEvalQueueDepth;
}

const char* JobTypeRunUsMetric(JobType type) {
  switch (type) {
    case JobType::kJobEval:
      return obs::kMetricJobEvalRunUs;
    case JobType::kJobServiceCall:
      return obs::kMetricJobServiceCallRunUs;
  }
  return obs::kMetricJobEvalRunUs;
}

JobQueue::JobQueue(JobQueueOptions options) : options_(options) {
  if (options_.workers < 0) options_.workers = 0;
  const int contexts = options_.workers > 0 ? options_.workers : 1;
  worker_eval_.reserve(static_cast<size_t>(contexts));
  for (int i = 0; i < contexts; ++i) {
    worker_eval_.push_back(std::make_unique<query::EvalContext>());
  }
  threads_.reserve(static_cast<size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

JobQueue::~JobQueue() {
  // Best effort: run whatever is still queued so no submitter's jobs
  // dangle. ExecuteBatch drains before it returns, so this is normally a
  // no-op.
  if (!draining_) Drain();
  if (!threads_.empty()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wave_ready_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
}

void JobQueue::AttachMetrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  std::fill(std::begin(run_us_hist_), std::end(run_us_hist_), nullptr);
  if (metrics_ == nullptr) return;
  metrics_->GetGauge(obs::kMetricRuntimeWorkers)
      ->Set(static_cast<double>(options_.workers));
  for (int i = 0; i < kJobTypeCount; ++i) {
    const JobType type = static_cast<JobType>(i);
    run_us_hist_[i] =
        metrics_->GetHistogram(JobTypeRunUsMetric(type), RunUsBuckets());
    metrics_->GetGauge(JobTypeQueueDepthMetric(type))
        ->Set(static_cast<double>(depth_[i]));
  }
}

void JobQueue::Submit(Job job) {
  const int type = static_cast<int>(job.type);
  Queued q;
  q.job = std::move(job);
  q.seq = next_seq_++;
  pending_.push_back(std::move(q));
  ++stats_.submitted;
  ++depth_[type];
  if (metrics_ != nullptr) {
    ++*metrics_->GetCounter(obs::kMetricRuntimeJobsSubmitted);
    metrics_->GetGauge(JobTypeQueueDepthMetric(static_cast<JobType>(type)))
        ->Set(static_cast<double>(depth_[type]));
  }
}

void JobQueue::Drain() {
  if (draining_) return;  // the outer drain owns the loop
  draining_ = true;
  while (!pending_.empty()) {
    std::vector<Queued> wave;
    wave.swap(pending_);
    for (int i = 0; i < kJobTypeCount; ++i) depth_[i] = 0;
    if (metrics_ != nullptr) {
      for (int i = 0; i < kJobTypeCount; ++i) {
        metrics_->GetGauge(JobTypeQueueDepthMetric(static_cast<JobType>(i)))
            ->Set(0.0);
      }
    }
    RunWave(std::move(wave));
  }
  draining_ = false;
}

void JobQueue::RunWave(std::vector<Queued> wave) {
  ++stats_.waves;
  if (metrics_ != nullptr) ++*metrics_->GetCounter(obs::kMetricRuntimeWaves);
  // Canonical order: type priority, then submission order. Stable by
  // construction since (type, seq) pairs are unique.
  std::sort(wave.begin(), wave.end(), [](const Queued& a, const Queued& b) {
    if (a.job.type != b.job.type) return a.job.type < b.job.type;
    return a.seq < b.seq;
  });

  // --- Work stages: wave-start state, order must not matter ---------------
  if (options_.workers > 0) {
    RunWorkStagesParallel(&wave);
  } else {
    // Deterministic mode probes order-independence: the seed permutes the
    // order work stages run in, and the differential suite holds results
    // constant across seeds. The permutation never reaches the apply order.
    std::vector<size_t> order(wave.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    Rng rng(options_.seed ^ static_cast<uint64_t>(stats_.waves));
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Uniform(i)]);
    }
    WorkerContext ctx{0, worker_eval_[0].get()};
    for (size_t idx : order) {
      Queued& q = wave[idx];
      if (!q.job.work) continue;
      const int64_t t0 = NowUs();
      q.job.work(ctx);
      q.work_us = NowUs() - t0;
    }
  }

  // --- Apply stages: coordinator, canonical order -------------------------
  for (Queued& q : wave) {
    const int64_t t0 = NowUs();
    if (q.job.apply) q.job.apply();
    const int64_t apply_us = NowUs() - t0;
    ++stats_.executed;
    if (metrics_ != nullptr) {
      ++*metrics_->GetCounter(obs::kMetricRuntimeJobsExecuted);
    }
    obs::Histogram* hist = run_us_hist_[static_cast<int>(q.job.type)];
    if (hist != nullptr) hist->Observe(q.work_us + apply_us);
  }
}

void JobQueue::RunWorkStagesParallel(std::vector<Queued>* wave) {
  bool any_work = false;
  for (const Queued& q : *wave) {
    if (q.job.work) {
      any_work = true;
      break;
    }
  }
  if (!any_work) return;  // skip the barrier round-trip for apply-only waves
  std::unique_lock<std::mutex> lock(mu_);
  wave_ = wave;
  next_index_ = 0;
  done_count_ = 0;
  ++generation_;
  wave_ready_cv_.notify_all();
  wave_done_cv_.wait(lock, [this] { return done_count_ == wave_->size(); });
  wave_ = nullptr;
}

void JobQueue::WorkerLoop(int worker) {
  WorkerContext ctx{worker, worker_eval_[static_cast<size_t>(worker)].get()};
  uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wave_ready_cv_.wait(lock, [this, seen_generation] {
      return stop_ || generation_ != seen_generation;
    });
    if (stop_) return;
    seen_generation = generation_;
    while (wave_ != nullptr && next_index_ < wave_->size()) {
      const size_t i = next_index_++;
      Queued& q = (*wave_)[i];
      lock.unlock();
      // Outside the lock: this worker owns entry i exclusively; the
      // coordinator only reads it after the done_count_ barrier below.
      if (q.job.work) {
        const int64_t t0 = NowUs();
        q.job.work(ctx);
        q.work_us = NowUs() - t0;
      }
      lock.lock();
      ++done_count_;
      if (done_count_ == wave_->size()) wave_done_cv_.notify_one();
    }
  }
}

}  // namespace axmlx::runtime
