#include "compensation/concurrent.h"

#include <set>
#include <utility>

#include "obs/flight_recorder.h"
#include "runtime/job_queue.h"
#include "xml/edit.h"

namespace axmlx::comp {

bool IsWriteConflict(const Status& status) {
  return status.code() == StatusCode::kConflict;
}

ConcurrentExecutor::ConcurrentExecutor(xml::Document* doc,
                                       axml::ServiceInvoker invoker,
                                       obs::FlightRecorder* recorder)
    : doc_(doc),
      invoker_(std::move(invoker)),
      recorder_(recorder),
      counters_(&metrics_) {
  doc_->EnableVersioning();
}

TxnHandle ConcurrentExecutor::Begin(const std::string& label) {
  TxnHandle handle = next_writer_++;
  Txn& t = txns_[handle];
  t.label = label;
  t.snapshot = doc_->version();
  t.ctx.view = xml::ReadView{t.snapshot, handle, true};
  table_.BeginWriter(handle, t.snapshot);
  ++counters_.snapshots_taken;
  if (timeline_ != nullptr) timeline_->BeginTxn(t.label, timeline_now_);
  if (recorder_ != nullptr) {
    recorder_->Record(obs::kEvFrTxnSnapshot, t.label, handle,
                      static_cast<int64_t>(t.snapshot));
  }
  return handle;
}

Result<const ops::OpEffect*> ConcurrentExecutor::Execute(
    TxnHandle txn, const ops::Operation& op) {
  return ExecuteImpl(txn, op, /*prep=*/nullptr);
}

Result<const ops::OpEffect*> ConcurrentExecutor::ExecuteImpl(
    TxnHandle txn, const ops::Operation& op, ops::PreparedOp* prep) {
  auto it = txns_.find(txn);
  if (it == txns_.end()) {
    return InvalidArgument("unknown or finished transaction handle");
  }
  Txn& t = it->second;
  // Writes by this executor step must carry our writer tag so the conflict
  // check can tell our fresh records from other writers', and so our own
  // snapshot reads see them (read-your-own-writes).
  doc_->SetWriter(txn);
  ops::Executor exec(doc_, invoker_);
  exec.SetEvalContext(&t.ctx);
  exec.SetRecorder(recorder_);
  // The document may have moved since our last op; memoized text is stale.
  t.ctx.InvalidateCaches();
  if (timeline_ != nullptr) {
    timeline_->Enter(t.label, obs::kPhaseEval, timeline_now_);
  }
  const uint64_t version_before = doc_->version();
  Result<ops::OpEffect> result = prep != nullptr
                                     ? exec.ExecutePrepared(op, std::move(*prep))
                                     : exec.Execute(op);
  if (t.first_write == 0 && doc_->version() > version_before) {
    t.first_write = version_before + 1;
  }
  if (timeline_ != nullptr) {
    timeline_->Exit(t.label, obs::kPhaseEval, ++timeline_now_);
  }
  doc_->SetWriter(0);
  if (!result.ok()) return result.status();  // doc untouched; txn stays live
  ++counters_.snapshot_ops;

  if (timeline_ != nullptr) {
    timeline_->Enter(t.label, obs::kPhaseConflictCheck, timeline_now_);
  }
  // Serialized on the caller (under the runtime, inside the job's apply
  // stage).
  std::optional<ops::Conflict> conflict =
      table_.CheckEffect(*doc_, result.value(), txn, t.snapshot);
  if (timeline_ != nullptr) {
    timeline_->Exit(t.label, obs::kPhaseConflictCheck, ++timeline_now_);
  }
  if (conflict.has_value()) {
    ++counters_.conflicts_detected;
    // First-writer-wins: we lose. Roll the in-flight effect back, then
    // compensate the prefix we had already executed.
    doc_->SetWriter(txn);
    Status rollback = xml::RollbackAll(doc_, result.value().edits);
    doc_->SetWriter(0);
    if (!rollback.ok()) return rollback;
    AXMLX_RETURN_IF_ERROR(CompensateAndEnd(txn, &t, "conflict"));
    ++counters_.conflicts_aborted;
    return Conflict("WriteConflict: node " +
                    std::to_string(conflict->node) + " written by txn " +
                    std::to_string(conflict->other_writer) + " at version " +
                    std::to_string(conflict->version));
  }
  t.log.Append(std::move(result).value());
  return &t.log.effects().back();
}

std::vector<ConcurrentExecutor::BatchOutcome> ConcurrentExecutor::ExecuteBatch(
    const std::vector<BatchOp>& batch) {
  std::vector<BatchOutcome> out(batch.size());
  // A nested batch (submitted from inside a job's apply stage) must not
  // join the in-flight drain: its results live on this stack frame.
  if (runtime_ != nullptr && !runtime_->draining() && !batch.empty()) {
    std::vector<ops::PreparedOp> prepared(batch.size());
    std::set<TxnHandle> seen;
    // Work stages read the wave-start document concurrently; switch the
    // const read paths to their cache-mutation-free variants for the drain.
    doc_->SetConcurrentReads(true);
    for (size_t i = 0; i < batch.size(); ++i) {
      auto it = txns_.find(batch[i].txn);
      runtime::Job job;
      job.type = runtime::JobType::kJobEval;
      // Repeat ops of one transaction stay unprepared: their apply stage
      // then runs the full synchronous path and sees the transaction's
      // earlier same-batch writes live instead of through the stale
      // wave-start snapshot.
      if (it != txns_.end() && seen.insert(batch[i].txn).second) {
        xml::ReadView view = it->second.ctx.view;
        job.work = [this, &batch, &prepared, i,
                    view](runtime::WorkerContext& wc) {
          wc.eval->view = view;
          wc.eval->InvalidateCaches();
          prepared[i] = ops::Executor::Prepare(*doc_, batch[i].op, wc.eval);
        };
      }
      job.apply = [this, &batch, &prepared, &out, i] {
        Result<const ops::OpEffect*> r =
            ExecuteImpl(batch[i].txn, batch[i].op, &prepared[i]);
        out[i].status = r.status();
        out[i].effect = r.ok() ? r.value() : nullptr;
      };
      runtime_->Submit(std::move(job));
    }
    runtime_->Drain();
    doc_->SetConcurrentReads(false);
    return out;
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    Result<const ops::OpEffect*> r = Execute(batch[i].txn, batch[i].op);
    out[i].status = r.status();
    out[i].effect = r.ok() ? r.value() : nullptr;
  }
  return out;
}

Status ConcurrentExecutor::Commit(TxnHandle txn) {
  auto it = txns_.find(txn);
  if (it == txns_.end()) {
    return InvalidArgument("unknown or finished transaction handle");
  }
  if (timeline_ != nullptr) timeline_->EndTxn(it->second.label, timeline_now_);
  table_.EndWriter(txn);
  txns_.erase(it);
  ++counters_.mvcc_commits;
  PruneHistory();
  return Status::Ok();
}

Status ConcurrentExecutor::Abort(TxnHandle txn) {
  auto it = txns_.find(txn);
  if (it == txns_.end()) {
    return InvalidArgument("unknown or finished transaction handle");
  }
  return CompensateAndEnd(txn, &it->second, "abort");
}

void ConcurrentExecutor::NoteRetry() { ++counters_.conflicts_retried; }

bool ConcurrentExecutor::IsActive(TxnHandle txn) const {
  return txns_.count(txn) != 0;
}

xml::ReadView ConcurrentExecutor::ViewOf(TxnHandle txn) const {
  auto it = txns_.find(txn);
  if (it == txns_.end()) return xml::ReadView{};
  return it->second.ctx.view;
}

Status ConcurrentExecutor::CompensateAndEnd(TxnHandle txn, Txn* t,
                                            const char* why) {
  if (recorder_ != nullptr) {
    recorder_->Record(obs::kEvFrTxnConflict, why, txn,
                      static_cast<int64_t>(t->log.size()));
  }
  Status status = Status::Ok();
  if (!t->log.empty()) {
    CompensationPlan plan = CompensationBuilder::ForLog(t->log);
    // Compensation runs against the *live* document (open nesting: our
    // writes are already visible), under our writer tag so other snapshots
    // treat the undo like any concurrent write.
    doc_->SetWriter(txn);
    ops::Executor exec(doc_, invoker_);
    query::EvalContext live_ctx;
    exec.SetEvalContext(&live_ctx);
    exec.SetRecorder(recorder_);
    status = ApplyPlan(&exec, plan);
    doc_->SetWriter(0);
  }
  if (timeline_ != nullptr) {
    timeline_->Enter(t->label, obs::kPhaseCompensation, timeline_now_);
    timeline_->Exit(t->label, obs::kPhaseCompensation, ++timeline_now_);
    timeline_->EndTxn(t->label, timeline_now_);
  }
  table_.AbortWriter(txn, t->first_write);
  txns_.erase(txn);
  PruneHistory();
  return status;
}

void ConcurrentExecutor::PruneHistory() {
  const uint64_t oldest = table_.OldestSnapshot(doc_->version());
  doc_->PruneVersionsBefore(oldest);
  table_.ForgetAbortedThrough(oldest);
}

}  // namespace axmlx::comp
