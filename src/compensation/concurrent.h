#ifndef AXMLX_COMPENSATION_CONCURRENT_H_
#define AXMLX_COMPENSATION_CONCURRENT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "axml/materializer.h"
#include "common/status.h"
#include "compensation/compensation.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "ops/conflict.h"
#include "ops/executor.h"
#include "ops/op_log.h"
#include "query/eval.h"
#include "xml/document.h"

namespace axmlx::obs {
class FlightRecorder;
}  // namespace axmlx::obs

namespace axmlx::runtime {
class JobQueue;
}  // namespace axmlx::runtime

namespace axmlx::comp {

/// Identifies one in-flight transaction of a ConcurrentExecutor. Handles are
/// never reused within one executor.
using TxnHandle = uint64_t;

/// True when `status` is the write-write conflict abort produced by
/// ConcurrentExecutor::Execute — the caller should retry the transaction
/// from Begin() rather than treat it as a hard failure.
[[nodiscard]] bool IsWriteConflict(const Status& status);

/// Interleaves several transactions against one document without locks
/// (DESIGN.md §10).
///
/// Each Begin() takes an MVCC snapshot: the transaction's queries resolve
/// every node through the document's version chains as of the begin
/// version, plus its own writes (read-your-own-writes). Writes execute
/// against the live document immediately — the paper's open-nesting model,
/// where sub-transactions commit at once and atomicity is restored by
/// compensation, not by holding effects back. After each write the effect's
/// node footprint is checked against all other writers' version records;
/// on a write-write conflict the in-flight effect is rolled back, the
/// transaction's earlier operations are compensated through
/// CompensationBuilder (§3.1/§3.2 machinery, the same path a distributed
/// abort takes), and Execute returns a kConflict status the caller resolves
/// by retrying. Losers abort; nobody blocks.
class ConcurrentExecutor {
 public:
  /// `doc` must outlive the executor; versioning is enabled on it. `invoker`
  /// and `recorder` are forwarded to the per-transaction ops::Executors.
  ConcurrentExecutor(xml::Document* doc, axml::ServiceInvoker invoker,
                     obs::FlightRecorder* recorder = nullptr);

  /// Starts a transaction: allocates a writer tag, snapshots the document
  /// version, registers with the conflict table.
  TxnHandle Begin(const std::string& label);

  /// Executes `op` for `txn`. On success returns the logged effect (owned
  /// by the transaction's log; valid until Commit/Abort). On write-write
  /// conflict the transaction is aborted and compensated, and the returned
  /// status has StatusCode::kConflict (test with IsWriteConflict); on other
  /// errors the transaction stays active and the document is untouched.
  Result<const ops::OpEffect*> Execute(TxnHandle txn, const ops::Operation& op);

  /// One entry of an ExecuteBatch: an operation to run on behalf of an
  /// already-begun transaction.
  struct BatchOp {
    TxnHandle txn = 0;
    ops::Operation op;
  };

  /// Outcome of one batch entry, mirroring Execute's contract: `effect` is
  /// owned by the transaction's log and valid until Commit/Abort; a
  /// kConflict status means the transaction was aborted and compensated.
  struct BatchOutcome {
    Status status;
    const ops::OpEffect* effect = nullptr;
  };

  /// Executes a batch of operations from *distinct* transactions. With a
  /// runtime attached (AttachRuntime), each entry's read-only half runs as a
  /// kJobEval work stage — location queries evaluated concurrently against
  /// the wave-start document through each transaction's snapshot view — and
  /// its mutation half (including conflict check and compensation) applies
  /// serially in batch order, which makes outcomes identical to calling
  /// Execute sequentially in batch order — and identical across worker
  /// counts (DESIGN.md §11). Without a runtime it does exactly that,
  /// sequentially. Entries sharing a TxnHandle with an earlier entry skip
  /// the prepared path: an operation must see its own transaction's earlier
  /// writes live, not through the wave-start snapshot. One caveat vs pure
  /// sequential execution: an embedded service call *inserted* by an
  /// earlier batch entry is only considered for materialization from the
  /// next batch on (prepare decisions are taken at wave start).
  std::vector<BatchOutcome> ExecuteBatch(const std::vector<BatchOp>& batch);

  /// Commits `txn`: its writes become durable history, its snapshot is
  /// released, and version records no active snapshot can reach are pruned.
  Status Commit(TxnHandle txn);

  /// Voluntarily aborts `txn`, compensating all executed operations.
  Status Abort(TxnHandle txn);

  /// Counts a caller-driven retry after a conflict abort (metrics only).
  void NoteRetry();

  [[nodiscard]] bool IsActive(TxnHandle txn) const;

  /// Snapshot view of an active transaction (inactive view when unknown) —
  /// lets callers run their own snapshot queries for verification.
  [[nodiscard]] xml::ReadView ViewOf(TxnHandle txn) const;

  obs::MetricsRegistry* metrics() { return &metrics_; }
  xml::Document* doc() { return doc_; }

  /// Attaches a phase timeline keyed by transaction *labels* (not owned;
  /// null detaches) — labels must therefore be unique among concurrently
  /// open transactions. The executor has no simulation clock, so it drives
  /// a logical one: each Execute advances it one tick inside EVAL and one
  /// inside CONFLICT_CHECK, and each conflict/abort adds one COMPENSATION
  /// tick — giving the contended-path phases real widths, with time a
  /// transaction spends open while *other* transactions execute falling to
  /// the QUEUE_WAIT residual (see DESIGN.md §7).
  void AttachTimeline(obs::Timeline* timeline) { timeline_ = timeline; }

  /// Attaches the worker pool ExecuteBatch parallelizes over (not owned;
  /// null detaches).
  void AttachRuntime(runtime::JobQueue* rt) { runtime_ = rt; }

  /// Elapsed ticks of the logical op clock driving the timeline stamps
  /// (only advances while a timeline is attached; zero otherwise). Benches
  /// read it to turn committed-op counts into a simulated-time rate.
  [[nodiscard]] int64_t timeline_now() const { return timeline_now_; }

 private:
  struct Txn {
    std::string label;
    uint64_t snapshot = 0;
    uint64_t first_write = 0;  ///< Version of its first record (0: none).
    query::EvalContext ctx;  ///< Per-txn: memos are only valid for one view.
    ops::OpLog log;
  };

  /// Execute() with an optional precomputed read half (null: resolve
  /// synchronously).
  Result<const ops::OpEffect*> ExecuteImpl(TxnHandle txn,
                                           const ops::Operation& op,
                                           ops::PreparedOp* prep);

  /// Compensates `t`'s executed operations (reverse order) against the live
  /// document and unregisters it. `why` feeds the flight recorder.
  Status CompensateAndEnd(TxnHandle txn, Txn* t, const char* why);

  /// Drops version records no active snapshot can reach.
  void PruneHistory();

  xml::Document* doc_;
  axml::ServiceInvoker invoker_;
  obs::FlightRecorder* recorder_;
  obs::Timeline* timeline_ = nullptr;
  runtime::JobQueue* runtime_ = nullptr;
  int64_t timeline_now_ = 0;  ///< Logical op clock for timeline stamps.
  ops::ConflictTable table_;
  std::map<TxnHandle, Txn> txns_;
  TxnHandle next_writer_ = 1;

  obs::MetricsRegistry metrics_;
  struct Counters {
    obs::Counter& snapshots_taken;
    obs::Counter& snapshot_ops;
    obs::Counter& conflicts_detected;
    obs::Counter& conflicts_aborted;
    obs::Counter& conflicts_retried;
    obs::Counter& mvcc_commits;
    explicit Counters(obs::MetricsRegistry* m)
        : snapshots_taken(*m->GetCounter(obs::kMetricTxnSnapshotsTaken)),
          snapshot_ops(*m->GetCounter(obs::kMetricTxnSnapshotOps)),
          conflicts_detected(*m->GetCounter(obs::kMetricTxnConflictsDetected)),
          conflicts_aborted(*m->GetCounter(obs::kMetricTxnConflictsAborted)),
          conflicts_retried(*m->GetCounter(obs::kMetricTxnConflictsRetried)),
          mvcc_commits(*m->GetCounter(obs::kMetricTxnMvccCommits)) {}
  } counters_;
};

}  // namespace axmlx::comp

#endif  // AXMLX_COMPENSATION_CONCURRENT_H_
