#include "recovery/recovering_peer.h"

namespace axmlx::recovery {

overlay::PeerId RecoveringPeer::RetryTarget(const ChildEdge& edge,
                                            const axml::RetrySpec& retry,
                                            const std::string& fault,
                                            overlay::Network* net) {
  if (!retry.replica_url.empty()) return retry.replica_url;
  const overlay::PeerId& original = edge.def.peer;
  // Crashed and partitioned-away peers look disconnected too; a retry must
  // go where the invocation can actually land.
  if (fault == "PeerDisconnected" || !net->CanReach(id(), original)) {
    return directory()->ReplicaOf(original);
  }
  return original;
}

void RecoveringPeer::OnChildFailure(Ctx* ctx, ChildEdge* edge,
                                    const std::string& fault,
                                    overlay::Network* net) {
  if (options().use_fault_handlers) {
    for (const axml::FaultHandler& handler : edge->def.handlers) {
      if (!handler.Matches(fault)) continue;
      if (handler.has_retry) {
        if (edge->retries_used < handler.retry.times) {
          overlay::PeerId target =
              RetryTarget(*edge, handler.retry, fault, net);
          if (!target.empty() && net->CanReach(id(), target)) {
            ++edge->retries_used;
            ++counters()->retries;
            if (spans() != nullptr) {
              // Instant span: the recovery decision happens at detection
              // time; the re-invocation itself becomes a fresh SERVICE span
              // on the retry target.
              uint64_t rec = spans()->OpenSpan(ctx->txn, id(),
                                              obs::kSpanRecovery,
                                              ctx->span_id, net->now(), fault);
              spans()->CloseSpan(rec, net->now(), obs::kOutcomeRetried);
            }
            // Record the new target immediately so duplicate failure
            // detections (keep-alive + redirected results) for the old peer
            // no longer match this edge; InvokeChild re-watches the target.
            ReleaseChild(edge);
            edge->invoked_peer = target;
            const std::string txn = ctx->txn;
            const size_t edge_index =
                static_cast<size_t>(edge - ctx->children.data());
            std::weak_ptr<void> alive = AliveToken();
            // Honour the handler's wait before re-invoking.
            net->ScheduleAfter(
                handler.retry.wait,
                [this, txn, edge_index, target,
                 alive](overlay::Network* n) {
                  if (alive.expired() || !n->IsConnected(id())) return;
                  Ctx* live = FindContext(txn);
                  if (live == nullptr || live->state != Ctx::State::kRunning ||
                      edge_index >= live->children.size()) {
                    return;
                  }
                  ChildEdge* live_edge = &live->children[edge_index];
                  if (live_edge->state == ChildEdge::State::kDone ||
                      live_edge->state == ChildEdge::State::kAbsorbed) {
                    return;
                  }
                  InvokeChild(live, live_edge, target, n);
                });
            return;
          }
        }
        // Retries exhausted or no viable target: try further handlers.
        continue;
      }
      // Handler without retry: the application absorbs the fault — forward
      // recovery succeeds here and undoing stops ("undo only as much as
      // required", §3.2).
      edge->state = ChildEdge::State::kAbsorbed;
      ReleaseChild(edge);
      ++counters()->forward_recoveries;
      if (spans() != nullptr) {
        uint64_t rec = spans()->OpenSpan(ctx->txn, id(), obs::kSpanRecovery,
                                         ctx->span_id, net->now(), fault);
        spans()->CloseSpan(rec, net->now(), obs::kOutcomeAbsorbed);
      }
      TryComplete(ctx, net);
      return;
    }
  }
  // No handler matched: backward recovery, same as the base protocol.
  AxmlPeer::OnChildFailure(ctx, edge, fault, net);
}

}  // namespace axmlx::recovery
