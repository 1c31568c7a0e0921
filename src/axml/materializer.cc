#include "axml/materializer.h"

#include <algorithm>
#include <unordered_set>

#include "query/eval.h"

namespace axmlx::axml {

namespace {
constexpr int kMaxNestingDepth = 16;
}  // namespace

std::string FaultNameOf(const Status& status) {
  const std::string& m = status.message();
  size_t colon = m.find(':');
  return colon == std::string::npos ? m : m.substr(0, colon);
}

Result<ServiceRequest> Materializer::ResolveRequest(
    const ServiceCallInfo& info) {
  ServiceRequest req;
  req.service_namespace = info.service_namespace;
  req.service_url = info.service_url;
  req.method_name = info.method_name;
  for (const ScParam& p : info.params) {
    switch (p.kind) {
      case ScParam::Kind::kLiteral:
        req.params.emplace_back(p.name, p.value);
        break;
      case ScParam::Kind::kExternal: {
        auto it = externals_.find(p.value);
        if (it == externals_.end()) {
          return FailedPrecondition("external parameter '$" + p.value +
                                    "' has no supplied value");
        }
        req.params.emplace_back(p.name, it->second);
        break;
      }
      case ScParam::Kind::kNestedCall: {
        // "The service call parameters may themselves be defined as service
        // calls. As such, evaluating a service call may require evaluating
        // the parameters' service calls first." (§1, local nesting)
        AXMLX_ASSIGN_OR_RETURN(std::vector<xml::NodeId> produced,
                               MaterializeCall(p.nested_call));
        std::string value;
        for (xml::NodeId id : produced) value += doc_->TextContent(id);
        req.params.emplace_back(p.name, value);
        break;
      }
    }
  }
  return req;
}

Result<ServiceResponse> Materializer::InvokeWithHandlers(
    const ServiceCallInfo& info, const ServiceRequest& request,
    bool* fault_absorbed) {
  *fault_absorbed = false;
  Result<ServiceResponse> response = invoker_(request);
  ++stats_.calls_invoked;
  if (response.ok()) return response;
  if (response.status().code() != StatusCode::kServiceFault) {
    return response;  // Transport/abort errors are not application faults.
  }
  std::string fault = FaultNameOf(response.status());
  for (const FaultHandler& handler : info.handlers) {
    if (!handler.Matches(fault)) continue;
    if (!handler.has_retry) {
      // Application-specific forward recovery: the fault is handled and the
      // call simply produces no new results.
      ++stats_.faults_handled;
      *fault_absorbed = true;
      return response;
    }
    ServiceRequest retry_request = request;
    if (!handler.retry.replica_url.empty()) {
      retry_request.service_url = handler.retry.replica_url;
    }
    for (int attempt = 0; attempt < handler.retry.times; ++attempt) {
      ++stats_.retries;
      Result<ServiceResponse> retried = invoker_(retry_request);
      ++stats_.calls_invoked;
      if (retried.ok()) return retried;
      if (retried.status().code() != StatusCode::kServiceFault) return retried;
      response = std::move(retried);
    }
    // Retries exhausted; fall through to the next matching handler.
  }
  return response;
}

Result<std::vector<xml::NodeId>> Materializer::ApplyResults(
    const ServiceCallInfo& info, const xml::Document& fragment) {
  std::vector<xml::NodeId> inserted;
  if (info.mode == ScMode::kReplace) {
    // Remove the previous results, logging each removal so compensation can
    // reinstate the old values (§3.1, Query B example: points 890 -> 475).
    for (xml::NodeId old : ResultChildren(*doc_, info.element)) {
      AXMLX_ASSIGN_OR_RETURN(xml::DetachResult detached,
                             xml::DetachSubtree(doc_, old));
      xml::Edit edit;
      edit.kind = xml::Edit::Kind::kRemoveSubtree;
      edit.node = detached.subtree.root;
      edit.parent = detached.parent;
      edit.index = detached.index;
      edit.nodes_affected = detached.subtree.size();
      stats_.nodes_removed += detached.subtree.size();
      edit.removed = std::move(detached.subtree);
      log_->Append(std::move(edit));
    }
  }
  const xml::Node* frag_root = fragment.Find(fragment.root());
  for (xml::NodeId child : frag_root->children) {
    AXMLX_ASSIGN_OR_RETURN(xml::NodeId copy,
                           doc_->ImportSubtree(fragment, child));
    AXMLX_RETURN_IF_ERROR(doc_->AppendChild(info.element, copy));
    xml::Edit edit;
    edit.kind = xml::Edit::Kind::kInsertSubtree;
    edit.node = copy;
    edit.parent = info.element;
    edit.index = doc_->IndexInParent(copy);
    edit.nodes_affected = doc_->SubtreeSize(copy);
    stats_.nodes_inserted += edit.nodes_affected;
    log_->Append(std::move(edit));
    inserted.push_back(copy);
  }
  return inserted;
}

Result<std::vector<xml::NodeId>> Materializer::MaterializeCall(
    xml::NodeId sc) {
  if (depth_ >= kMaxNestingDepth) {
    return FailedPrecondition("service-call nesting exceeds the depth limit");
  }
  ++depth_;
  auto done = [this](Result<std::vector<xml::NodeId>> r) {
    --depth_;
    return r;
  };
  auto info_or = ParseServiceCall(*doc_, sc);
  if (!info_or.ok()) return done(info_or.status());
  ServiceCallInfo info = std::move(info_or).value();
  auto request_or = ResolveRequest(info);
  if (!request_or.ok()) return done(request_or.status());
  bool fault_absorbed = false;
  auto response_or = InvokeWithHandlers(info, *request_or, &fault_absorbed);
  if (!response_or.ok()) {
    if (fault_absorbed) return done(std::vector<xml::NodeId>{});
    return done(response_or.status());
  }
  if (response_or->fragment == nullptr) {
    return done(std::vector<xml::NodeId>{});
  }
  return done(ApplyResults(info, *response_or->fragment));
}

Result<std::vector<xml::NodeId>> Materializer::MaterializeForQuery(
    const query::Query& q, xml::NodeId scope) {
  // Lazy evaluation (§3.1): "only those embedded service calls are
  // materialized whose results are required for evaluating the query".
  // Two passes:
  //  1. calls whose outputs the `where` clause tests, under every candidate
  //     source node (the predicate must be evaluable);
  //  2. calls whose outputs the select paths read, under the *bindings that
  //     survived the predicate* only.
  std::vector<std::string> where_names;
  if (q.where != nullptr) {
    // MentionedNames covers selects + where; recompute just the where part
    // by parsing the predicate tree.
    std::vector<const query::Predicate*> stack = {q.where.get()};
    while (!stack.empty()) {
      const query::Predicate* p = stack.back();
      stack.pop_back();
      if (p == nullptr) continue;
      if (p->kind == query::Predicate::Kind::kCompare) {
        for (const query::Step& s : p->path.steps) {
          if (s.axis != query::Step::Axis::kParent &&
              s.axis != query::Step::Axis::kAttribute && s.name != "*") {
            where_names.push_back(s.name);
          }
        }
      } else {
        stack.push_back(p->left.get());
        stack.push_back(p->right.get());
      }
    }
  }
  std::unordered_set<std::string> where_set(where_names.begin(),
                                            where_names.end());
  std::vector<std::string> select_names;
  for (const query::PathExpr& sel : q.selects) {
    for (const query::Step& s : sel.steps) {
      if (s.axis != query::Step::Axis::kParent &&
              s.axis != query::Step::Axis::kAttribute && s.name != "*") {
        select_names.push_back(s.name);
      }
    }
  }
  std::unordered_set<std::string> select_set(select_names.begin(),
                                             select_names.end());

  auto needed_by = [this](xml::NodeId sc,
                          const std::unordered_set<std::string>& wanted)
      -> Result<bool> {
    AXMLX_ASSIGN_OR_RETURN(ServiceCallInfo info, ParseServiceCall(*doc_, sc));
    for (const std::string& name : info.OutputNames(*doc_)) {
      if (wanted.count(name) > 0) return true;
    }
    return false;
  };

  std::vector<xml::NodeId> materialized;
  std::unordered_set<xml::NodeId> done;
  // Pass 1: predicate inputs under all candidate source nodes.
  std::vector<xml::NodeId> sources =
      query::EvaluatePathFrom(*doc_, scope, q.source);
  if (!where_set.empty()) {
    for (xml::NodeId src : sources) {
      for (xml::NodeId sc : FindServiceCalls(*doc_, src)) {
        if (done.count(sc) > 0) continue;
        AXMLX_ASSIGN_OR_RETURN(bool needed, needed_by(sc, where_set));
        if (!needed) continue;
        AXMLX_RETURN_IF_ERROR(MaterializeCall(sc).status());
        done.insert(sc);
        materialized.push_back(sc);
      }
    }
  }
  // Pass 2: select inputs under surviving bindings only. One EvalContext
  // serves every binding; its text memo is dropped whenever a
  // materialization changes the document.
  query::EvalContext ctx;
  for (xml::NodeId src : sources) {
    if (q.where != nullptr &&
        !query::EvaluatePredicate(*doc_, src, *q.where, &ctx)) {
      continue;
    }
    for (xml::NodeId sc : FindServiceCalls(*doc_, src)) {
      if (done.count(sc) > 0) continue;
      AXMLX_ASSIGN_OR_RETURN(bool needed, needed_by(sc, select_set));
      if (!needed) {
        ++stats_.calls_skipped;
        continue;
      }
      AXMLX_RETURN_IF_ERROR(MaterializeCall(sc).status());
      ctx.InvalidateCaches();
      done.insert(sc);
      materialized.push_back(sc);
    }
  }
  return materialized;
}

Result<std::vector<xml::NodeId>> Materializer::MaterializeAll(
    xml::NodeId scope) {
  std::vector<xml::NodeId> materialized;
  std::unordered_set<xml::NodeId> seen;
  // Results may introduce new service calls; iterate to a fixed point with a
  // round bound to tame pathological self-reproducing services.
  for (int round = 0; round < kMaxNestingDepth; ++round) {
    bool progress = false;
    for (xml::NodeId sc : FindServiceCalls(*doc_, scope)) {
      if (!seen.insert(sc).second) continue;
      AXMLX_RETURN_IF_ERROR(MaterializeCall(sc).status());
      materialized.push_back(sc);
      progress = true;
    }
    if (!progress) break;
  }
  return materialized;
}

}  // namespace axmlx::axml
