// doc_mvcc: interleaved transactions on one large keyed document through
// comp::ConcurrentExecutor::ExecuteBatch on a runtime::JobQueue, plus a
// smaller document whose players embed replace-mode getPoints calls.
//
// Closed loop, one client. Each cycle begins up to kWidth transactions per
// document (conflict losers first), runs their operations in lock step —
// step k executes every live transaction's k-th operation as one batch —
// and commits the survivors in a fixed order. Inventory transactions are
// [keyed read, section read, write, write]; getPoints transactions read
// (and so materialize) two players. Losers are compensated by the executor
// and retried next cycle with the same operations.
#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "checks.h"
#include "common/rng.h"
#include "compensation/concurrent.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "ops/operation.h"
#include "runtime/job_queue.h"
#include "xml/builder.h"
#include "xml/parser.h"

namespace e2e {
namespace {

using axmlx::comp::ConcurrentExecutor;
using axmlx::comp::TxnHandle;
using axmlx::xml::Document;
using axmlx::xml::NodeId;

constexpr int kSections = 64;
constexpr int kHotSections = 4;   ///< Sections 0..3 take the hot share.
constexpr double kHotShare = 0.25;  ///< Share of writes aimed at hot sections.
constexpr int kMvccRecords = 10000;
constexpr int kPlayers = 32;
constexpr int kHotPlayers = 2;
constexpr int kInvTxnsPerRound = 36;
constexpr int kPointsTxnsPerRound = 24;
constexpr int kSoloAfterLosses = 2;
constexpr int kVoluntaryAbortEvery = 6;  ///< Every 6th getPoints txn aborts
                                          ///< once on purpose, then retries.

/// Concurrent transactions per document: nproc - 1, at least 1.
int Width() {
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, n - 1);
}

/// JobQueue worker threads: nproc - 2, at least 1, so one core stays free
/// for the client's apply stages and the rest of the machine. With every
/// core busy the wave barrier waits for whichever worker the host delays:
/// over five 30 s runs on a shared 4-core VM, txn_per_s spread 10 % with 3
/// workers and 6.5 % with 2.
int Workers() {
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, n - 2);
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

// --- Operations ------------------------------------------------------------

axmlx::ops::Operation KeyedRead(const std::string& key) {
  // The paper's keyed lookup over all records (child-path predicate).
  return axmlx::ops::MakeQuery("Select p/price from p in Inv//item where "
                               "p/name = " + Quote(key));
}
axmlx::ops::Operation SectionRead(int section) {
  return axmlx::ops::MakeQuery(
      "Select s/item from s in Inv/section where s/@id = " +
      Quote("s" + std::to_string(section)));
}
axmlx::ops::Operation PlayerRead(int player) {
  return axmlx::ops::MakeQuery("Select p/points from p in Points//player "
                               "where p/name = " +
                               Quote("p" + std::to_string(player)));
}

struct Write {
  enum Kind { kInsert, kReplace, kDelete } kind = kInsert;
  int section = 0;
  std::string key;
  std::string price;

  axmlx::ops::Operation ToOp() const {
    switch (kind) {
      case kInsert:
        return axmlx::ops::MakeInsert(
            "Select s from s in Inv/section where s/@id = " +
                Quote("s" + std::to_string(section)),
            "<item id=\"" + key + "\"><name>" + key + "</name><price>" +
                price + "</price></item>");
      case kReplace:
        return axmlx::ops::MakeReplace(
            "Select i/price from i in Inv/section/item where i/@id = " +
                Quote(key),
            "<price>" + price + "</price>");
      case kDelete:
        return axmlx::ops::MakeDelete(
            "Select i from i in Inv/section/item where i/@id = " + Quote(key));
    }
    return {};
  }
};

// --- Model -----------------------------------------------------------------

/// The benchmark's own copy of the inventory: committed state only.
class Model {
 public:
  Inventory inv;
  std::map<std::string, int> section_of;

  void Add(int section, const std::string& key, const std::string& price) {
    inv[static_cast<size_t>(section)].items.push_back({key, price});
    section_of[key] = section;
  }
  const Record* Find(const std::string& key) const {
    auto it = section_of.find(key);
    if (it == section_of.end()) return nullptr;
    for (const Record& r : inv[static_cast<size_t>(it->second)].items) {
      if (r.key == key) return &r;
    }
    return nullptr;
  }
  void Apply(const Write& w) {
    auto& items = inv[static_cast<size_t>(w.section)].items;
    switch (w.kind) {
      case Write::kInsert:
        Add(w.section, w.key, w.price);
        break;
      case Write::kReplace:
        for (Record& r : items) {
          if (r.key == w.key) r.price = w.price;
        }
        break;
      case Write::kDelete:
        std::erase_if(items, [&w](const Record& r) { return r.key == w.key; });
        section_of.erase(w.key);
        break;
    }
  }
};

std::string PriceText(axmlx::Rng* rng) {
  return std::to_string(10 + rng->Uniform(990));
}

/// Builds the keyed document text and the matching model.
std::string BuildInventory(int records, axmlx::Rng* rng, Model* model) {
  model->inv.assign(kSections, Section{});
  for (int s = 0; s < kSections; ++s) {
    model->inv[static_cast<size_t>(s)].id = "s" + std::to_string(s);
  }
  for (int k = 0; k < records; ++k) {
    model->Add(k % kSections, "k" + std::to_string(k), PriceText(rng));
  }
  std::string xml = "<Inv>";
  for (const Section& s : model->inv) {
    xml += "<section id=\"" + s.id + "\">";
    for (const Record& r : s.items) {
      xml += "<item id=\"" + r.key + "\"><name>" + r.key + "</name><price>" +
             r.price + "</price></item>";
    }
    xml += "</section>";
  }
  return xml + "</Inv>";
}

std::string BuildPoints() {
  std::string xml = "<Points>";
  for (int i = 0; i < kPlayers; ++i) {
    const std::string n = "p" + std::to_string(i);
    xml += "<player id=\"" + n + "\"><name>" + n +
           "</name><axml:sc mode=\"replace\" serviceNameSpace=\"getPoints\" "
           "methodName=\"getPoints\" outputName=\"points\"><axml:params>"
           "<axml:param name=\"name\"><axml:value>" + n +
           "</axml:value></axml:param></axml:params><points>0</points>"
           "</axml:sc></player>";
  }
  return xml + "</Points>";
}

/// Current <points> text of `player` in the live getPoints document.
std::string PointsOf(const Document& doc, int player) {
  const std::string name = "p" + std::to_string(player);
  std::string out;
  doc.Walk(doc.root(), [&](const axmlx::xml::Node& n) {
    if (n.is_element() && n.name == "player") {
      const std::string* id = n.FindAttribute("id");
      if (id != nullptr && *id == name) {
        NodeId pts = axmlx::xml::FirstDescendantElement(doc, n.id, "points");
        if (pts != axmlx::xml::kNullNode) out = doc.TextContent(pts);
        return false;
      }
    }
    return true;
  });
  return out;
}

// --- Transactions ----------------------------------------------------------

struct Txn {
  int index = 0;
  std::vector<axmlx::ops::Operation> ops;
  // Inventory transactions.
  std::string read_key;
  int read_section = 0;
  std::vector<Write> writes;
  // getPoints transactions.
  std::vector<int> players;
  bool abort_once = false;  ///< Voluntary abort on the first attempt.
  bool failed = false;      ///< A check or call failed for this txn.
  int losses = 0;           ///< Conflict aborts so far.
  std::map<int, std::string> materialized;  ///< player -> value this attempt.

  TxnHandle handle = 0;
  bool live = false;  ///< Begun and not conflict-aborted this cycle.
  int64_t first_begin_ns = 0;
  int64_t first_begin_excl = 0;
  int attempts = 0;
};

struct Totals {
  int64_t committed = 0;
  std::vector<double> read_us;          ///< Keyed-lookup steps.
  std::vector<double> section_read_us;  ///< Section-read steps.
  std::vector<double> points_read_us;   ///< getPoints steps.
  std::vector<double> write_us;         ///< Write steps.
  std::vector<double> setup_s;
  double loop_us = 0;
  int64_t retries = 0;
  int64_t invocations = 0;
  int64_t nodes_affected = 0;
  int64_t read_results = 0;
  int64_t reads = 0;
  int64_t probe_entries = 0;
  int64_t probe_prepared = 0;
  axmlx::query::EvalStats probe_stats;
  int64_t conflicts = 0;
  int64_t begins = 0;
  int64_t commits = 0;
  int64_t waves = 0;
  int64_t job_eval_us = 0;
  int64_t nodes_allocated = 0;
  int64_t pages_allocated = 0;
  int64_t versions_recorded = 0;
  int64_t versions_pruned = 0;
};

class MvccRound {
 public:
  MvccRound(uint64_t seed, int records, Tracer* tracer, Totals* totals,
            RunResult* result)
      : rng_(seed), records_(records), tracer_(tracer), totals_(totals),
        result_(result) {}

  axmlx::Status SetUp();
  void Run();
  void Finish();

 private:
  Txn NewInvTxn(int index);
  Txn NewPointsTxn(int index);
  void Begin(Txn* t, ConcurrentExecutor* exec, const char* kind);
  void Probe(const std::vector<ConcurrentExecutor::BatchOp>& batch);
  void RunCycle(std::vector<Txn>* inv, std::vector<Txn>* pts);
  /// Moves a cycle's aborted transactions to `waiting`. One that lost
  /// while running alone had no concurrent writer to lose to: it fails and
  /// is not retried.
  void Requeue(std::vector<Txn>* cycle, std::vector<Txn>* waiting);
  /// Picks the next cycle's transactions for one document.
  template <typename MakeFn>
  void Form(std::vector<Txn>* waiting, std::vector<Txn>* out, int width,
            MakeFn&& make);
  void Commit(Txn* t, ConcurrentExecutor* exec, bool inventory);
  void Fail(Txn& t, const std::string& what) {
    result_->Error("txn " + std::to_string(t.index) + ": " + what);
    t.failed = true;
  }

  axmlx::Rng rng_;
  int records_;
  Tracer* tracer_;
  Totals* totals_;
  RunResult* result_;
  ExcludedTime excluded_;  ///< Checks and probes inside the loop.
  Model model_;
  std::map<int, std::string> points_model_;  ///< player -> committed value
  std::unique_ptr<Document> inv_doc_;
  std::unique_ptr<Document> pts_doc_;
  // Declaration order is destruction order in reverse: the registry
  // outlives the queue that publishes into it, and the queue outlives the
  // executor attached to it.
  axmlx::obs::MetricsRegistry runtime_metrics_;
  std::unique_ptr<axmlx::runtime::JobQueue> runtime_;
  std::unique_ptr<ConcurrentExecutor> inv_exec_;
  std::unique_ptr<ConcurrentExecutor> pts_exec_;
  std::set<std::string> claimed_;  ///< Keys a live txn replaces/deletes.
  std::vector<std::pair<int, std::string>> invoked_;  ///< This step's calls.
  int64_t invocations_ = 0;
  int next_key_ = 0;
};

axmlx::Status MvccRound::SetUp() {
  AXMLX_ASSIGN_OR_RETURN(
      inv_doc_, axmlx::xml::Parse(BuildInventory(records_, &rng_, &model_)));
  AXMLX_ASSIGN_OR_RETURN(pts_doc_, axmlx::xml::Parse(BuildPoints()));
  for (int p = 0; p < kPlayers; ++p) points_model_[p] = "0";
  axmlx::runtime::JobQueueOptions rt;
  rt.workers = Workers();
  runtime_ = std::make_unique<axmlx::runtime::JobQueue>(rt);
  runtime_->AttachMetrics(&runtime_metrics_);
  inv_exec_ = std::make_unique<ConcurrentExecutor>(inv_doc_.get(), nullptr);
  inv_exec_->AttachRuntime(runtime_.get());
  // In-process getPoints service: a fresh value per invocation, so every
  // materialization is observable and every rollback checkable.
  axmlx::axml::ServiceInvoker invoker =
      [this](const axmlx::axml::ServiceRequest& request)
      -> axmlx::Result<axmlx::axml::ServiceResponse> {
    ScopedSpan span(tracer_, "axml.invoke");
    int player = -1;
    for (const auto& [k, v] : request.params) {
      if (k == "name" && v.size() > 1) player = std::atoi(v.c_str() + 1);
    }
    const std::string value = std::to_string(1000 + ++invocations_);
    invoked_.push_back({player, value});
    axmlx::axml::ServiceResponse response;
    AXMLX_ASSIGN_OR_RETURN(response.fragment,
                           axmlx::xml::Parse("<r><points>" + value +
                                             "</points></r>"));
    return response;
  };
  pts_exec_ = std::make_unique<ConcurrentExecutor>(pts_doc_.get(), invoker);
  return axmlx::Status::Ok();
}

Txn MvccRound::NewInvTxn(int index) {
  Txn t;
  t.index = index;
  const auto& keys = model_.section_of;
  auto random_key = [&](int section) -> std::string {
    const auto& items = model_.inv[static_cast<size_t>(section)].items;
    for (int tries = 0; tries < 8 && !items.empty(); ++tries) {
      const std::string& k = items[rng_.Uniform(items.size())].key;
      if (!claimed_.count(k)) return k;
    }
    return std::string();
  };
  // Keyed read of any record.
  auto it = keys.begin();
  std::advance(it, static_cast<long>(rng_.Uniform(keys.size())));
  t.read_key = it->first;
  t.read_section = static_cast<int>(rng_.Uniform(kSections));
  for (int i = 0; i < 2; ++i) {
    Write w;
    w.section = rng_.UniformDouble() < kHotShare
                    ? static_cast<int>(rng_.Uniform(kHotSections))
                    : static_cast<int>(rng_.Uniform(kSections));
    const double kind = rng_.UniformDouble();
    w.kind = kind < 0.4 ? Write::kInsert
                        : (kind < 0.8 ? Write::kReplace : Write::kDelete);
    w.price = PriceText(&rng_);
    if (w.kind != Write::kInsert) w.key = random_key(w.section);
    if (w.key.empty()) {
      w.kind = Write::kInsert;
      w.key = "n" + std::to_string(next_key_++);
    } else {
      claimed_.insert(w.key);
    }
    t.writes.push_back(w);
  }
  // Writes go in section order, so two transactions never take the same
  // two sections in opposite orders.
  if (t.writes[1].section < t.writes[0].section) {
    std::swap(t.writes[0], t.writes[1]);
  }
  t.ops = {KeyedRead(t.read_key), SectionRead(t.read_section),
           t.writes[0].ToOp(), t.writes[1].ToOp()};
  return t;
}

Txn MvccRound::NewPointsTxn(int index) {
  Txn t;
  t.index = index;
  for (int i = 0; i < 2; ++i) {
    int p = rng_.UniformDouble() < kHotShare
                ? static_cast<int>(rng_.Uniform(kHotPlayers))
                : static_cast<int>(rng_.Uniform(kPlayers));
    if (i == 1 && p == t.players[0]) p = (p + 1) % kPlayers;
    t.players.push_back(p);
  }
  std::sort(t.players.begin(), t.players.end());  // same order everywhere
  for (int p : t.players) t.ops.push_back(PlayerRead(p));
  t.abort_once = index % kVoluntaryAbortEvery == kVoluntaryAbortEvery - 1;
  return t;
}

void MvccRound::Begin(Txn* t, ConcurrentExecutor* exec, const char* kind) {
  ScopedSpan span(tracer_, "comp.begin");
  if (t->attempts++ == 0) {
    t->first_begin_ns = NowNs();
    t->first_begin_excl = excluded_.ns();
  }
  t->handle = exec->Begin(std::string(kind) + std::to_string(t->index) + "." +
                          std::to_string(t->attempts));
  t->live = true;
  t->materialized.clear();
}

void MvccRound::Probe(const std::vector<ConcurrentExecutor::BatchOp>& batch) {
  // Re-runs each entry's read-only half against the same wave-start state
  // and snapshot the runtime's work stage sees, to count what the evaluator
  // does (the executor's own evaluation contexts are private).
  if (tracer_ == nullptr || !tracer_->on()) return;
  excluded_([&] {
    for (const auto& entry : batch) {
      axmlx::query::EvalContext ctx;
      ctx.view = inv_exec_->ViewOf(entry.txn);
      axmlx::ops::PreparedOp prep =
          axmlx::ops::Executor::Prepare(*inv_doc_, entry.op, &ctx);
      ++totals_->probe_entries;
      if (prep.prepared) ++totals_->probe_prepared;
      totals_->probe_stats.index_hits += ctx.stats.index_hits;
      totals_->probe_stats.index_candidates += ctx.stats.index_candidates;
      totals_->probe_stats.walk_fallbacks += ctx.stats.walk_fallbacks;
    }
  });
}

void MvccRound::Commit(Txn* t, ConcurrentExecutor* exec, bool inventory) {
  {
    ScopedSpan span(tracer_, "comp.commit");
    axmlx::Status s = exec->Commit(t->handle);
    if (!s.ok()) Fail(*t, "commit: " + s.ToString());
  }
  const double us =
      static_cast<double>((NowNs() - t->first_begin_ns) -
                          (excluded_.ns() - t->first_begin_excl)) /
      1e3;
  excluded_([&] {
    result_->txn_us.push_back(us);
    ++totals_->committed;
    ++result_->attempted;
    if (inventory) {
      for (const Write& w : t->writes) {
        model_.Apply(w);
        claimed_.erase(w.key);
      }
    } else {
      for (const auto& [p, v] : t->materialized) points_model_[p] = v;
    }
    if (t->failed) ++result_->failed;
  });
}

void MvccRound::RunCycle(std::vector<Txn>* inv, std::vector<Txn>* pts) {
  for (Txn& t : *inv) Begin(&t, inv_exec_.get(), "i");
  for (Txn& t : *pts) Begin(&t, pts_exec_.get(), "g");

  for (size_t step = 0; step < 4; ++step) {
    // Inventory batch: one entry per live transaction.
    std::vector<ConcurrentExecutor::BatchOp> batch;
    std::vector<Txn*> owners;
    for (Txn& t : *inv) {
      if (!t.live) continue;
      batch.push_back({t.handle, t.ops[step]});
      owners.push_back(&t);
    }
    const bool read_step = step < 2;
    if (!batch.empty()) {
      Probe(batch);
      const int64_t t0 = NowNs();
      std::vector<ConcurrentExecutor::BatchOutcome> out;
      {
        ScopedSpan span(tracer_, "runtime.batch");
        out = inv_exec_->ExecuteBatch(batch);
      }
      const double us = static_cast<double>(NowNs() - t0) / 1e3;
      excluded_([&] {
        (step == 0   ? totals_->read_us
         : step == 1 ? totals_->section_read_us
                     : totals_->write_us)
            .push_back(us);
        for (size_t i = 0; i < out.size(); ++i) {
          Txn& t = *owners[i];
          if (axmlx::comp::IsWriteConflict(out[i].status)) {
            t.live = false;
            ++t.losses;
            ++totals_->retries;
            continue;
          }
          if (!out[i].status.ok()) {
            Fail(t, "op " + std::to_string(step) + ": " +
                        out[i].status.ToString());
            continue;
          }
          const axmlx::ops::OpEffect& e = *out[i].effect;
          totals_->nodes_affected += static_cast<int64_t>(e.NodesAffected());
          if (!read_step) continue;
          const auto selected = e.query_result.AllSelected();
          ++totals_->reads;
          totals_->read_results += static_cast<int64_t>(selected.size());
          // No writes happen before step 2 of a cycle, so both reads see
          // exactly the committed state the model holds.
          if (step == 0) {
            const Record* r = model_.Find(t.read_key);
            std::string got;
            if (!selected.empty()) got = inv_doc_->TextContent(selected[0]);
            const std::string problem =
                CheckKeyedRead(t.read_key, got, r != nullptr ? r->price : "");
            if (!problem.empty()) Fail(t, problem);
          } else {
            const auto& items =
                model_.inv[static_cast<size_t>(t.read_section)].items;
            bool same = selected.size() == items.size();
            for (size_t k = 0; same && k < items.size(); ++k) {
              NodeId name = axmlx::xml::FirstChildElement(*inv_doc_,
                                                          selected[k], "name");
              same = inv_doc_->TextContent(name) == items[k].key;
            }
            if (!same) Fail(t, "section read of s" +
                                   std::to_string(t.read_section) +
                                   " differs from the model");
          }
        }
      });
    }

    // getPoints step: materializing reads, executed one by one (an
    // embedded call is never prepared off-thread).
    if (step >= 2) continue;
    int64_t pts_ns = 0;
    for (Txn& t : *pts) {
      if (!t.live) continue;
      invoked_.clear();
      const int64_t t0 = NowNs();
      axmlx::Result<const axmlx::ops::OpEffect*> r = [&] {
        ScopedSpan span(tracer_, "comp.execute");
        return pts_exec_->Execute(t.handle, t.ops[step]);
      }();
      pts_ns += NowNs() - t0;
      excluded_([&] {
        totals_->invocations += static_cast<int64_t>(invoked_.size());
        if (axmlx::comp::IsWriteConflict(r.status())) {
          t.live = false;
          ++t.losses;
          ++totals_->retries;
          // The loser's earlier materializations are compensated: each
          // must read its committed value again.
          for (const auto& [p, v] : t.materialized) {
            const std::string problem = CheckRestored(
                "player p" + std::to_string(p), PointsOf(*pts_doc_, p),
                points_model_[p]);
            if (!problem.empty()) Fail(t, problem);
          }
          return;
        }
        if (!r.ok()) {
          Fail(t, "getPoints read: " + r.status().ToString());
          return;
        }
        const int p = t.players[step];
        ++totals_->reads;
        totals_->read_results +=
            static_cast<int64_t>((*r)->query_result.AllSelected().size());
        totals_->nodes_affected += static_cast<int64_t>((*r)->NodesAffected());
        if (invoked_.size() != 1 || invoked_[0].first != p) {
          Fail(t, "read of p" + std::to_string(p) +
                      " did not materialize exactly its call");
          return;
        }
        t.materialized[p] = invoked_[0].second;
        const std::string problem =
            CheckKeyedRead("p" + std::to_string(p), PointsOf(*pts_doc_, p),
                           invoked_[0].second);
        if (!problem.empty()) Fail(t, problem);
      });
    }
    if (pts_ns > 0) {
      totals_->points_read_us.push_back(static_cast<double>(pts_ns) / 1e3);
    }
  }

  // Commit the survivors in a fixed order; losers wait for the next cycle.
  for (Txn& t : *inv) {
    if (t.live) Commit(&t, inv_exec_.get(), /*inventory=*/true);
  }
  for (Txn& t : *pts) {
    if (!t.live) continue;
    if (t.abort_once && t.attempts == 1) {
      {
        ScopedSpan span(tracer_, "comp.abort");
        axmlx::Status s = pts_exec_->Abort(t.handle);
        if (!s.ok()) Fail(t, "abort: " + s.ToString());
      }
      t.live = false;
      excluded_([&] {
        for (const auto& [p, v] : t.materialized) {
          const std::string problem = CheckRestored(
              "player p" + std::to_string(p), PointsOf(*pts_doc_, p),
              points_model_[p]);
          if (!problem.empty()) Fail(t, problem);
        }
      });
      continue;
    }
    Commit(&t, pts_exec_.get(), /*inventory=*/false);
  }
}

void MvccRound::Requeue(std::vector<Txn>* cycle, std::vector<Txn>* waiting) {
  for (Txn& t : *cycle) {
    if (t.live) continue;
    if (t.losses > kSoloAfterLosses) {
      Fail(t, "write conflict while running alone");
      ++result_->attempted;
      ++result_->failed;
      continue;
    }
    waiting->push_back(std::move(t));
  }
}

template <typename MakeFn>
void MvccRound::Form(std::vector<Txn>* waiting, std::vector<Txn>* out,
                     int width, MakeFn&& make) {
  for (auto it = waiting->begin(); it != waiting->end(); ++it) {
    if (it->losses >= kSoloAfterLosses) {
      out->push_back(std::move(*it));
      waiting->erase(it);
      return;
    }
  }
  for (Txn& t : *waiting) out->push_back(std::move(t));
  waiting->clear();
  while (static_cast<int>(out->size()) < width) {
    Txn t = make();
    if (t.ops.empty()) break;
    out->push_back(std::move(t));
  }
}

void MvccRound::Run() {
  const int width = Width();
  int next_inv = 0;
  int next_pts = 0;
  std::vector<Txn> inv_waiting;
  std::vector<Txn> pts_waiting;
  const int64_t t0 = NowNs();
  const int64_t excl0 = excluded_.ns();
  while (next_inv < kInvTxnsPerRound || next_pts < kPointsTxnsPerRound ||
         !inv_waiting.empty() || !pts_waiting.empty()) {
    std::vector<Txn> inv;
    std::vector<Txn> pts;
    // Losers of the previous cycle go first, then new transactions. A
    // transaction that lost kSoloAfterLosses times runs alone in its next
    // cycle: two writers that take nodes in opposite orders can otherwise
    // abort each other in every cycle.
    excluded_([&] {
      Form(&inv_waiting, &inv, width, [&] {
        return next_inv < kInvTxnsPerRound ? NewInvTxn(next_inv++) : Txn{};
      });
      Form(&pts_waiting, &pts, width, [&] {
        return next_pts < kPointsTxnsPerRound ? NewPointsTxn(next_pts++)
                                              : Txn{};
      });
    });
    RunCycle(&inv, &pts);
    excluded_([&] {
      Requeue(&inv, &inv_waiting);
      Requeue(&pts, &pts_waiting);
    });
  }
  const double loop_us =
      static_cast<double>((NowNs() - t0) - (excluded_.ns() - excl0)) /
      1e3;
  totals_->loop_us += loop_us;
}

void MvccRound::Finish() {
  // The final documents equal the model with the committed transactions
  // applied in commit order.
  std::string problem = CheckInventory(ReadInventory(*inv_doc_), model_.inv);
  if (!problem.empty()) result_->Incorrect("final inventory: " + problem);
  for (const auto& [p, v] : points_model_) {
    problem = CheckRestored("final player p" + std::to_string(p),
                            PointsOf(*pts_doc_, p), v);
    if (!problem.empty()) result_->Incorrect(problem);
  }
  for (ConcurrentExecutor* exec : {inv_exec_.get(), pts_exec_.get()}) {
    const auto snap = exec->metrics()->Snapshot();
    auto counter = [&snap](const char* name) -> int64_t {
      auto it = snap.counters.find(name);
      return it != snap.counters.end() ? it->second : 0;
    };
    totals_->conflicts += counter(axmlx::obs::kMetricTxnConflictsDetected);
    totals_->begins += counter(axmlx::obs::kMetricTxnSnapshotsTaken);
    totals_->commits += counter(axmlx::obs::kMetricTxnMvccCommits);
  }
  for (const Document* doc : {inv_doc_.get(), pts_doc_.get()}) {
    const auto& s = doc->storage_stats();
    totals_->nodes_allocated += s.nodes_allocated;
    totals_->pages_allocated += s.pages_allocated;
    totals_->versions_recorded += s.versions_recorded;
    totals_->versions_pruned += s.versions_pruned;
  }
  totals_->waves += runtime_->stats().waves;
  const auto snap = runtime_metrics_.Snapshot();
  auto hist = snap.histograms.find(axmlx::obs::kMetricJobEvalRunUs);
  if (hist != snap.histograms.end()) totals_->job_eval_us += hist->second.sum;
}

}  // namespace

RunResult RunMvcc(const Options& options) {
  RunResult result;
  Totals totals;
  Tracer tracer;
  tracer.Enable(options.trace);
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  int round = 0;
  while (round == 0 || NowNs() < deadline) {
    MvccRound r(options.seed * 1000003ULL + round, kMvccRecords, &tracer,
                &totals, &result);
    const int64_t t0 = NowNs();
    axmlx::Status s = r.SetUp();
    totals.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!s.ok()) {
      result.Incorrect("set-up failed: " + s.ToString());
      return result;
    }
    r.Run();
    r.Finish();
    ++round;
  }
  tracer.Enable(false);

  const int64_t ops = totals.committed;
  result.end_to_end = {
      {"setup_s", Median(totals.setup_s), "s"},
      {"txn_per_s", totals.loop_us > 0 ? 1e6 * ops / totals.loop_us : 0,
       "txn/s"},
      {"txn_p50_us", Median(result.txn_us), "us"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  // The p99 is reported but not gated: on a shared VM its run-to-run
  // spread (I/O stalls in the tree workloads, whole extra retry cycles in
  // doc_mvcc) exceeds any usable bound.
  result.workload = {
      {"txn_p99_us", Quantile(result.txn_us, 0.99), "us"},
      {"read_p50_us", Median(totals.read_us), "us"},
      {"write_p50_us", Median(totals.write_us), "us"},
      {"section_read_p50_us", Median(totals.section_read_us), "us"},
      {"points_read_p50_us", Median(totals.points_read_us), "us"},
      {"rounds", static_cast<double>(round), "count"},
  };
  if (options.trace) {
    const auto spans = tracer.Reduce();
    const double n = static_cast<double>(ops);
    std::map<std::string, double> v;
    v["txn.retries"] = Ratio(totals.retries, n);
    v["obs.trace_overhead_pct"] = TraceOverheadPct(tracer, totals.loop_us);
    v["xml.nodes_allocated"] = Ratio(totals.nodes_allocated, n);
    v["xml.pages_allocated"] = Ratio(totals.pages_allocated, n);
    v["xml.versions_recorded"] = Ratio(totals.versions_recorded, n);
    v["xml.versions_pruned"] = Ratio(totals.versions_pruned, n);
    v["ops.nodes_affected"] = Ratio(totals.nodes_affected, n);
    v["query.index_hits"] = Ratio(totals.probe_stats.index_hits, n);
    v["query.index_candidates"] = Ratio(totals.probe_stats.index_candidates, n);
    v["query.walk_fallbacks"] = Ratio(totals.probe_stats.walk_fallbacks, n);
    v["query.results_per_read"] = Ratio(totals.read_results, totals.reads);
    v["axml.calls"] = Ratio(totals.invocations, n);
    v["axml.invoke_us"] = SelfUsPerOp(spans, "axml.invoke", ops);
    v["comp.execute_us"] = SelfUsPerOp(spans, "comp.execute", ops);
    v["comp.commit_us"] = SelfUsPerOp(spans, "comp.commit", ops);
    v["comp.abort_us"] = SelfUsPerOp(spans, "comp.abort", ops);
    v["comp.conflicts_detected"] = Ratio(totals.conflicts, n);
    v["comp.commit_ratio"] = Ratio(totals.commits, totals.begins);
    v["runtime.batch_us"] = SelfUsPerOp(spans, "runtime.batch", ops);
    v["runtime.prepared_ratio"] =
        Ratio(totals.probe_prepared, totals.probe_entries);
    v["runtime.job_eval_run_us"] = Ratio(totals.job_eval_us, n);
    v["runtime.waves"] = Ratio(totals.waves, n);
    for (const auto& [name, unit] : PerLayerMetrics()) {
      auto it = v.find(name);
      result.per_layer.push_back({name, it != v.end() ? it->second : 0, unit});
    }
    PrintSpanTable(spans, ops);
  }
  return result;
}

int RunSweep(const Options& options) {
  // doc_mvcc's read mix alone, at three document sizes, so a per-read
  // O(document) cost shows as a slope. The attribute-keyed lookup selects
  // the same record as the child-path one and isolates the cost of the
  // child-path predicate.
  std::printf("%-8s %-8s %14s %14s %14s\n", "records", "nodes",
              "keyed_p50_us", "attr_p50_us", "section_p50_us");
  for (int records : {2500, 5000, 10000}) {
    axmlx::Rng rng(options.seed);
    Model model;
    auto doc = axmlx::xml::Parse(BuildInventory(records, &rng, &model));
    if (!doc.ok()) return 1;
    ConcurrentExecutor exec(doc.value().get(), nullptr);
    std::vector<double> keyed;
    std::vector<double> attr;
    std::vector<double> section;
    auto timed = [&exec](TxnHandle h, const axmlx::ops::Operation& op,
                         std::vector<double>* out) {
      const int64_t t0 = NowNs();
      const bool ok = exec.Execute(h, op).ok();
      out->push_back(static_cast<double>(NowNs() - t0) / 1e3);
      return ok;
    };
    for (int i = 0; i < 40; ++i) {
      TxnHandle h = exec.Begin("sweep" + std::to_string(i));
      const std::string key = "k" + std::to_string(rng.Uniform(records));
      const bool ok =
          timed(h, KeyedRead(key), &keyed) &&
          timed(h,
                axmlx::ops::MakeQuery("Select p/price from p in Inv//item "
                                      "where p/@id = " + Quote(key)),
                &attr) &&
          timed(h, SectionRead(static_cast<int>(rng.Uniform(kSections))),
                &section);
      if (!ok || !exec.Commit(h).ok()) return 1;
    }
    std::printf("%-8d %-8zu %14.1f %14.1f %14.1f\n", records,
                doc.value()->size(), Median(keyed), Median(attr),
                Median(section));
  }
  return 0;
}

}  // namespace e2e
