// Differential tests for the hot-path overhaul:
//
//  1. The indexed evaluator (query/eval.h, tag index + EvalContext) must
//     return node-for-node identical results to the retained naive
//     reference evaluator (query/naive_eval.h) over randomized documents
//     and randomized queries, across multiple RNG seeds.
//  2. DurableStore recovery replay must reproduce byte-identical
//     Serialize() output under every FlushPolicy.

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ops/operation.h"
#include "query/eval.h"
#include "query/naive_eval.h"
#include "storage/durable_store.h"
#include "xml/builder.h"
#include "xml/document.h"

namespace axmlx {
namespace {

using query::EvalContext;
using query::PathExpr;
using query::Predicate;
using query::Query;
using query::Step;
using storage::DurableStore;
using storage::FlushPolicy;
using xml::Document;
using xml::NodeId;

const char* const kNames[] = {"a", "b", "c", "player", "rank", "section"};
constexpr size_t kNumNames = sizeof(kNames) / sizeof(kNames[0]);

/// Grows a random tree under `parent`: regular elements, text (some with
/// whitespace-padded numerics to stress CompareScalarValues), service-call
/// wrappers with bookkeeping children, and the occasional comment.
void GrowRandomTree(Document* doc, NodeId parent, int depth, Rng* rng) {
  const int children = static_cast<int>(rng->UniformRange(2, 5));
  for (int i = 0; i < children; ++i) {
    const uint64_t kind = rng->Uniform(10);
    if (kind < 5) {
      NodeId elem = xml::AddElement(doc, parent,
                                    kNames[rng->Uniform(kNumNames)]);
      if (depth > 0 && rng->Bernoulli(0.7)) {
        GrowRandomTree(doc, elem, depth - 1, rng);
      } else {
        std::string value = std::to_string(rng->UniformRange(0, 20));
        if (rng->Bernoulli(0.3)) value = " " + value + " ";  // padded numeric
        xml::AddText(doc, elem, value);
      }
    } else if (kind < 7) {
      xml::AddText(doc, parent, "t" + std::to_string(rng->Uniform(6)));
    } else if (kind < 9) {
      // Materialized service call: params are invisible, payload children
      // surface transparently at the sc's position.
      NodeId sc = xml::AddElement(doc, parent, "axml:sc");
      NodeId params = xml::AddElement(doc, sc, "axml:params");
      xml::AddTextElement(doc, params, "param", "hidden");
      if (depth > 0) {
        GrowRandomTree(doc, sc, depth - 1, rng);
      } else {
        xml::AddTextElement(doc, sc,
                            kNames[rng->Uniform(kNumNames)], "sc");
      }
    } else {
      (void)doc->AppendChild(parent, doc->CreateComment("noise"));
    }
  }
}

std::unique_ptr<Document> RandomDocument(Rng* rng) {
  auto doc = std::make_unique<Document>("Root");
  GrowRandomTree(doc.get(), doc->root(), /*depth=*/3, rng);
  return doc;
}

/// What RandomPath draws from. The default is the original corpus (child
/// and descendant steps over kNames); the other shapes add parent steps or
/// swap the name set, and draw nothing extra from the RNG when unused.
struct PathShape {
  const char* const* names = kNames;
  size_t num_names = kNumNames;
  double parent_share = 0;  ///< Chance that a step is `..`.
};

PathExpr RandomPath(Rng* rng, int max_steps, const PathShape& shape = {}) {
  PathExpr path;
  const int steps = 1 + static_cast<int>(rng->Uniform(
      static_cast<uint64_t>(max_steps)));
  for (int i = 0; i < steps; ++i) {
    Step step;
    if (shape.parent_share > 0 && rng->Bernoulli(shape.parent_share)) {
      step.axis = Step::Axis::kParent;
      path.steps.push_back(std::move(step));
      continue;
    }
    step.axis = rng->Bernoulli(0.5) ? Step::Axis::kDescendant
                                    : Step::Axis::kChild;
    step.name = rng->Bernoulli(0.15)
                    ? "*"
                    : shape.names[rng->Uniform(shape.num_names)];
    path.steps.push_back(std::move(step));
  }
  return path;
}

Query RandomQuery(Rng* rng, const PathShape& shape = {}) {
  Query q;
  q.var = "x";
  q.doc_name = "Root";
  q.source = RandomPath(rng, 3, shape);
  const int selects = static_cast<int>(rng->Uniform(4));
  for (int i = 0; i < selects; ++i) {
    q.selects.push_back(RandomPath(rng, 2, shape));
  }
  if (rng->Bernoulli(0.6)) {
    auto pred = std::make_unique<Predicate>();
    pred->kind = Predicate::Kind::kCompare;
    pred->path = RandomPath(rng, 2, shape);
    pred->op = static_cast<query::CompareOp>(rng->Uniform(6));
    pred->literal = std::to_string(rng->UniformRange(0, 20));
    if (rng->Bernoulli(0.3)) pred->literal = " " + pred->literal;
    q.where = std::move(pred);
  }
  return q;
}

/// Asserts indexed == naive for one (document, query) pair: same bindings
/// in the same order, same selected nodes per binding. Both read through
/// `ctx->view` (the live document when inactive).
void ExpectSameResults(const Document& doc, const Query& q,
                       EvalContext* ctx) {
  auto indexed = query::EvaluateQuery(doc, q, ctx, /*check_doc_name=*/false);
  auto naive = query::naive::EvaluateQuery(doc, ctx->view, q,
                                           /*check_doc_name=*/false);
  ASSERT_EQ(indexed.ok(), naive.ok());
  if (!indexed.ok()) return;
  const auto& ib = indexed.value().bindings;
  const auto& nb = naive.value().bindings;
  ASSERT_EQ(ib.size(), nb.size()) << q.ToString();
  for (size_t i = 0; i < ib.size(); ++i) {
    EXPECT_EQ(ib[i].node, nb[i].node) << q.ToString();
    ASSERT_EQ(ib[i].selected.size(), nb[i].selected.size());
    for (size_t s = 0; s < ib[i].selected.size(); ++s) {
      EXPECT_EQ(ib[i].selected[s], nb[i].selected[s])
          << q.ToString() << " select #" << s;
    }
  }
}

class QueryDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryDifferential, IndexedMatchesNaiveOnRandomCorpus) {
  Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    auto doc = RandomDocument(&rng);
    EvalContext ctx;  // reused across queries, like production call sites
    for (int i = 0; i < 25; ++i) {
      Query q = RandomQuery(&rng);
      ExpectSameResults(*doc, q, &ctx);
    }
  }
}

TEST_P(QueryDifferential, IndexedMatchesNaiveAfterMutations) {
  Rng rng(GetParam() ^ 0x9e3779b97f4a7c15ull);
  auto doc = RandomDocument(&rng);
  EvalContext ctx;
  for (int i = 0; i < 30; ++i) {
    // Mutate: destroy a random subtree or grow a new one, then re-compare.
    std::vector<NodeId> elems;
    const xml::NameId nid = doc->FindNameId(kNames[i % kNumNames]);
    if (nid != xml::kNoName) doc->CollectElementsNamed(nid, &elems);
    if (!elems.empty() && rng.Bernoulli(0.5)) {
      (void)doc->RemoveSubtree(elems[rng.Uniform(elems.size())]);
    } else {
      GrowRandomTree(doc.get(), doc->root(), 1, &rng);
    }
    ctx.InvalidateCaches();
    Query q = RandomQuery(&rng);
    ExpectSameResults(*doc, q, &ctx);
  }
}

// --- Where a path step can reach a node twice --------------------------------
//
// The evaluator deduplicates only the steps that can repeat a node: parent
// steps and descendant steps from several context nodes. Descendant steps
// from one node rely on the tag index listing each id once, which a rename
// away and back breaks. Each case below fails when the dedup it covers is
// removed.

/// Parent steps: siblings share a parent, so `x/..` from several nodes
/// reaches the same node repeatedly.
TEST_P(QueryDifferential, ParentStepsMatchNaive) {
  Rng rng(GetParam() ^ 0x5bd1e995ull);
  PathShape shape;
  shape.parent_share = 0.3;
  for (int round = 0; round < 10; ++round) {
    auto doc = RandomDocument(&rng);
    EvalContext ctx;
    for (int i = 0; i < 25; ++i) {
      ExpectSameResults(*doc, RandomQuery(&rng, shape), &ctx);
    }
  }
}

const char* const kNestedNames[] = {"a", "b"};

/// Grows chains of two element names, so elements nest inside others of
/// the same name and `//a//b` reaches most b's from several a's.
void GrowNestedTree(Document* doc, NodeId parent, int depth, Rng* rng) {
  const int children = static_cast<int>(rng->UniformRange(1, 3));
  for (int i = 0; i < children; ++i) {
    const uint64_t kind = rng->Uniform(8);
    if (kind < 6) {
      NodeId elem = xml::AddElement(doc, parent, kNestedNames[kind % 2]);
      if (depth > 0) {
        GrowNestedTree(doc, elem, depth - 1, rng);
      } else {
        xml::AddText(doc, elem, std::to_string(rng->Uniform(5)));
      }
    } else if (kind < 7) {
      NodeId sc = xml::AddElement(doc, parent, "axml:sc");
      xml::AddElement(doc, sc, "axml:params");
      if (depth > 0) GrowNestedTree(doc, sc, depth - 1, rng);
    } else {
      xml::AddText(doc, parent, std::to_string(rng->Uniform(5)));
    }
  }
}

std::unique_ptr<Document> NestedDocument(Rng* rng) {
  auto doc = std::make_unique<Document>("Root");
  GrowNestedTree(doc.get(), doc->root(), /*depth=*/5, rng);
  return doc;
}

TEST_P(QueryDifferential, OverlappingDescendantStepsMatchNaive) {
  Rng rng(GetParam() ^ 0x27d4eb2full);
  PathShape shape;
  shape.names = kNestedNames;
  shape.num_names = 2;
  for (int round = 0; round < 10; ++round) {
    auto doc = NestedDocument(&rng);
    EvalContext ctx;
    for (int i = 0; i < 25; ++i) {
      ExpectSameResults(*doc, RandomQuery(&rng, shape), &ctx);
    }
  }
}

/// Renames `id` away and back with no lookup in between: the tag index
/// then lists it twice under its name.
void RenameAwayAndBack(Document* doc, NodeId id) {
  const std::string name = doc->Find(id)->name;
  ASSERT_TRUE(doc->RenameElement(id, "renamed").ok());
  ASSERT_TRUE(doc->RenameElement(id, name).ok());
}

TEST_P(QueryDifferential, RenamesAwayAndBackMatchNaive) {
  // "rare" stays below an eighth of the nodes, so its descendant steps take
  // the tag index rather than the walk.
  static const char* const kRareNames[] = {"rare", "a", "player", "rank"};
  Rng rng(GetParam() ^ 0x165667b1ull);
  PathShape shape;
  shape.names = kRareNames;
  shape.num_names = 4;
  shape.parent_share = 0.1;
  auto doc = RandomDocument(&rng);
  EvalContext ctx;
  Query all_rare;
  all_rare.var = "x";
  all_rare.doc_name = "Root";
  all_rare.source.steps.push_back(Step{Step::Axis::kDescendant, "rare"});
  for (int i = 0; i < 30; ++i) {
    std::vector<NodeId> elems;
    doc->CollectElementsNamed(doc->FindNameId(kNames[i % kNumNames]), &elems);
    if (!elems.empty()) {
      NodeId rare = xml::AddTextElement(
          doc.get(), elems[rng.Uniform(elems.size())], "rare",
          std::to_string(rng.UniformRange(0, 20)));
      if (rng.Bernoulli(0.5)) RenameAwayAndBack(doc.get(), rare);
    }
    std::vector<NodeId> rares;
    doc->CollectElementsNamed(doc->FindNameId("rare"), &rares);
    if (!rares.empty()) {
      RenameAwayAndBack(doc.get(), rares[rng.Uniform(rares.size())]);
    }
    if (!elems.empty() && rng.Bernoulli(0.3)) {
      (void)doc->RemoveSubtree(elems[rng.Uniform(elems.size())]);
    }
    ctx.InvalidateCaches();
    ExpectSameResults(*doc, all_rare, &ctx);
    ExpectSameResults(*doc, RandomQuery(&rng, shape), &ctx);
  }
  EXPECT_GT(ctx.stats.index_hits, 0) << "the tag index was never used";
}

/// Snapshot evaluation: readers hold views while other writers insert,
/// delete, rewrite text and rename. Each view is compared against the
/// view-threaded naive evaluator, both before the document moves on (the
/// view is current) and after (it reads undo images).
TEST_P(QueryDifferential, SnapshotViewsMatchNaiveAfterConcurrentWrites) {
  Rng rng(GetParam() ^ 0x85ebca6bull);
  PathShape shape;
  shape.names = kNestedNames;
  shape.num_names = 2;
  shape.parent_share = 0.2;
  auto doc = NestedDocument(&rng);
  GrowRandomTree(doc.get(), doc->root(), 2, &rng);
  doc->EnableVersioning();
  uint64_t next_writer = 1;
  for (int round = 0; round < 8; ++round) {
    const uint64_t reader = next_writer++;
    EvalContext ctx;
    ctx.view = xml::ReadView{doc->version(), reader, true};
    for (int i = 0; i < 5; ++i) {
      ExpectSameResults(*doc, RandomQuery(&rng, shape), &ctx);
    }
    // Two writers move the document on: the reader itself (its writes
    // stay visible to it) and another transaction (invisible to it).
    for (uint64_t writer : {reader, next_writer++}) {
      doc->SetWriter(writer);
      std::vector<NodeId> elems;
      doc->CollectElementsNamed(doc->FindNameId(kNestedNames[writer % 2]),
                                &elems);
      if (!elems.empty()) {
        NodeId target = elems[rng.Uniform(elems.size())];
        switch (rng.Uniform(4)) {
          case 0:
            (void)doc->RemoveSubtree(target);
            break;
          case 1:
            GrowNestedTree(doc.get(), target, 2, &rng);
            break;
          case 2:
            RenameAwayAndBack(doc.get(), target);
            break;
          default:
            for (NodeId c : doc->Find(target)->children) {
              if (doc->Find(c)->is_text()) (void)doc->SetText(c, "3");
            }
            break;
        }
      }
      doc->SetWriter(0);
    }
    ctx.InvalidateCaches();
    for (int i = 0; i < 10; ++i) {
      ExpectSameResults(*doc, RandomQuery(&rng, shape), &ctx);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryDifferential,
                         ::testing::Values(1u, 42u, 20260806u));

TEST(CompareScalarHardening, PathologicalNumericSpellingsFallBackToStrings) {
  // std::from_chars accepts "inf"/"nan"; before the ParseNumber hardening
  // an equality predicate against "nan" parsed both sides as NaN, and the
  // three-way compare (neither < nor >) then claimed *equality* — so
  // "nan" = "nan" was true numerically but any value also equaled "nan".
  // Non-finite spellings, overflow, and trailing garbage must all take the
  // raw-string comparison path in BOTH evaluators.
  using query::CompareOp;
  using query::CompareScalarValues;
  // NaN never equals anything numerically; as strings "nan" == "nan".
  EXPECT_TRUE(CompareScalarValues("nan", "nan", CompareOp::kEq));
  EXPECT_FALSE(CompareScalarValues("7", "nan", CompareOp::kEq));
  EXPECT_FALSE(CompareScalarValues("nan", "7", CompareOp::kEq));
  // String comparison is exact: padded spellings differ.
  EXPECT_FALSE(CompareScalarValues("nan", " nan", CompareOp::kEq));
  // Infinities compare as strings, not as +-inf: "inf" > "7" holds
  // lexicographically ('i' > '7'), NOT because infinity beats seven.
  EXPECT_TRUE(CompareScalarValues("inf", "inf", CompareOp::kEq));
  EXPECT_TRUE(CompareScalarValues("inf", "7", CompareOp::kGt));
  EXPECT_FALSE(CompareScalarValues("inf", "7", CompareOp::kEq));
  EXPECT_TRUE(CompareScalarValues("-inf", "7", CompareOp::kNe));
  // Overflow ("1e999" -> result_out_of_range) falls back to strings.
  EXPECT_TRUE(CompareScalarValues("1e999", "1e999", CompareOp::kEq));
  EXPECT_FALSE(CompareScalarValues("1e999", "2", CompareOp::kGt));
  // Trailing garbage is not a number.
  EXPECT_FALSE(CompareScalarValues("7abc", "7", CompareOp::kEq));
  EXPECT_TRUE(CompareScalarValues("7abc", "7abc", CompareOp::kEq));
  // "0x10" parses as 0 with trailing "x10" -> string comparison.
  EXPECT_FALSE(CompareScalarValues("0x10", "16", CompareOp::kEq));
  // Whitespace-trimmed numerics still compare numerically.
  EXPECT_TRUE(CompareScalarValues(" 7 ", "7", CompareOp::kEq));
  EXPECT_TRUE(CompareScalarValues("+7", "7", CompareOp::kEq));
  // "--7" is garbage, not 7.
  EXPECT_FALSE(CompareScalarValues("--7", "7", CompareOp::kEq));
}

TEST(CompareScalarHardening, EvaluatorsAgreeOnPathologicalTextValues) {
  // The same pathological spellings as document text: the indexed and
  // naive evaluators must produce identical bindings for predicates over
  // them (the regression the NaN bug would break: the indexed evaluator's
  // memoized text still reached the same broken ParseNumber, but any
  // divergence in fallback behaviour shows up here).
  auto doc = std::make_unique<Document>("Root");
  const char* const kValues[] = {"inf",  "nan", "1e999", "0x10", "7 ",
                                 "+7",   "--7", "7abc",  "-inf", "NaN"};
  for (const char* value : kValues) {
    xml::AddTextElement(doc.get(), doc->root(), "rank", value);
  }
  const char* const kLiterals[] = {"nan", "inf", "7", "1e999", "0x10"};
  EvalContext ctx;
  for (const char* literal : kLiterals) {
    for (int op = 0; op < 6; ++op) {
      Query q;
      q.var = "x";
      q.doc_name = "Root";
      Step step;
      step.axis = Step::Axis::kChild;
      step.name = "rank";
      q.source.steps.push_back(step);
      auto pred = std::make_unique<Predicate>();
      pred->kind = Predicate::Kind::kCompare;
      pred->op = static_cast<query::CompareOp>(op);
      pred->literal = literal;
      q.where = std::move(pred);
      ExpectSameResults(*doc, q, &ctx);
    }
  }
}

// --- DurableStore recovery differential --------------------------------

std::string FreshDir(const char* tag) {
  std::string dir = std::string("/tmp/axmlx_diff_") + tag;
  std::string cleanup = "rm -rf " + dir;
  (void)std::system(cleanup.c_str());
  return dir;
}

class RecoveryDifferential : public ::testing::TestWithParam<int> {};

TEST_P(RecoveryDifferential, ReplayIsByteIdenticalUnderEveryFlushPolicy) {
  const FlushPolicy policies[] = {FlushPolicy::EveryRecord(),
                                  FlushPolicy::EveryN(3),
                                  FlushPolicy::OnResolve()};
  const FlushPolicy policy = policies[GetParam()];
  const std::string dir =
      FreshDir(("policy" + std::to_string(GetParam())).c_str());
  std::map<std::string, std::string> expected;
  {
    DurableStore store(dir, nullptr, policy);
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.CreateDocument("<Inv><items/></Inv>").ok());
    for (int t = 0; t < 6; ++t) {
      const std::string txn = "T" + std::to_string(t);
      ASSERT_TRUE(store.Begin(txn).ok());
      for (int i = 0; i < 4; ++i) {
        auto op = ops::MakeInsert(
            "Select d from d in Inv//items",
            "<it n=\"" + std::to_string(t * 4 + i) + "\">v</it>");
        ASSERT_TRUE(store.Execute(txn, "Inv", op).ok());
      }
      // Mix outcomes: commits and a journaled abort (compensation).
      if (t % 3 == 2) {
        ASSERT_TRUE(store.Abort(txn).ok());
      } else {
        ASSERT_TRUE(store.Commit(txn).ok());
      }
    }
    for (const std::string& name : store.DocumentNames()) {
      expected[name] = store.Get(name)->Serialize();
    }
    // Destructor flushes any batched records (clean shutdown).
  }
  DurableStore reopened(dir, nullptr, policy);
  ASSERT_TRUE(reopened.Open().ok());
  ASSERT_EQ(reopened.DocumentNames(), std::vector<std::string>{"Inv"});
  for (const auto& [name, xml_text] : expected) {
    ASSERT_NE(reopened.Get(name), nullptr);
    EXPECT_EQ(reopened.Get(name)->Serialize(), xml_text)
        << "policy #" << GetParam() << " diverged for " << name;
  }
}

TEST_P(RecoveryDifferential, CrashMidTxnConvergesAcrossPolicies) {
  // Leave a transaction unresolved ("crash"), reopen, and require the
  // recovered state to equal the every-record recovered state. Unflushed
  // batched records may be lost — recovery must still converge because a
  // loser transaction is compensated whether or not its tail was durable.
  const FlushPolicy policies[] = {FlushPolicy::EveryRecord(),
                                  FlushPolicy::EveryN(3),
                                  FlushPolicy::OnResolve()};
  const FlushPolicy policy = policies[GetParam()];
  const std::string dir =
      FreshDir(("crash" + std::to_string(GetParam())).c_str());
  {
    DurableStore store(dir, nullptr, policy);
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.CreateDocument("<Inv><items/></Inv>").ok());
    ASSERT_TRUE(store.Begin("committed").ok());
    ASSERT_TRUE(store
                    .Execute("committed", "Inv",
                             ops::MakeInsert("Select d from d in Inv//items",
                                             "<it>keep</it>"))
                    .ok());
    ASSERT_TRUE(store.Commit("committed").ok());
    ASSERT_TRUE(store.Begin("loser").ok());
    ASSERT_TRUE(store
                    .Execute("loser", "Inv",
                             ops::MakeInsert("Select d from d in Inv//items",
                                             "<it>rollback</it>"))
                    .ok());
    // No resolve, no clean close path for "loser": simulate the crash by
    // leaking nothing — the destructor flush models the OS page cache
    // surviving; recovery still sees an unresolved transaction.
  }
  DurableStore reopened(dir, nullptr, policy);
  ASSERT_TRUE(reopened.Open().ok());
  xml::Document* doc = reopened.Get("Inv");
  ASSERT_NE(doc, nullptr);
  const std::string xml_text = doc->Serialize();
  EXPECT_NE(xml_text.find("keep"), std::string::npos);
  EXPECT_EQ(xml_text.find("rollback"), std::string::npos);
  EXPECT_EQ(reopened.stats().recovered_txns, 1);
}

INSTANTIATE_TEST_SUITE_P(Policies, RecoveryDifferential,
                         ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace axmlx
