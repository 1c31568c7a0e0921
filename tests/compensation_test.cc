#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "compensation/compensation.h"
#include "compensation/concurrent.h"
#include "ops/executor.h"
#include "ops/op_log.h"
#include "tests/test_data.h"
#include "xml/builder.h"
#include "xml/parser.h"

namespace axmlx::comp {
namespace {

using ops::Executor;
using ops::MakeDelete;
using ops::MakeInsert;
using ops::MakeQuery;
using ops::MakeReplace;
using ops::Operation;
using ops::OpEffect;
using ops::OpLog;
using xml::Document;
using xml::NodeId;

class CompensationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = testing::MakeAtpList();
    snapshot_ = doc_->Clone();
    executor_ = std::make_unique<Executor>(doc_.get(), testing::AtpInvoker());
    executor_->SetExternal("year", "2005");
  }

  OpEffect MustExecute(const Operation& op) {
    auto effect = executor_->Execute(op);
    EXPECT_TRUE(effect.ok()) << effect.status();
    return std::move(effect).value();
  }

  void ExpectRestored() {
    EXPECT_TRUE(Document::Equals(*doc_, *snapshot_))
        << "doc:\n"
        << doc_->Serialize(xml::kNullNode, true) << "\nsnapshot:\n"
        << snapshot_->Serialize(xml::kNullNode, true);
  }

  std::unique_ptr<Document> doc_;
  std::unique_ptr<Document> snapshot_;
  std::unique_ptr<Executor> executor_;
};

TEST_F(CompensationTest, DeleteCompensatedByInsert) {
  // Paper §3.1, first example: compensation of delete(citizenship) is an
  // insert of the logged data at the logged parent.
  OpEffect effect = MustExecute(MakeDelete(
      "Select p/citizenship from p in ATPList//player "
      "where p/name/lastname = Federer"));
  CompensationPlan plan = CompensationBuilder::ForEffect(effect);
  ASSERT_EQ(plan.operations.size(), 1u);
  EXPECT_EQ(plan.operations[0].type, ops::ActionType::kInsert);
  EXPECT_EQ(plan.cost_nodes, 2u);  // citizenship element + text
  ASSERT_TRUE(ApplyPlan(executor_.get(), plan).ok());
  ExpectRestored();
}

TEST_F(CompensationTest, InsertCompensatedByDeleteOfId) {
  OpEffect effect = MustExecute(MakeInsert(
      "Select p/name/.. from p in ATPList//player "
      "where p/name/lastname = Nadal",
      "<coach>Toni</coach>"));
  ASSERT_EQ(effect.inserted.size(), 1u);
  CompensationPlan plan = CompensationBuilder::ForEffect(effect);
  ASSERT_EQ(plan.operations.size(), 1u);
  EXPECT_EQ(plan.operations[0].type, ops::ActionType::kDelete);
  EXPECT_EQ(plan.operations[0].target_node, effect.inserted[0]);
  ASSERT_TRUE(ApplyPlan(executor_.get(), plan).ok());
  ExpectRestored();
}

TEST_F(CompensationTest, ReplaceCompensatedByDeletePlusInsert) {
  // Paper §3.1 replace example: USA -> back to Spanish (the paper writes
  // Swiss, an apparent typo for Nadal; the mechanism is identical).
  OpEffect effect = MustExecute(MakeReplace(
      "Select p/citizenship from p in ATPList//player "
      "where p/name/lastname = Nadal",
      "<citizenship>USA</citizenship>"));
  CompensationPlan plan = CompensationBuilder::ForEffect(effect);
  // Inverse of [delete old, insert new] in reverse order:
  // [delete new, insert old].
  ASSERT_EQ(plan.operations.size(), 2u);
  EXPECT_EQ(plan.operations[0].type, ops::ActionType::kDelete);
  EXPECT_EQ(plan.operations[1].type, ops::ActionType::kInsert);
  ASSERT_TRUE(ApplyPlan(executor_.get(), plan).ok());
  ExpectRestored();
}

TEST_F(CompensationTest, QueryACompensation) {
  // Paper §3.1: "the compensation for [Query A] would be a delete operation
  // to delete the node <grandslamswon year='2005'>A, F</grandslamswon>".
  OpEffect effect = MustExecute(MakeQuery(
      "Select p/citizenship, p/grandslamswon from p in ATPList//player "
      "where p/name/lastname = Federer"));
  CompensationPlan plan = CompensationBuilder::ForEffect(effect);
  ASSERT_EQ(plan.operations.size(), 1u);
  EXPECT_EQ(plan.operations[0].type, ops::ActionType::kDelete);
  ASSERT_TRUE(ApplyPlan(executor_.get(), plan).ok());
  ExpectRestored();
}

TEST_F(CompensationTest, QueryBCompensation) {
  // Paper §3.1: "the compensation for [Query B] would be a replace operation
  // to change the value of the node <points>890</points> back to 475" —
  // realized as delete(890) + insert(475) at the same position.
  OpEffect effect = MustExecute(MakeQuery(
      "Select p/citizenship, p/points from p in ATPList//player "
      "where p/name/lastname = Federer"));
  CompensationPlan plan = CompensationBuilder::ForEffect(effect);
  ASSERT_EQ(plan.operations.size(), 2u);
  ASSERT_TRUE(ApplyPlan(executor_.get(), plan).ok());
  ExpectRestored();
}

TEST_F(CompensationTest, WholeLogCompensatedInReverseOrder) {
  OpLog log;
  log.Append(MustExecute(MakeReplace(
      "Select p/citizenship from p in ATPList//player "
      "where p/name/lastname = Nadal",
      "<citizenship>USA</citizenship>")));
  log.Append(MustExecute(MakeDelete(
      "Select p/citizenship from p in ATPList//player "
      "where p/name/lastname = Federer")));
  log.Append(MustExecute(MakeQuery(
      "Select p/points from p in ATPList//player "
      "where p/name/lastname = Federer")));
  CompensationPlan plan = CompensationBuilder::ForLog(log);
  ASSERT_TRUE(ApplyPlan(executor_.get(), plan).ok());
  ExpectRestored();
}

TEST_F(CompensationTest, ChainedInsertThenDeleteOfAncestor) {
  // op1 inserts <coach> under Nadal; op2 deletes the whole Nadal player.
  // The compensating insert restores the player (including the coach, with
  // original ids), then the compensating delete removes the coach again.
  OpLog log;
  log.Append(MustExecute(MakeInsert(
      "Select p/name/.. from p in ATPList//player "
      "where p/name/lastname = Nadal",
      "<coach>Toni</coach>")));
  log.Append(MustExecute(MakeDelete(
      "Select p from p in ATPList//player "
      "where p/name/lastname = Nadal")));
  CompensationPlan plan = CompensationBuilder::ForLog(log);
  ASSERT_EQ(plan.operations.size(), 2u);
  ASSERT_TRUE(ApplyPlan(executor_.get(), plan).ok());
  ExpectRestored();
}

TEST_F(CompensationTest, OrderedDocumentPositionsPreserved) {
  // The ordered-document caveat (§3.1): deleting a middle child and
  // compensating must restore the original order, which id/position-based
  // insertion guarantees.
  OpEffect effect = MustExecute(MakeDelete(
      "Select p/citizenship from p in ATPList//player "
      "where p/name/lastname = Federer"));
  CompensationPlan plan = CompensationBuilder::ForEffect(effect);
  ASSERT_TRUE(ApplyPlan(executor_.get(), plan).ok());
  // Structural equality (checked by ExpectRestored) includes child order.
  ExpectRestored();
}

TEST_F(CompensationTest, PaperXmlRendering) {
  OpEffect effect = MustExecute(MakeDelete(
      "Select p/citizenship from p in ATPList//player "
      "where p/name/lastname = Federer"));
  CompensationPlan plan = CompensationBuilder::ForEffect(effect);
  std::vector<std::string> rendered = CompensationBuilder::ToPaperXml(plan);
  ASSERT_EQ(rendered.size(), 1u);
  EXPECT_NE(rendered[0].find("<action type=\"insert\""), std::string::npos);
  EXPECT_NE(rendered[0].find("<citizenship>Swiss</citizenship>"),
            std::string::npos);
  // The rendered plan parses back into an executable operation.
  auto parsed = ops::Operation::FromXml(rendered[0]);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
}

TEST_F(CompensationTest, CompensationIsIdempotentFallback) {
  // Applying a plan twice must not corrupt the document: the second
  // application falls back to fresh-id insertion/delete-miss semantics.
  OpEffect effect = MustExecute(MakeDelete(
      "Select p/citizenship from p in ATPList//player "
      "where p/name/lastname = Federer"));
  CompensationPlan plan = CompensationBuilder::ForEffect(effect);
  ASSERT_TRUE(ApplyPlan(executor_.get(), plan).ok());
  ExpectRestored();
  // Second application inserts a duplicate — semantically a new forward op,
  // but it must not crash or corrupt the tree.
  ASSERT_TRUE(ApplyPlan(executor_.get(), plan).ok());
  EXPECT_FALSE(Document::Equals(*doc_, *snapshot_));
}

// --- Property test: random op sequences invert -----------------------------

class RandomOpsTest : public ::testing::TestWithParam<uint64_t> {};

Operation RandomOperation(Rng* rng) {
  static const char* kPlayers[] = {"Federer", "Nadal"};
  std::string player = kPlayers[rng->Uniform(2)];
  switch (rng->Uniform(5)) {
    case 0:
      return MakeDelete(
          "Select p/citizenship from p in ATPList//player "
          "where p/name/lastname = " +
          player);
    case 1:
      return MakeInsert(
          "Select p/name/.. from p in ATPList//player "
          "where p/name/lastname = " +
          player,
          "<tag n=\"" + std::to_string(rng->Uniform(100)) + "\">v" +
              std::to_string(rng->Uniform(100)) + "</tag>");
    case 2:
      return MakeReplace(
          "Select p/name/firstname from p in ATPList//player "
          "where p/name/lastname = " +
          player,
          "<firstname>R" + std::to_string(rng->Uniform(10)) + "</firstname>");
    case 3:
      return MakeQuery(
          "Select p/points from p in ATPList//player "
          "where p/name/lastname = " +
          player);
    default:
      return MakeQuery(
          "Select p/grandslamswon from p in ATPList//player "
          "where p/name/lastname = " +
          player);
  }
}

TEST_P(RandomOpsTest, ExecuteThenCompensateIsIdentity) {
  Rng rng(GetParam());
  auto doc = testing::MakeAtpList();
  auto snapshot = doc->Clone();
  Executor executor(doc.get(), testing::AtpInvoker());
  executor.SetExternal("year", std::to_string(2005 + rng.Uniform(5)));
  OpLog log;
  int n_ops = 1 + static_cast<int>(rng.Uniform(8));
  for (int i = 0; i < n_ops; ++i) {
    auto effect = executor.Execute(RandomOperation(&rng));
    ASSERT_TRUE(effect.ok()) << effect.status();
    log.Append(std::move(effect).value());
  }
  CompensationPlan plan = CompensationBuilder::ForLog(log);
  size_t nodes_affected = 0;
  ASSERT_TRUE(ApplyPlan(&executor, plan, &nodes_affected).ok());
  EXPECT_TRUE(Document::Equals(*doc, *snapshot))
      << "seed " << GetParam() << " with " << n_ops << " ops\n"
      << doc->Serialize(xml::kNullNode, true);
  // Compensation cost equals the forward cost under the node-count measure.
  EXPECT_EQ(nodes_affected, plan.cost_nodes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomOpsTest,
                         ::testing::Range<uint64_t>(1, 26));

// --- Concurrent conflict losers -------------------------------------------

std::unique_ptr<Document> MakeTwoSections() {
  auto doc = xml::Parse(
      "<inv><section><name>s1</name></section>"
      "<section><name>s2</name></section></inv>");
  EXPECT_TRUE(doc.ok()) << doc.status();
  return std::move(doc).value();
}

Operation InsertInto(const std::string& section, const std::string& tag) {
  return MakeInsert(
      "Select s from s in inv/section where s/name = " + section,
      "<entry>" + tag + "</entry>");
}

TEST(ConcurrentConflict, OppositeOrderWritersLeaveExactlyOneWinner) {
  // a writes s1 then s2, b writes s2 then s1, in lock step. a loses on s2
  // (b holds it) and is compensated. Its undo records on s1 postdate b's
  // snapshot and restore s1 exactly, so b must be able to write s1 and
  // commit: first-writer-wins needs a first writer.
  std::unique_ptr<Document> doc = MakeTwoSections();
  std::unique_ptr<Document> before = doc->Clone();
  ConcurrentExecutor exec(doc.get(), /*invoker=*/nullptr);
  TxnHandle a = exec.Begin("a");
  TxnHandle b = exec.Begin("b");
  ASSERT_TRUE(exec.Execute(a, InsertInto("s1", "a1")).ok());
  ASSERT_TRUE(exec.Execute(b, InsertInto("s2", "b2")).ok());
  auto a2 = exec.Execute(a, InsertInto("s2", "a2"));
  ASSERT_TRUE(IsWriteConflict(a2.status())) << a2.status();
  EXPECT_FALSE(exec.IsActive(a));
  auto b1 = exec.Execute(b, InsertInto("s1", "b1"));
  ASSERT_TRUE(b1.ok()) << b1.status();
  ASSERT_TRUE(exec.Commit(b).ok());

  // The result is b run alone.
  ConcurrentExecutor serial(before.get(), /*invoker=*/nullptr);
  TxnHandle only_b = serial.Begin("b");
  ASSERT_TRUE(serial.Execute(only_b, InsertInto("s2", "b2")).ok());
  ASSERT_TRUE(serial.Execute(only_b, InsertInto("s1", "b1")).ok());
  ASSERT_TRUE(serial.Commit(only_b).ok());
  EXPECT_TRUE(Document::Equals(*doc, *before)) << doc->Serialize();
  EXPECT_EQ(exec.metrics()
                ->GetCounter(obs::kMetricTxnConflictsAborted)
                ->value(),
            1);
}

TEST(ConcurrentConflict, SnapshotThatSawALosersWriteStillConflicts) {
  // c's snapshot holds a's uncommitted entry in s1; a then aborts and its
  // compensation changes s1 under c. c's view of s1 is stale, so c's
  // write there must still lose.
  std::unique_ptr<Document> doc = MakeTwoSections();
  ConcurrentExecutor exec(doc.get(), /*invoker=*/nullptr);
  TxnHandle a = exec.Begin("a");
  ASSERT_TRUE(exec.Execute(a, InsertInto("s1", "a1")).ok());
  TxnHandle c = exec.Begin("c");
  ASSERT_TRUE(exec.Abort(a).ok());
  auto c1 = exec.Execute(c, InsertInto("s1", "c1"));
  EXPECT_TRUE(IsWriteConflict(c1.status())) << c1.status();
}

}  // namespace
}  // namespace axmlx::comp
