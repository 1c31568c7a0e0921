#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "common/rng.h"
#include "obs/metric_names.h"
#include "ops/operation.h"
#include "storage/durable_store.h"
#include "tests/test_data.h"
#include "xml/parser.h"

namespace axmlx::storage {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axmlx_store_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    // Fresh directory per test.
    std::remove((dir_ + "/wal.log").c_str());
    std::remove((dir_ + "/manifest.txt").c_str());
    std::remove((dir_ + "/snap_ATPList.xml").c_str());
    std::remove((dir_ + "/snap_Other.xml").c_str());
  }

  std::unique_ptr<DurableStore> OpenStore() {
    auto store = std::make_unique<DurableStore>(dir_, testing::AtpInvoker());
    Status s = store->Open();
    EXPECT_TRUE(s.ok()) << s;
    return store;
  }

  std::string dir_;
};

TEST_F(StorageTest, WalPayloadEscapingRoundTrips) {
  std::string raw = "line1\nline2\r%25 <a b=\"c\"/>";
  EXPECT_EQ(DecodeWalPayload(EncodeWalPayload(raw)), raw);
  EXPECT_EQ(EncodeWalPayload(raw).find('\n'), std::string::npos);
}

TEST_F(StorageTest, CommittedWorkSurvivesRestart) {
  {
    auto store = OpenStore();
    ASSERT_TRUE(store->CreateDocument(testing::kAtpListXml).ok());
    ASSERT_TRUE(store->Begin("T1").ok());
    auto effect = store->Execute(
        "T1", "ATPList",
        ops::MakeInsert("Select p from p in ATPList//player "
                        "where p/name/lastname = Nadal",
                        "<coach>Toni</coach>"));
    ASSERT_TRUE(effect.ok()) << effect.status();
    ASSERT_TRUE(store->Commit("T1").ok());
    // No checkpoint: durability must come from the WAL alone.
  }
  auto reopened = OpenStore();
  ASSERT_GT(reopened->stats().replayed_ops, 0);
  xml::Document* doc = reopened->Get("ATPList");
  ASSERT_NE(doc, nullptr);
  bool found = false;
  doc->Walk(doc->root(), [&found](const xml::Node& n) {
    if (n.is_element() && n.name == "coach") found = true;
    return true;
  });
  EXPECT_TRUE(found);
}

TEST_F(StorageTest, InFlightTransactionIsRolledBackOnRecovery) {
  std::string before;
  {
    auto store = OpenStore();
    ASSERT_TRUE(store->CreateDocument(testing::kAtpListXml).ok());
    before = store->Get("ATPList")->Serialize();
    ASSERT_TRUE(store->Begin("T1").ok());
    ASSERT_TRUE(store
                    ->Execute("T1", "ATPList",
                              ops::MakeDelete(
                                  "Select p/citizenship from p in "
                                  "ATPList//player"))
                    .ok());
    // Crash: no Commit, store destroyed.
  }
  auto reopened = OpenStore();
  EXPECT_EQ(reopened->stats().recovered_txns, 1);
  EXPECT_EQ(reopened->Get("ATPList")->Serialize(), before);
}

TEST_F(StorageTest, DurableAbortStaysRolledBackAfterRestart) {
  std::string before;
  {
    auto store = OpenStore();
    ASSERT_TRUE(store->CreateDocument(testing::kAtpListXml).ok());
    before = store->Get("ATPList")->Serialize();
    ASSERT_TRUE(store->Begin("T1").ok());
    ASSERT_TRUE(store
                    ->Execute("T1", "ATPList",
                              ops::MakeReplace(
                                  "Select p/citizenship from p in "
                                  "ATPList//player "
                                  "where p/name/lastname = Nadal",
                                  "<citizenship>USA</citizenship>"))
                    .ok());
    ASSERT_TRUE(store->Abort("T1").ok());
    EXPECT_EQ(store->Get("ATPList")->Serialize(), before);
  }
  auto reopened = OpenStore();
  EXPECT_EQ(reopened->stats().recovered_txns, 0);  // abort was durable
  EXPECT_EQ(reopened->Get("ATPList")->Serialize(), before);
}

TEST_F(StorageTest, CheckpointTruncatesWalAndPreservesState) {
  std::string committed_state;
  {
    auto store = OpenStore();
    ASSERT_TRUE(store->CreateDocument(testing::kAtpListXml).ok());
    ASSERT_TRUE(store->Begin("T1").ok());
    ASSERT_TRUE(store
                    ->Execute("T1", "ATPList",
                              ops::MakeInsert(
                                  "Select p from p in ATPList//player "
                                  "where p/name/lastname = Federer",
                                  "<sponsor>RF</sponsor>"))
                    .ok());
    ASSERT_TRUE(store->Commit("T1").ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    committed_state = store->Get("ATPList")->Serialize();
  }
  auto reopened = OpenStore();
  EXPECT_EQ(reopened->stats().replayed_ops, 0);  // WAL was truncated
  EXPECT_EQ(reopened->Get("ATPList")->Serialize(), committed_state);
}

TEST_F(StorageTest, CheckpointRefusedWithActiveTransactions) {
  auto store = OpenStore();
  ASSERT_TRUE(store->CreateDocument(testing::kAtpListXml).ok());
  ASSERT_TRUE(store->Begin("T1").ok());
  EXPECT_EQ(store->Checkpoint().code(), StatusCode::kFailedPrecondition);
}

TEST_F(StorageTest, MaterializingQueryReplaysDeterministically) {
  // Queries mutate the document (materialization, §3.1); replay re-invokes
  // the same deterministic services and converges to the same state.
  std::string after;
  {
    auto store = OpenStore();
    ASSERT_TRUE(store->CreateDocument(testing::kAtpListXml).ok());
    ASSERT_TRUE(store->Begin("T1").ok());
    auto effect = store->Execute(
        "T1", "ATPList",
        ops::MakeQuery("Select p/points from p in ATPList//player "
                       "where p/name/lastname = Federer"));
    ASSERT_TRUE(effect.ok()) << effect.status();
    ASSERT_TRUE(store->Commit("T1").ok());
    after = store->Get("ATPList")->Serialize();
    EXPECT_NE(after.find("890"), std::string::npos);
  }
  auto reopened = OpenStore();
  EXPECT_EQ(reopened->Get("ATPList")->Serialize(), after);
}

TEST_F(StorageTest, ExternalsAreJournaledForReplay) {
  // getGrandSlamsWonbyYear needs $year; the value must survive recovery so
  // replay rematerializes identically.
  std::string after;
  {
    auto store = OpenStore();
    ASSERT_TRUE(store->CreateDocument(testing::kAtpListXml).ok());
    ASSERT_TRUE(store->SetExternal("year", "2005").ok());
    ASSERT_TRUE(store->Begin("T1").ok());
    auto effect = store->Execute(
        "T1", "ATPList",
        ops::MakeQuery("Select p/grandslamswon from p in ATPList//player "
                       "where p/name/lastname = Federer"));
    ASSERT_TRUE(effect.ok()) << effect.status();
    ASSERT_TRUE(store->Commit("T1").ok());
    after = store->Get("ATPList")->Serialize();
    EXPECT_NE(after.find("2005"), std::string::npos);
  }
  auto reopened = OpenStore();
  EXPECT_EQ(reopened->Get("ATPList")->Serialize(), after);
}

TEST_F(StorageTest, ApiGuards) {
  DurableStore unopened(dir_, nullptr);
  EXPECT_FALSE(unopened.Begin("T").ok());
  EXPECT_FALSE(unopened.CreateDocument("<X/>").ok());

  auto store = OpenStore();
  EXPECT_FALSE(store->Execute("nope", "Doc", ops::MakeQuery("x")).ok());
  EXPECT_FALSE(store->Commit("nope").ok());
  EXPECT_FALSE(store->Abort("nope").ok());
  ASSERT_TRUE(store->CreateDocument("<Other><a/></Other>").ok());
  EXPECT_EQ(store->CreateDocument("<Other/>").code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(store->Begin("T").ok());
  EXPECT_EQ(store->Begin("T").code(), StatusCode::kAlreadyExists);
  auto missing_doc = store->Execute("T", "Missing", ops::MakeQuery("x"));
  EXPECT_EQ(missing_doc.status().code(), StatusCode::kNotFound);
}

TEST_F(StorageTest, MultipleInterleavedTransactions) {
  std::string before;
  {
    auto store = OpenStore();
    ASSERT_TRUE(store->CreateDocument(testing::kAtpListXml).ok());
    before = store->Get("ATPList")->Serialize();
    ASSERT_TRUE(store->Begin("T1").ok());
    ASSERT_TRUE(store->Begin("T2").ok());
    ASSERT_TRUE(store
                    ->Execute("T1", "ATPList",
                              ops::MakeInsert(
                                  "Select p from p in ATPList//player "
                                  "where p/name/lastname = Federer",
                                  "<t1/>"))
                    .ok());
    ASSERT_TRUE(store
                    ->Execute("T2", "ATPList",
                              ops::MakeInsert(
                                  "Select p from p in ATPList//player "
                                  "where p/name/lastname = Nadal",
                                  "<t2/>"))
                    .ok());
    ASSERT_TRUE(store->Commit("T1").ok());
    // T2 is in flight at the crash.
  }
  auto reopened = OpenStore();
  EXPECT_EQ(reopened->stats().recovered_txns, 1);
  std::string state = reopened->Get("ATPList")->Serialize();
  EXPECT_NE(state.find("<t1/>"), std::string::npos);   // committed kept
  EXPECT_EQ(state.find("<t2/>"), std::string::npos);   // loser undone
}

TEST_F(StorageTest, GroupCommitBatchesRecordsUntilResolve) {
  DurableStore store(dir_, testing::AtpInvoker(), FlushPolicy::OnResolve());
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.CreateDocument(testing::kAtpListXml).ok());
  const int64_t flushes_before =
      store.metrics().Snapshot().counters.at(obs::kMetricWalFlushes);
  ASSERT_TRUE(store.Begin("T1").ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store
                    .Execute("T1", "ATPList",
                             ops::MakeInsert("Select d from d in ATPList",
                                             "<x/>"))
                    .ok());
  }
  // Under OnResolve, the five OP records sit in the batch: no new flushes.
  EXPECT_EQ(store.metrics().Snapshot().counters.at(obs::kMetricWalFlushes),
            flushes_before);
  ASSERT_TRUE(store.Commit("T1").ok());
  // RESOLVED force-flushes exactly once for the whole transaction.
  EXPECT_EQ(store.metrics().Snapshot().counters.at(obs::kMetricWalFlushes),
            flushes_before + 1);
  EXPECT_GE(
      store.metrics().Snapshot().counters.at(obs::kMetricWalRecordsBatched), 7);
}

TEST_F(StorageTest, EveryNPolicyFlushesInBatches) {
  DurableStore store(dir_, testing::AtpInvoker(), FlushPolicy::EveryN(3));
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.CreateDocument(testing::kAtpListXml).ok());
  ASSERT_TRUE(store.FlushWal().ok());  // drain the NEWDOC record
  const int64_t before =
      store.metrics().Snapshot().counters.at(obs::kMetricWalFlushes);
  ASSERT_TRUE(store.Begin("T1").ok());
  ASSERT_TRUE(store
                  .Execute("T1", "ATPList",
                           ops::MakeInsert("Select d from d in ATPList",
                                           "<x/>"))
                  .ok());
  // BEGIN + one OP = 2 pending records, below the threshold of 3.
  EXPECT_EQ(store.metrics().Snapshot().counters.at(obs::kMetricWalFlushes),
            before);
  ASSERT_TRUE(store
                  .Execute("T1", "ATPList",
                           ops::MakeInsert("Select d from d in ATPList",
                                           "<y/>"))
                  .ok());
  // Third record crosses the threshold.
  EXPECT_EQ(store.metrics().Snapshot().counters.at(obs::kMetricWalFlushes),
            before + 1);
  ASSERT_TRUE(store.Commit("T1").ok());
}

TEST_F(StorageTest, ExplicitFlushWalDrainsTheBatch) {
  DurableStore store(dir_, testing::AtpInvoker(), FlushPolicy::OnResolve());
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.CreateDocument(testing::kAtpListXml).ok());
  ASSERT_TRUE(store.Begin("T1").ok());
  const int64_t before =
      store.metrics().Snapshot().counters.at(obs::kMetricWalFlushes);
  ASSERT_TRUE(store.FlushWal().ok());
  EXPECT_EQ(store.metrics().Snapshot().counters.at(obs::kMetricWalFlushes),
            before + 1);
  ASSERT_TRUE(store.Abort("T1").ok());
}

TEST_F(StorageTest, PublishesHotPathCountersInMetrics) {
  auto store = OpenStore();
  ASSERT_TRUE(store->CreateDocument(testing::kAtpListXml).ok());
  ASSERT_TRUE(store->Begin("T1").ok());
  ASSERT_TRUE(store
                  ->Execute("T1", "ATPList",
                            ops::MakeInsert(
                                "Select p from p in ATPList//player "
                                "where p/name/lastname = Nadal",
                                "<flag/>"))
                  .ok());
  ASSERT_TRUE(store->Commit("T1").ok());
  auto counters = store->metrics().Snapshot().counters;
  // The insert allocated nodes and its descendant step rode the tag index.
  EXPECT_GT(counters.at(obs::kMetricDocNodesAllocated), 0);
  EXPECT_GT(counters.at(obs::kMetricQueryIndexHits) +
                counters.at(obs::kMetricQueryWalkFallbacks),
            0);
  EXPECT_GT(counters.at(obs::kMetricWalFlushes), 0);
}

TEST_F(StorageTest, BatchedCommitSurvivesRestart) {
  {
    DurableStore store(dir_, testing::AtpInvoker(), FlushPolicy::OnResolve());
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.CreateDocument(testing::kAtpListXml).ok());
    ASSERT_TRUE(store.Begin("T1").ok());
    ASSERT_TRUE(store
                    .Execute("T1", "ATPList",
                             ops::MakeInsert("Select d from d in ATPList",
                                             "<kept/>"))
                    .ok());
    ASSERT_TRUE(store.Commit("T1").ok());
  }
  DurableStore reopened(dir_, testing::AtpInvoker(), FlushPolicy::OnResolve());
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_NE(reopened.Get("ATPList")->Serialize().find("<kept/>"),
            std::string::npos);
}

TEST_F(StorageTest, MalformedNumericFieldsFailOpenWithoutThrowing) {
  OpenStore();  // creates the directory
  struct Case {
    const char* wal;
    const char* manifest;  ///< Null: no manifest.
  };
  const Case cases[] = {
      {"BEGIN T0 \n", nullptr},  // the version was cut off by a crash
      {"BEGIN T0 x1\n", nullptr},
      {"BEGIN T0 0\nRESOLVED T0 C many 0\n", nullptr},
      {"BEGIN T0 0\nRESOLVED T0 C 0 9z\n", nullptr},
      {"", "epoch \n"},
      {"", "epoch -1\n"},
  };
  for (const Case& c : cases) {
    std::remove((dir_ + "/wal.log").c_str());
    std::remove((dir_ + "/manifest.txt").c_str());
    {
      std::ofstream wal(dir_ + "/wal.log", std::ios::trunc);
      wal << c.wal;
    }
    if (c.manifest != nullptr) {
      std::ofstream manifest(dir_ + "/manifest.txt", std::ios::trunc);
      manifest << c.manifest;
    }
    DurableStore store(dir_, testing::AtpInvoker());
    Status s = store.Open();
    EXPECT_FALSE(s.ok()) << "wal \"" << c.wal << "\" manifest \""
                         << (c.manifest != nullptr ? c.manifest : "") << "\"";
  }
  std::remove((dir_ + "/manifest.txt").c_str());
}

}  // namespace
}  // namespace axmlx::storage
