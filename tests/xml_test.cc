#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "tests/test_data.h"
#include "xml/builder.h"
#include "xml/document.h"
#include "xml/edit.h"
#include "xml/parser.h"

namespace axmlx::xml {
namespace {

TEST(Document, RootIsCreated) {
  Document doc("ATPList");
  const Node* root = doc.Find(doc.root());
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name, "ATPList");
  EXPECT_TRUE(root->is_element());
  EXPECT_EQ(doc.size(), 1u);
}

TEST(Document, AppendAndFind) {
  Document doc("r");
  NodeId a = AddElement(&doc, doc.root(), "a");
  NodeId b = AddTextElement(&doc, doc.root(), "b", "hello");
  EXPECT_EQ(doc.Find(a)->parent, doc.root());
  EXPECT_EQ(doc.Find(doc.root())->children.size(), 2u);
  EXPECT_EQ(doc.TextContent(b), "hello");
  EXPECT_EQ(doc.IndexInParent(b), 1u);
}

TEST(Document, InsertAtPosition) {
  Document doc("r");
  AddElement(&doc, doc.root(), "a");
  AddElement(&doc, doc.root(), "c");
  NodeId b = doc.CreateElement("b");
  ASSERT_TRUE(doc.InsertAt(doc.root(), 1, b).ok());
  const Node* root = doc.Find(doc.root());
  EXPECT_EQ(doc.Find(root->children[1])->name, "b");
}

TEST(Document, InsertAtRejectsOutOfRange) {
  Document doc("r");
  NodeId b = doc.CreateElement("b");
  Status s = doc.InsertAt(doc.root(), 5, b);
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
}

TEST(Document, InsertRejectsAttachedChild) {
  Document doc("r");
  NodeId a = AddElement(&doc, doc.root(), "a");
  Status s = doc.AppendChild(doc.root(), a);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(Document, InsertRejectsCycle) {
  Document doc("r");
  NodeId a = AddElement(&doc, doc.root(), "a");
  // Detach root under a would be a cycle; simulate by detaching a first.
  auto detached = DetachSubtree(&doc, a);
  ASSERT_TRUE(detached.ok());
  // Re-attach and then try to append an ancestor beneath its descendant.
  ASSERT_TRUE(Reattach(&doc, detached->subtree, doc.root(), 0).ok());
  NodeId inner = AddElement(&doc, a, "inner");
  (void)inner;
  // Root is attached (parent kNull) — appending it under `a` must fail the
  // cycle check rather than corrupt the tree.
  Status s = doc.AppendChild(a, doc.root());
  EXPECT_FALSE(s.ok());
}

TEST(Document, RemoveSubtreeDestroysDescendants) {
  Document doc("r");
  NodeId a = AddElement(&doc, doc.root(), "a");
  NodeId b = AddElement(&doc, a, "b");
  NodeId t = AddText(&doc, b, "x");
  EXPECT_EQ(doc.size(), 4u);
  auto removed = doc.RemoveSubtree(a);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed->parent, doc.root());
  EXPECT_EQ(removed->index, 0u);
  EXPECT_EQ(doc.size(), 1u);
  EXPECT_FALSE(doc.Contains(a));
  EXPECT_FALSE(doc.Contains(b));
  EXPECT_FALSE(doc.Contains(t));
}

TEST(Document, CannotRemoveRoot) {
  Document doc("r");
  EXPECT_EQ(doc.RemoveSubtree(doc.root()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(Document, SetAttributeOverwrites) {
  Document doc("r");
  ASSERT_TRUE(doc.SetAttribute(doc.root(), "k", "1").ok());
  ASSERT_TRUE(doc.SetAttribute(doc.root(), "k", "2").ok());
  EXPECT_EQ(*doc.Find(doc.root())->FindAttribute("k"), "2");
  EXPECT_EQ(doc.Find(doc.root())->attributes.size(), 1u);
}

TEST(Document, SubtreeSizeAndTextContent) {
  auto doc = testing::MakeAtpList();
  EXPECT_GT(doc->size(), 20u);
  NodeId player = FirstDescendantElement(*doc, doc->root(), "player");
  ASSERT_NE(player, kNullNode);
  NodeId lastname = FirstDescendantElement(*doc, player, "lastname");
  EXPECT_EQ(doc->TextContent(lastname), "Federer");
}

TEST(Document, ImportSubtreeCopiesDeeply) {
  auto src = testing::MakeAtpList();
  Document dst("copy");
  NodeId player = FirstDescendantElement(*src, src->root(), "player");
  auto imported = dst.ImportSubtree(*src, player);
  ASSERT_TRUE(imported.ok());
  ASSERT_TRUE(dst.AppendChild(dst.root(), *imported).ok());
  EXPECT_EQ(dst.SubtreeSize(*imported), src->SubtreeSize(player));
  EXPECT_TRUE(Document::SubtreeEquals(*src, player, dst, *imported));
}

TEST(Document, CloneIsStructurallyEqualAndIndependent) {
  auto doc = testing::MakeAtpList();
  auto copy = doc->Clone();
  EXPECT_TRUE(Document::Equals(*doc, *copy));
  NodeId player = FirstDescendantElement(*doc, doc->root(), "player");
  ASSERT_TRUE(doc->RemoveSubtree(player).ok());
  EXPECT_FALSE(Document::Equals(*doc, *copy));
}

TEST(Document, PathOfIsInformative) {
  auto doc = testing::MakeAtpList();
  NodeId lastname = FirstDescendantElement(*doc, doc->root(), "lastname");
  std::string path = doc->PathOf(lastname);
  EXPECT_NE(path.find("/ATPList"), std::string::npos);
  EXPECT_NE(path.find("lastname"), std::string::npos);
}

// --- Parser ---------------------------------------------------------------

TEST(Parser, ParsesPaperDocument) {
  auto doc = xml::Parse(testing::kAtpListXml);
  ASSERT_TRUE(doc.ok()) << doc.status();
  const Node* root = (*doc)->Find((*doc)->root());
  EXPECT_EQ(root->name, "ATPList");
  EXPECT_EQ(*root->FindAttribute("date"), "18042005");
  EXPECT_EQ(root->children.size(), 2u);  // two players
}

TEST(Parser, SelfClosingAndAttributes) {
  auto doc = xml::Parse("<a x=\"1\" y='2'><b/><c z=\"3\"/></a>");
  ASSERT_TRUE(doc.ok());
  const Node* root = (*doc)->Find((*doc)->root());
  EXPECT_EQ(root->children.size(), 2u);
  EXPECT_EQ(*root->FindAttribute("y"), "2");
}

TEST(Parser, EntityRoundTrip) {
  auto doc = xml::Parse("<a k=\"&lt;&amp;&gt;\">x &amp; y &#65;</a>");
  ASSERT_TRUE(doc.ok());
  const Node* root = (*doc)->Find((*doc)->root());
  EXPECT_EQ(*root->FindAttribute("k"), "<&>");
  EXPECT_EQ((*doc)->TextContent((*doc)->root()), "x & y A");
}

TEST(Parser, RejectsMismatchedTags) {
  EXPECT_FALSE(xml::Parse("<a><b></a></b>").ok());
}

TEST(Parser, RejectsTrailingContent) {
  EXPECT_FALSE(xml::Parse("<a/><b/>").ok());
}

TEST(Parser, RejectsUnterminated) {
  EXPECT_FALSE(xml::Parse("<a><b>").ok());
  EXPECT_FALSE(xml::Parse("<a attr=>").ok());
  EXPECT_FALSE(xml::Parse("<a attr=\"x>").ok());
}

TEST(Parser, CommentsArePreserved) {
  auto doc = xml::Parse("<a><!-- note --><b/></a>");
  ASSERT_TRUE(doc.ok());
  const Node* root = (*doc)->Find((*doc)->root());
  ASSERT_EQ(root->children.size(), 2u);
  EXPECT_EQ((*doc)->Find(root->children[0])->type, NodeType::kComment);
}

TEST(Parser, WhitespaceTextDroppedByDefault) {
  auto doc = xml::Parse("<a>\n  <b>x</b>\n</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->Find((*doc)->root())->children.size(), 1u);
}

TEST(Parser, WhitespaceKeptWhenRequested) {
  ParseOptions opts;
  opts.keep_whitespace_text = true;
  auto doc = xml::Parse("<a>\n  <b>x</b>\n</a>", opts);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->Find((*doc)->root())->children.size(), 3u);
}

TEST(Parser, SerializeParseRoundTripOnPaperDoc) {
  auto doc = testing::MakeAtpList();
  std::string serialized = doc->Serialize();
  auto reparsed = xml::Parse(serialized);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_TRUE(Document::Equals(*doc, **reparsed));
}

// --- Detach / reattach and edit rollback -----------------------------------

TEST(Edit, DetachReattachPreservesIdsAndOrder) {
  auto doc = testing::MakeAtpList();
  NodeId player = FirstDescendantElement(*doc, doc->root(), "player");
  size_t before_size = doc->size();
  auto snapshot = doc->Clone();

  auto detached = DetachSubtree(doc.get(), player);
  ASSERT_TRUE(detached.ok());
  EXPECT_FALSE(doc->Contains(player));
  EXPECT_EQ(detached->index, 0u);

  ASSERT_TRUE(
      Reattach(doc.get(), detached->subtree, detached->parent, detached->index)
          .ok());
  EXPECT_TRUE(doc->Contains(player));  // identical id restored
  EXPECT_EQ(doc->size(), before_size);
  EXPECT_TRUE(Document::Equals(*doc, *snapshot));
}

TEST(Edit, ReattachRefusesLiveIds) {
  auto doc = testing::MakeAtpList();
  NodeId player = FirstDescendantElement(*doc, doc->root(), "player");
  auto detached = DetachSubtree(doc.get(), player);
  ASSERT_TRUE(detached.ok());
  ASSERT_TRUE(
      Reattach(doc.get(), detached->subtree, detached->parent, 0).ok());
  Status again = Reattach(doc.get(), detached->subtree, detached->parent, 0);
  EXPECT_EQ(again.code(), StatusCode::kAlreadyExists);
}

TEST(Edit, RollbackRestoresInterleavedEdits) {
  auto doc = testing::MakeAtpList();
  auto snapshot = doc->Clone();
  EditLog log;

  // Insert a node, then delete a subtree that is unrelated, then delete the
  // inserted node's parent — exercising id-chaining across edits.
  NodeId root = doc->root();
  NodeId player2 = doc->Find(root)->children[1];
  NodeId fresh = AddTextElement(doc.get(), player2, "coach", "Toni");
  {
    Edit e;
    e.kind = Edit::Kind::kInsertSubtree;
    e.node = fresh;
    e.parent = player2;
    e.index = doc->IndexInParent(fresh);
    e.nodes_affected = doc->SubtreeSize(fresh);
    log.Append(std::move(e));
  }
  {
    auto detached = DetachSubtree(doc.get(), player2);
    ASSERT_TRUE(detached.ok());
    Edit e;
    e.kind = Edit::Kind::kRemoveSubtree;
    e.node = detached->subtree.root;
    e.parent = detached->parent;
    e.index = detached->index;
    e.nodes_affected = detached->subtree.size();
    e.removed = std::move(detached->subtree);
    log.Append(std::move(e));
  }
  EXPECT_FALSE(Document::Equals(*doc, *snapshot));
  ASSERT_TRUE(RollbackAll(doc.get(), log).ok());
  EXPECT_TRUE(Document::Equals(*doc, *snapshot));
}

TEST(Edit, TotalNodesAffectedSums) {
  EditLog log;
  Edit a;
  a.nodes_affected = 3;
  Edit b;
  b.nodes_affected = 5;
  log.Append(std::move(a));
  log.Append(std::move(b));
  EXPECT_EQ(log.TotalNodesAffected(), 8u);
}

// --- Property test: random documents survive serialize->parse -------------

class RandomTreeTest : public ::testing::TestWithParam<uint64_t> {};

void BuildRandomTree(Document* doc, NodeId parent, Rng* rng, int depth,
                     int* budget) {
  int children = static_cast<int>(rng->Uniform(4));
  bool last_was_text = false;
  for (int i = 0; i < children && *budget > 0; ++i) {
    --*budget;
    // Adjacent text siblings are inherently merged by any XML round-trip
    // (DOM normalization); generate element-separated text only.
    if ((depth > 0 && rng->Bernoulli(0.6)) || last_was_text) {
      last_was_text = false;
      NodeId e = AddElement(doc, parent,
                            "el" + std::to_string(rng->Uniform(7)));
      if (rng->Bernoulli(0.5)) {
        Status s = doc->SetAttribute(e, "a" + std::to_string(rng->Uniform(3)),
                                     "v" + std::to_string(rng->Uniform(100)));
        ASSERT_TRUE(s.ok());
      }
      BuildRandomTree(doc, e, rng, depth - 1, budget);
    } else {
      AddText(doc, parent, "text-" + std::to_string(rng->Uniform(1000)));
      last_was_text = true;
    }
  }
}

TEST_P(RandomTreeTest, SerializeParseIsIdentity) {
  Rng rng(GetParam());
  Document doc("root");
  int budget = 200;
  BuildRandomTree(&doc, doc.root(), &rng, 6, &budget);
  auto reparsed = xml::Parse(doc.Serialize());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_TRUE(Document::Equals(doc, **reparsed));
  // Pretty-printing must also round-trip structurally.
  auto pretty = xml::Parse(doc.Serialize(kNullNode, /*pretty=*/true));
  ASSERT_TRUE(pretty.ok()) << pretty.status();
  EXPECT_TRUE(Document::Equals(doc, **pretty));
}

TEST_P(RandomTreeTest, RandomDetachReattachRoundTrips) {
  Rng rng(GetParam() ^ 0xABCDEF);
  Document doc("root");
  int budget = 150;
  BuildRandomTree(&doc, doc.root(), &rng, 5, &budget);
  auto snapshot = doc.Clone();
  // Detach up to 5 random removable nodes, then reattach in reverse order.
  std::vector<DetachResult> detached;
  for (int i = 0; i < 5; ++i) {
    std::vector<NodeId> candidates;
    doc.Walk(doc.root(), [&](const Node& n) {
      if (n.id != doc.root()) candidates.push_back(n.id);
      return true;
    });
    if (candidates.empty()) break;
    NodeId victim = candidates[rng.Uniform(candidates.size())];
    auto d = DetachSubtree(&doc, victim);
    ASSERT_TRUE(d.ok());
    detached.push_back(std::move(d).value());
  }
  for (size_t i = detached.size(); i > 0; --i) {
    const DetachResult& d = detached[i - 1];
    ASSERT_TRUE(Reattach(&doc, d.subtree, d.parent, d.index).ok());
  }
  EXPECT_TRUE(Document::Equals(doc, *snapshot));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTreeTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(SlabStorage, StaleIdsResolveToNullAfterSlotReuse) {
  Document doc("r");
  NodeId a = AddElement(&doc, doc.root(), "a");
  NodeId a_child = AddTextElement(&doc, a, "x", "1");
  ASSERT_TRUE(doc.RemoveSubtree(a).ok());
  EXPECT_EQ(doc.Find(a), nullptr);
  EXPECT_EQ(doc.Find(a_child), nullptr);
  // New nodes recycle the freed slots but get fresh ids; the stale ids must
  // keep resolving to nullptr (generation check), never to the new tenants.
  NodeId b = AddElement(&doc, doc.root(), "b");
  NodeId c = AddElement(&doc, doc.root(), "c");
  EXPECT_GT(b, a_child);  // ids are never reused (§3.1 compensation contract)
  EXPECT_GT(c, a_child);
  EXPECT_EQ(doc.Find(a), nullptr);
  EXPECT_EQ(doc.Find(a_child), nullptr);
  EXPECT_NE(doc.Find(b), nullptr);
  EXPECT_GE(doc.storage_stats().slots_reused, 2);
}

TEST(SlabStorage, PointersStayValidAcrossGrowth) {
  Document doc("r");
  NodeId first = AddElement(&doc, doc.root(), "first");
  const Node* p = doc.Find(first);
  // Allocate well past one slab page (512 slots); pages must not move.
  for (int i = 0; i < 2000; ++i) AddTextElement(&doc, doc.root(), "n", "v");
  EXPECT_EQ(doc.Find(first), p);
  EXPECT_EQ(p->name, "first");
  EXPECT_GE(doc.storage_stats().pages_allocated, 4);
}

TEST(SlabStorage, InternedNamesAndTagIndexSurviveRename) {
  Document doc("r");
  NodeId a = AddElement(&doc, doc.root(), "alpha");
  AddElement(&doc, doc.root(), "alpha");
  ASSERT_NE(doc.FindNameId("alpha"), kNoName);
  std::vector<NodeId> found;
  doc.CollectElementsNamed(doc.FindNameId("alpha"), &found);
  EXPECT_EQ(found.size(), 2u);
  ASSERT_TRUE(doc.RenameElement(a, "beta").ok());
  found.clear();
  doc.CollectElementsNamed(doc.FindNameId("alpha"), &found);
  EXPECT_EQ(found.size(), 1u);  // stale entry swept on lookup
  found.clear();
  doc.CollectElementsNamed(doc.FindNameId("beta"), &found);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], a);
  EXPECT_EQ(doc.Find(a)->name, "beta");
}

TEST(SlabStorage, ImportSubtreeReinternsForeignNames) {
  // A subtree copied from another document carries spellings that are not
  // in the target's string table yet; the copy must re-intern them so the
  // tag index and NameId comparisons keep working.
  auto src = Parse("<root><team><player>x</player></team></root>");
  ASSERT_TRUE(src.ok());
  NodeId team = (*src)->Find((*src)->root())->children[0];
  auto frag = (*src)->ExtractFragment(team);
  ASSERT_TRUE(frag.ok());
  Document dst("Empty");
  auto imported = dst.ImportSubtree(**frag, (*frag)->root());
  ASSERT_TRUE(imported.ok());
  ASSERT_TRUE(dst.AppendChild(dst.root(), *imported).ok());
  ASSERT_NE(dst.FindNameId("player"), kNoName);
  std::vector<NodeId> players;
  dst.CollectElementsNamed(dst.FindNameId("player"), &players);
  EXPECT_EQ(players.size(), 1u);
}

TEST(SlabStorage, ReservedNamesHaveFixedIdsInEveryDocument) {
  const std::pair<NameId, const char*> reserved[] = {
      {kNameAxmlSc, "axml:sc"},
      {kNameAxmlParams, "axml:params"},
      {kNameAxmlCatch, "axml:catch"},
      {kNameAxmlCatchAll, "axml:catchAll"},
      {kNameAxmlRetry, "axml:retry"}};
  Document doc("r");
  EXPECT_EQ(doc.interned_names(), kNumReservedNames + 1u);
  NodeId sc = AddElement(&doc, doc.root(), "axml:sc");
  NodeId other = AddElement(&doc, doc.root(), "axml:other");
  auto clone = doc.Clone();
  for (const Document* d : {&doc, clone.get()}) {
    for (const auto& [id, spelling] : reserved) {
      EXPECT_EQ(d->FindNameId(spelling), id) << spelling;
      EXPECT_EQ(d->NameOf(id), spelling);
    }
    EXPECT_EQ(d->Find(sc)->name_id, kNameAxmlSc);
    EXPECT_GE(d->Find(other)->name_id, kNumReservedNames);
    EXPECT_EQ(d->FindNameId("axml:"), kNoName);
    std::vector<NodeId> calls;
    d->CollectElementsNamed(kNameAxmlSc, &calls);
    EXPECT_EQ(calls, std::vector<NodeId>{sc});
  }
  // Interning a reserved spelling never adds a table entry.
  EXPECT_EQ(doc.InternName("axml:retry"), kNameAxmlRetry);
  EXPECT_EQ(doc.interned_names(), kNumReservedNames + 2u);
}

/// A three-page document: 1200 <item i=".."> elements under the root, with
/// every 7th one (i % 7 == 3) deleted again, leaving free-list holes in
/// every page. `*ids` gets all 1200 ids in creation order, `*deleted` the
/// deleted ones.
Document MakeHoledDocument(std::vector<NodeId>* ids,
                           std::vector<NodeId>* deleted) {
  Document doc("r");
  for (int i = 0; i < 1200; ++i) {
    NodeId id = AddElement(&doc, doc.root(), "item");
    EXPECT_TRUE(doc.SetAttribute(id, "i", std::to_string(i)).ok());
    ids->push_back(id);
  }
  for (size_t i = 3; i < ids->size(); i += 7) {
    EXPECT_TRUE(doc.RemoveSubtree((*ids)[i]).ok());
    deleted->push_back((*ids)[i]);
  }
  return doc;
}

TEST(SlabStorage, CloneOfHoledMultiPageDocumentKeepsIdsAndHoles) {
  std::vector<NodeId> ids, deleted;
  Document doc = MakeHoledDocument(&ids, &deleted);
  ASSERT_EQ(doc.storage_stats().pages_allocated, 3);
  auto clone = doc.Clone();
  EXPECT_TRUE(Document::Equals(doc, *clone));
  EXPECT_EQ(clone->size(), doc.size());
  for (NodeId id : ids) {
    const Node* a = doc.Find(id);
    const Node* b = clone->Find(id);
    ASSERT_EQ(a == nullptr, b == nullptr) << "id " << id;
    if (a == nullptr) continue;
    EXPECT_NE(a, b);  // the clone owns its own pages
    EXPECT_EQ(b->name, "item");
    EXPECT_EQ(b->attributes, a->attributes);
    EXPECT_EQ(b->parent, clone->root());
  }
  for (NodeId id : deleted) {
    EXPECT_EQ(doc.Find(id), nullptr);
    EXPECT_EQ(clone->Find(id), nullptr);
  }
}

TEST(SlabStorage, CloneRefillsItsOwnHolesBeforeGrowingPastAPage) {
  std::vector<NodeId> ids, deleted;
  Document doc = MakeHoledDocument(&ids, &deleted);
  auto clone = doc.Clone();
  const NodeId first = ids.front();
  const NodeId last = ids.back();  // in the partly used third page
  ASSERT_NE(clone->Find(last), nullptr);
  const Node* doc_first = doc.Find(first);
  const Node* doc_last = doc.Find(last);
  const Node* clone_first = clone->Find(first);
  const Node* clone_last = clone->Find(last);
  const Document::StorageStats before = clone->storage_stats();

  // Exactly the holes are served from the clone's free list, no new page.
  for (size_t i = 0; i < deleted.size(); ++i) {
    AddElement(clone.get(), clone->root(), "refill");
  }
  EXPECT_EQ(clone->storage_stats().slots_reused - before.slots_reused,
            static_cast<int64_t>(deleted.size()));
  EXPECT_EQ(clone->storage_stats().pages_allocated, before.pages_allocated);

  // Then bump allocation fills the third page (1201 of 1536 slots used) and
  // opens a fourth.
  for (int i = 0; i < 600; ++i) AddElement(clone.get(), clone->root(), "grow");
  EXPECT_EQ(clone->storage_stats().pages_allocated,
            before.pages_allocated + 1);
  EXPECT_EQ(clone->Find(first), clone_first);
  EXPECT_EQ(clone->Find(last), clone_last);
  EXPECT_EQ(*clone_last->FindAttribute("i"), "1199");

  // The original's holes are its own: still free, still reused first.
  EXPECT_EQ(doc.storage_stats().slots_reused, before.slots_reused);
  for (size_t i = 0; i < deleted.size(); ++i) {
    AddElement(&doc, doc.root(), "refill");
  }
  EXPECT_EQ(doc.storage_stats().slots_reused - before.slots_reused,
            static_cast<int64_t>(deleted.size()));
  EXPECT_EQ(doc.storage_stats().pages_allocated, before.pages_allocated);
  EXPECT_EQ(doc.Find(first), doc_first);
  EXPECT_EQ(doc.Find(last), doc_last);
  EXPECT_EQ(*doc_last->FindAttribute("i"), "1199");
}

TEST(SlabStorage, RestoreSubtreeIntoFreshOnePageDocumentKeepsIds) {
  Document src("r");
  // Push the subtree's ids past anything the fresh document holds.
  for (int i = 0; i < 600; ++i) AddElement(&src, src.root(), "pad");
  NodeId team = AddElement(&src, src.root(), "team");
  NodeId player = AddTextElement(&src, team, "player", "x");
  auto detached = DetachSubtree(&src, team);
  ASSERT_TRUE(detached.ok());
  const DetachedSubtree& subtree = detached->subtree;
  ASSERT_EQ(subtree.size(), 3u);

  Document fresh("r");
  ASSERT_TRUE(fresh
                  .RestoreSubtree(subtree.nodes, subtree.root, fresh.root(),
                                  0)
                  .ok());
  EXPECT_EQ(fresh.storage_stats().pages_allocated, 1);
  EXPECT_EQ(fresh.size(), 4u);
  NodeId max_restored = kNullNode;
  for (const Node& record : subtree.nodes) {
    max_restored = std::max(max_restored, record.id);
    const Node* restored = fresh.Find(record.id);
    ASSERT_NE(restored, nullptr) << "id " << record.id;
    EXPECT_EQ(restored->name, record.name);
    EXPECT_EQ(restored->children, record.children);
  }
  EXPECT_EQ(fresh.Find(team)->parent, fresh.root());
  EXPECT_EQ(fresh.TextContent(player), "x");
  std::vector<NodeId> players;
  fresh.CollectElementsNamed(fresh.FindNameId("player"), &players);
  EXPECT_EQ(players, std::vector<NodeId>{player});
  // Fresh ids continue past the restored ones.
  EXPECT_GT(fresh.CreateElement("next"), max_restored);
}

TEST(SlabStorage, MovedDocumentKeepsNodeHandles) {
  Document doc("r");
  NodeId first = AddElement(&doc, doc.root(), "first");
  for (int i = 0; i < 600; ++i) AddElement(&doc, doc.root(), "n");
  NodeId last = AddElement(&doc, doc.root(), "last");  // second page
  const Node* p_first = doc.Find(first);
  const Node* p_last = doc.Find(last);

  Document moved(std::move(doc));
  EXPECT_EQ(moved.Find(first), p_first);
  EXPECT_EQ(moved.Find(last), p_last);

  Document assigned("other");
  assigned = std::move(moved);
  EXPECT_EQ(assigned.Find(first), p_first);
  EXPECT_EQ(assigned.Find(last), p_last);

  // Growth after the move fills the second page and opens a third; the
  // handles stay put.
  for (int i = 0; i < 600; ++i) AddElement(&assigned, assigned.root(), "m");
  EXPECT_EQ(assigned.storage_stats().pages_allocated, 3);
  EXPECT_EQ(assigned.Find(first), p_first);
  EXPECT_EQ(assigned.Find(last), p_last);
  EXPECT_EQ(p_first->name, "first");
  EXPECT_EQ(p_last->name, "last");
}

// --- Snapshot reads (FindAt) -------------------------------------------------

/// A versioned document <r><item>old</item></r>; `*text` is the text node.
Document MakeVersioned(NodeId* text) {
  Document doc("r");
  doc.EnableVersioning();
  NodeId item = AddTextElement(&doc, doc.root(), "item", "old");
  *text = doc.Find(item)->children[0];
  return doc;
}

/// Writer `writer` rewrites the text to "new" and appends <added/>.
NodeId WriteAs(Document* doc, uint64_t writer, NodeId text) {
  doc->SetWriter(writer);
  EXPECT_TRUE(doc->SetText(text, "new").ok());
  NodeId added = AddElement(doc, doc->root(), "added");
  doc->SetWriter(0);
  return added;
}

TEST(FindAt, CurrentSnapshotReadsTheLiveNode) {
  NodeId text = kNullNode;
  Document doc = MakeVersioned(&text);
  NodeId added = WriteAs(&doc, /*writer=*/1, text);
  ASSERT_GT(doc.VersionRecordCount(), 0u);
  // Another writer's snapshot taken now is current: every record predates
  // it, so reads are the live nodes themselves.
  const ReadView now{doc.version(), /*writer=*/2, true};
  EXPECT_EQ(doc.FindAt(text, now), doc.Find(text));
  EXPECT_EQ(doc.FindAt(added, now), doc.Find(added));
  EXPECT_EQ(doc.FindAt(text, now)->text, "new");
  std::string content;
  doc.AppendTextContentAt(doc.root(), now, &content);
  EXPECT_EQ(content, "new");
}

TEST(FindAt, OlderSnapshotSeesUndoImagesAfterAnotherWriter) {
  NodeId text = kNullNode;
  Document doc = MakeVersioned(&text);
  const ReadView before{doc.version(), /*writer=*/2, true};
  NodeId added = WriteAs(&doc, /*writer=*/1, text);
  const Node* old_text = doc.FindAt(text, before);
  ASSERT_NE(old_text, nullptr);
  EXPECT_NE(old_text, doc.Find(text));
  EXPECT_EQ(old_text->text, "old");
  EXPECT_EQ(doc.FindAt(added, before), nullptr)
      << "a node inserted after the snapshot must be invisible";
  EXPECT_EQ(doc.FindAt(doc.root(), before)->children.size(), 1u);
  std::string content;
  doc.AppendTextContentAt(doc.root(), before, &content);
  EXPECT_EQ(content, "old");
}

TEST(FindAt, ReadsItsOwnWritesPastItsSnapshot) {
  NodeId text = kNullNode;
  Document doc = MakeVersioned(&text);
  const ReadView mine{doc.version(), /*writer=*/1, true};
  NodeId added = WriteAs(&doc, /*writer=*/1, text);
  EXPECT_EQ(doc.FindAt(text, mine), doc.Find(text));
  EXPECT_EQ(doc.FindAt(text, mine)->text, "new");
  EXPECT_EQ(doc.FindAt(added, mine), doc.Find(added));
  EXPECT_EQ(doc.FindAt(doc.root(), mine)->children.size(), 2u);
}

}  // namespace
}  // namespace axmlx::xml
