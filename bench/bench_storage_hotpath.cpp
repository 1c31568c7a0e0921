// Storage hot path — slab/slot documents vs the retired map-backed layout.
//
// PR "hot-path overhaul" converted xml::Document from an
// unordered_map<NodeId, unique_ptr<Node>> to a paged slab with a free list
// and generation-checked id→slot mapping. This bench keeps a minimal
// replica of the old layout ("MapStore") so the before/after comparison
// stays reproducible in-tree: node churn (create + destroy), id lookup,
// and text aggregation run against both layouts.
//
// Two document-lifecycle cases price a Document by what it holds: a tiny
// fragment (construct, build an 8-node payload, destroy), the shape of every
// operation, `<data>` payload and service result that crosses peers, and a
// Clone of an ~800-node document, the replica-push copy.
//
// It also measures the WAL group-commit policies: transactions executed
// under FlushPolicy::EveryRecord / EveryN / OnResolve, reporting the
// wal.flushes and wal.records_batched counters.
//
// Expected shape: the slab wins on churn (slot reuse, no per-node malloc
// for bookkeeping) and on lookup (two array indexes vs a hash probe);
// group commit collapses flushes from one-per-record to one-per-txn.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "ops/operation.h"
#include "storage/durable_store.h"
#include "xml/builder.h"
#include "xml/document.h"

namespace {

using axmlx::bench::Fmt;
using axmlx::bench::Table;
using axmlx::storage::DurableStore;
using axmlx::storage::FlushPolicy;
using axmlx::xml::Document;
using axmlx::xml::NodeId;

/// Minimal replica of the pre-slab Document storage: one heap node per id
/// in a hash map. Only what the workloads below need — create, find,
/// destroy, text aggregation — with the same parent/children id links.
class MapStore {
 public:
  MapStore() { root_ = CreateElement("root", axmlx::xml::kNullNode); }

  NodeId root() const { return root_; }

  NodeId CreateElement(const std::string& name, NodeId parent) {
    NodeId id = next_id_++;
    auto node = std::make_unique<axmlx::xml::Node>();
    node->id = id;
    node->type = axmlx::xml::NodeType::kElement;
    node->name = name;
    node->parent = parent;
    if (parent != axmlx::xml::kNullNode) nodes_[parent]->children.push_back(id);
    nodes_[id] = std::move(node);
    return id;
  }

  NodeId CreateText(const std::string& text, NodeId parent) {
    NodeId id = next_id_++;
    auto node = std::make_unique<axmlx::xml::Node>();
    node->id = id;
    node->type = axmlx::xml::NodeType::kText;
    node->text = text;
    node->parent = parent;
    nodes_[parent]->children.push_back(id);
    nodes_[id] = std::move(node);
    return id;
  }

  const axmlx::xml::Node* Find(NodeId id) const {
    auto it = nodes_.find(id);
    return it == nodes_.end() ? nullptr : it->second.get();
  }

  void DestroySubtree(NodeId id) {
    const axmlx::xml::Node* n = Find(id);
    if (n == nullptr) return;
    for (NodeId c : n->children) DestroySubtree(c);
    nodes_.erase(id);
  }

  void AppendTextContent(NodeId id, std::string* out) const {
    const axmlx::xml::Node* n = Find(id);
    if (n == nullptr) return;
    if (n->type == axmlx::xml::NodeType::kText) out->append(n->text);
    for (NodeId c : n->children) AppendTextContent(c, out);
  }

  size_t size() const { return nodes_.size(); }

 private:
  std::unordered_map<NodeId, std::unique_ptr<axmlx::xml::Node>> nodes_;
  NodeId next_id_ = 0;
  NodeId root_ = 0;
};

constexpr int kChurnFanout = 32;  ///< Nodes per created-and-destroyed batch.

/// One churn round against the slab document: grow a 2-level subtree,
/// read it back, tear it down. Returns nodes touched.
int ChurnSlab(Document* doc) {
  NodeId top = axmlx::xml::AddElement(doc, doc->root(), "batch");
  for (int i = 0; i < kChurnFanout; ++i) {
    NodeId item = axmlx::xml::AddElement(doc, top, "item");
    axmlx::xml::AddText(doc, item, "v");
  }
  int found = 0;
  const axmlx::xml::Node* t = doc->Find(top);
  for (NodeId c : t->children) {
    if (doc->Find(c) != nullptr) ++found;
  }
  (void)doc->RemoveSubtree(top);
  return found;
}

int ChurnMap(MapStore* store) {
  NodeId top = store->CreateElement("batch", store->root());
  for (int i = 0; i < kChurnFanout; ++i) {
    NodeId item = store->CreateElement("item", top);
    store->CreateText("v", item);
  }
  int found = 0;
  const axmlx::xml::Node* t = store->Find(top);
  for (NodeId c : t->children) {
    if (store->Find(c) != nullptr) ++found;
  }
  store->DestroySubtree(top);
  return found;
}

constexpr int kTinyDocsPerBatch = 100;  ///< Lifecycles per timed batch.
constexpr int kCloneRecords = 200;     ///< 4 nodes each: ~800-node clone.

/// One tiny-document lifecycle: a fresh fragment document carrying an
/// 8-node payload (<data><entry k=".."><name>x</name><v>1</v></entry></data>
/// under the root), destroyed on return. Returns its node count.
size_t TinyDocLifecycle() {
  Document doc("fragment");
  NodeId data = axmlx::xml::AddElement(&doc, doc.root(), "data");
  NodeId entry = axmlx::xml::AddElement(&doc, data, "entry");
  (void)doc.SetAttribute(entry, "k", "7");
  axmlx::xml::AddTextElement(&doc, entry, "name", "x");
  axmlx::xml::AddTextElement(&doc, entry, "v", "1");
  axmlx::xml::AddText(&doc, data, "tail");
  return doc.size();
}

size_t TinyDocBatch() {
  size_t nodes = 0;
  for (int i = 0; i < kTinyDocsPerBatch; ++i) nodes += TinyDocLifecycle();
  return nodes;
}

/// An 801-node document (root + 200 records of 4 nodes) spanning two slab
/// pages, the second one partly used — the Clone input.
std::unique_ptr<Document> MakeCloneSource() {
  auto doc = std::make_unique<Document>("root");
  for (int i = 0; i < kCloneRecords; ++i) {
    NodeId rec = axmlx::xml::AddElement(doc.get(), doc->root(), "record");
    axmlx::xml::AddTextElement(doc.get(), rec, "value", "payload");
    axmlx::xml::AddText(doc.get(), rec, "tail");
  }
  return doc;
}

/// Builds the same wide read-workload tree in both layouts: `sections`
/// sections of `items` items, each item carrying one text child.
void BuildReadTree(Document* doc, MapStore* store, int sections, int items,
                   std::vector<NodeId>* slab_ids,
                   std::vector<NodeId>* map_ids) {
  for (int s = 0; s < sections; ++s) {
    NodeId sec = axmlx::xml::AddElement(doc, doc->root(), "section");
    NodeId msec = store->CreateElement("section", store->root());
    for (int i = 0; i < items; ++i) {
      NodeId item = axmlx::xml::AddTextElement(doc, sec, "item", "payload");
      NodeId mitem = store->CreateElement("item", msec);
      store->CreateText("payload", mitem);
      slab_ids->push_back(item);
      map_ids->push_back(mitem);
    }
  }
}

/// Shuffles `ids` with a fixed-seed LCG so both layouts chase identical
/// random access patterns.
void Shuffle(std::vector<NodeId>* ids) {
  uint64_t s = 0x853c49e6748fea9bULL;
  for (size_t i = ids->size(); i > 1; --i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap((*ids)[i - 1], (*ids)[(s >> 33) % i]);
  }
}

/// The hottest storage operation by call count: id -> node resolution.
/// Query evaluation calls Find() for every context node, child link, and
/// text read; slab resolves in two dense-array reads + a generation check,
/// the map layout pays a hash probe + two pointer chases per call.
template <typename Store>
int64_t LookupSweep(const Store& store, const std::vector<NodeId>& ids,
                    int sweeps) {
  int64_t elements = 0;
  for (int s = 0; s < sweeps; ++s) {
    for (NodeId id : ids) {
      const axmlx::xml::Node* n = store.Find(id);
      if (n != nullptr && n->type == axmlx::xml::NodeType::kElement) {
        ++elements;
      }
    }
  }
  return elements;
}

double OpsPerSec(int iters, double total_us) {
  return total_us > 0 ? iters * 1e6 / total_us : 0;
}

template <typename Fn>
double TimeUs(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
             t1 - t0)
      .count();
}

int g_dir_counter = 0;

std::string FreshDir() {
  std::string dir =
      "/tmp/axmlx_bench_hotpath_" + std::to_string(g_dir_counter++);
  std::string cleanup = "rm -rf " + dir;
  (void)std::system(cleanup.c_str());
  return dir;
}

/// Runs `n_txns` small transactions under `policy`; returns the flush /
/// batch counters.
std::pair<int64_t, int64_t> WalWorkload(FlushPolicy policy, int n_txns,
                                        int ops_per_txn) {
  DurableStore store(FreshDir(), nullptr, policy);
  if (!store.Open().ok()) return {0, 0};
  (void)store.CreateDocument("<Store><log/></Store>");
  for (int t = 0; t < n_txns; ++t) {
    std::string txn = "T" + std::to_string(t);
    (void)store.Begin(txn);
    for (int i = 0; i < ops_per_txn; ++i) {
      (void)store.Execute(
          txn, "Store",
          axmlx::ops::MakeInsert("Select d from d in Store//log",
                                 "<entry>payload</entry>"));
    }
    (void)store.Commit(txn);
  }
  auto snap = store.metrics().Snapshot();
  return {snap.counters.at("wal.flushes"),
          snap.counters.at("wal.records_batched")};
}

void PrintExperiment() {
  std::printf(
      "Storage hot path: paged-slab Document vs the retired map-backed "
      "layout, and WAL group-commit flush policies\n\n");

  {
    Table table({"layout", "churn rounds", "ops/sec", "live nodes after"});
    const int rounds = 2000;
    Document doc("root");
    MapStore store;
    double slab_us = TimeUs([&] {
      for (int i = 0; i < rounds; ++i) ChurnSlab(&doc);
    });
    double map_us = TimeUs([&] {
      for (int i = 0; i < rounds; ++i) ChurnMap(&store);
    });
    table.AddRow({"slab", Fmt(rounds), Fmt(OpsPerSec(rounds, slab_us)),
                  Fmt(static_cast<int64_t>(doc.size()))});
    table.AddRow({"map", Fmt(rounds), Fmt(OpsPerSec(rounds, map_us)),
                  Fmt(static_cast<int64_t>(store.size()))});
    table.Print();
    std::printf("  speedup: %.2fx (create+read+destroy of %d-node batches)\n\n",
                map_us > 0 ? map_us / slab_us : 0, kChurnFanout + 1);
  }

  {
    Document doc("root");
    MapStore store;
    std::vector<NodeId> slab_ids, map_ids;
    // 128x128 items (~49k nodes): large enough that the map layout's three
    // dependent pointer chases per Find fall out of L2.
    BuildReadTree(&doc, &store, 128, 128, &slab_ids, &map_ids);
    Shuffle(&slab_ids);
    Shuffle(&map_ids);
    const int sweeps = 500;
    int64_t slab_hits = 0;
    int64_t map_hits = 0;
    double slab_us =
        TimeUs([&] { slab_hits = LookupSweep(doc, slab_ids, sweeps); });
    double map_us =
        TimeUs([&] { map_hits = LookupSweep(store, map_ids, sweeps); });
    const int lookups = sweeps * static_cast<int>(slab_ids.size());
    Table table({"layout", "id lookups", "ops/sec", "elements seen"});
    table.AddRow({"slab", Fmt(lookups), Fmt(OpsPerSec(lookups, slab_us)),
                  Fmt(slab_hits)});
    table.AddRow({"map", Fmt(lookups), Fmt(OpsPerSec(lookups, map_us)),
                  Fmt(map_hits)});
    table.Print();
    std::printf(
        "  speedup: %.2fx (random-order Find, the hot path of query "
        "evaluation)\n\n",
        map_us > 0 ? map_us / slab_us : 0);
  }

  {
    Document doc("root");
    MapStore store;
    std::vector<NodeId> slab_ids, map_ids;
    BuildReadTree(&doc, &store, 64, 64, &slab_ids, &map_ids);
    const int sweeps = 200;
    std::string text;
    double slab_us = TimeUs([&] {
      for (int s = 0; s < sweeps; ++s) {
        for (NodeId id : slab_ids) {
          text.clear();
          doc.AppendTextContent(id, &text);
        }
      }
    });
    double map_us = TimeUs([&] {
      for (int s = 0; s < sweeps; ++s) {
        for (NodeId id : map_ids) {
          text.clear();
          store.AppendTextContent(id, &text);
        }
      }
    });
    const int lookups = sweeps * static_cast<int>(slab_ids.size());
    Table table({"layout", "text lookups", "ops/sec"});
    table.AddRow({"slab", Fmt(lookups), Fmt(OpsPerSec(lookups, slab_us))});
    table.AddRow({"map", Fmt(lookups), Fmt(OpsPerSec(lookups, map_us))});
    table.Print();
    std::printf("  speedup: %.2fx (Find + text aggregation)\n\n",
                map_us > 0 ? map_us / slab_us : 0);
  }

  {
    Table table({"document lifecycle", "nodes", "calls", "us/call"});
    const int batches = 200;
    size_t tiny_nodes = 0;
    double tiny_us = TimeUs([&] {
      for (int b = 0; b < batches; ++b) tiny_nodes = TinyDocBatch();
    });
    const int tiny_calls = batches * kTinyDocsPerBatch;
    table.AddRow({"tiny doc: construct+build+destroy",
                  Fmt(static_cast<int64_t>(tiny_nodes / kTinyDocsPerBatch)),
                  Fmt(tiny_calls), Fmt(tiny_us / tiny_calls)});
    auto source = MakeCloneSource();
    const int clones = 2000;
    size_t cloned_nodes = 0;
    double clone_us = TimeUs([&] {
      for (int i = 0; i < clones; ++i) cloned_nodes = source->Clone()->size();
    });
    table.AddRow({"Clone (2 pages)", Fmt(static_cast<int64_t>(cloned_nodes)),
                  Fmt(clones), Fmt(clone_us / clones)});
    table.Print();
    std::printf(
        "  per-document cost: what the document holds, not a 512-slot "
        "page\n\n");
  }

  {
    Table table({"flush policy", "txns", "wal records", "flushes",
                 "records/flush"});
    const int n_txns = 50;
    const int ops = 8;
    for (auto [label, policy] :
         {std::pair<const char*, FlushPolicy>{"every-record",
                                              FlushPolicy::EveryRecord()},
          {"every-8", FlushPolicy::EveryN(8)},
          {"on-resolve", FlushPolicy::OnResolve()}}) {
      auto [flushes, batched] = WalWorkload(policy, n_txns, ops);
      table.AddRow({label, Fmt(n_txns), Fmt(batched), Fmt(flushes),
                    Fmt(flushes > 0 ? static_cast<double>(batched) / flushes
                                    : 0.0)});
    }
    table.Print();
    std::printf(
        "\nShape check: slab beats map on churn and lookup; group commit "
        "amortizes one flush per transaction instead of per record.\n\n");
  }
}

void WriteReport(bool smoke) {
  axmlx::bench::JsonReport report("storage_hotpath", smoke);
  Document doc("root");
  const int iters = smoke ? 50 : 5000;
  axmlx::bench::MeasureThroughput(&report, "churn_latency_us", iters,
                                  [&] { ChurnSlab(&doc); });
  axmlx::bench::MeasureThroughput(&report, "tiny_doc_batch_us",
                                  smoke ? 20 : 2000, [] { TinyDocBatch(); });
  {
    auto source = MakeCloneSource();
    axmlx::bench::MeasureThroughput(&report, "clone_800_us",
                                    smoke ? 20 : 2000,
                                    [&] { (void)source->Clone(); });
  }
  // The id-lookup batch rate, measured last, stays the headline ops/sec.
  {
    Document lookup_doc("root");
    MapStore unused;
    std::vector<NodeId> ids, map_ids;
    BuildReadTree(&lookup_doc, &unused, smoke ? 8 : 128, smoke ? 8 : 128,
                  &ids, &map_ids);
    Shuffle(&ids);
    const int batches = smoke ? 20 : 500;
    int64_t hits = 0;
    axmlx::bench::MeasureThroughput(&report, "id_lookup_batch_us", batches,
                                    [&] { hits += LookupSweep(lookup_doc, ids, 1); });
    report.AddCounter("doc.lookup_elements_seen", hits);
  }
  const auto& st = doc.storage_stats();
  report.AddCounter("doc.nodes_allocated", st.nodes_allocated);
  report.AddCounter("doc.nodes_freed", st.nodes_freed);
  report.AddCounter("doc.slots_reused", st.slots_reused);
  report.AddCounter("doc.pages_allocated", st.pages_allocated);
  auto [flushes, batched] =
      WalWorkload(FlushPolicy::OnResolve(), smoke ? 5 : 50, 8);
  report.AddCounter("wal.flushes", flushes);
  report.AddCounter("wal.records_batched", batched);
  (void)report.Write();
}

void BM_SlabChurn(benchmark::State& state) {
  Document doc("root");
  for (auto _ : state) {
    benchmark::DoNotOptimize(ChurnSlab(&doc));
  }
}
BENCHMARK(BM_SlabChurn)->Unit(benchmark::kMicrosecond);

void BM_MapChurn(benchmark::State& state) {
  MapStore store;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ChurnMap(&store));
  }
}
BENCHMARK(BM_MapChurn)->Unit(benchmark::kMicrosecond);

void BM_SlabLookup(benchmark::State& state) {
  Document doc("root");
  MapStore unused;
  std::vector<NodeId> ids, map_ids;
  BuildReadTree(&doc, &unused, 128, 128, &ids, &map_ids);
  Shuffle(&ids);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LookupSweep(doc, ids, 1));
  }
}
BENCHMARK(BM_SlabLookup)->Unit(benchmark::kMicrosecond);

void BM_MapLookup(benchmark::State& state) {
  Document unused("root");
  MapStore store;
  std::vector<NodeId> ids, map_ids;
  BuildReadTree(&unused, &store, 128, 128, &ids, &map_ids);
  Shuffle(&map_ids);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LookupSweep(store, map_ids, 1));
  }
}
BENCHMARK(BM_MapLookup)->Unit(benchmark::kMicrosecond);

void BM_TinyDocLifecycle(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(TinyDocLifecycle());
  }
}
BENCHMARK(BM_TinyDocLifecycle)->Unit(benchmark::kMicrosecond);

void BM_Clone800(benchmark::State& state) {
  auto source = MakeCloneSource();
  for (auto _ : state) {
    benchmark::DoNotOptimize(source->Clone());
  }
}
BENCHMARK(BM_Clone800)->Unit(benchmark::kMicrosecond);

void BM_WalCommit(benchmark::State& state) {
  FlushPolicy policy = state.range(0) == 0   ? FlushPolicy::EveryRecord()
                       : state.range(0) == 1 ? FlushPolicy::EveryN(8)
                                             : FlushPolicy::OnResolve();
  DurableStore store(FreshDir(), nullptr, policy);
  if (!store.Open().ok()) return;
  (void)store.CreateDocument("<Store><log/></Store>");
  int t = 0;
  for (auto _ : state) {
    std::string txn = "T" + std::to_string(t++);
    (void)store.Begin(txn);
    for (int i = 0; i < 8; ++i) {
      (void)store.Execute(
          txn, "Store",
          axmlx::ops::MakeInsert("Select d from d in Store//log",
                                 "<entry>payload</entry>"));
    }
    (void)store.Commit(txn);
  }
  state.SetLabel(state.range(0) == 0   ? "every-record"
                 : state.range(0) == 1 ? "every-8"
                                       : "on-resolve");
}
BENCHMARK(BM_WalCommit)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = axmlx::bench::StripSmokeFlag(&argc, argv);
  if (!smoke) PrintExperiment();
  WriteReport(smoke);
  if (smoke) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
