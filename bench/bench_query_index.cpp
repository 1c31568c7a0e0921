// Query hot path — indexed descendant evaluation vs the naive evaluator.
//
// PR "hot-path overhaul" gave xml::Document an incremental tag-name index
// (NameId → node ids) and rewrote query evaluation around an EvalContext:
// descendant-axis steps pull candidates from the index instead of walking
// the whole tree, tag comparisons are integer NameId compares, and
// TextContent is memoized across predicate evaluations (leaf fields are
// read in place). The pre-change
// algorithm survives as query::naive (src/query/naive_eval.cc), so this
// bench compares the two directly on the same document.
//
// Expected shape: for selective names (few matches in a large document)
// the indexed path wins by a wide margin; for dense names the evaluator
// falls back to the walk and the two converge.
//
// The keyed lookup (the paper's `p/name = key` over every record) runs at
// two document sizes. Its cost must grow linearly with the record count:
// an evaluator step that costs O(document) per binding makes it quadratic,
// and the 4x-larger size then costs far more than 4x.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "bench/bench_util.h"
#include "query/eval.h"
#include "query/naive_eval.h"
#include "query/parser.h"
#include "xml/builder.h"
#include "xml/document.h"

namespace {

using axmlx::bench::Fmt;
using axmlx::bench::Table;
using axmlx::query::EvalContext;
using axmlx::query::Query;
using axmlx::xml::Document;
using axmlx::xml::NodeId;

/// Builds the benchmark document: `sections` sections of `players` players
/// (name/rank/grandslamswon children), diluted with `filler` inert elements
/// per section so player-ish names are selective. A few players sit inside
/// axml:sc wrappers with axml:params bookkeeping to keep the §3.1
/// visibility rules on the hot path.
std::unique_ptr<Document> BuildAtpList(int sections, int players,
                                       int filler) {
  auto doc = std::make_unique<Document>("ATPList");
  int serial = 0;
  for (int s = 0; s < sections; ++s) {
    NodeId sec = axmlx::xml::AddElement(doc.get(), doc->root(), "section");
    for (int f = 0; f < filler; ++f) {
      NodeId pad = axmlx::xml::AddElement(doc.get(), sec, "padding");
      axmlx::xml::AddTextElement(doc.get(), pad, "noise", "x");
    }
    for (int p = 0; p < players; ++p) {
      NodeId host = sec;
      if (p % 7 == 0) {
        // Materialized service call: player lives inside an axml:sc.
        NodeId sc = axmlx::xml::AddElement(doc.get(), sec, "axml:sc");
        NodeId params = axmlx::xml::AddElement(doc.get(), sc, "axml:params");
        axmlx::xml::AddTextElement(doc.get(), params, "param", "hidden");
        host = sc;
      }
      NodeId player = axmlx::xml::AddElement(doc.get(), host, "player");
      axmlx::xml::AddTextElement(doc.get(), player, "name",
                                 "P" + std::to_string(serial));
      axmlx::xml::AddTextElement(doc.get(), player, "rank",
                                 std::to_string(serial % 100));
      axmlx::xml::AddTextElement(doc.get(), player, "grandslamswon",
                                 std::to_string(serial % 15));
      ++serial;
    }
  }
  return doc;
}

/// Builds an inventory of `records` items in 64 sections, each
/// `<item id="kN"><name>kN</name><price>N</price></item>`, allocated in
/// document order as a parse would. Items are a fifth of the nodes, so
/// `Inv//item` takes the walk and binds every record.
std::unique_ptr<Document> BuildInventory(int records) {
  auto doc = std::make_unique<Document>("Inv");
  NodeId section = axmlx::xml::kNullNode;
  for (int r = 0; r < records; ++r) {
    if (r % ((records + 63) / 64) == 0) {
      section = axmlx::xml::AddElement(doc.get(), doc->root(), "section");
    }
    const std::string key = "k" + std::to_string(r);
    NodeId item = axmlx::xml::AddElement(doc.get(), section, "item");
    (void)doc->SetAttribute(item, "id", key);
    axmlx::xml::AddTextElement(doc.get(), item, "name", key);
    axmlx::xml::AddTextElement(doc.get(), item, "price", std::to_string(r));
  }
  return doc;
}

Query ParseQueryOrDie(const std::string& text) {
  auto q = axmlx::query::ParseQuery(text);
  if (!q.ok()) {
    std::fprintf(stderr, "bad bench query: %s\n", text.c_str());
    std::abort();
  }
  return std::move(q).value();
}

// The two-sided range reads p/grandslamswon twice per binding; as a leaf
// field it is read in place, without the per-eval TextContent memo.
const char* kSelectiveQuery =
    "Select p/name from p in ATPList//player "
    "where p/grandslamswon > 10 and p/grandslamswon < 14";
const char* kDenseQuery = "Select n from n in ATPList//noise";

/// The keyed lookup at a record count: a child-path predicate tested on
/// every record, matching one.
Query KeyedQuery(int records) {
  return ParseQueryOrDie(
      "Select p/price from p in Inv//item where p/name = k" +
      std::to_string(records / 2));
}

constexpr int kKeyedSmall = 2500;
constexpr int kKeyedLarge = 10000;

size_t RunIndexed(const Document& doc, const Query& q, EvalContext* ctx) {
  auto result = axmlx::query::EvaluateQuery(doc, q, ctx);
  return result.ok() ? result.value().bindings.size() : 0;
}

size_t RunNaive(const Document& doc, const Query& q) {
  auto result = axmlx::query::naive::EvaluateQuery(doc, q);
  return result.ok() ? result.value().bindings.size() : 0;
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

void PrintExperiment() {
  std::printf(
      "Query hot path: tag-index descendant evaluation vs the naive "
      "tree-walking evaluator\n\n");
  auto doc = BuildAtpList(/*sections=*/64, /*players=*/8, /*filler=*/40);
  std::printf("document: %zu nodes\n\n", doc->size());

  Table table({"query", "evaluator", "evals", "ops/sec", "bindings"});
  for (auto [label, text, iters] :
       {std::tuple<const char*, const char*, int>{"selective //player",
                                                  kSelectiveQuery, 400},
        {"dense //noise", kDenseQuery, 100}}) {
    Query q = ParseQueryOrDie(text);
    EvalContext ctx;
    size_t bindings = RunIndexed(*doc, q, &ctx);
    double indexed_us = TimeUs([&] {
      for (int i = 0; i < iters; ++i) RunIndexed(*doc, q, &ctx);
    });
    double naive_us = TimeUs([&] {
      for (int i = 0; i < iters; ++i) RunNaive(*doc, q);
    });
    table.AddRow({label, "indexed", Fmt(iters),
                  Fmt(OpsPerSec(iters, indexed_us)), Fmt(bindings)});
    table.AddRow({label, "naive", Fmt(iters), Fmt(OpsPerSec(iters, naive_us)),
                  Fmt(RunNaive(*doc, q))});
    std::printf("  %s speedup: %.2fx\n", label,
                indexed_us > 0 ? naive_us / indexed_us : 0);
  }
  double keyed_us[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    const int records = i == 0 ? kKeyedSmall : kKeyedLarge;
    const int iters = i == 0 ? 40 : 10;
    auto inv = BuildInventory(records);
    Query q = KeyedQuery(records);
    EvalContext ctx;
    size_t bindings = RunIndexed(*inv, q, &ctx);
    keyed_us[i] = TimeUs([&] {
                    for (int k = 0; k < iters; ++k) RunIndexed(*inv, q, &ctx);
                  }) /
                  iters;
    double naive_us = TimeUs([&] {
                        for (int k = 0; k < iters; ++k) RunNaive(*inv, q);
                      }) /
                      iters;
    const std::string label = "keyed p/name, " + Fmt(records) + " records";
    table.AddRow({label, "indexed", Fmt(iters), Fmt(1e6 / keyed_us[i]),
                  Fmt(bindings)});
    table.AddRow({label, "naive", Fmt(iters), Fmt(1e6 / naive_us),
                  Fmt(RunNaive(*inv, q))});
  }
  std::printf("  keyed lookup, %dx the records: %.2fx the time (linear: %dx)\n",
              kKeyedLarge / kKeyedSmall,
              keyed_us[0] > 0 ? keyed_us[1] / keyed_us[0] : 0,
              kKeyedLarge / kKeyedSmall);
  std::printf("\n");
  table.Print();
  std::printf(
      "\nShape check: the selective query rides the tag index (few "
      "candidates, cheap visibility checks); the dense query falls back to "
      "the walk, so the evaluators converge. The keyed lookup's time grows "
      "with the record count, not with its square.\n\n");
}

/// The headline ops/sec is evaluations per second over the whole mix: the
/// selective query plus the keyed lookup at both sizes. Iteration counts
/// give each case a similar share of the time, so a case that turns
/// quadratic (or any case that slows down 2-3x) moves the headline past
/// the perf-smoke gate.
void WriteReport(bool smoke) {
  axmlx::bench::JsonReport report("query_index", smoke);
  auto doc = BuildAtpList(smoke ? 8 : 64, 8, smoke ? 5 : 40);
  Query q = ParseQueryOrDie(kSelectiveQuery);
  EvalContext ctx;
  const int iters = smoke ? 400 : 2000;
  int total_iters = iters;
  double total_s = axmlx::bench::MeasureThroughput(
      &report, "eval_latency_us", iters, [&] { RunIndexed(*doc, q, &ctx); });
  for (int records : {kKeyedSmall, kKeyedLarge}) {
    auto inv = BuildInventory(records);
    Query keyed = KeyedQuery(records);
    EvalContext keyed_ctx;
    const int keyed_iters =
        (records == kKeyedSmall ? 40 : 10) * (smoke ? 1 : 10);
    total_iters += keyed_iters;
    total_s += axmlx::bench::MeasureThroughput(
        &report, "keyed_" + std::to_string(records) + "_us", keyed_iters,
        [&] { RunIndexed(*inv, keyed, &keyed_ctx); });
  }
  report.SetWallOpsPerSec(total_s > 0 ? total_iters / total_s : 0);
  report.AddCounter("query.index_hits", ctx.stats.index_hits);
  report.AddCounter("query.index_candidates", ctx.stats.index_candidates);
  report.AddCounter("query.walk_fallbacks", ctx.stats.walk_fallbacks);
  report.AddCounter("query.text_cache_hits", ctx.stats.text_cache_hits);
  report.AddCounter("doc.nodes_allocated",
                    doc->storage_stats().nodes_allocated);
  (void)report.Write();
}

void BM_IndexedSelective(benchmark::State& state) {
  auto doc = BuildAtpList(64, 8, 40);
  Query q = ParseQueryOrDie(kSelectiveQuery);
  EvalContext ctx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunIndexed(*doc, q, &ctx));
  }
}
BENCHMARK(BM_IndexedSelective)->Unit(benchmark::kMicrosecond);

void BM_NaiveSelective(benchmark::State& state) {
  auto doc = BuildAtpList(64, 8, 40);
  Query q = ParseQueryOrDie(kSelectiveQuery);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunNaive(*doc, q));
  }
}
BENCHMARK(BM_NaiveSelective)->Unit(benchmark::kMicrosecond);

void BM_IndexedDense(benchmark::State& state) {
  auto doc = BuildAtpList(64, 8, 40);
  Query q = ParseQueryOrDie(kDenseQuery);
  EvalContext ctx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunIndexed(*doc, q, &ctx));
  }
}
BENCHMARK(BM_IndexedDense)->Unit(benchmark::kMicrosecond);

void BM_NaiveDense(benchmark::State& state) {
  auto doc = BuildAtpList(64, 8, 40);
  Query q = ParseQueryOrDie(kDenseQuery);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunNaive(*doc, q));
  }
}
BENCHMARK(BM_NaiveDense)->Unit(benchmark::kMicrosecond);

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
