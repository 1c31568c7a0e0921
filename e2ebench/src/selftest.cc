// Self-test of the benchmark's correctness checks: each check must accept
// the right output and reject a deliberately wrong one. It then runs one
// round of every workload and writes its axmlx-bench-v1 report, so the
// reports can be checked with `axmlx_report --check`.
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "ops/executor.h"
#include "ops/operation.h"
#include "workloads.h"
#include "xml/parser.h"

namespace e2e {
namespace {

int failures = 0;

/// `accepts` must be empty (right output passes) and `rejects` non-empty
/// (wrong output is caught).
void Expect(const char* what, const std::string& accepts,
            const std::string& rejects) {
  const bool ok = accepts.empty() && !rejects.empty();
  std::printf("  %-58s %s\n", what, ok ? "ok" : "MISSED");
  if (!accepts.empty()) {
    std::printf("    right output rejected: %s\n", accepts.c_str());
  }
  if (rejects.empty()) std::printf("    wrong output accepted\n");
  if (!ok) ++failures;
}

}  // namespace

int RunSelfTest(const Options& options) {
  std::printf("self-test of the output checks\n");
  const std::vector<std::string> committed = {"T0", "T2", "T3"};

  // A worker log as the program writes it, then with one committed entry
  // deleted behind the protocol's back.
  auto doc = axmlx::xml::Parse(
      "<DataP><log><entry txn=\"T0\"/><entry txn=\"T0\"/>"
      "<entry txn=\"T2\"/><entry txn=\"T2\"/><entry txn=\"T3\"/>"
      "<entry txn=\"T3\"/></log></DataP>");
  if (!doc.ok()) return 1;
  const std::vector<std::string> right = EntryTxns(*doc.value());
  axmlx::ops::Executor exec(doc.value().get(), nullptr);
  if (!exec.Execute(axmlx::ops::MakeDelete(
                        "Select e from e in DataP//entry where e/@txn = T2"))
           .ok()) {
    return 1;
  }
  const std::vector<std::string> missing = EntryTxns(*doc.value());
  Expect("document missing one committed transaction's entries",
         CheckCommittedEntries(right, committed, 2),
         CheckCommittedEntries(missing, committed, 2));
  std::vector<std::string> extra = right;
  extra.insert(extra.begin() + 2, {"T1", "T1"});
  Expect("document holding an aborted transaction's entries",
         CheckCommittedEntries(right, committed, 2),
         CheckCommittedEntries(extra, committed, 2));

  Expect("decision flipped against the fault schedule",
         CheckDecision(Expected::kAbort, /*decided=*/true,
                       /*committed=*/false),
         CheckDecision(Expected::kAbort, true, /*committed=*/true));
  Expect("abort that nothing was scheduled or injected to cause",
         CheckDecision(Expected::kCommit, true, true),
         CheckDecision(Expected::kCommit, true, false));
  Expect("undecided transaction",
         CheckDecision(Expected::kEither, true, false),
         CheckDecision(Expected::kEither, false, false));

  const std::string live = doc.value()->Serialize();
  std::string torn = live;
  torn.erase(torn.size() / 2, 10);
  Expect("WAL replay that lost bytes", CheckReplay(live, live),
         CheckReplay(live, torn));

  Expect("recovered state holding half of a transaction",
         CheckCommittedEntries({"T0", "T0", "T2", "T2"}, {"T0", "T2"}, 2),
         CheckCommittedEntries({"T0", "T0", "T2"}, {"T0", "T2"}, 2));

  // doc_mvcc: final document against the model.
  auto inv = axmlx::xml::Parse(
      "<Inv><section id=\"s0\"><item id=\"k0\"><name>k0</name>"
      "<price>10</price></item><item id=\"k1\"><name>k1</name>"
      "<price>11</price></item></section></Inv>");
  if (!inv.ok()) return 1;
  const Inventory model = ReadInventory(*inv.value());
  axmlx::ops::Executor inv_exec(inv.value().get(), nullptr);
  if (!inv_exec
           .Execute(axmlx::ops::MakeReplace(
               "Select i/price from i in Inv/section/item where i/@id = k1",
               "<price>99</price>"))
           .ok()) {
    return 1;
  }
  Expect("final document with a write the model never committed",
         CheckInventory(model, model),
         CheckInventory(ReadInventory(*inv.value()), model));
  Inventory reordered = model;
  std::swap(reordered[0].items[0], reordered[0].items[1]);
  Expect("final document with records out of commit order",
         CheckInventory(model, model), CheckInventory(reordered, model));

  Expect("keyed read that returns a stale value",
         CheckKeyedRead("k1", "11", "11"), CheckKeyedRead("k1", "10", "11"));
  Expect("keyed read of a deleted record that still finds it",
         CheckKeyedRead("k7", "", ""), CheckKeyedRead("k7", "12", ""));
  Expect("materialized value not restored after abort",
         CheckRestored("player p1", "1003", "1003"),
         CheckRestored("player p1", "1004", "1003"));

  // One round of each workload (--seconds 0), through the same checks and
  // report writer as a measured run.
  for (const char* workload : {"tree_commit", "tree_faults", "doc_mvcc"}) {
    Options round = options;
    round.workload = workload;
    round.seconds = 0;
    round.trace = false;
    const RunResult result = round.workload == "doc_mvcc" ? RunMvcc(round)
                                                          : RunTree(round);
    const bool ok = result.correct && result.failed == 0;
    std::printf("  %-58s %s\n", ("one round of " + round.workload).c_str(),
                ok ? "ok" : "FAILED");
    for (const std::string& e : result.errors) {
      std::printf("    check failed: %s\n", e.c_str());
    }
    const std::string path = WriteBenchJson(round, result);
    if (!ok || path.empty()) ++failures;
    if (!path.empty()) std::printf("report %s\n", path.c_str());
  }

  std::printf("%s\n", failures == 0 ? "self-test passed" : "self-test FAILED");
  return failures;
}

}  // namespace e2e
