#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "compensation/concurrent.h"
#include "ops/operation.h"
#include "runtime/job_queue.h"
#include "xml/document.h"
#include "xml/parser.h"

namespace axmlx {
namespace {

// Differential oracle for the parallel runtime (DESIGN.md §11): the same
// workload run with no runtime, with the deterministic scheduler under
// several seeds, and with 1/2/4/8 real worker threads must produce
// byte-identical documents and identical commit/abort decisions. This is
// the same methodology as query::naive for the indexed evaluator — an
// independent execution mode whose agreement is checked on every schedule,
// not argued once.

constexpr int kSections = 6;

std::unique_ptr<xml::Document> MakeInventory() {
  std::string text = "<inventory>";
  for (int i = 0; i < kSections; ++i) {
    text += "<section><name>s" + std::to_string(i) + "</name></section>";
  }
  text += "</inventory>";
  auto doc = xml::Parse(text);
  EXPECT_TRUE(doc.ok()) << doc.status();
  return std::move(doc).value();
}

std::string SectionLocation(int section) {
  return "Select s from s in inventory/section "
         "where s/name = s" +
         std::to_string(section);
}

ops::Operation InsertEntry(int section, const std::string& tag) {
  return ops::MakeInsert(SectionLocation(section),
                         "<entry><tag>" + tag + "</tag></entry>");
}

/// One transaction program, as in the isolation matrix: a fixed sequence of
/// inserts. `contended` programs all hit section 0 first.
struct Program {
  std::string label;
  std::vector<ops::Operation> steps;
};

std::vector<Program> MakePrograms(int n, bool contended, uint32_t seed) {
  std::vector<Program> programs;
  for (int i = 0; i < n; ++i) {
    Program p;
    p.label = "t" + std::to_string(i);
    const int own = contended ? 1 + i % (kSections - 1) : i % kSections;
    const int steps = 2 + static_cast<int>((seed + static_cast<uint32_t>(i)) %
                                           3);  // 2..4 ops, seed-dependent
    for (int s = 0; s < steps; ++s) {
      const int target = contended && s == 0 ? 0 : own;
      p.steps.push_back(InsertEntry(target, p.label + "e" + std::to_string(s)));
    }
    programs.push_back(std::move(p));
  }
  return programs;
}

/// Runs `programs` through ExecuteBatch rounds — one batch per round,
/// holding the next step of every live transaction — and returns a full
/// decision trace plus the final document serialization. Conflict losers
/// re-begin and restart their program next round (bounded retries). The
/// trace is the differential artifact: two runs are equivalent iff their
/// traces match byte for byte.
std::string RunBatched(runtime::JobQueue* rt, bool contended, uint32_t seed) {
  std::unique_ptr<xml::Document> doc = MakeInventory();
  comp::ConcurrentExecutor exec(doc.get(), /*invoker=*/nullptr);
  if (rt != nullptr) exec.AttachRuntime(rt);
  std::vector<Program> programs = MakePrograms(4, contended, seed);

  struct Live {
    size_t program;
    comp::TxnHandle handle;
    size_t next_step = 0;
    int retries = 0;
  };
  std::vector<Live> live;
  for (size_t i = 0; i < programs.size(); ++i) {
    live.push_back({i, exec.Begin(programs[i].label), 0, 0});
  }
  std::ostringstream trace;
  int round = 0;
  while (!live.empty()) {
    ++round;
    EXPECT_LT(round, 1000) << "livelock";
    std::vector<comp::ConcurrentExecutor::BatchOp> batch;
    for (const Live& l : live) {
      batch.push_back({l.handle, programs[l.program].steps[l.next_step]});
    }
    std::vector<comp::ConcurrentExecutor::BatchOutcome> outcomes =
        exec.ExecuteBatch(batch);
    trace << "round " << round << ":";
    std::vector<Live> next;
    for (size_t i = 0; i < live.size(); ++i) {
      Live l = live[i];
      const Program& p = programs[l.program];
      if (!outcomes[i].status.ok()) {
        EXPECT_TRUE(comp::IsWriteConflict(outcomes[i].status))
            << outcomes[i].status;
        trace << " " << p.label << "=conflict";
        EXPECT_LT(l.retries, 64) << "livelock for " << p.label;
        exec.NoteRetry();
        l.handle = exec.Begin(p.label);
        l.next_step = 0;
        ++l.retries;
        next.push_back(l);
        continue;
      }
      trace << " " << p.label << "=ok";
      if (++l.next_step == p.steps.size()) {
        EXPECT_TRUE(exec.Commit(l.handle).ok());
        trace << " " << p.label << "=committed";
      } else {
        next.push_back(l);
      }
    }
    trace << "\n";
    live.swap(next);
  }
  trace << doc->Serialize();
  return trace.str();
}

class BatchDifferential : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BatchDifferential, AllSchedulingModesProduceTheSameTrace) {
  const uint32_t seed = GetParam();
  for (bool contended : {false, true}) {
    // Baseline: no runtime attached — the serial ExecuteBatch fallback.
    const std::string baseline = RunBatched(nullptr, contended, seed);

    // Deterministic mode under three scheduler seeds: the work-order
    // shuffle must never reach the result.
    for (uint64_t rt_seed : {1u, 99u, 360360u}) {
      runtime::JobQueueOptions options;
      options.workers = 0;
      options.seed = rt_seed;
      runtime::JobQueue rt(options);
      EXPECT_EQ(RunBatched(&rt, contended, seed), baseline)
          << "det seed " << rt_seed << " contended " << contended;
    }

    // Parallel mode at 1/2/4/8 workers: scheduler-chosen interleavings of
    // the work stages, identical applies.
    for (int workers : {1, 2, 4, 8}) {
      runtime::JobQueueOptions options;
      options.workers = workers;
      runtime::JobQueue rt(options);
      EXPECT_EQ(RunBatched(&rt, contended, seed), baseline)
          << workers << " workers, contended " << contended;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchDifferential,
                         ::testing::Values(7u, 1234u, 987654u));

}  // namespace
}  // namespace axmlx
