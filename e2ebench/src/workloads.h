// Entry points of the benchmark's workloads and modes.
#ifndef AXMLX_E2EBENCH_WORKLOADS_H_
#define AXMLX_E2EBENCH_WORKLOADS_H_

#include "harness.h"

namespace e2e {

/// tree_commit and tree_faults.
RunResult RunTree(const Options& options);

/// doc_mvcc.
RunResult RunMvcc(const Options& options);

/// One-off size sweep of doc_mvcc's read mix (not a workload).
int RunSweep(const Options& options);

/// Feeds every correctness check a deliberately wrong output and shows it
/// is rejected, then runs one round of each workload and writes its report
/// under `options.workdir`, printing `report <path>` for each. Returns the
/// number of checks and rounds that misbehaved.
int RunSelfTest(const Options& options);

}  // namespace e2e

#endif  // AXMLX_E2EBENCH_WORKLOADS_H_
