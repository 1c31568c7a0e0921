// axmlx end-to-end benchmark.
//
//   axmlx_e2e --workload tree_commit|tree_faults|doc_mvcc --seed N
//             --seconds S --trace 0|1 [--workdir DIR]
//   axmlx_e2e --selftest [--workdir DIR]
//   axmlx_e2e --sweep [--seed N]
//
// Prints a human-readable summary, then one JSON line with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  e2e::Options options;
  bool selftest = false;
  bool sweep = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      selftest = true;
      continue;
    }
    if (arg == "--sweep") {
      sweep = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return 2;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (!(options.seconds >= 0 && options.seconds <= 3600)) end = nullptr;
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--workdir") {
      options.workdir = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 2;
    }
    if ((arg == "--seed" || arg == "--seconds") &&
        (end == nullptr || end == value || *end != '\0')) {
      std::fprintf(stderr, "bad value for %s: %s\n", arg.c_str(), value);
      return 2;
    }
  }
  if (selftest) return e2e::RunSelfTest(options) == 0 ? 0 : 1;
  if (sweep) return e2e::RunSweep(options);
  e2e::RunResult result;
  if (options.workload == "tree_commit" || options.workload == "tree_faults") {
    result = e2e::RunTree(options);
  } else if (options.workload == "doc_mvcc") {
    result = e2e::RunMvcc(options);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  return e2e::Report(options, result);
}
