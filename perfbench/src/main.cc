// ORQ end-to-end benchmark.
//
// Usage:
//   perfbench --workload tpch_suite|adhoc_mix|wide_result --seed N
//             --seconds S --trace 0|1 [--spans PATH]
//
// --trace 0 runs the workload end to end against a self-hosted server and
// prints the end-to-end metrics; --trace 1 runs the per-layer traced run
// over the same queries and prints the per-layer metrics (spans go to
// --spans). The last line of stdout is the JSON result; the exit code is
// non-zero when any result was wrong. See perfbench/NOTES.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload tpch_suite|adhoc_mix|wide_result "
               "--seed N --seconds S --trace 0|1 [--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const std::string value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      if (!perfbench::ParseWorkload(value, &options.workload)) return Usage();
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options.seconds = std::atof(value.c_str());
    } else if (std::strcmp(flag, "--trace") == 0) {
      options.trace = value == "1";
    } else if (std::strcmp(flag, "--spans") == 0) {
      options.spans_path = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || argc % 2 == 0 || options.seconds <= 0) return Usage();
  return options.trace ? perfbench::RunTraced(options)
                       : perfbench::RunEndToEnd(options);
}
