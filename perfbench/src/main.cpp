// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--short] [--scratch <dir>] [--git-sha <sha>]
//
// Prints one metadata JSON line, then the result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  Writes no files apart from the journals it creates and
// removes under --scratch.  Exits 1 when any result differs from the
// reference, 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "perfbench.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "wavefront-lcs|cubic-nussinov|serve-mixed --seed N "
               "--seconds S --trace 0|1 [--short] [--scratch DIR] "
               "[--git-sha SHA]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string gitSha = "unknown";
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool hasValue = i + 1 < argc;
    if (arg == "--short") {
      options.shortRun = true;
    } else if (!hasValue) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      options.workload = argv[++i];
      haveWorkload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--scratch") {
      options.scratchDir = argv[++i];
    } else if (arg == "--git-sha") {
      gitSha = argv[++i];
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!haveWorkload || !(options.seconds > 0)) {
    return usage("--workload and a positive --seconds are required");
  }
  if (!perfbench::isBatchWorkload(options.workload) &&
      !perfbench::isServeWorkload(options.workload)) {
    return usage(("unknown workload " + options.workload).c_str());
  }

  try {
    perfbench::Report report = perfbench::runWorkload(options);
    report.meta("git_sha", perfbench::jsonString(gitSha));
    std::cout << perfbench::metadataLine(report) << "\n"
              << perfbench::resultLine(report, options.trace
                                                   ? report.perLayer
                                                   : report.endToEnd)
              << std::endl;
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
