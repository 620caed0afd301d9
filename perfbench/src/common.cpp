#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "easyhps/dp/editdist.hpp"
#include "easyhps/dp/kernel_common.hpp"
#include "easyhps/dp/lcs.hpp"
#include "easyhps/dp/nussinov.hpp"
#include "easyhps/dp/sequence.hpp"
#include "easyhps/dp/simd.hpp"
#include "easyhps/runtime/pipeline.hpp"
#include "easyhps/runtime/wire.hpp"
#include "perfbench.hpp"

namespace perfbench {

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

std::size_t samplesBeyond(std::size_t n, double pct) {
  // Integer arithmetic in hundredths, so 95% of 200 is exactly rank 190.
  const auto hundredths = static_cast<std::size_t>(std::llround(pct * 100.0));
  const std::size_t rank = (hundredths * n + 9999) / 10000;
  return rank >= n ? 0 : n - rank;
}

int highestSupportedPercentile(std::size_t n, int want, std::size_t beyond) {
  for (int p = want; p >= 50; --p) {
    if (samplesBeyond(n, p) >= beyond) {
      return p;
    }
  }
  return -1;
}

namespace {

/// Sum of wire::blockChecksum over the active blocks of `problem`'s
/// master grid, read from `table`: the RunStats::tableChecksum a correct
/// run reports.
std::uint64_t tableChecksumOf(const DpProblem& problem,
                              const easyhps::DenseMatrix<Score>& table,
                              std::int64_t partitionRows,
                              std::int64_t partitionCols) {
  const easyhps::PartitionedDag dag =
      easyhps::buildMasterDag(problem, partitionRows, partitionCols);
  std::uint64_t sum = 0;
  for (easyhps::VertexId v = 0; v < dag.vertexCount(); ++v) {
    const easyhps::CellRect rect = dag.rectOf(v);
    sum += easyhps::wire::blockChecksum(v, rect, table.extract(rect));
  }
  return sum;
}

/// Four independent multiply-xor lanes over a row of cells, folded per
/// row with the row index so a shifted row cannot alias.
class Digest {
 public:
  void row(std::int64_t r, const Score* cells, std::int64_t n) {
    std::uint64_t lane[4] = {0x9e3779b97f4a7c15ULL, 0xc2b2ae3d27d4eb4fULL,
                             0x165667b19e3779f9ULL, 0x27d4eb2f165667c5ULL};
    std::int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
      for (int k = 0; k < 4; ++k) {
        lane[k] = (lane[k] ^ static_cast<std::uint32_t>(cells[i + k])) *
                  0x100000001b3ULL;
      }
    }
    for (; i < n; ++i) {
      lane[0] = (lane[0] ^ static_cast<std::uint32_t>(cells[i])) *
                0x100000001b3ULL;
    }
    std::uint64_t h = static_cast<std::uint64_t>(r) * 0xff51afd7ed558ccdULL;
    for (std::uint64_t l : lane) {
      h = (h ^ l) * 0xc4ceb9fe1a85ec53ULL;
      h ^= h >> 29;
    }
    sum_ = sum_ * 31 + h;
  }
  std::uint64_t value() const { return sum_; }

 private:
  std::uint64_t sum_ = 0;
};

}  // namespace

std::uint64_t matrixDigest(const easyhps::DenseMatrix<Score>& table) {
  Digest d;
  for (std::int64_t r = 0; r < table.rows(); ++r) {
    d.row(r, &table.atUnchecked(r, 0), table.cols());
  }
  return d.value();
}

std::uint64_t matrixDigest(const easyhps::Window& table) {
  Digest d;
  const easyhps::CellRect& box = table.box();
  for (std::int64_t r = box.row0; r < box.rowEnd(); ++r) {
    const Score* row = table.rowIn(r, box.col0, box.cols);
    if (row == nullptr) {
      return 0;
    }
    d.row(r, row, box.cols);
  }
  return d.value();
}

std::int64_t activeCells(const DpProblem& problem) {
  std::int64_t cells = 0;
  for (std::int64_t r = 0; r < problem.rows(); ++r) {
    for (std::int64_t c = 0; c < problem.cols(); ++c) {
      cells += problem.cellActive(r, c) ? 1 : 0;
    }
  }
  return cells;
}

Expected expectedFor(const DpProblem& problem, std::int64_t partitionRows,
                     std::int64_t partitionCols) {
  const easyhps::DenseMatrix<Score> table = problem.solveReference();
  Expected e;
  e.tableChecksum =
      tableChecksumOf(problem, table, partitionRows, partitionCols);
  e.matrixDigest = matrixDigest(table);
  e.cells = activeCells(problem);
  return e;
}

bool matches(const Expected& want, std::uint64_t tableChecksum,
             const easyhps::Window* table) {
  return table != nullptr && tableChecksum == want.tableChecksum &&
         matrixDigest(*table) == want.matrixDigest;
}

easyhps::RuntimeConfig clusterConfig(std::int64_t processPartition,
                                     std::int64_t threadPartition) {
  easyhps::RuntimeConfig cfg;
  cfg.slaveCount = 3;
  cfg.threadsPerSlave = 1;
  cfg.processPartitionRows = cfg.processPartitionCols = processPartition;
  cfg.threadPartitionRows = cfg.threadPartitionCols = threadPartition;
  return cfg;
}

std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string resultLine(const Report& report,
                       const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (report.correct() ? "true" : "false")
      << ", \"attempted\": " << report.tally.attempted
      << ", \"failed\": " << report.tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << jsonString(metrics[i].name)
        << ": {\"value\": " << jsonNumber(metrics[i].value)
        << ", \"unit\": " << jsonString(metrics[i].unit) << "}";
  }
  out << "}}";
  return out.str();
}

std::string metadataLine(const Report& report) {
  std::ostringstream out;
  out << "{\"metadata\": {";
  for (std::size_t i = 0; i < report.metadata.size(); ++i) {
    out << (i ? ", " : "") << jsonString(report.metadata[i].first) << ": "
        << report.metadata[i].second;
  }
  out << "}}";
  return out.str();
}

namespace {

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int maxLeaf = __get_cpuid_max(0x80000000U, nullptr);
  if (maxLeaf >= 0x80000004U) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002U + i, &regs[i * 4], &regs[i * 4 + 1],
                  &regs[i * 4 + 2], &regs[i * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    s.erase(s.find_last_not_of(' ') + 1);
    return s;
  }
#endif
  return "unknown";
}

}  // namespace

void addRunMetadata(Report& report, const Options& options) {
  report.meta("workload", jsonString(options.workload));
  report.meta("seed", std::to_string(options.seed));
  report.meta("seconds", jsonNumber(options.seconds));
  report.meta("trace", options.trace ? "true" : "false");
  report.meta("mode", jsonString(options.shortRun ? "short" : "full"));
  report.meta("build_type", jsonString(PERFBENCH_BUILD_TYPE));
  report.meta("simd_backend", jsonString(easyhps::simd::backendName()));
  report.meta("simd_runtime_supported",
              easyhps::simd::runtimeSupported() ? "true" : "false");
  report.meta("kernel_path", jsonString(easyhps::kernelPathName(
                                 easyhps::effectiveKernelPath())));
  report.meta("pipeline", jsonString(easyhps::pipelineModeName(
                              easyhps::pipelineMode())));
  report.meta("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.meta("cpu_model", jsonString(cpuModel()));
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double processCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

std::shared_ptr<const DpProblem> makeProblem(const InputSpec& spec) {
  switch (spec.kind) {
    case Kind::kLcs:
      return std::make_shared<easyhps::LongestCommonSubsequence>(
          easyhps::randomSequence(spec.n, deriveSeed(spec.seed, 0)),
          easyhps::randomSequence(spec.n, deriveSeed(spec.seed, 1)));
    case Kind::kEditDistance:
      return std::make_shared<easyhps::EditDistance>(
          easyhps::randomSequence(spec.n, deriveSeed(spec.seed, 0)),
          easyhps::randomSequence(spec.n, deriveSeed(spec.seed, 1)));
    case Kind::kNussinov:
      return std::make_shared<easyhps::Nussinov>(
          easyhps::randomRna(spec.n, deriveSeed(spec.seed, 0)));
  }
  throw std::logic_error("unknown input kind");
}

Report runWorkload(const Options& options) {
  if (isBatchWorkload(options.workload)) {
    return runBatch(batchSpec(options.workload, options.shortRun), options);
  }
  if (isServeWorkload(options.workload)) {
    return runServe(serveSpec(options.shortRun), options);
  }
  throw std::invalid_argument("unknown workload: " + options.workload);
}

}  // namespace perfbench
