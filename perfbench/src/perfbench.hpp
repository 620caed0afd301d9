#pragma once
/// \file perfbench.hpp
/// The repository's end-to-end benchmark: three seeded workloads driven
/// through the public entry points (`Runtime::run`, `serve::Service`), a
/// correctness gate against `solveReference`, and a per-layer replay that
/// times the public functions of each layer from the benchmark's own code.
/// README.md in this directory documents every workload and metric.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "easyhps/dp/problem.hpp"
#include "easyhps/runtime/config.hpp"

namespace perfbench {

using easyhps::DpProblem;
using easyhps::Score;
using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A timed phase never runs past this, whatever --seconds says, so one
/// run always ends inside its time limit.
inline constexpr double kPhaseCapSeconds = 90.0;

// ---------------------------------------------------------------- stats

/// Median of `xs` (mean of the two middle values for even counts); 0 for
/// an empty sample.
double median(std::vector<double> xs);

/// Linear-interpolated quantile, q in [0, 1] (the numpy default rule);
/// 0 for an empty sample.
double quantile(std::vector<double> xs, double q);

/// Samples strictly above the `pct`-th percentile of `n` samples: those
/// ranked after ceil(pct/100 * n).
std::size_t samplesBeyond(std::size_t n, double pct);

/// Highest whole percentile <= `want` that leaves at least `beyond`
/// samples above it; -1 when even the median is unsupported.
int highestSupportedPercentile(std::size_t n, int want,
                               std::size_t beyond = 10);

/// Operations attempted and failed.  A failed operation is a job whose
/// result differs from the reference or that did not complete.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
    }
  }
  double failRatio() const {
    return attempted > 0 ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0.0;
  }
};

// ------------------------------------------------------- correctness gate

/// What a correct run of one input must produce, derived from
/// `solveReference` during set-up.
struct Expected {
  /// RunStats::tableChecksum a correct run reports: the sum of
  /// wire::blockChecksum over the master grid's active blocks.
  std::uint64_t tableChecksum = 0;
  /// matrixDigest of the reference table (every cell, row-major).
  std::uint64_t matrixDigest = 0;
  /// Active DP cells of the input (the numerator of Mcells/s).
  std::int64_t cells = 0;
};

/// Order-dependent 64-bit digest of every cell, row-major.
std::uint64_t matrixDigest(const easyhps::DenseMatrix<Score>& table);
std::uint64_t matrixDigest(const easyhps::Window& table);

/// Active cells of `problem` (cellActive over the whole matrix).
std::int64_t activeCells(const DpProblem& problem);

/// Solves the reference and derives every expectation from it.
Expected expectedFor(const DpProblem& problem, std::int64_t partitionRows,
                     std::int64_t partitionCols);

/// True when a job's reported checksum and returned table match `want`.
/// `table` may be null (no table returned), which fails the check.
bool matches(const Expected& want, std::uint64_t tableChecksum,
             const easyhps::Window* table);

// --------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs for smoke runs and tests; reported as mode "short".
  bool shortRun = false;
  /// Directory for the durable service's journals and the checkpoint
  /// replay; created and emptied by the benchmark.
  std::string scratchDir = ".bench_build/scratch";
  /// Added to every expected checksum.  Non-zero only in the test that
  /// proves a wrong reference fails the run.
  std::uint64_t referenceSkew = 0;
};

/// 1 master + 3 slaves with one computing thread each; every other
/// runtime knob keeps its default.
easyhps::RuntimeConfig clusterConfig(std::int64_t processPartition,
                                     std::int64_t threadPartition);

/// Seed of stream `stream` derived from the workload seed (splitmix64).
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

// ---------------------------------------------------------------- report

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Report {
  Tally tally;
  std::vector<Metric> endToEnd;
  std::vector<Metric> perLayer;
  /// Flat key → JSON-literal pairs printed as the metadata line.
  std::vector<std::pair<std::string, std::string>> metadata;

  bool correct() const { return tally.failed == 0 && tally.attempted > 0; }
  void meta(const std::string& key, const std::string& jsonValue) {
    metadata.emplace_back(key, jsonValue);
  }
};

/// JSON string literal of `s` (quotes and escapes included).
std::string jsonString(const std::string& s);
/// Number formatted with all significant digits (%.17g).
std::string jsonNumber(double v);

/// `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`
/// over `metrics`.
std::string resultLine(const Report& report,
                       const std::vector<Metric>& metrics);
std::string metadataLine(const Report& report);

/// Process-level facts recorded with every result (build type, SIMD
/// backend, nproc, CPU model, seed, mode).
void addRunMetadata(Report& report, const Options& options);

/// ru_maxrss of the process, MB.
double peakRssMb();
/// User + system CPU seconds of the process so far.
double processCpuSeconds();

// ------------------------------------------------------------- workloads

enum class Kind { kLcs, kNussinov, kEditDistance };

/// A generated input: its kind, size and the seed its sequences come from.
struct InputSpec {
  Kind kind = Kind::kLcs;
  std::int64_t n = 0;
  std::uint64_t seed = 0;
};
std::shared_ptr<const DpProblem> makeProblem(const InputSpec& spec);

/// A workload that repeats jobs of one size through `Runtime::run`,
/// cycling over `inputs` seeded inputs.
struct BatchSpec {
  InputSpec input;
  int inputs = 3;
  std::int64_t processPartition = 0;
  std::int64_t threadPartition = 0;
  int setupRepeats = 5;
  /// Floor on timed jobs, so the median always has a sample set.
  int minJobs = 5;
};

/// The durable closed-loop service workload.
struct ServeSpec {
  std::int64_t editN = 800;
  std::int64_t lcsN = 1200;
  std::int64_t nussinovN = 300;
  std::int64_t processPartition = 200;
  std::int64_t threadPartition = 50;
  int callers = 2;
  int poolSize = 8;
  /// Every repeatEvery-th job of a caller names a pool entry (25%).
  int repeatEvery = 4;
  /// The run continues past `seconds` until this many jobs finished, so
  /// p95 has at least ten samples beyond it.
  int minJobs = 200;
  int setupRepeats = 5;
};

BatchSpec batchSpec(const std::string& name, bool shortRun);
ServeSpec serveSpec(bool shortRun);
bool isBatchWorkload(const std::string& name);
bool isServeWorkload(const std::string& name);

Report runBatch(const BatchSpec& spec, const Options& options);
Report runServe(const ServeSpec& spec, const Options& options);
/// Dispatches on options.workload; throws on an unknown name.
Report runWorkload(const Options& options);

// ---------------------------------------------------------------- replay

/// Per-layer replay: times the public calls of each layer over `inputs`
/// with the given process/thread partitions and appends the resulting
/// per-layer metrics (and replay failures) to `report`.  `mcellsPerS` is
/// the run's end-to-end rate, the numerator of dp.efficiency.
void replayLayers(const std::vector<InputSpec>& inputs,
                  std::int64_t processPartition,
                  std::int64_t threadPartition, double mcellsPerS,
                  const Options& options, Report& report);

/// Replays `input` through a fresh serve::Service (cache off) `jobs`
/// times, checks each result against `want` and appends the serve.*
/// medians; used by the batch workloads, whose timed phase never touches
/// the serve layer.
void replayServe(const InputSpec& input, const Expected& want,
                 std::int64_t processPartition, std::int64_t threadPartition,
                 int jobs, Report& report);

/// Median over jobs of the RunStats-derived per-layer counters.
void addRunStatsLayers(const std::vector<easyhps::RunStats>& runs,
                       Report& report);

}  // namespace perfbench
