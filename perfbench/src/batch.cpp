// The batch workloads: one seeded input solved again and again through
// Runtime::run.  wavefront-lcs moves O(n^2) bytes for O(n^2) work, so the
// non-kernel layers (integrity digests, encoding, transport, store,
// assembly) set its time; cubic-nussinov does O(n^3) work on O(n^2) bytes,
// so the slave-side kernel and window path set its time.

#include <cstdio>
#include <exception>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>

#include "easyhps/dp/autotune.hpp"
#include "easyhps/runtime/runtime.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

constexpr const char* kWavefrontLcs = "wavefront-lcs";
constexpr const char* kCubicNussinov = "cubic-nussinov";

struct JobRun {
  bool ok = false;
  double wallSeconds = 0.0;
  double cpuSeconds = 0.0;
  Clock::time_point end;
  easyhps::RunStats stats;
};

/// One Runtime::run, timed around the call only; the result is checked
/// against the reference after the clock stops.
JobRun runChecked(const easyhps::Runtime& runtime, const DpProblem& problem,
                  const Expected& want) {
  JobRun job;
  try {
    const double cpu0 = processCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    easyhps::RunResult result = runtime.run(problem);
    job.end = Clock::now();
    job.cpuSeconds = processCpuSeconds() - cpu0;
    job.wallSeconds = secondsBetween(t0, job.end);
    job.ok = matches(want, result.stats.tableChecksum, &result.matrix);
    job.stats = std::move(result.stats);
  } catch (const std::exception& e) {
    job.end = Clock::now();
    std::fprintf(stderr, "perfbench: job failed: %s\n", e.what());
  }
  if (!job.ok) {
    std::fprintf(stderr, "perfbench: job result differs from the reference\n");
  }
  return job;
}

}  // namespace

bool isBatchWorkload(const std::string& name) {
  return name == kWavefrontLcs || name == kCubicNussinov;
}

BatchSpec batchSpec(const std::string& name, bool shortRun) {
  BatchSpec s;
  if (name == kWavefrontLcs) {
    s.input.kind = Kind::kLcs;
    s.input.n = shortRun ? 600 : 4000;
    s.processPartition = shortRun ? 150 : 500;
    s.threadPartition = shortRun ? 50 : 125;
  } else if (name == kCubicNussinov) {
    s.input.kind = Kind::kNussinov;
    s.input.n = shortRun ? 240 : 800;
    s.processPartition = shortRun ? 60 : 200;
    s.threadPartition = shortRun ? 20 : 50;
  } else {
    throw std::invalid_argument("not a batch workload: " + name);
  }
  if (shortRun) {
    s.setupRepeats = 1;
    s.minJobs = 3;
  }
  return s;
}

Report runBatch(const BatchSpec& spec, const Options& options) {
  Report report;
  addRunMetadata(report, options);

  // The batch cycles over a few inputs of the same size, so how fast one
  // drawn sequence happens to run does not set the whole run's figure.
  std::vector<InputSpec> inputs;
  std::vector<std::shared_ptr<const DpProblem>> problems;
  std::vector<Expected> wants;
  for (int i = 0; i < spec.inputs; ++i) {
    inputs.push_back(spec.input);
    inputs.back().seed = deriveSeed(options.seed, 1 + static_cast<std::uint64_t>(i));
    problems.push_back(makeProblem(inputs.back()));
    wants.push_back(
        expectedFor(*problems.back(), spec.processPartition, spec.processPartition));
    wants.back().tableChecksum += options.referenceSkew;
  }
  const easyhps::RuntimeConfig cfg =
      clusterConfig(spec.processPartition, spec.threadPartition);

  // Set-up: Runtime construction through the end of the warm-up job,
  // which pays the autotune sweep and lazy initialisation.  The memo is
  // dropped before every repetition so each one pays the sweep again.
  std::vector<double> setups;
  std::set<std::string> setupTiles;
  std::unique_ptr<easyhps::Runtime> runtime;
  for (int rep = 0; rep < spec.setupRepeats; ++rep) {
    runtime.reset();
    easyhps::autotune::reset();
    const Clock::time_point t0 = Clock::now();
    runtime = std::make_unique<easyhps::Runtime>(cfg);
    const JobRun warm = runChecked(*runtime, *problems[0], wants[0]);
    setups.push_back(secondsBetween(t0, warm.end));
    report.tally.record(warm.ok);
    setupTiles.insert(warm.stats.kernelTiles);
  }

  // Timed phase: jobs back to back until --seconds passed and at least
  // minJobs ran.
  std::vector<double> walls;
  std::vector<double> cpus;
  std::vector<easyhps::RunStats> runs;
  std::set<std::string> tiles;
  const Clock::time_point phaseStart = Clock::now();
  while (static_cast<int>(walls.size()) < spec.minJobs ||
         secondsBetween(phaseStart, Clock::now()) < options.seconds) {
    if (secondsBetween(phaseStart, Clock::now()) > kPhaseCapSeconds) {
      break;
    }
    const std::size_t i = walls.size() % problems.size();
    JobRun job = runChecked(*runtime, *problems[i], wants[i]);
    report.tally.record(job.ok);
    walls.push_back(job.wallSeconds);
    cpus.push_back(job.cpuSeconds);
    tiles.insert(job.stats.kernelTiles);
    runs.push_back(std::move(job.stats));
  }
  const double phaseWall = secondsBetween(phaseStart, Clock::now());

  const double busy = std::accumulate(walls.begin(), walls.end(), 0.0);
  const double medianWall = median(walls);
  const double mcells =
      static_cast<double>(wants[0].cells) / medianWall / 1e6;
  report.endToEnd = {
      {"mcells_per_s", "Mcells/s", mcells},
      {"jobs_per_s", "1/s", static_cast<double>(walls.size()) / busy},
      {"job_p50_ms", "ms", medianWall * 1e3},
      {"job_p95_ms", "ms", quantile(walls, 0.95) * 1e3},
      {"setup_s", "s", median(setups)},
      {"peak_rss_mb", "MB", peakRssMb()},
  };

  const auto joined = [](const std::set<std::string>& picks) {
    std::string out;
    for (const std::string& t : picks) {
      out += (out.empty() ? "" : " | ") + t;
    }
    return jsonString(out);
  };
  report.meta("cells_per_job", std::to_string(wants[0].cells));
  report.meta("jobs", std::to_string(walls.size()));
  report.meta("job_supported_percentile",
              std::to_string(highestSupportedPercentile(walls.size(), 95)));
  report.meta("kernel_tiles", joined(tiles));
  report.meta("setup_kernel_tiles", joined(setupTiles));
  report.meta("timed_wall_s", jsonNumber(phaseWall));

  if (options.trace) {
    const double cpu = std::accumulate(cpus.begin(), cpus.end(), 0.0);
    report.perLayer = {
        {"bench.timed_wall_s", "s", phaseWall},
        {"runtime.cpu_per_job_s", "s", cpu / static_cast<double>(cpus.size())},
        {"runtime.cpu_util", "ratio",
         cpu / (busy * (cfg.slaveCount + 1))},
        // Runtime::run has no cache attached: every job executes.
        {"cache.hit_ratio", "ratio", 0.0},
        {"cache.coalesced", "count", 0.0},
    };
    addRunStatsLayers(runs, report);
    runtime.reset();
    const Clock::time_point replayStart = Clock::now();
    replayLayers({inputs[0]}, spec.processPartition, spec.threadPartition,
                 mcells, options, report);
    replayServe(inputs[0], wants[0], spec.processPartition,
                spec.threadPartition, 3, report);
    report.perLayer.push_back(
        {"bench.replay_wall_s", "s", secondsBetween(replayStart, Clock::now())});
  }
  report.meta("fail_ratio", jsonNumber(report.tally.failRatio()));
  return report;
}

}  // namespace perfbench
