// The serve-mixed workload: a durable serve::Service (checkpointDir set)
// driven by a closed loop of caller threads, each submitting a seeded mix
// of small jobs and waiting for every one.  Per-job fixed costs dominate
// here (DAG build, journal open/fsync/commit, assembly, queueing, cache
// lookup and insert), which the batch workloads amortise away; repeats
// drawn from a small pool put cache hits (reads) beside journal appends
// and cache inserts (writes).  A closed loop is used because an open
// loop's p95 at a fixed rate varied about 2x between identical runs.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <random>
#include <thread>
#include <unistd.h>

#include "easyhps/dp/autotune.hpp"
#include "easyhps/serve/service.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr const char* kServeMixed = "serve-mixed";

/// Schedules are pre-generated (and their references solved) for this
/// many jobs per second of --seconds, comfortably above the measured
/// closed-loop rate, so a faster service does not run out of inputs.
constexpr double kScheduledJobsPerSecond = 60.0;

struct Job {
  std::shared_ptr<const DpProblem> problem;
  Expected want;
};

/// One finished job as a caller saw it.
struct Sample {
  bool ok = false;
  bool done = false;
  double latencySeconds = 0.0;
  double submitSeconds = 0.0;
  std::int64_t cells = 0;
  Clock::time_point end;
  easyhps::serve::JobStats stats;
};

/// Solves the references of `jobs` on a few threads, outside any timing.
void solveReferences(std::vector<Job>& jobs, std::int64_t partition) {
  std::atomic<std::size_t> next{0};
  std::vector<std::jthread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (std::size_t i = next++; i < jobs.size(); i = next++) {
        jobs[i].want = expectedFor(*jobs[i].problem, partition, partition);
      }
    });
  }
}

/// Submits and waits for one job; the clock covers submit() to the
/// returned outcome, the reference check runs after it stops.
Sample submitAndWait(easyhps::serve::Service& service, const Job& job,
                     std::uint64_t referenceSkew) {
  Sample s;
  s.cells = job.want.cells;
  try {
    const Clock::time_point t0 = Clock::now();
    easyhps::serve::JobTicket ticket = service.submit(job.problem);
    const Clock::time_point t1 = Clock::now();
    const std::shared_ptr<const easyhps::serve::JobOutcome> outcome =
        ticket.wait();
    const Clock::time_point t2 = Clock::now();
    s.end = t2;
    s.submitSeconds = secondsBetween(t0, t1);
    s.latencySeconds = secondsBetween(t0, t2);
    s.done = outcome->state == easyhps::serve::JobState::kDone;
    s.ok = s.done &&
           matches(Expected{job.want.tableChecksum + referenceSkew,
                            job.want.matrixDigest, job.want.cells},
                   outcome->stats.run.tableChecksum,
                   outcome->matrix ? &*outcome->matrix : nullptr);
    s.stats = outcome->stats;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: job failed: %s\n", e.what());
  }
  if (!s.ok) {
    std::fprintf(stderr, "perfbench: job result differs from the reference "
                         "or did not complete\n");
  }
  return s;
}

}  // namespace

bool isServeWorkload(const std::string& name) { return name == kServeMixed; }

ServeSpec serveSpec(bool shortRun) {
  ServeSpec s;
  if (shortRun) {
    s.editN = 120;
    s.lcsN = 150;
    s.nussinovN = 60;
    s.processPartition = 50;
    s.threadPartition = 25;
    s.minJobs = 20;
    s.setupRepeats = 1;
  }
  return s;
}

Report runServe(const ServeSpec& spec, const Options& options) {
  Report report;
  addRunMetadata(report, options);

  // Inputs: a pool of repeats, a per-caller schedule mixing fresh inputs
  // with pool repeats, and one warm-up input per kind.  The schedule's
  // shape (which slot is a repeat, each slot's kind and size, which pool
  // entry a repeat names) is the same for every seed; the seed only
  // draws the sequences, so a second seed re-checks the same workload.
  const auto inputOf = [&](Kind kind, std::uint64_t seed) {
    const std::int64_t n = kind == Kind::kEditDistance ? spec.editN
                           : kind == Kind::kLcs        ? spec.lcsN
                                                       : spec.nussinovN;
    return InputSpec{kind, n, seed};
  };
  const Kind kinds[] = {Kind::kEditDistance, Kind::kLcs, Kind::kNussinov};
  std::mt19937_64 rng(deriveSeed(options.seed, 2));
  std::vector<Job> jobs;
  std::vector<InputSpec> poolInputs;
  for (int i = 0; i < spec.poolSize; ++i) {
    poolInputs.push_back(inputOf(kinds[i % 3], rng()));
    jobs.push_back({makeProblem(poolInputs.back()), {}});
  }
  const auto perCaller = static_cast<std::size_t>(std::ceil(
      std::max(static_cast<double>(spec.minJobs),
               options.seconds * kScheduledJobsPerSecond) /
      spec.callers));
  std::vector<std::vector<std::size_t>> schedule(
      static_cast<std::size_t>(spec.callers));
  for (std::size_t c = 0; c < schedule.size(); ++c) {
    std::size_t repeats = 0;
    std::size_t fresh = 0;
    for (std::size_t j = 0; j < perCaller; ++j) {
      if (j % static_cast<std::size_t>(spec.repeatEvery) ==
          static_cast<std::size_t>(spec.repeatEvery) - 1) {
        schedule[c].push_back((repeats++ * schedule.size() + c) %
                              static_cast<std::size_t>(spec.poolSize));
      } else {
        schedule[c].push_back(jobs.size());
        jobs.push_back(
            {makeProblem(inputOf(kinds[(fresh++ + c) % 3], rng())), {}});
      }
    }
  }
  std::vector<Job> warmups;
  for (const Kind kind : kinds) {
    warmups.push_back({makeProblem(inputOf(kind, rng())), {}});
  }
  solveReferences(jobs, spec.processPartition);
  solveReferences(warmups, spec.processPartition);

  const fs::path scratch =
      fs::path(options.scratchDir) / ("serve-" + std::to_string(getpid()));
  fs::remove_all(scratch);

  easyhps::serve::ServiceConfig cfg;
  cfg.runtime = clusterConfig(spec.processPartition, spec.threadPartition);

  // Set-up: Service construction (cluster boot) through the end of one
  // warm-up job per kind; the autotune memo is dropped before each
  // repetition so every one pays the sweep.
  std::vector<double> setups;
  std::unique_ptr<easyhps::serve::Service> service;
  for (int rep = 0; rep < spec.setupRepeats; ++rep) {
    service.reset();
    easyhps::autotune::reset();
    cfg.runtime.checkpointDir = (scratch / ("rep-" + std::to_string(rep))).string();
    const Clock::time_point t0 = Clock::now();
    service = std::make_unique<easyhps::serve::Service>(cfg);
    std::vector<Sample> warm;
    for (const Job& job : warmups) {
      warm.push_back(submitAndWait(*service, job, options.referenceSkew));
    }
    setups.push_back(secondsBetween(t0, warm.back().end));
    for (const Sample& s : warm) {
      report.tally.record(s.ok);
    }
  }

  // Timed phase: every caller submits its schedule one job at a time
  // until --seconds passed and minJobs finished across callers.
  std::atomic<int> finished{0};
  std::vector<std::vector<Sample>> samples(schedule.size());
  const double cpu0 = processCpuSeconds();
  const Clock::time_point phaseStart = Clock::now();
  {
    std::vector<std::jthread> callers;
    for (std::size_t c = 0; c < schedule.size(); ++c) {
      callers.emplace_back([&, c] {
        for (const std::size_t j : schedule[c]) {
          const double elapsed = secondsBetween(phaseStart, Clock::now());
          if ((elapsed >= options.seconds && finished.load() >= spec.minJobs) ||
              elapsed > kPhaseCapSeconds) {
            break;
          }
          samples[c].push_back(
              submitAndWait(*service, jobs[j], options.referenceSkew));
          ++finished;
        }
      });
    }
  }
  const double phaseWall = secondsBetween(phaseStart, Clock::now());
  const double cpu = processCpuSeconds() - cpu0;
  service.reset();
  fs::remove_all(scratch);

  std::vector<double> latencies, submits, queueWaits, execs, ttfbs;
  std::vector<easyhps::RunStats> runs;
  std::int64_t done = 0, cells = 0, hits = 0, coalesced = 0;
  for (const auto& perCallerSamples : samples) {
    for (const Sample& s : perCallerSamples) {
      report.tally.record(s.ok);
      latencies.push_back(s.latencySeconds);
      submits.push_back(s.submitSeconds);
      if (!s.done) {
        continue;
      }
      ++done;
      cells += s.cells;
      hits += s.stats.cacheHit ? 1 : 0;
      coalesced += s.stats.coalesced ? 1 : 0;
      if (!s.stats.cacheHit && !s.stats.coalesced) {
        queueWaits.push_back(s.stats.queueWaitSeconds);
        execs.push_back(s.stats.execSeconds);
        if (s.stats.timeToFirstBlockSeconds >= 0.0) {
          ttfbs.push_back(s.stats.timeToFirstBlockSeconds);
        }
        runs.push_back(s.stats.run);
      }
    }
  }

  const double mcells = static_cast<double>(cells) / phaseWall / 1e6;
  report.endToEnd = {
      {"mcells_per_s", "Mcells/s", mcells},
      {"jobs_per_s", "1/s", static_cast<double>(done) / phaseWall},
      {"job_p50_ms", "ms", median(latencies) * 1e3},
      {"job_p95_ms", "ms", quantile(latencies, 0.95) * 1e3},
      {"setup_s", "s", median(setups)},
      {"peak_rss_mb", "MB", peakRssMb()},
  };
  report.meta("jobs", std::to_string(latencies.size()));
  report.meta("job_supported_percentile",
              std::to_string(highestSupportedPercentile(latencies.size(), 95)));
  report.meta("cache_hits", std::to_string(hits));
  report.meta("executed_jobs", std::to_string(runs.size()));
  report.meta("kernel_tiles",
              jsonString(runs.empty() ? "" : runs.back().kernelTiles));
  report.meta("timed_wall_s", jsonNumber(phaseWall));

  if (options.trace) {
    const auto executed = static_cast<double>(std::max<std::size_t>(runs.size(), 1));
    report.perLayer = {
        {"bench.timed_wall_s", "s", phaseWall},
        {"runtime.cpu_per_job_s", "s", cpu / executed},
        {"runtime.cpu_util", "ratio",
         cpu / (phaseWall * (cfg.runtime.slaveCount + 1))},
        {"cache.hit_ratio", "ratio",
         done > 0 ? static_cast<double>(hits) / static_cast<double>(done) : 0.0},
        {"cache.coalesced", "count", static_cast<double>(coalesced)},
        {"serve.queue_wait_ms", "ms", median(queueWaits) * 1e3},
        {"serve.exec_ms", "ms", median(execs) * 1e3},
        {"serve.ttfb_ms", "ms", median(ttfbs) * 1e3},
        {"serve.submit_us", "us", median(submits) * 1e6},
    };
    addRunStatsLayers(runs, report);
    const Clock::time_point replayStart = Clock::now();
    replayLayers(poolInputs, spec.processPartition, spec.threadPartition,
                 mcells, options, report);
    report.perLayer.push_back(
        {"bench.replay_wall_s", "s", secondsBetween(replayStart, Clock::now())});
  }
  report.meta("fail_ratio", jsonNumber(report.tally.failRatio()));
  return report;
}

}  // namespace perfbench
