// Tests of the benchmark's own helpers: the sample statistics, the
// failure tally, and the correctness gate, including a whole short run
// that must fail when its reference checksum is wrong.

#include <gtest/gtest.h>

#include "easyhps/dp/lcs.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

TEST(PerfbenchStats, MedianOfOddEvenAndEmptySamples) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(PerfbenchStats, QuantileInterpolatesBetweenRanks) {
  std::vector<double> xs;
  for (int i = 1; i <= 101; ++i) {
    xs.push_back(i);
  }
  EXPECT_DOUBLE_EQ(quantile(xs, 0.95), 96.0);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0}, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(quantile({5.0}, 0.95), 5.0);
}

TEST(PerfbenchStats, Percentile95NeedsTwoHundredSamples) {
  EXPECT_EQ(samplesBeyond(200, 95), 10u);
  EXPECT_EQ(samplesBeyond(199, 95), 9u);
  EXPECT_EQ(highestSupportedPercentile(200, 95), 95);
  EXPECT_EQ(highestSupportedPercentile(199, 95), 94);
}

TEST(PerfbenchStats, SmallSamplesSupportOnlyLowerPercentiles) {
  EXPECT_EQ(highestSupportedPercentile(100, 95), 90);
  EXPECT_EQ(highestSupportedPercentile(25, 95), 60);
  EXPECT_EQ(highestSupportedPercentile(20, 95), 50);
  EXPECT_EQ(highestSupportedPercentile(19, 95), -1);
}

TEST(PerfbenchTally, CountsFailuresAgainstAttempts) {
  Tally t;
  EXPECT_DOUBLE_EQ(t.failRatio(), 0.0);
  t.record(true);
  t.record(false);
  t.record(true);
  t.record(false);
  EXPECT_EQ(t.attempted, 4);
  EXPECT_EQ(t.failed, 2);
  EXPECT_DOUBLE_EQ(t.failRatio(), 0.5);

  Report report;
  EXPECT_FALSE(report.correct()) << "a run that attempted nothing is not correct";
  report.tally = t;
  EXPECT_FALSE(report.correct()) << "a run with a failed operation is not correct";
  report.tally = Tally{};
  report.tally.record(true);
  EXPECT_TRUE(report.correct());
}

TEST(PerfbenchGate, MatchesNeedsChecksumAndTable) {
  const easyhps::LongestCommonSubsequence problem("ACGTTGCA", "TGCAACGT");
  const Expected want = expectedFor(problem, 3, 3);
  const easyhps::DenseMatrix<Score> table = problem.solveReference();
  easyhps::Window w(easyhps::CellRect{0, 0, problem.rows(), problem.cols()},
                    problem.boundaryFn());
  w.inject(w.box(), table.raw());

  EXPECT_TRUE(matches(want, want.tableChecksum, &w));
  EXPECT_FALSE(matches(want, want.tableChecksum + 1, &w));
  EXPECT_FALSE(matches(want, want.tableChecksum, nullptr));
  w.set(2, 2, w.get(2, 2) + 1);
  EXPECT_FALSE(matches(want, want.tableChecksum, &w));
  EXPECT_EQ(want.cells, problem.rows() * problem.cols());
}

Options shortOptions(const std::string& workload, std::uint64_t skew) {
  Options o;
  o.workload = workload;
  o.seed = 7;
  o.seconds = 0.2;
  o.shortRun = true;
  o.scratchDir = "perfbench_test_scratch";
  o.referenceSkew = skew;
  return o;
}

TEST(PerfbenchRun, ShortBatchRunPassesTheGate) {
  const Report r = runWorkload(shortOptions("wavefront-lcs", 0));
  EXPECT_TRUE(r.correct());
  EXPECT_EQ(r.tally.failed, 0);
  EXPECT_EQ(r.endToEnd.size(), 6u);
}

TEST(PerfbenchRun, WrongReferenceChecksumFailsTheBatchRun) {
  const Report r = runWorkload(shortOptions("cubic-nussinov", 1));
  EXPECT_FALSE(r.correct());
  EXPECT_GT(r.tally.attempted, 0);
  EXPECT_EQ(r.tally.failed, r.tally.attempted);
}

TEST(PerfbenchRun, WrongReferenceChecksumFailsTheServeRun) {
  const Report r = runWorkload(shortOptions("serve-mixed", 1));
  EXPECT_FALSE(r.correct());
  EXPECT_EQ(r.tally.failed, r.tally.attempted);
}

TEST(PerfbenchReport, ResultLineHasExactlyTheContractKeys) {
  Report r;
  r.tally.record(true);
  const std::string line =
      resultLine(r, {{"latency_ms", "ms", 1.25}, {"setup_s", "s", 0.5}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
}

}  // namespace
}  // namespace perfbench
