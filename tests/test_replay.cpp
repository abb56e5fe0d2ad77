// Tests for trace replay on both machines (the constant-workload
// comparison used by bench_trace_replay).
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "sim/rng.hpp"
#include "workload/trace.hpp"

namespace {

using namespace cfm::workload;

TEST(ReplayConventional, CompletesEverything) {
  const auto trace = Trace::uniform(8, 4, 64, 400, 2000, 0.3, 5);
  const auto r = replay_on_conventional(trace, 8, 4, 16, 1);
  EXPECT_EQ(r.completed, 400u);
  EXPECT_GE(r.mean_latency, 16.0);
}

TEST(ReplayConventional, MoreModulesFewerRetries) {
  const auto dense = Trace::uniform(16, 32, 64, 2000, 2000, 0.3, 7);
  const auto few = replay_on_conventional(
      Trace::uniform(16, 4, 64, 2000, 2000, 0.3, 7), 16, 4, 16, 1);
  const auto many = replay_on_conventional(dense, 16, 32, 16, 1);
  EXPECT_GT(few.restarts, many.restarts);
  EXPECT_GE(few.makespan, many.makespan);
}

TEST(ReplayCfmVsConventional, CfmLatencyPinnedAtBeta) {
  const auto cfm_trace = Trace::uniform(16, 1, 64, 1000, 1000, 0.0, 9);
  const auto cfm = replay_on_cfm(cfm_trace, 16, 1);
  EXPECT_EQ(cfm.completed, 1000u);
  // Read-only distinct-ish traffic: every access is exactly beta = 16.
  EXPECT_NEAR(cfm.mean_latency, 16.0, 2.0);

  const auto conv_trace = Trace::uniform(16, 16, 64, 1000, 1000, 0.0, 9);
  const auto conv = replay_on_conventional(conv_trace, 16, 16, 16, 1);
  EXPECT_GT(conv.mean_latency, cfm.mean_latency);
}

TEST(ReplayCfmVsConventional, MakespanIsOnePastTheLastCompletion) {
  // One read at cycle 5, latency 16 on both machines: it completes at 21,
  // so both makespans are 22.  The conventional loop used to stop at the
  // last *start* (6), leaving the access's block time out.
  Trace trace;
  trace.add(TraceRecord{5, 0, false, 0, 1});
  EXPECT_EQ(replay_on_cfm(trace, 16, 1).makespan, 22u);
  EXPECT_EQ(replay_on_conventional(trace, 16, 1, 16, 1).makespan, 22u);
}

TEST(ReplayCfmVsConventional, SupersededWriteIsFinal) {
  // Two same-cycle writes to one block: the CFM keeps the one that
  // reaches bank 0 first and supersedes the other (§4.1), once.
  Trace trace;
  trace.add(TraceRecord{0, 0, true, 0, 7});
  trace.add(TraceRecord{0, 1, true, 0, 7});
  const auto r = replay_on_cfm(trace, 4, 1);
  EXPECT_EQ(r.aborted_writes, 1u);
  EXPECT_EQ(r.completed, 1u);
  EXPECT_EQ(r.unfinished, 0u);
}

TEST(ReplayConventional, DeterministicForFixedSeed) {
  const auto trace = Trace::uniform(8, 8, 64, 500, 1500, 0.5, 11);
  const auto a = replay_on_conventional(trace, 8, 8, 16, 42);
  const auto b = replay_on_conventional(trace, 8, 8, 16, 42);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_DOUBLE_EQ(a.mean_latency, b.mean_latency);
}

// Regression: a trace with an out-of-range processor id used to be
// caught only by a compiled-out assert; in release builds it indexed the
// per-processor arrays out of bounds.  Both replay paths must refuse it.
TEST(ReplayValidation, OutOfRangeProcessorThrows) {
  Trace trace;
  trace.add(TraceRecord{0, /*proc=*/8, false, 0, 1});
  EXPECT_THROW((void)replay_on_cfm(trace, 8, 1), std::invalid_argument);
  EXPECT_THROW((void)replay_on_conventional(trace, 8, 4, 16, 1),
               std::invalid_argument);
}

TEST(ReplayValidation, OutOfRangeModuleThrowsOnConventional) {
  Trace trace;
  trace.add(TraceRecord{0, 0, false, /*module=*/4, 1});
  // The CFM path ignores modules; the conventional path indexes them.
  EXPECT_NO_THROW((void)replay_on_cfm(trace, 8, 1));
  EXPECT_THROW((void)replay_on_conventional(trace, 8, 4, 16, 1),
               std::invalid_argument);
}

TEST(ReplayValidation, LoadRejectsMalformedRecord) {
  std::istringstream good("0 1 0 2 3\n4 5 1 6 7\n");
  EXPECT_EQ(Trace::load(good).size(), 2u);
  std::istringstream bad("0 1 0 2 3\n4 oops 1 6 7\n");
  EXPECT_THROW((void)Trace::load(bad), std::invalid_argument);
}

// Regression: Trace::uniform sorted with std::sort, whose order among
// equal issue cycles is stdlib-dependent — the same seed produced
// different traces on different platforms.  With every record tied at
// issue 0, stable_sort must preserve exact generation order.
TEST(TraceUniform, TiedIssueCyclesKeepGenerationOrder) {
  constexpr std::uint32_t kProcs = 16, kModules = 4;
  constexpr cfm::sim::BlockAddr kBlocks = 64;
  constexpr std::size_t kN = 1000;
  constexpr double kWriteFraction = 0.5;
  constexpr std::uint64_t kSeed = 2026;

  const auto trace =
      Trace::uniform(kProcs, kModules, kBlocks, kN, /*cycles=*/1,
                     kWriteFraction, kSeed);
  ASSERT_EQ(trace.size(), kN);

  // Replay the generator's RNG call sequence to recover the
  // pre-sort order.
  cfm::sim::Rng rng(kSeed);
  for (std::size_t i = 0; i < kN; ++i) {
    TraceRecord want;
    want.issue = rng.below(1);
    want.proc = static_cast<cfm::sim::ProcessorId>(rng.below(kProcs));
    want.is_write = rng.chance(kWriteFraction);
    want.module = static_cast<std::uint32_t>(rng.below(kModules));
    want.offset = rng.below(kBlocks);
    const auto& got = trace.records()[i];
    ASSERT_EQ(got.issue, want.issue) << "record " << i;
    ASSERT_EQ(got.proc, want.proc) << "record " << i;
    ASSERT_EQ(got.is_write, want.is_write) << "record " << i;
    ASSERT_EQ(got.module, want.module) << "record " << i;
    ASSERT_EQ(got.offset, want.offset) << "record " << i;
  }
}

// Regression: replays that hit the internal cycle budget used to report
// only the drained prefix, indistinguishable from a full run.  Records
// issued far beyond the budget must now be counted as unfinished.
TEST(ReplayTruncation, UnfinishedCountsRecordsPastBudget) {
  Trace trace;
  trace.add(TraceRecord{0, 0, false, 0, 1});
  // Both budgets scale with trace size; 100M cycles is far past either.
  trace.add(TraceRecord{100'000'000, 1, false, 0, 2});

  const auto cfm = replay_on_cfm(trace, 8, 1);
  EXPECT_EQ(cfm.completed, 1u);
  EXPECT_EQ(cfm.unfinished, 1u);

  const auto conv = replay_on_conventional(trace, 8, 4, 16, 1);
  EXPECT_EQ(conv.completed, 1u);
  EXPECT_EQ(conv.unfinished, 1u);
}

TEST(ReplayTruncation, FullRunsReportZeroUnfinished) {
  const auto trace = Trace::uniform(8, 4, 64, 300, 1000, 0.3, 21);
  EXPECT_EQ(replay_on_cfm(trace, 8, 1).unfinished, 0u);
  EXPECT_EQ(replay_on_conventional(trace, 8, 4, 16, 1).unfinished, 0u);
}

}  // namespace
