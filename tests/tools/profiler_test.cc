#include "src/tools/profiler.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/sim/simulator.h"
#include "src/topo/topology.h"

namespace wcores {
namespace {

TEST(ProfilerTest, StatsDeltaProfile) {
  SchedStats before;
  SchedStats after;
  after.balance_calls = 10;
  after.balance_found_busiest = 4;
  after.balance_below_local = 6;
  after.balance_designation_skips = 20;
  after.balance_affinity_retries = 2;
  after.balance_failures = 1;
  after.balance_nothing_stealable = 5;
  after.migrations_idle = 3;
  after.wakeups = 100;
  after.wakeups_on_busy = 40;
  before.balance_nothing_stealable = 2;
  BalanceProfile p = ProfileFromStats(before, after, 0, Milliseconds(20));
  EXPECT_EQ(p.balance_calls, 10u);
  EXPECT_EQ(p.below_local, 6u);
  EXPECT_EQ(p.nothing_stealable, 3u);
  EXPECT_EQ(p.designation_skips, 20u);
  EXPECT_EQ(p.migrations, 3u);
  EXPECT_EQ(p.wakeups_on_busy, 40u);
}

TEST(ProfilerTest, ReportIsHumanReadable) {
  SchedStats before;
  SchedStats after;
  after.balance_calls = 7;
  BalanceProfile p = ProfileFromStats(before, after, 0, Milliseconds(20));
  std::string report = ProfileReport(p);
  EXPECT_NE(report.find("balance calls"), std::string::npos);
  EXPECT_NE(report.find("7"), std::string::npos);
}

TEST(ProfilerTest, ReportAndVerdictTableShowScreenedPasses) {
  SchedStats before;
  SchedStats after;
  after.balance_calls = 12;
  after.balance_success = 2;
  after.balance_below_local = 1;
  after.balance_failures = 1;
  after.balance_nothing_stealable = 8;
  BalanceProfile p = ProfileFromStats(before, after, 0, Milliseconds(20));
  std::string report = ProfileReport(p);
  EXPECT_NE(report.find("nothing stealable (screened)    8"), std::string::npos) << report;
  std::string table = BalanceVerdictTable(p);
  // Every body ends in exactly one verdict: 2 + 1 + 1 + 8 = the 12 calls.
  EXPECT_NE(table.find("nothing stealable (screened)              8  ( 66.7%)"),
            std::string::npos)
      << table;
  EXPECT_NE(table.find("total invocations                        12"), std::string::npos)
      << table;
}

TEST(ProfilerTest, ConsideredSummaryGroupsByInitiator) {
  EventRecorder recorder;
  recorder.OnConsidered(Milliseconds(1), 0, CpuSet::FirstN(8),
                        ConsideredKind::kPeriodicBalance);
  recorder.OnConsidered(Milliseconds(2), 0, CpuSet::FirstN(2),
                        ConsideredKind::kIdleBalance);
  recorder.OnConsidered(Milliseconds(3), 5, CpuSet::Single(5), ConsideredKind::kNohzBalance);
  recorder.OnConsidered(Milliseconds(4), 0, CpuSet::FirstN(64), ConsideredKind::kWakeup);
  std::string summary = ConsideredSummary(recorder, 0, Seconds(1), 64);
  EXPECT_NE(summary.find("core   0:      2 calls"), std::string::npos);
  EXPECT_NE(summary.find("0-7"), std::string::npos);
  EXPECT_NE(summary.find("core   5:"), std::string::npos);
}

TEST(ProfilerTest, WindowFiltersEvents) {
  EventRecorder recorder;
  recorder.OnConsidered(Milliseconds(1), 0, CpuSet::FirstN(2),
                        ConsideredKind::kPeriodicBalance);
  recorder.OnConsidered(Milliseconds(100), 0, CpuSet::FirstN(2),
                        ConsideredKind::kPeriodicBalance);
  std::string summary = ConsideredSummary(recorder, 0, Milliseconds(50), 64);
  EXPECT_NE(summary.find("1 calls"), std::string::npos);
}

TEST(ProfilerTest, EndToEndCapturesBalancingFailureSignature) {
  // The Missing Scheduling Domains scenario: a profile over a busy window
  // shows balance calls that keep giving up.
  Topology topo = Topology::Bulldozer8x8();
  Simulator::Options opts;
  opts.seed = 31;
  Simulator sim(topo, opts);
  sim.SetCpuOnline(3, false);
  sim.SetCpuOnline(3, true);
  for (int i = 0; i < 16; ++i) {
    Simulator::SpawnParams params;
    params.parent_cpu = 0;
    sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{ComputeAction{Seconds(5)}}),
              params);
  }
  sim.Run(Seconds(1));
  SchedStats before = sim.sched().stats();
  sim.Run(Seconds(2));
  BalanceProfile p = ProfileFromStats(before, sim.sched().stats(), Seconds(1), Seconds(2));
  EXPECT_GT(p.balance_calls, 0u);
  EXPECT_EQ(p.migrations, 0u);  // The bug: balancing never crosses nodes.
}

}  // namespace
}  // namespace wcores
