#include "src/tools/sanity_checker.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "src/topo/topology.h"
#include "src/workloads/nas.h"

namespace wcores {
namespace {

TEST(SanityCheckerTest, QuietOnIdleMachine) {
  Topology topo = Topology::Flat(2, 2, 1);
  Simulator sim(topo, Simulator::Options{});
  SanityChecker checker(&sim);
  checker.Start();
  sim.Run(Seconds(5));
  EXPECT_GE(checker.checks_run(), 4u);
  EXPECT_EQ(checker.candidates(), 0u);
  EXPECT_TRUE(checker.violations().empty());
}

TEST(SanityCheckerTest, QuietOnBalancedLoad) {
  Topology topo = Topology::Flat(1, 4, 1);
  Simulator sim(topo, Simulator::Options{});
  for (int i = 0; i < 4; ++i) {
    Simulator::SpawnParams params;
    params.parent_cpu = i;
    sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{ComputeAction{Seconds(6)}}),
              params);
  }
  SanityChecker checker(&sim);
  checker.Start();
  sim.Run(Seconds(5));
  EXPECT_TRUE(checker.violations().empty());
}

TEST(SanityCheckerTest, CheckOnceDetectsStealableImbalance) {
  Topology topo = Topology::Flat(1, 2, 1);
  Simulator sim(topo, Simulator::Options{});
  // Two long threads pinned to cpu 0 -> cpu 1 idle, cpu 0 overloaded...
  Simulator::SpawnParams pinned;
  pinned.parent_cpu = 0;
  pinned.affinity = CpuSet::Single(0);
  sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{ComputeAction{Seconds(2)}}),
            pinned);
  sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{ComputeAction{Seconds(2)}}),
            pinned);
  sim.Run(Milliseconds(10));
  SanityChecker checker(&sim);
  CpuId idle_cpu;
  CpuId busy_cpu;
  // ...but the queued thread is pinned, so can_steal says NO violation.
  EXPECT_FALSE(checker.CheckOnce(&idle_cpu, &busy_cpu));

  // An unpinned thread on cpu 0 makes it a real violation.
  Simulator::SpawnParams loose;
  loose.parent_cpu = 0;
  sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{ComputeAction{Seconds(2)}}),
            loose);
  EXPECT_TRUE(checker.CheckOnce(&idle_cpu, &busy_cpu));
  EXPECT_EQ(idle_cpu, 1);
  EXPECT_EQ(busy_cpu, 0);
}

TEST(SanityCheckerTest, ShortTermViolationNotFlagged) {
  // "a sanity checker must minimize the probability of flagging short-term
  // transient violations": work appears on an overloaded core but balancing
  // spreads it within the confirmation window.
  Topology topo = Topology::Flat(1, 4, 1);
  Simulator sim(topo, Simulator::Options{});
  SanityChecker::Options opts;
  opts.check_interval = Milliseconds(50);
  opts.confirmation_window = Milliseconds(100);
  SanityChecker checker(&sim, opts);
  checker.Start();
  // Periodically dump four short threads onto cpu 0; they spread and finish
  // quickly, so any violation the checker sees is transient.
  for (Time t = Milliseconds(49); t < Seconds(2); t += Milliseconds(200)) {
    sim.At(t, [&sim] {
      for (int i = 0; i < 4; ++i) {
        Simulator::SpawnParams params;
        params.parent_cpu = 0;
        sim.Spawn(std::make_unique<ScriptBehavior>(
                      std::vector<Action>{ComputeAction{Milliseconds(30)}}),
                  params);
      }
    });
  }
  sim.Run(Seconds(2));
  EXPECT_TRUE(checker.violations().empty());
}

TEST(SanityCheckerTest, FlagsLongTermViolationFromMissingDomainsBug) {
  // The paper's use case: after the hotplug bug, threads are stuck on one
  // node while other nodes idle; the checker must flag it.
  Topology topo = Topology::Bulldozer8x8();
  Simulator::Options sopts;
  sopts.seed = 21;
  Simulator sim(topo, sopts);
  sim.SetCpuOnline(3, false);
  sim.SetCpuOnline(3, true);
  NasConfig config;
  config.app = NasApp::kEp;
  config.threads = 32;
  config.spawn_cpu = 0;
  config.scale = 6.0;  // Long enough to span several checks.
  NasWorkload wl(&sim, config);
  wl.Setup();
  SanityChecker checker(&sim);
  checker.Start();
  sim.Run(Seconds(5));
  ASSERT_FALSE(checker.violations().empty());
  const SanityChecker::Violation& v = checker.violations().front();
  EXPECT_GE(v.overloaded_nr_running, 2);
  // The profile shows balancing activity that failed to resolve it.
  EXPECT_FALSE(SanityChecker::Report(v).empty());
}

TEST(SanityCheckerTest, ReportCarriesTheWholeVerdictWindow) {
  SanityChecker::Violation v;
  v.idle_cpu = 63;
  v.overloaded_cpu = 62;
  v.overloaded_nr_running = 2048;
  v.detected_at = Seconds(100000);
  v.confirmed_at = Seconds(100000) + Milliseconds(100);
  v.balance_calls = UINT64_MAX;
  v.balance_below_local = UINT64_MAX;
  v.balance_nothing_stealable = 7;
  v.balance_designation_skips = UINT64_MAX;
  v.migrations = UINT64_MAX;
  std::string report = SanityChecker::Report(v);
  EXPECT_NE(report.find(", 7 nothing stealable, "), std::string::npos) << report;
  // Widest counters still fit: the line is not truncated.
  EXPECT_NE(report.find("18446744073709551615 migrations)\n"), std::string::npos) << report;
}

TEST(SanityCheckerTest, NoViolationWithAllFixes) {
  Topology topo = Topology::Bulldozer8x8();
  Simulator::Options sopts;
  sopts.features = SchedFeatures::AllFixed();
  sopts.seed = 22;
  Simulator sim(topo, sopts);
  sim.SetCpuOnline(3, false);
  sim.SetCpuOnline(3, true);
  NasConfig config;
  config.app = NasApp::kEp;
  config.threads = 32;
  config.spawn_cpu = 0;
  config.scale = 6.0;
  NasWorkload wl(&sim, config);
  wl.Setup();
  SanityChecker checker(&sim);
  checker.Start();
  sim.Run(Seconds(5));
  EXPECT_TRUE(checker.violations().empty());
}

TEST(SanityCheckerTest, StopAtHaltsChecking) {
  Topology topo = Topology::Flat(1, 2, 1);
  Simulator sim(topo, Simulator::Options{});
  SanityChecker::Options opts;
  opts.check_interval = Milliseconds(100);
  opts.stop_at = Milliseconds(350);
  SanityChecker checker(&sim, opts);
  checker.Start();
  sim.Run(Seconds(2));
  EXPECT_EQ(checker.checks_run(), 3u);
}

TEST(SanityCheckerTest, ViolationSnapshotHasPerCpuQueues) {
  Topology topo = Topology::Flat(1, 2, 1);
  Simulator::Options sopts;
  Simulator sim(topo, sopts);
  // Pin two hogs to cpu 0 plus one stealable-but-never-stolen? On a sane
  // scheduler this resolves, so force it: offline cpu1? Then no idle cpu.
  // Instead: affinity {0} for two hogs and one hog allowed {0,1} queued
  // behind them while cpu1 kept busy-idle... Simplest deterministic bug:
  // use the missing-domains machine again but tiny.
  Topology big = Topology::Bulldozer8x8();
  Simulator sim2(big, sopts);
  sim2.SetCpuOnline(3, false);
  sim2.SetCpuOnline(3, true);
  for (int i = 0; i < 16; ++i) {
    Simulator::SpawnParams params;
    params.parent_cpu = 0;
    sim2.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{ComputeAction{Seconds(10)}}),
               params);
  }
  SanityChecker checker(&sim2);
  checker.Start();
  sim2.Run(Seconds(3));
  ASSERT_FALSE(checker.violations().empty());
  EXPECT_EQ(checker.violations().front().nr_running.size(), 64u);
}

}  // namespace
}  // namespace wcores
