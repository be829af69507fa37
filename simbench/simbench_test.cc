// The benchmark's own tests: the timing wrappers must leave every trace
// digest unchanged, so the traced replica measures the same program the
// timed samples run.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "simbench/simbench.h"

namespace simbench {
namespace {

using wcores::Scenario;

// One small scenario per workload kind the benchmark runs.
std::vector<Scenario> SmallScenarios() {
  // Every paper workload, stock and fixed.
  std::vector<Scenario> out = wcores::FigureScenarios(0.05);
  Scenario fleet;  // A fleet-grid-sized random mix.
  fleet.name = "fleet_mix";
  fleet.topo = Scenario::Topo::kFlat2x4;
  fleet.mix_threads = 16;
  fleet.scale = 0.05;
  fleet.horizon = wcores::Milliseconds(200);
  fleet.seed = 77;
  out.push_back(fleet);
  Scenario soak;  // A deep-queue random mix with the stream attached.
  soak.name = "soak_mix";
  soak.topo = Scenario::Topo::kBulldozer8x8;
  soak.mix_threads = 512;
  soak.horizon = wcores::Milliseconds(150);
  soak.seed = 2016;
  soak.stream = true;
  out.push_back(soak);
  return out;
}

TEST(Simbench, WrappersKeepDigestUnderEveryPolicy) {
  for (const char* policy : {"cfs", "o1", "coreidle"}) {
    for (Scenario s : SmallScenarios()) {
      s.policy = policy;
      SCOPED_TRACE(s.name + " under " + policy);
      wcores::ScenarioResult want = wcores::RunScenario(s);
      SpanLedger ledger;
      ReplicaResult got = RunReplica(s, &ledger);
      EXPECT_EQ(got.trace_hash, want.trace_hash);
      EXPECT_EQ(got.trace_events, want.trace_events);
      EXPECT_EQ(got.sim_events, want.sim_events);
      EXPECT_EQ(got.all_exited, want.all_exited);
      if (s.stream) {
        EXPECT_EQ(got.stream_events, want.stream_events);
        EXPECT_EQ(got.stream_agg_bytes_peak, want.stream_agg_bytes_peak);
        EXPECT_GT(ledger.Total(kStreamSwitch).calls, 0u);
      }
      // The hooks were timed under the scenario's policy family.
      Family family = std::string(policy) == "o1"         ? kO1
                      : std::string(policy) == "coreidle" ? kCoreidle
                                                          : kCfs;
      EXPECT_GT(ledger.Total(HookLayer(family, kPickNext)).calls, 0u);
      EXPECT_EQ(ledger.Total(kDispatch).calls, want.sim_events + 1);  // + the final probe.
    }
  }
}

TEST(Simbench, BuiltInCfsMatchesWrappedCfs) {
  Scenario s = wcores::FigureScenarios(0.05)[0];
  s.policy = "";
  SpanLedger ledger;
  EXPECT_EQ(RunReplica(s, &ledger).trace_hash, wcores::RunScenario(s).trace_hash);
}

TEST(Simbench, SelfTimeExcludesChildren) {
  SpanLedger ledger;
  {
    Span outer(&ledger, kDispatch);
    Span inner(&ledger, HookLayer(kCfs, kPickNext));
  }
  SpanLedger::Cell outer = ledger.Total(kDispatch);
  SpanLedger::Cell inner = ledger.Total(HookLayer(kCfs, kPickNext));
  EXPECT_EQ(outer.calls, 1u);
  EXPECT_EQ(outer.child_ns, inner.total_ns);
  EXPECT_EQ(ledger.SelfNs(kDispatch), outer.total_ns - inner.total_ns);
  EXPECT_EQ(ledger.SelfNs(HookLayer(kCfs, kPickNext)), inner.total_ns);
}

}  // namespace
}  // namespace simbench
