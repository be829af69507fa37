// Unit tests for the sweep subsystem: the trace digest, scenario running,
// and the parallel runner's ordering/clamping behavior. The heavyweight
// determinism properties live in tests/integration/determinism_test.cc.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/simkit/rng.h"
#include "src/tools/sweep/scenario.h"
#include "src/tools/sweep/sweep.h"
#include "src/tools/sweep/trace_hash.h"
#include "tests/tools/reference_hash_sink.h"

namespace wcores {
namespace {

TEST(Fnv1a, EmptyIsOffsetBasis) {
  Fnv1a fnv;
  EXPECT_EQ(fnv.digest(), Fnv1a::kOffset);
}

TEST(Fnv1a, OrderSensitive) {
  Fnv1a ab;
  ab.Mix(1);
  ab.Mix(2);
  Fnv1a ba;
  ba.Mix(2);
  ba.Mix(1);
  EXPECT_NE(ab.digest(), ba.digest());
}

TEST(Fnv1a, NegativeZeroCollapses) {
  Fnv1a pos;
  pos.MixDouble(0.0);
  Fnv1a neg;
  neg.MixDouble(-0.0);
  EXPECT_EQ(pos.digest(), neg.digest());
}

TEST(Fnv1a, OneUlpChangesDigest) {
  Fnv1a a;
  a.MixDouble(1.5);
  Fnv1a b;
  b.MixDouble(1.5000000000000002);  // 1.5 + 1 ulp.
  EXPECT_NE(a.digest(), b.digest());
}

TEST(TraceHashSink, IdenticalStreamsIdenticalDigests) {
  TraceHashSink a;
  TraceHashSink b;
  for (TraceHashSink* sink : {&a, &b}) {
    sink->OnNrRunning(10, 0, 2);
    sink->OnSwitchIn(10, 0, 5, 3);
    sink->OnLoad(11, 0, 1.25);
    sink->OnIdleEnter(12, 1);
  }
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.events(), 4u);
  EXPECT_EQ(b.events(), 4u);
}

TEST(TraceHashSink, CallbackKindIsTagged) {
  // Same payload through two different callbacks must not collide.
  TraceHashSink enter;
  enter.OnIdleEnter(10, 3);
  TraceHashSink nr;
  nr.OnNrRunning(10, 3, 0);
  EXPECT_NE(enter.digest(), nr.digest());
}

// ---- Considered-set fold: one multiply per id vs. per-id Mix ----------------

// FNV-1a by its definition: eight rounds over the value's bytes, LSB first,
// with no zero-run collapse. Lets a test start from any digest.
uint64_t CanonicalMix(uint64_t h, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((value >> (8 * i)) & 0xff)) * Fnv1a::kPrime;
  }
  return h;
}

// A set whose density and word span vary with the draw: each of the four
// 64-cpu words is empty, sparse, dense or full.
CpuSet RandomSet(Rng& rng) {
  CpuSet s;
  for (int w = 0; w < kMaxCpus / 64; ++w) {
    uint64_t shape = rng.NextBelow(4);
    for (int b = 0; b < 64; ++b) {
      bool in = shape == 3 || (shape == 2 && rng.NextBool(0.7)) ||
                (shape == 1 && rng.NextBool(0.05));
      if (in) {
        s.Set(64 * w + b);
      }
    }
  }
  return s;
}

std::vector<CpuSet> EdgeSets() {
  CpuSet all;
  all.SetAll(kMaxCpus);
  return {CpuSet(), CpuSet::Single(0), CpuSet::Single(255), all};
}

TEST(Fnv1a, FoldCpusMatchesCanonicalFoldForEveryLowByte) {
  Rng rng(18);
  std::vector<CpuSet> sets = EdgeSets();
  for (int i = 0; i < 24; ++i) {
    sets.push_back(RandomSet(rng));
  }
  for (const CpuSet& set : sets) {
    SCOPED_TRACE(set.ToString());
    for (uint64_t l = 0; l < 256; ++l) {
      uint64_t h = (rng.Next() & ~uint64_t{0xff}) | l;
      uint64_t want = h;
      for (CpuId c = set.First(); c != kInvalidCpu; c = set.Next(c)) {
        want = CanonicalMix(want, static_cast<uint64_t>(c));
      }
      ASSERT_EQ(Fnv1a::FoldCpus(h, set), want) << "low byte " << l;
    }
  }
}

// Considered events of every kind, interleaved with the other callbacks:
// the sink and the per-id reference must agree after every event, across
// all 256 low bytes of the digest a fold starts from.
TEST(TraceHashSink, ConsideredFoldMatchesPerIdMix) {
  Rng rng(7919);
  std::vector<CpuSet> balance_sets = EdgeSets();
  while (balance_sets.size() < 200) {
    balance_sets.push_back(RandomSet(rng));
  }
  const ConsideredKind kinds[] = {ConsideredKind::kPeriodicBalance,
                                  ConsideredKind::kIdleBalance, ConsideredKind::kNohzBalance,
                                  ConsideredKind::kWakeup};
  TraceHashSink sink;
  ReferenceHashSink ref;
  std::set<uint64_t> low_bytes;  // Of the digest a set's fold starts from.
  Time now = 0;
  for (int i = 0; i < 20000; ++i) {
    now += static_cast<Time>(rng.NextBelow(5000));
    CpuId cpu = static_cast<CpuId>(rng.NextBelow(kMaxCpus));
    switch (rng.NextBelow(4)) {
      case 0:
        sink.OnSwitchIn(now, cpu, 7, now / 3);
        ref.OnSwitchIn(now, cpu, 7, now / 3);
        break;
      case 1: {
        double load = rng.NextDouble();
        sink.OnLoad(now, cpu, load);
        ref.OnLoad(now, cpu, load);
        break;
      }
      default: {
        ConsideredKind kind = kinds[rng.NextBelow(4)];
        CpuSet set = kind == ConsideredKind::kWakeup
                         ? RandomSet(rng)
                         : balance_sets[rng.NextBelow(balance_sets.size())];
        // The tag (3), time, initiator and kind are mixed before the set.
        uint64_t h = sink.digest();
        for (uint64_t v : {uint64_t{3}, static_cast<uint64_t>(now), static_cast<uint64_t>(cpu),
                           static_cast<uint64_t>(kind)}) {
          h = CanonicalMix(h, v);
        }
        low_bytes.insert(h & 0xff);
        sink.OnConsidered(now, cpu, set, kind);
        ref.OnConsidered(now, cpu, set, kind);
        break;
      }
    }
    ASSERT_EQ(sink.digest(), ref.digest()) << "event " << i;
  }
  EXPECT_EQ(sink.events(), ref.events());
  EXPECT_EQ(low_bytes.size(), 256u);
}

TEST(Scenario, RunProducesActivity) {
  Scenario s;
  s.name = "unit";
  s.topo = Scenario::Topo::kFlat1x4;
  s.workload = Scenario::Workload::kRandomMix;
  s.mix_threads = 8;
  s.seed = 5;
  s.horizon = Milliseconds(50);
  ScenarioResult r = RunScenario(s);
  EXPECT_EQ(r.name, "unit");
  EXPECT_GT(r.trace_events, 0u);
  EXPECT_GT(r.sim_events, 0u);
  EXPECT_GT(r.context_switches, 0u);
  EXPECT_GT(r.virtual_seconds, 0.0);
}

TEST(Sweep, ResultsKeepInputOrder) {
  std::vector<Scenario> scenarios = RandomScenarios(11, 5);
  for (Scenario& s : scenarios) {
    s.horizon = Milliseconds(20);  // Keep the unit test fast.
  }
  SweepOptions opts;
  opts.threads = 4;
  SweepReport report = RunSweep(scenarios, opts);
  ASSERT_EQ(report.results.size(), scenarios.size());
  for (size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(report.results[i].name, scenarios[i].name);
  }
  EXPECT_GT(report.TotalSimEvents(), 0u);
  EXPECT_GT(report.wall_ms, 0.0);
}

TEST(Sweep, ThreadCountClampedToScenarios) {
  std::vector<Scenario> scenarios = RandomScenarios(3, 2);
  for (Scenario& s : scenarios) {
    s.horizon = Milliseconds(10);
  }
  SweepOptions opts;
  opts.threads = 64;
  SweepReport report = RunSweep(scenarios, opts);
  EXPECT_EQ(report.threads, 2);
  opts.threads = 0;
  report = RunSweep(scenarios, opts);
  EXPECT_EQ(report.threads, 1);
}

TEST(SweepDeathTest, DuplicateScenarioNamesAreRejected) {
  // Scenario::name keys result rows, golden tables, and the fleet receipt
  // store; a silent alias would corrupt all three.
  std::vector<Scenario> scenarios = RandomScenarios(5, 2);
  scenarios[1].name = scenarios[0].name;
  EXPECT_DEATH(RunSweep(scenarios, SweepOptions{}), "duplicate scenario name");
}

TEST(Sweep, EmptyBatch) {
  SweepReport report = RunSweep({}, SweepOptions{});
  EXPECT_TRUE(report.results.empty());
  EXPECT_EQ(report.CombinedHash(), Fnv1a::kOffset);
  EXPECT_EQ(report.TotalSimEvents(), 0u);
}

TEST(Sweep, FigureScenariosCoverStockAndFixed) {
  std::vector<Scenario> scenarios = FigureScenarios(1.0);
  ASSERT_EQ(scenarios.size() % 2, 0u);
  for (size_t i = 0; i < scenarios.size(); i += 2) {
    EXPECT_NE(scenarios[i].name.find("/stock"), std::string::npos);
    EXPECT_NE(scenarios[i + 1].name.find("/fixed"), std::string::npos);
    EXPECT_FALSE(scenarios[i].features.fix_group_imbalance);
    EXPECT_TRUE(scenarios[i + 1].features.fix_group_imbalance);
  }
}

}  // namespace
}  // namespace wcores
