// Randomized property fuzzer: seeded random topologies, feature sets, and
// workload mixes, with scheduler invariants checked at fixed virtual-time
// intervals throughout each run.
//
// Invariants per check:
//  * Thread conservation — every alive thread is exactly one of running /
//    queued / blocked; per-cpu on_rq counts match rq->nr_running; the
//    running entity matches CurrentThread.
//  * Per-cfs_rq min_vruntime never decreases.
//  * Load-sum conservation — the (cached) RqLoad equals a from-scratch
//    recomputation, bit for bit.
//  * Runqueue structure — red-black invariants, vruntime ordering, weight
//    accounting (Scheduler::ValidateRq).
//  * Sanity-checker parity — Algorithm 2's CheckOnce fires iff a core is
//    idle while another runqueue holds a thread it could steal.
//  * Busy-node wake placement — the argmin of (nr_running, load) matches a
//    one-pass lexicographic scan (WakeFallbackMatchesLexicographicScan).
//  * Balance screen — a balancing pass returns before the load fold exactly
//    when no considered cpu but the caller has a queued thread, and such a
//    pass moves nothing (BalanceScreenMatchesQueuedScan).
//
// Seeding: the base seed comes from WC_FUZZ_SEED (env) so a CI failure is
// reproducible locally; every failure message carries the repro command.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/pelt.h"
#include "src/core/sched_policy.h"
#include "src/sim/simulator.h"
#include "src/simkit/rng.h"
#include "src/telemetry/stream/stream_sink.h"
#include "src/tools/recorder.h"
#include "src/tools/sanity_checker.h"
#include "src/topo/topology.h"

namespace wcores {
namespace {

constexpr uint64_t kDefaultBaseSeed = 20260805ULL;
constexpr int kRuns = 6;
constexpr Time kHorizon = Milliseconds(300);
constexpr Time kCheckInterval = Microseconds(997);  // Odd: drifts across ticks.
constexpr Time kHotplugInterval = Microseconds(13831);  // ~21 toggles per run.

uint64_t BaseSeed() {
  const char* env = std::getenv("WC_FUZZ_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 0);
  }
  return kDefaultBaseSeed;
}

std::string ReproCommand(uint64_t seed) {
  return "reproduce with: WC_FUZZ_SEED=" + std::to_string(seed) +
         " ctest --test-dir build -R FuzzInvariants --output-on-failure";
}

Topology RandomTopology(Rng& rng) {
  switch (rng.NextBelow(4)) {
    case 0: return Topology::Flat(1, 4);
    case 1: return Topology::Flat(2, 4);
    case 2: return Topology::Flat(4, 8);
    default: return Topology::Bulldozer8x8();
  }
}

SchedFeatures RandomFeatures(Rng& rng) {
  SchedFeatures f;
  f.fix_group_imbalance = rng.NextBool(0.5);
  f.fix_group_construction = rng.NextBool(0.5);
  f.fix_overload_wakeup = rng.NextBool(0.5);
  f.fix_missing_domains = rng.NextBool(0.5);
  f.autogroup_enabled = rng.NextBool(0.8);
  return f;
}

void SpawnRandomMix(Simulator& sim, Rng& rng, int threads) {
  int n_cores = sim.topo().n_cores();
  AutogroupId groups[3] = {kRootAutogroup, sim.CreateAutogroup(), sim.CreateAutogroup()};
  for (int i = 0; i < threads; ++i) {
    Simulator::SpawnParams params;
    params.parent_cpu = static_cast<CpuId>(rng.NextBelow(static_cast<uint64_t>(n_cores)));
    params.nice = static_cast<int>(rng.NextBelow(7)) - 3;
    params.autogroup = groups[rng.NextBelow(3)];
    if (rng.NextBool(0.25)) {
      params.affinity =
          CpuSet::Single(static_cast<CpuId>(rng.NextBelow(static_cast<uint64_t>(n_cores))));
    }
    std::vector<Action> script;
    if (rng.NextBool(0.3)) {
      script = {ComputeAction{Seconds(1)}};  // Hog: outlives the horizon.
      sim.Spawn(std::make_unique<ScriptBehavior>(std::move(script)), params);
    } else {
      script = {ComputeAction{rng.NextTime(Microseconds(200), Milliseconds(3))},
                SleepAction{rng.NextTime(Microseconds(100), Milliseconds(2))}};
      sim.Spawn(std::make_unique<ScriptBehavior>(std::move(script), /*repeat=*/1000), params);
    }
  }
}

// The idle-index oracle: a from-scratch linear scan with the original
// tie-break (lowest idle_since, then lowest cpu id).
CpuId ScanLongestIdle(const Scheduler& sched, int n_cores) {
  CpuId best = kInvalidCpu;
  Time best_since = kTimeNever;
  for (CpuId cpu = 0; cpu < n_cores; ++cpu) {
    if (!sched.IsOnline(cpu) || !sched.IsIdleCpu(cpu)) {
      continue;
    }
    if (sched.IdleSince(cpu) < best_since) {
      best_since = sched.IdleSince(cpu);
      best = cpu;
    }
  }
  return best;
}

// One invariant sweep over the whole machine at the current instant.
class InvariantChecker {
 public:
  explicit InvariantChecker(Simulator* sim)
      : sim_(sim), checker_(sim), last_min_vruntime_(sim->topo().n_cores(), 0) {}

  int checks() const { return checks_; }

  void Check() {
    checks_ += 1;
    const Scheduler& sched = sim_->sched();
    const Time now = sim_->Now();
    const int n_cores = sim_->topo().n_cores();

    // Thread conservation: classify every entity once, from the entity
    // side, and reconcile against every runqueue's own counters.
    std::vector<int> on_rq_count(n_cores, 0);
    std::vector<int> running_count(n_cores, 0);
    for (ThreadId tid = 0; tid < sched.ThreadCount(); ++tid) {
      const SchedEntity& se = sched.Entity(tid);
      if (se.running) {
        ASSERT_TRUE(se.on_rq) << "tid " << tid << " running but not on_rq";
      }
      if (se.on_rq) {
        ASSERT_GE(se.cpu, 0) << "tid " << tid;
        ASSERT_LT(se.cpu, n_cores) << "tid " << tid;
        on_rq_count[se.cpu] += 1;
        if (se.running) {
          running_count[se.cpu] += 1;
          ASSERT_EQ(sched.CurrentThread(se.cpu), tid)
              << "tid " << tid << " claims to run on cpu " << se.cpu;
        }
      }
    }
    for (CpuId cpu = 0; cpu < n_cores; ++cpu) {
      ASSERT_EQ(on_rq_count[cpu], sched.NrRunning(cpu))
          << "cpu " << cpu << ": entity census disagrees with rq nr_running at t=" << now;
      ASSERT_LE(running_count[cpu], 1) << "cpu " << cpu << ": two running entities";
      ThreadId curr = sched.CurrentThread(cpu);
      ASSERT_EQ(running_count[cpu], curr != kInvalidThread ? 1 : 0) << "cpu " << cpu;

      // Runqueue structure.
      ASSERT_TRUE(sched.ValidateRq(cpu)) << "cpu " << cpu << " rq invariants broken at t=" << now;

      // min_vruntime monotonicity.
      Time mv = sched.MinVruntime(cpu);
      ASSERT_GE(mv, last_min_vruntime_[cpu]) << "cpu " << cpu << " min_vruntime went backwards";
      last_min_vruntime_[cpu] = mv;

      // Load-sum conservation: cached == recomputed, exactly.
      ASSERT_EQ(sched.RqLoad(now, cpu), sched.RqLoadRecomputed(now, cpu))
          << "cpu " << cpu << " cached load diverged from recomputation at t=" << now;
    }

    // Idle-index coherence: structure (per-node order, link symmetry,
    // membership == online && tickless) and the answer itself — the indexed
    // LongestIdleCpu must match a fresh linear scan with the original
    // tie-break (lowest idle_since, then lowest cpu).
    ASSERT_TRUE(sched.ValidateIdleIndex()) << "idle index diverged at t=" << now;
    ASSERT_EQ(sched.LongestIdleCpu(sim_->topo().AllCpus()), ScanLongestIdle(sched, n_cores))
        << "indexed LongestIdleCpu disagrees with linear scan at t=" << now;

    // Balance-due wheel coherence: the per-cpu due minima, designation
    // bits, write-through stat mirrors, and NOHZ globals all match a
    // from-scratch recomputation over the domain trees.
    ASSERT_TRUE(sched.ValidateBalanceWheel())
        << "balance wheel diverged from recomputation at t=" << now;

    // Sanity-checker parity with an independent scan.
    bool expect_violation = false;
    for (CpuId idle : sched.OnlineCpus()) {
      if (sched.NrRunning(idle) >= 1) {
        continue;
      }
      for (CpuId busy : sched.OnlineCpus()) {
        if (busy != idle && sched.NrRunning(busy) >= 2 && sched.CanSteal(idle, busy)) {
          expect_violation = true;
          break;
        }
      }
      if (expect_violation) {
        break;
      }
    }
    CpuId idle_cpu = kInvalidCpu;
    CpuId overloaded_cpu = kInvalidCpu;
    bool fired = checker_.CheckOnce(&idle_cpu, &overloaded_cpu);
    ASSERT_EQ(fired, expect_violation) << "sanity checker disagrees with independent scan";
    if (fired) {
      ASSERT_TRUE(sched.IsIdleCpu(idle_cpu));
      ASSERT_GE(sched.NrRunning(overloaded_cpu), 2);
      ASSERT_TRUE(sched.CanSteal(idle_cpu, overloaded_cpu));
      violations_seen_ += 1;
    }
  }

  int violations_seen() const { return violations_seen_; }

 private:
  Simulator* sim_;
  SanityChecker checker_;
  std::vector<Time> last_min_vruntime_;
  int checks_ = 0;
  int violations_seen_ = 0;
};

// Re-arming check callback: one sweep every kCheckInterval until the
// horizon. A named struct (two pointers, trivially copyable) rather than a
// lambda because it reschedules *itself* — a std::function-free event queue
// cannot store a callable that owns another callable.
struct RearmingCheck {
  InvariantChecker* checker;
  Simulator* sim;
  void operator()() const {
    checker->Check();
    if (sim->Now() < kHorizon && !::testing::Test::HasFatalFailure()) {
      sim->After(kCheckInterval, *this);
    }
  }
};

// Random hotplug churn: periodically toggle one non-boot cpu. Cpu 0 stays
// online so evacuation and affinity fallback always have a target. Same
// self-rescheduling shape as RearmingCheck; the Rng lives out-of-line in the
// test body because the callback must stay two pointers wide.
struct RearmingHotplug {
  Simulator* sim;
  Rng* rng;
  void operator()() const {
    int n_cores = sim->topo().n_cores();
    if (n_cores > 1) {
      CpuId victim = static_cast<CpuId>(1 + rng->NextBelow(static_cast<uint64_t>(n_cores - 1)));
      sim->SetCpuOnline(victim, !sim->sched().IsOnline(victim));
    }
    if (sim->Now() < kHorizon && !::testing::Test::HasFatalFailure()) {
      sim->After(kHotplugInterval, *this);
    }
  }
};

TEST(FuzzInvariants, RandomTopologiesAndWorkloads) {
  uint64_t base = BaseSeed();
  for (int run = 0; run < kRuns; ++run) {
    uint64_t seed = base + static_cast<uint64_t>(run);
    SCOPED_TRACE(ReproCommand(seed));

    uint64_t sm = seed;
    Rng rng(SplitMix64(sm));
    Topology topo = RandomTopology(rng);
    Simulator::Options opts;
    opts.features = RandomFeatures(rng);
    opts.seed = seed;
    Simulator sim(topo, opts);
    SpawnRandomMix(sim, rng, static_cast<int>(rng.NextInRange(6, 48)));

    InvariantChecker checker(&sim);
    // Scheduled through the event queue so checks interleave
    // deterministically with scheduler activity.
    sim.After(kCheckInterval, RearmingCheck{&checker, &sim});
    // Half the runs add hotplug churn, so the idle index, the RqLoad memo,
    // and domain regeneration are all fuzzed across offline/online
    // transitions, not just in the steady topology.
    Rng hotplug_rng(SplitMix64(sm));
    if (rng.NextBool(0.5)) {
      sim.After(kHotplugInterval / 2, RearmingHotplug{&sim, &hotplug_rng});
    }
    sim.Run(kHorizon);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    EXPECT_GT(checker.checks(), 100) << "fuzz run did too little work to mean anything";
  }
}

// Directed variant: pin every thread to one core of a 4-core machine, so
// three cores idle while the pinned runqueue stacks up. The sanity checker
// must NOT fire (affinity forbids stealing); un-pinning one thread via a
// fresh unpinned spawn must make it fire at the next check.
TEST(FuzzInvariants, SanityCheckerFiresOnStealableBacklog) {
  Topology topo = Topology::Flat(1, 4);
  Simulator::Options opts;
  opts.seed = 7;
  Simulator sim(topo, opts);

  Simulator::SpawnParams pinned;
  pinned.affinity = CpuSet::Single(0);
  pinned.parent_cpu = 0;
  for (int i = 0; i < 4; ++i) {
    sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{ComputeAction{Seconds(1)}}),
              pinned);
  }
  sim.Run(Milliseconds(1));

  SanityChecker checker(&sim);
  CpuId idle_cpu = kInvalidCpu;
  CpuId overloaded_cpu = kInvalidCpu;
  EXPECT_FALSE(checker.CheckOnce(&idle_cpu, &overloaded_cpu))
      << "checker fired although every queued thread is pinned to the busy core";

  // An unpinned hog spawned onto the overloaded core is stealable; between
  // its enqueue and the next balancing pass the invariant is violated.
  Simulator::SpawnParams unpinned;
  unpinned.parent_cpu = 0;
  sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{ComputeAction{Seconds(1)}}),
            unpinned);
  ASSERT_GE(sim.sched().NrRunning(0), 2);
  bool any_idle = false;
  for (CpuId c = 1; c < 4; ++c) {
    any_idle = any_idle || sim.sched().IsIdleCpu(c);
  }
  if (any_idle) {
    EXPECT_TRUE(checker.CheckOnce(&idle_cpu, &overloaded_cpu))
        << "a core idles while cpu0 holds an unpinned waiting thread";
    EXPECT_EQ(overloaded_cpu, 0);
  }
}

// Regression (idle index vs. hotplug): repeatedly offline and online the
// exact cpu the index would answer with — the head-of-list case, where a
// stale link or a missed unlink corrupts every later query of that node's
// list — and cross-check the indexed answer against the linear scan after
// every transition and after scheduler activity in between.
TEST(FuzzInvariants, IdleIndexSurvivesHotplugOfLongestIdleAnswer) {
  uint64_t seed = BaseSeed() + 4242ULL;
  SCOPED_TRACE(ReproCommand(seed));
  uint64_t sm = seed;
  Rng rng(SplitMix64(sm));

  Topology topo = Topology::Bulldozer8x8();  // Multi-node: per-node idle lists.
  Simulator::Options opts;
  opts.features = RandomFeatures(rng);
  opts.features.fix_overload_wakeup = true;  // Wakeups consult the index too.
  opts.seed = seed;
  Simulator sim(topo, opts);
  SpawnRandomMix(sim, rng, 24);
  sim.Run(Milliseconds(5));

  const int n_cores = topo.n_cores();
  int offlined_rounds = 0;
  for (int round = 0; round < 40 && !::testing::Test::HasFatalFailure(); ++round) {
    const Scheduler& sched = sim.sched();
    ASSERT_EQ(sched.LongestIdleCpu(topo.AllCpus()), ScanLongestIdle(sched, n_cores))
        << "round " << round << " before hotplug";
    CpuId victim = sched.LongestIdleCpu(topo.AllCpus());
    if (victim == kInvalidCpu) {
      sim.Run(sim.Now() + Microseconds(700));
      continue;
    }
    offlined_rounds += 1;

    sim.SetCpuOnline(victim, false);
    ASSERT_TRUE(sched.ValidateIdleIndex()) << "round " << round << " after offlining " << victim;
    ASSERT_EQ(sched.LongestIdleCpu(topo.AllCpus()), ScanLongestIdle(sched, n_cores))
        << "round " << round << " with cpu " << victim << " offline";
    ASSERT_NE(sched.LongestIdleCpu(topo.AllCpus()), victim);

    // Let wakeups, ticks, and balancing run against the shrunken topology.
    sim.Run(sim.Now() + rng.NextTime(Microseconds(300), Milliseconds(2)));
    ASSERT_TRUE(sched.ValidateIdleIndex()) << "round " << round;
    ASSERT_EQ(sched.LongestIdleCpu(topo.AllCpus()), ScanLongestIdle(sched, n_cores))
        << "round " << round << " after running with cpu " << victim << " offline";

    sim.SetCpuOnline(victim, true);
    ASSERT_TRUE(sched.ValidateIdleIndex()) << "round " << round << " after onlining " << victim;
    ASSERT_EQ(sched.LongestIdleCpu(topo.AllCpus()), ScanLongestIdle(sched, n_cores))
        << "round " << round << " with cpu " << victim << " back online";

    sim.Run(sim.Now() + rng.NextTime(Microseconds(300), Milliseconds(2)));
  }
  EXPECT_GT(offlined_rounds, 10) << "machine was never idle enough to exercise the index";
}

// ---- Wake-placement fallback differential ------------------------------------
//
// CFS behind a policy that re-derives every busy-node wake placement. When
// the stock path finds every candidate busy it returns the considered set
// unchanged from the candidate set (an idle cpu anywhere in it would have
// been taken first), so a considered set with no idle cpu is exactly the
// fallback's input. The oracle is the one-pass lexicographic scan of
// (nr_running, from-scratch load) in ascending cpu order with strict `<`;
// the scheduler's answer must match it on every such wake.
class FallbackOraclePolicy : public CfsPolicy {
 public:
  CpuId SelectWakeCpu(Time now, const SchedEntity& se, CpuId waker_cpu,
                      CpuSet* considered) override {
    CpuId got = sched_->CfsSelectWakeCpu(now, se, waker_cpu, considered);
    CpuId want = kInvalidCpu;
    int want_nr = 0;
    double want_load = 0;
    int tied = 0;  // Candidates sharing the winner's (nr_running, load).
    for (CpuId c : *considered) {
      int nr = sched_->NrRunning(c);
      if (nr == 0) {
        return got;  // An idle candidate: not the busy-node fallback.
      }
      double load = sched_->RqLoadRecomputed(now, c);
      if (want == kInvalidCpu || nr < want_nr || (nr == want_nr && load < want_load)) {
        want = c;
        want_nr = nr;
        want_load = load;
        tied = 1;
      } else if (nr == want_nr && load == want_load) {
        tied += 1;
      }
    }
    fallbacks_ += 1;
    full_ties_ += tied > 1 ? 1 : 0;
    if (got != want && ++mismatches_ == 1) {  // Report the first; the run asserts the count.
      ADD_FAILURE() << "busy-node wake of tid " << se.tid << " at t=" << now << " chose cpu "
                    << got << ", lexicographic scan says cpu " << want;
    }
    return got;
  }

  int fallbacks() const { return fallbacks_; }
  int full_ties() const { return full_ties_; }
  int mismatches() const { return mismatches_; }

 private:
  int fallbacks_ = 0;
  int full_ties_ = 0;
  int mismatches_ = 0;
};

TEST(FuzzInvariants, WakeFallbackMatchesLexicographicScan) {
  uint64_t base = BaseSeed();
  int fallbacks = 0;
  int full_ties = 0;
  for (int run = 0; run < kRuns; ++run) {
    for (bool fixed : {false, true}) {
      uint64_t seed = base + 77000ULL + static_cast<uint64_t>(run);
      SCOPED_TRACE(ReproCommand(seed) + (fixed ? " (fixed features)" : " (stock features)"));
      uint64_t sm = seed;
      Rng rng(SplitMix64(sm));
      Topology topo = RandomTopology(rng);
      Simulator::Options opts;
      opts.features = RandomFeatures(rng);
      opts.features.fix_overload_wakeup = fixed;
      opts.seed = seed;
      FallbackOraclePolicy policy;
      opts.policy = &policy;
      Simulator sim(topo, opts);
      // More threads than cpus, so whole nodes run busy and wakes reach the
      // fallback under the fix too.
      int n_cores = topo.n_cores();
      SpawnRandomMix(sim, rng, 2 * n_cores + static_cast<int>(rng.NextInRange(0, 16)));
      Rng hotplug_rng(SplitMix64(sm));
      if (rng.NextBool(0.5)) {
        sim.After(kHotplugInterval / 2, RearmingHotplug{&sim, &hotplug_rng});
      }
      sim.Run(Milliseconds(100));
      ASSERT_EQ(policy.mismatches(), 0);
      fallbacks += policy.fallbacks();
      full_ties += policy.full_ties();
    }
  }
  EXPECT_GT(fallbacks, 1000) << "too few busy-node wakes to mean anything";
  EXPECT_GT(full_ties, 0) << "no full (nr_running, load) tie: the tie rule went untested";
}

// ---- Balance screen differential ---------------------------------------------
//
// CFS behind a policy that wraps the three balancing hooks and watches the
// trace: every Algorithm-1 pass emits one OnConsidered before anything else,
// so each one opens a record there, re-derived from public state only. The
// considered set must be the online members of one of the caller's domains,
// and the pass has something to steal iff some considered cpu other than the
// caller has a queued entity. The record closes at the next pass or when the
// hook returns (balancing never nests: kicks are deferred events). A pass
// the scheduler screened (balance_nothing_stealable moved by one) must have
// had nothing to steal and must have migrated nothing; every other pass must
// have had something to steal.
class ScreenOraclePolicy : public CfsPolicy, public TraceSink {
 public:
  void PeriodicBalance(Time now, CpuId cpu) override {
    in_hook_ = true;
    sched_->CfsPeriodicBalance(now, cpu);
    ClosePass();
    in_hook_ = false;
  }
  void NewIdleBalance(Time now, CpuId cpu) override {
    in_hook_ = true;
    sched_->CfsIdleBalance(now, cpu);
    ClosePass();
    in_hook_ = false;
  }
  void NohzBalance(Time now, CpuId cpu) override {
    in_hook_ = true;
    sched_->CfsNohzBalance(now, cpu);
    ClosePass();
    in_hook_ = false;
  }

  void OnConsidered(Time now, CpuId initiator, const CpuSet& considered,
                    ConsideredKind kind) override {
    if (kind == ConsideredKind::kWakeup) {
      return;
    }
    if (!in_hook_) {
      Report("balancing pass of cpu " + std::to_string(initiator) +
             " at t=" + std::to_string(now) + " ran outside the three balance hooks");
    }
    ClosePass();
    OpenPass(now, initiator, considered);
  }

  void OnMigration(Time now, ThreadId tid, CpuId from, CpuId to,
                   MigrationReason reason) override {
    (void)now;
    (void)tid;
    (void)from;
    (void)to;
    if (open_ && reason != MigrationReason::kHotplug) {
      pass_migrations_ += 1;
    }
  }

  int screened() const { return screened_; }
  int unscreened() const { return unscreened_; }
  int mismatches() const { return mismatches_; }

 private:
  void OpenPass(Time now, CpuId cpu, const CpuSet& considered) {
    const Scheduler& sched = *sched_;
    bool is_domain = false;
    for (const SchedDomain& sd : sched.Domains(cpu).domains) {
      CpuSet online_members;
      for (const SchedGroup& grp : sd.groups) {
        online_members |= grp.cpus & sched.OnlineCpus();
      }
      is_domain = is_domain || online_members == considered;
    }
    if (!is_domain) {
      Report("considered set " + considered.ToString() + " of cpu " + std::to_string(cpu) +
             " at t=" + std::to_string(now) + " is no domain's online members");
    }
    // From the queues themselves, not the nr mirror the screen reads.
    bool any_queued = false;
    for (CpuId c : considered) {
      if (c == cpu) {
        continue;
      }
      bool queued = false;
      sched.ForEachQueuedOn(c, [&](const SchedEntity*) {
        queued = true;
        return false;
      });
      any_queued = any_queued || queued;
    }
    open_ = true;
    pass_cpu_ = cpu;
    pass_now_ = now;
    pass_stealable_ = any_queued;
    pass_screened_before_ = sched.stats().balance_nothing_stealable;
    pass_migrations_ = 0;
  }

  void ClosePass() {
    if (!open_) {
      return;
    }
    open_ = false;
    uint64_t screened = sched_->stats().balance_nothing_stealable - pass_screened_before_;
    std::string where = "pass of cpu " + std::to_string(pass_cpu_) +
                        " at t=" + std::to_string(pass_now_);
    if (screened > 1) {
      Report(where + " bumped balance_nothing_stealable more than once");
    } else if (screened == 1) {
      screened_ += 1;
      if (pass_stealable_) {
        Report(where + " was screened, but a considered cpu holds a queued thread");
      }
      if (pass_migrations_ != 0) {
        Report(where + " was screened, but migrated " + std::to_string(pass_migrations_));
      }
    } else {
      unscreened_ += 1;
      if (!pass_stealable_) {
        Report(where + " folded loads, but no considered cpu holds a queued thread");
      }
    }
  }

  void Report(const std::string& what) {
    if (++mismatches_ == 1) {  // Report the first; the run asserts the count.
      ADD_FAILURE() << what;
    }
  }

  bool in_hook_ = false;
  bool open_ = false;
  CpuId pass_cpu_ = kInvalidCpu;
  Time pass_now_ = 0;
  bool pass_stealable_ = false;
  uint64_t pass_screened_before_ = 0;
  int pass_migrations_ = 0;
  int screened_ = 0;
  int unscreened_ = 0;
  int mismatches_ = 0;
};

TEST(FuzzInvariants, BalanceScreenMatchesQueuedScan) {
  uint64_t base = BaseSeed();
  int screened = 0;
  int unscreened = 0;
  for (int run = 0; run < kRuns; ++run) {
    for (bool fixed : {false, true}) {
      uint64_t seed = base + 88000ULL + static_cast<uint64_t>(run);
      SCOPED_TRACE(ReproCommand(seed) + (fixed ? " (fixed features)" : " (stock features)"));
      uint64_t sm = seed;
      Rng rng(SplitMix64(sm));
      Topology topo = RandomTopology(rng);
      Simulator::Options opts;
      opts.features = RandomFeatures(rng);
      opts.features.fix_group_imbalance = fixed;
      opts.features.fix_missing_domains = fixed;
      opts.seed = seed;
      ScreenOraclePolicy oracle;
      opts.policy = &oracle;
      Simulator sim(topo, opts, &oracle);
      // About as many threads as cpus, so new-idle passes both find nothing
      // queued and find something (tests/core/balance_test.cc pins the rare
      // arm: one queued thread behind an empty curr slot).
      int n_cores = topo.n_cores();
      SpawnRandomMix(sim, rng, n_cores + static_cast<int>(rng.NextInRange(0, 8)));
      Rng hotplug_rng(SplitMix64(sm));
      if (rng.NextBool(0.5)) {
        sim.After(kHotplugInterval / 2, RearmingHotplug{&sim, &hotplug_rng});
      }
      sim.Run(Milliseconds(100));
      ASSERT_EQ(oracle.mismatches(), 0);
      screened += oracle.screened();
      unscreened += oracle.unscreened();
    }
  }
  EXPECT_GT(screened, 1000) << "too few screened passes to mean anything";
  EXPECT_GT(unscreened, 1000) << "too few folded passes to mean anything";
}

// ---- Streaming-parity invariant ---------------------------------------------
//
// The one-pass streaming analyzer and the whole-trace recorder observe the
// identical callback stream (fanned out by MultiSink). Every per-task
// accumulator the stream keeps incrementally must therefore equal a
// from-scratch reduction over the recorder's array — bit for bit, integers
// throughout. (The recorder stores nanoseconds in a double; values stay far
// below 2^53, so the uint64 round-trip is exact.)
TEST(FuzzInvariants, StreamingAccumulatorsMatchRecorderBitForBit) {
  uint64_t base = BaseSeed();
  for (int run = 0; run < kRuns; ++run) {
    uint64_t seed = base + 99000ULL + static_cast<uint64_t>(run);
    SCOPED_TRACE(ReproCommand(seed));
    uint64_t sm = seed;
    Rng rng(SplitMix64(sm));
    Topology topo = RandomTopology(rng);
    Simulator::Options opts;
    opts.features = RandomFeatures(rng);
    opts.seed = seed;

    EventRecorder recorder;
    TelemetryStream stream(TelemetryStream::ForTopology(topo));
    MultiSink multi;
    multi.Add(&recorder);
    multi.Add(&stream);
    Simulator sim(topo, opts, &multi);
    SpawnRandomMix(sim, rng, static_cast<int>(rng.NextInRange(6, 48)));
    sim.Run(kHorizon);
    stream.Finish(sim.Now());

    // Conservation first: both sinks saw every callback, nothing dropped.
    ASSERT_EQ(recorder.dropped(), 0u);
    ASSERT_EQ(stream.ring().dropped(), 0u);
    ASSERT_EQ(stream.events_seen(), recorder.events().size());
    ASSERT_EQ(stream.analyzer().events(), recorder.events().size());

    struct Totals {
      uint64_t runtime = 0, wait = 0, switches = 0, wakeups = 0, migrations = 0;
    };
    std::map<ThreadId, Totals> batch;
    uint64_t idle_ns = 0;
    for (const TraceEvent& e : recorder.events()) {
      switch (e.kind) {
        case TraceEvent::Kind::kSwitchIn:
          batch[e.tid].wait += static_cast<uint64_t>(e.value);
          break;
        case TraceEvent::Kind::kSwitchOut:
          batch[e.tid].runtime += static_cast<uint64_t>(e.value);
          batch[e.tid].switches += 1;
          break;
        case TraceEvent::Kind::kWakeupLatency:
          batch[e.tid].wakeups += 1;
          break;
        case TraceEvent::Kind::kMigration:
          batch[e.tid].migrations += 1;
          break;
        case TraceEvent::Kind::kIdleExit:
          idle_ns += static_cast<uint64_t>(e.value);
          break;
        default:
          break;
      }
    }

    ASSERT_GT(batch.size(), 0u) << "fuzz run produced no per-task events";
    uint64_t sum_runtime = 0;
    uint64_t sum_wait = 0;
    for (const auto& [tid, t] : batch) {
      const StreamAnalyzer::TaskStats& s = stream.analyzer().Task(tid);
      ASSERT_TRUE(s.seen) << "tid " << tid << " missing from the stream";
      ASSERT_EQ(s.runtime_ns, t.runtime) << "tid " << tid << " runtime diverged";
      ASSERT_EQ(s.wait_ns, t.wait) << "tid " << tid << " wait diverged";
      ASSERT_EQ(s.switches, t.switches) << "tid " << tid;
      ASSERT_EQ(s.wakeups, t.wakeups) << "tid " << tid;
      ASSERT_EQ(s.migrations, t.migrations) << "tid " << tid;
      sum_runtime += t.runtime;
      sum_wait += t.wait;
    }
    // And the machine-level totals are the per-task sums, also exactly.
    ASSERT_EQ(stream.analyzer().Machine().oncpu.sum_ns, sum_runtime);
    ASSERT_EQ(stream.analyzer().Machine().rq_wait.sum_ns, sum_wait);
    ASSERT_EQ(stream.analyzer().idle_ns(), static_cast<Time>(idle_ns));
  }
}

}  // namespace
}  // namespace wcores
