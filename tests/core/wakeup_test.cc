// The stock wakeup path's wake_affine choice (§2.2.2 / §3.3): the scheduler
// chooses between the sleeper's node and the waker's node by load, then
// searches only that node — and, when every core of that node is busy,
// queues on the least loaded one anyway.
#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>

#include "src/core/scheduler.h"
#include "src/topo/topology.h"

namespace wcores {
namespace {

class NullClient : public SchedClient {
 public:
  void KickCpu(CpuId) override {}
  void NohzKick(CpuId) override {}
};

class WakeAffineTest : public ::testing::Test {
 protected:
  WakeAffineTest()
      : topo_(Topology::Flat(2, 2, 1)),
        sched_(topo_, SchedFeatures::Stock(), SchedTunables::ForCpus(4), &client_) {}

  ThreadId MakeSleeperOn(CpuId cpu) {
    ThreadParams p;
    p.parent_cpu = cpu;
    ThreadId tid = sched_.CreateThread(0, p);
    sched_.PickNext(0, cpu);
    sched_.BlockCurrent(Milliseconds(1), cpu);
    return tid;
  }

  void RunHogOn(CpuId cpu) {
    ThreadParams p;
    p.parent_cpu = cpu;
    sched_.CreateThread(Milliseconds(1), p);
    sched_.PickNext(Milliseconds(1), cpu);
    sched_.Tick(Milliseconds(60), cpu);  // Build up PELT load.
  }

  Topology topo_;
  NullClient client_;
  Scheduler sched_;
};

TEST_F(WakeAffineTest, CrossNodeWakerWinsWhenItsNodeIsIdler) {
  ThreadId sleeper = MakeSleeperOn(0);  // Slept on node 0.
  // Node 0 heavily loaded; node 1 (waker's node) empty except the waker.
  RunHogOn(0);
  RunHogOn(1);
  CpuId cpu = sched_.Wake(Milliseconds(61), sleeper, 2);
  EXPECT_EQ(topo_.NodeOf(cpu), 1);  // Migrated toward the idler waker node.
}

TEST_F(WakeAffineTest, SleeperNodeWinsWhenWakerNodeIsBusier) {
  ThreadId sleeper = MakeSleeperOn(0);
  // Waker's node (node 1) is the loaded one.
  RunHogOn(2);
  RunHogOn(3);
  CpuId cpu = sched_.Wake(Milliseconds(61), sleeper, 2);
  EXPECT_EQ(topo_.NodeOf(cpu), 0);  // Stays home.
}

TEST_F(WakeAffineTest, TieKeepsSleeperNode) {
  ThreadId sleeper = MakeSleeperOn(1);
  CpuId cpu = sched_.Wake(Milliseconds(2), sleeper, 2);
  EXPECT_EQ(topo_.NodeOf(cpu), 0);  // Equal (zero) loads: prev node wins.
}

TEST_F(WakeAffineTest, SameNodeWakerNeverLeavesTheNode) {
  // The §3.3 statement: sleeper and waker on the same node -> only that
  // node is considered, even though the other node is fully idle.
  ThreadId sleeper = MakeSleeperOn(0);
  RunHogOn(0);
  RunHogOn(1);  // Node 0 fully busy; node 1 fully idle.
  CpuId cpu = sched_.Wake(Milliseconds(61), sleeper, 1);
  EXPECT_EQ(topo_.NodeOf(cpu), 0);
  EXPECT_GE(sched_.NrRunning(cpu), 2);  // The Overload-on-Wakeup signature.
}

TEST_F(WakeAffineTest, TimerWakeUsesSleeperCoreAsWaker) {
  // Wake with waker == prev core (how the simulator delivers timer wakes):
  // the search set is exactly the sleeper's node.
  ThreadId sleeper = MakeSleeperOn(3);
  CpuId cpu = sched_.Wake(Milliseconds(2), sleeper, 3);
  EXPECT_EQ(cpu, 3);
}

// The busy-node fallback of select_idle_sibling: one 4-cpu node whose cpus
// all run hogs, so a wake finds no idle core and takes the lexicographic
// minimum of (nr_running, load), lowest cpu id on a full tie. New threads
// start at full PELT load, so a hog's load is its nice weight.
class BusyNodeFallbackTest : public ::testing::Test {
 protected:
  BusyNodeFallbackTest()
      : topo_(Topology::Flat(1, 4, 1)),
        sched_(topo_, SchedFeatures::Stock(), SchedTunables::ForCpus(4), &client_) {}

  // A sleeper that last ran on `cpu`; it blocks at 1 ms, before the hogs.
  ThreadId MakeSleeperOn(CpuId cpu) {
    ThreadParams p;
    p.parent_cpu = cpu;
    ThreadId tid = sched_.CreateThread(0, p);
    sched_.PickNext(0, cpu);
    sched_.BlockCurrent(Milliseconds(1), cpu);
    return tid;
  }

  // Puts one hog per entry of `nices` on `cpu` (the first one runs).
  void HogsOn(CpuId cpu, std::initializer_list<int> nices) {
    for (int nice : nices) {
      ThreadParams p;
      p.parent_cpu = cpu;
      p.nice = nice;
      sched_.CreateThread(Milliseconds(1), p);
    }
    sched_.PickNext(Milliseconds(1), cpu);
  }

  Topology topo_;
  NullClient client_;
  Scheduler sched_;
};

TEST_F(BusyNodeFallbackTest, LowerNrRunningBeatsLowerLoad) {
  ThreadId sleeper = MakeSleeperOn(0);
  HogsOn(0, {19, 19, 19});  // Three light hogs: load 3 x 15.
  HogsOn(1, {19, 19, 19});
  HogsOn(2, {0, 0});        // Two heavy hogs: the highest load, the fewest threads.
  HogsOn(3, {19, 19, 19});
  ASSERT_GT(sched_.RqLoad(Milliseconds(2), 2), sched_.RqLoad(Milliseconds(2), 0));
  EXPECT_EQ(sched_.Wake(Milliseconds(2), sleeper, 0), 2);
}

TEST_F(BusyNodeFallbackTest, EqualNrRunningFallsToLowerLoad) {
  ThreadId sleeper = MakeSleeperOn(0);
  HogsOn(0, {0});
  HogsOn(1, {0});
  HogsOn(2, {5});  // Lightest load; neither the lowest id nor the sleeper's core.
  HogsOn(3, {0});
  EXPECT_EQ(sched_.Wake(Milliseconds(2), sleeper, 0), 2);
}

TEST_F(BusyNodeFallbackTest, FullTieGoesToLowestCpuId) {
  // cpus 1 and 2 tie on (nr_running, load); the sleeper last ran on 2.
  ThreadId sleeper = MakeSleeperOn(2);
  HogsOn(0, {0, 0});
  HogsOn(1, {0});
  HogsOn(2, {0});
  HogsOn(3, {-5});
  ASSERT_EQ(sched_.RqLoad(Milliseconds(2), 1), sched_.RqLoad(Milliseconds(2), 2));
  EXPECT_EQ(sched_.Wake(Milliseconds(2), sleeper, 2), 1);
}

TEST_F(BusyNodeFallbackTest, ReadsLoadOnlyAtTheMinimumNrRunning) {
  // Distinct nr_running on every cpu: the placement folds one runqueue (the
  // single cpu at the minimum) and the enqueue's NotifyLoad folds the
  // target's. Reading every candidate's load would fold five.
  ThreadId sleeper = MakeSleeperOn(0);
  HogsOn(0, {0, 0, 0});
  HogsOn(1, {0, 0});
  HogsOn(2, {0, 0, 0, 0});
  HogsOn(3, {0, 0, 0, 0, 0});
  uint64_t fills_before = sched_.stats().rq_load_fills;
  EXPECT_EQ(sched_.Wake(Milliseconds(2), sleeper, 0), 1);
  EXPECT_EQ(sched_.stats().rq_load_fills - fills_before, 2u);
}

}  // namespace
}  // namespace wcores
