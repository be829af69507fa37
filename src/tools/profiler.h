// The systemtap stand-in (§4.1): once the sanity checker flags a bug, the
// paper profiles all load-balancing functions for 20 ms to understand why
// they fail. Here, the profiler summarizes the scheduler's balancing
// counters and the recorded trace over a window into a human-readable
// report of who tried to balance, what they looked at, and why they gave up.
#ifndef SRC_TOOLS_PROFILER_H_
#define SRC_TOOLS_PROFILER_H_

#include <string>

#include "src/core/stats.h"
#include "src/tools/recorder.h"

namespace wcores {

struct BalanceProfile {
  Time window_start = 0;
  Time window_end = 0;
  uint64_t balance_calls = 0;
  uint64_t found_busiest = 0;
  uint64_t below_local = 0;        // Gave up: busiest group not above local.
  uint64_t designation_skips = 0;  // Gave up: not the designated core.
  uint64_t interval_skips = 0;     // Gave up before the body: interval not due.
  uint64_t affinity_retries = 0;   // Tasksets forced cpu exclusion.
  uint64_t failures = 0;           // No thread could be moved.
  uint64_t nothing_stealable = 0;  // Screened: no considered cpu had a queued thread.
  uint64_t success = 0;            // Bodies that moved at least one thread.
  uint64_t moved_tasks = 0;        // Threads moved by those bodies.
  uint64_t migrations = 0;
  uint64_t wakeups = 0;
  uint64_t wakeups_on_busy = 0;
};

// Stats-delta profile between two scheduler snapshots.
BalanceProfile ProfileFromStats(const SchedStats& before, const SchedStats& after, Time t0,
                                Time t1);

std::string ProfileReport(const BalanceProfile& profile);

/// The decision-verdict table of the schedstat report: one row per way an
// Algorithm-1 invocation can end (moved threads, balanced already, pinned or
// nothing movable, nothing stealable, interval not due, not the designated
// core), with counts and the share of all invocations.
std::string BalanceVerdictTable(const BalanceProfile& profile);

// Counts, per initiator cpu, the balancing events recorded in [t0, t1) and
// renders the cores each examined — the evidence trail used in §3.4 to show
// Core 0 never looking beyond its node.
std::string ConsideredSummary(const EventRecorder& recorder, Time t0, Time t1, int n_cpus);

}  // namespace wcores

#endif  // SRC_TOOLS_PROFILER_H_
