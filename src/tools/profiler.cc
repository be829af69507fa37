#include "src/tools/profiler.h"

#include <cstdio>
#include <map>

namespace wcores {

BalanceProfile ProfileFromStats(const SchedStats& before, const SchedStats& after, Time t0,
                                Time t1) {
  BalanceProfile p;
  p.window_start = t0;
  p.window_end = t1;
  p.balance_calls = after.balance_calls - before.balance_calls;
  p.found_busiest = after.balance_found_busiest - before.balance_found_busiest;
  p.below_local = after.balance_below_local - before.balance_below_local;
  p.designation_skips = after.balance_designation_skips - before.balance_designation_skips;
  p.interval_skips = after.balance_interval_skips - before.balance_interval_skips;
  p.affinity_retries = after.balance_affinity_retries - before.balance_affinity_retries;
  p.failures = after.balance_failures - before.balance_failures;
  p.nothing_stealable = after.balance_nothing_stealable - before.balance_nothing_stealable;
  p.success = after.balance_success - before.balance_success;
  p.moved_tasks = after.balance_moved_tasks - before.balance_moved_tasks;
  p.migrations = after.TotalMigrations() - before.TotalMigrations();
  p.wakeups = after.wakeups - before.wakeups;
  p.wakeups_on_busy = after.wakeups_on_busy - before.wakeups_on_busy;
  return p;
}

std::string ProfileReport(const BalanceProfile& p) {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "balance profile [%s, %s]:\n"
      "  balance calls        %llu (found busiest: %llu)\n"
      "  gave up, not above local load   %llu\n"
      "  skipped, not designated core    %llu\n"
      "  affinity (taskset) retries      %llu\n"
      "  moved nothing                   %llu\n"
      "  nothing stealable (screened)    %llu\n"
      "  migrations                      %llu\n"
      "  wakeups                         %llu (onto busy cores: %llu)\n",
      FormatTime(p.window_start).c_str(), FormatTime(p.window_end).c_str(),
      static_cast<unsigned long long>(p.balance_calls),
      static_cast<unsigned long long>(p.found_busiest),
      static_cast<unsigned long long>(p.below_local),
      static_cast<unsigned long long>(p.designation_skips),
      static_cast<unsigned long long>(p.affinity_retries),
      static_cast<unsigned long long>(p.failures),
      static_cast<unsigned long long>(p.nothing_stealable),
      static_cast<unsigned long long>(p.migrations), static_cast<unsigned long long>(p.wakeups),
      static_cast<unsigned long long>(p.wakeups_on_busy));
  return buf;
}

std::string BalanceVerdictTable(const BalanceProfile& p) {
  // Every invocation of the balancing machinery ends in exactly one verdict.
  // Interval/designation skips happen before the Algorithm-1 body runs;
  // bodies end moved / below-local / nothing-movable, or before the load
  // fold when no considered cpu has a thread to steal.
  struct Row {
    const char* verdict;
    uint64_t count;
  };
  const Row rows[] = {
      {"moved threads", p.success},
      {"balanced (busiest <= local)", p.below_local},
      {"nothing movable (pinned/empty)", p.failures},
      {"nothing stealable (screened)", p.nothing_stealable},
      {"skipped: interval not due", p.interval_skips},
      {"skipped: not designated core", p.designation_skips},
  };
  uint64_t total = 0;
  for (const Row& r : rows) {
    total += r.count;
  }
  std::string out = "balance decision verdicts:\n";
  char buf[128];
  for (const Row& r : rows) {
    double share = total > 0 ? 100.0 * static_cast<double>(r.count) / static_cast<double>(total)
                             : 0.0;
    std::snprintf(buf, sizeof(buf), "  %-32s %10llu  (%5.1f%%)\n", r.verdict,
                  static_cast<unsigned long long>(r.count), share);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "  %-32s %10llu\n  threads moved per success: %.2f\n",
                "total invocations", static_cast<unsigned long long>(total),
                p.success > 0 ? static_cast<double>(p.moved_tasks) / static_cast<double>(p.success)
                              : 0.0);
  out += buf;
  return out;
}

std::string ConsideredSummary(const EventRecorder& recorder, Time t0, Time t1, int n_cpus) {
  // initiator -> (call count, union of considered cores).
  std::map<int, std::pair<uint64_t, CpuSet>> per_cpu;
  for (const TraceEvent& e : recorder.events()) {
    if (e.kind != TraceEvent::Kind::kConsidered || e.when < t0 || e.when >= t1) {
      continue;
    }
    if (e.sub == static_cast<uint8_t>(ConsideredKind::kWakeup)) {
      continue;
    }
    auto& entry = per_cpu[e.cpu];
    entry.first += 1;
    entry.second |= e.considered;
  }
  std::string out = "balancing calls per initiator core:\n";
  char buf[128];
  for (int c = 0; c < n_cpus; ++c) {
    auto it = per_cpu.find(c);
    if (it == per_cpu.end()) {
      continue;
    }
    std::snprintf(buf, sizeof(buf), "  core %3d: %6llu calls, examined cores ", c,
                  static_cast<unsigned long long>(it->second.first));
    out += buf;
    out += it->second.second.ToString();
    out += '\n';
  }
  return out;
}

}  // namespace wcores
