#include "src/tools/sanity_checker.h"

#include <cstdio>
#include <utility>

namespace wcores {

SanityChecker::SanityChecker(Simulator* sim, Options options) : sim_(sim), options_(options) {}

void SanityChecker::Start() { ScheduleNext(); }

void SanityChecker::ScheduleNext() {
  Time next = sim_->Now() + options_.check_interval;
  if (options_.stop_at != 0 && next > options_.stop_at) {
    return;
  }
  sim_->At(next, [this] { RunCheck(); });
}

bool SanityChecker::CheckOnce(CpuId* idle_cpu, CpuId* overloaded_cpu) const {
  const Scheduler& sched = sim_->sched();
  // Algorithm 2: "No core remains idle while another core is overloaded."
  for (CpuId cpu1 : sched.OnlineCpus()) {
    if (sched.NrRunning(cpu1) >= 1) {
      continue;  // CPU1 is not idle.
    }
    for (CpuId cpu2 : sched.OnlineCpus()) {
      if (cpu2 == cpu1 || sched.NrRunning(cpu2) < 2) {
        continue;
      }
      if (sched.CanSteal(cpu1, cpu2)) {
        if (idle_cpu != nullptr) {
          *idle_cpu = cpu1;
        }
        if (overloaded_cpu != nullptr) {
          *overloaded_cpu = cpu2;
        }
        return true;
      }
    }
  }
  return false;
}

void SanityChecker::RunCheck() {
  checks_run_ += 1;
  CpuId idle_cpu = kInvalidCpu;
  CpuId overloaded_cpu = kInvalidCpu;
  if (CheckOnce(&idle_cpu, &overloaded_cpu)) {
    candidates_ += 1;
    // Begin the M-window monitoring phase before deciding it is a bug.
    Time detected = sim_->Now();
    pending_.push_back(PendingConfirmation{idle_cpu, detected, sim_->sched().stats()});
    sim_->At(detected + options_.confirmation_window, [this] { ConfirmHead(); });
  }
  ScheduleNext();
}

void SanityChecker::ConfirmHead() {
  PendingConfirmation p = std::move(pending_.front());
  pending_.pop_front();
  Confirm(p.idle_cpu, p.detected_at, p.stats_before);
}

void SanityChecker::Confirm(CpuId idle_cpu, Time detected_at, const SchedStats& stats_before) {
  const Scheduler& sched = sim_->sched();
  // The violation is "promptly fixed" if the idle core got work meanwhile
  // (its idle period no longer spans the detection) or no overloaded core
  // with stealable work remains.
  if (sched.NrRunning(idle_cpu) >= 1 || sched.IdleSince(idle_cpu) > detected_at ||
      !sched.IsOnline(idle_cpu)) {
    return;
  }
  CpuId overloaded = kInvalidCpu;
  for (CpuId cpu2 : sched.OnlineCpus()) {
    if (cpu2 != idle_cpu && sched.NrRunning(cpu2) >= 2 && sched.CanSteal(idle_cpu, cpu2)) {
      overloaded = cpu2;
      break;
    }
  }
  if (overloaded == kInvalidCpu) {
    return;
  }

  Violation v;
  v.detected_at = detected_at;
  v.confirmed_at = sim_->Now();
  v.idle_cpu = idle_cpu;
  v.overloaded_cpu = overloaded;
  v.overloaded_nr_running = sched.NrRunning(overloaded);
  for (CpuId c = 0; c < sim_->topo().n_cores(); ++c) {
    v.nr_running.push_back(sched.IsOnline(c) ? sched.NrRunning(c) : -1);
  }
  const SchedStats& after = sched.stats();
  v.balance_calls = after.balance_calls - stats_before.balance_calls;
  v.balance_below_local = after.balance_below_local - stats_before.balance_below_local;
  v.balance_nothing_stealable =
      after.balance_nothing_stealable - stats_before.balance_nothing_stealable;
  v.balance_designation_skips =
      after.balance_designation_skips - stats_before.balance_designation_skips;
  v.migrations = after.TotalMigrations() - stats_before.TotalMigrations();
  if (options_.latency_snapshot) {
    v.latency_snapshot = options_.latency_snapshot();
  }
  violations_.push_back(std::move(v));
}

std::string SanityChecker::Report(const Violation& v) {
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "invariant violation: core %d idle since before %s while core %d has %d "
                "runnable threads (confirmed %s; window: %llu balance calls, %llu "
                "below-local, %llu nothing stealable, %llu designation skips, %llu "
                "migrations)\n",
                v.idle_cpu, FormatTime(v.detected_at).c_str(), v.overloaded_cpu,
                v.overloaded_nr_running, FormatTime(v.confirmed_at).c_str(),
                static_cast<unsigned long long>(v.balance_calls),
                static_cast<unsigned long long>(v.balance_below_local),
                static_cast<unsigned long long>(v.balance_nothing_stealable),
                static_cast<unsigned long long>(v.balance_designation_skips),
                static_cast<unsigned long long>(v.migrations));
  std::string out = buf;
  if (!v.latency_snapshot.empty()) {
    out += "  latency at confirmation: " + v.latency_snapshot + "\n";
  }
  return out;
}

}  // namespace wcores
