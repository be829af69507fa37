// Host clocks, the span ledger and the forwarding wrappers of the traced run.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>

#include "simbench/simbench.h"

namespace simbench {

using wcores::CpuId;
using wcores::CpuSet;
using wcores::SchedEntity;
using wcores::ThreadId;
using wcores::Time;

// ---- Host clocks -----------------------------------------------------------

uint64_t HostNowNs() {
  // wc-lint: allow(D3 benchmark host timing; the value goes to span totals and metrics only, never into a simulation) allow(A1 the timing wrappers read the clock around forwarded trace callbacks but pass only the simulation's own arguments through)
  auto now = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
}

double ProcessCpuSeconds() {
  timespec ts{};
  // wc-lint: allow(D3 benchmark CPU-time metric beside wall time; host-side only) allow(A1 cpu_s is printed as a metric and never reaches a trace sink)
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
}

// ---- Layer names ------------------------------------------------------------

std::string LayerName(int layer) {
  static const char* const kHookNames[kHookCount] = {
      "wake_select",    "fork_select",      "pick_next",       "tick_preempt",
      "wakeup_preempt", "balance_periodic", "balance_newidle", "balance_nohz",
  };
  static const char* const kFixed[kHookBase] = {
      "setup",
      "sweep.expand_grid",
      "sweep.manifest_write",
      "sweep.manifest_load",
      "sample",
      "sweep.shard",
      "trend.load_store",
      "trend.merge",
      "run",
      "scenario",
      "topo.build",
      "sim.construct",
      "telemetry.stream.construct",
      "workloads.setup",
      "simkit.dispatch",
      "sim.destroy",
      "sweep.trace_hash.considered",
      "sweep.trace_hash.other",
      "telemetry.stream.switch",
      "telemetry.stream.other",
      "telemetry.stream.finish",
  };
  static const char* const kFamilies[kFamilyCount] = {"core.", "modsched.o1.",
                                                      "modsched.coreidle."};
  if (layer < 0) {
    return "";
  }
  if (layer < kHookBase) {
    return kFixed[layer];
  }
  int h = layer - kHookBase;
  return std::string(kFamilies[h / kHookCount]) + kHookNames[h % kHookCount];
}

// ---- SpanLedger ------------------------------------------------------------------

void SpanLedger::Enter(int layer, bool keep, const std::string& label) {
  if (depth_ >= kMaxDepth) {
    std::fprintf(stderr, "simbench: span stack overflow at %s\n", LayerName(layer).c_str());
    std::abort();
  }
  int kept_index = -1;
  if (keep) {
    int parent = -1;
    for (int d = depth_ - 1; d >= 0 && parent < 0; --d) {
      parent = stack_[d].kept_index;
    }
    kept_index = static_cast<int>(kept_.size());
    kept_.push_back(Kept{layer, parent, label, 0, 0, 0});
  }
  stack_[depth_++] = Frame{layer, kept_index, HostNowNs(), 0};
}

void SpanLedger::Exit() {
  uint64_t end = HostNowNs();
  Frame f = stack_[--depth_];
  uint64_t dur = end - f.start_ns;
  int parent = depth_ > 0 ? stack_[depth_ - 1].layer : kNoLayer;
  Cell& cell = cells_[f.layer][parent + 1];
  cell.calls += 1;
  cell.total_ns += dur;
  cell.child_ns += f.child_ns;
  if (depth_ > 0) {
    stack_[depth_ - 1].child_ns += dur;
  }
  if (f.kept_index >= 0) {
    Kept& k = kept_[static_cast<size_t>(f.kept_index)];
    k.start_ns = f.start_ns;
    k.end_ns = end;
    k.child_ns = f.child_ns;
  }
}

SpanLedger::Cell SpanLedger::Total(int layer) const {
  Cell sum;
  for (const Cell& c : cells_[layer]) {
    sum.calls += c.calls;
    sum.total_ns += c.total_ns;
    sum.child_ns += c.child_ns;
  }
  return sum;
}

uint64_t SpanLedger::SelfNs(int layer) const {
  Cell c = Total(layer);
  return c.total_ns - c.child_ns;
}

bool SpanLedger::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (int layer = 0; layer < kLayerCount; ++layer) {
    for (int p = 0; p <= kLayerCount; ++p) {
      const Cell& c = cells_[layer][p];
      if (c.calls == 0) {
        continue;
      }
      std::fprintf(f,
                   "{\"folded\":\"%s\",\"parent\":\"%s\",\"calls\":%llu,\"total_ns\":%llu,"
                   "\"self_ns\":%llu}\n",
                   LayerName(layer).c_str(), LayerName(p - 1).c_str(),
                   static_cast<unsigned long long>(c.calls),
                   static_cast<unsigned long long>(c.total_ns),
                   static_cast<unsigned long long>(c.total_ns - c.child_ns));
    }
  }
  for (size_t i = 0; i < kept_.size(); ++i) {
    const Kept& k = kept_[i];
    std::fprintf(f,
                 "{\"span\":%zu,\"name\":\"%s\",\"label\":\"%s\",\"parent\":%d,"
                 "\"start_ns\":%llu,\"end_ns\":%llu,\"self_ns\":%llu}\n",
                 i, LayerName(k.layer).c_str(), k.label.c_str(), k.parent,
                 static_cast<unsigned long long>(k.start_ns),
                 static_cast<unsigned long long>(k.end_ns),
                 static_cast<unsigned long long>(k.end_ns - k.start_ns - k.child_ns));
  }
  return std::fclose(f) == 0;
}

// ---- TimedPolicy -------------------------------------------------------------

void TimedPolicy::Attach(wcores::Scheduler* sched) {
  SchedPolicy::Attach(sched);
  inner_->Attach(sched);
}

CpuId TimedPolicy::SelectWakeCpu(Time now, const SchedEntity& se, CpuId waker_cpu,
                                 CpuSet* considered) {
  Span span(ledger_, Layer(kWakeSelect));
  return inner_->SelectWakeCpu(now, se, waker_cpu, considered);
}

CpuId TimedPolicy::SelectForkCpu(Time now, const SchedEntity& se, CpuId parent_cpu) {
  Span span(ledger_, Layer(kForkSelect));
  return inner_->SelectForkCpu(now, se, parent_cpu);
}

SchedEntity* TimedPolicy::PickNextEntity(Time now, CpuId cpu) {
  Span span(ledger_, Layer(kPickNext));
  return inner_->PickNextEntity(now, cpu);
}

bool TimedPolicy::TickPreempt(Time now, CpuId cpu) {
  Span span(ledger_, Layer(kTickPreempt));
  return inner_->TickPreempt(now, cpu);
}

bool TimedPolicy::WakeupPreempts(Time now, CpuId cpu, const SchedEntity& woken) {
  Span span(ledger_, Layer(kWakeupPreempt));
  return inner_->WakeupPreempts(now, cpu, woken);
}

void TimedPolicy::PeriodicBalance(Time now, CpuId cpu) {
  Span span(ledger_, Layer(kBalancePeriodic));
  inner_->PeriodicBalance(now, cpu);
}

void TimedPolicy::NewIdleBalance(Time now, CpuId cpu) {
  Span span(ledger_, Layer(kBalanceNewidle));
  inner_->NewIdleBalance(now, cpu);
}

void TimedPolicy::NohzBalance(Time now, CpuId cpu) {
  Span span(ledger_, Layer(kBalanceNohz));
  inner_->NohzBalance(now, cpu);
}

void TimedPolicy::OnRqEnqueue(Time now, CpuId cpu, SchedEntity* se,
                              wcores::CfsRunqueue::EnqueueKind kind) {
  inner_->OnRqEnqueue(now, cpu, se, kind);
}

void TimedPolicy::OnRqDequeue(Time now, CpuId cpu, SchedEntity* se) {
  inner_->OnRqDequeue(now, cpu, se);
}

void TimedPolicy::OnRqPick(Time now, CpuId cpu, SchedEntity* se) {
  inner_->OnRqPick(now, cpu, se);
}

void TimedPolicy::OnRqReweight(Time now, CpuId cpu, SchedEntity* se, int old_nice) {
  inner_->OnRqReweight(now, cpu, se, old_nice);
}

// ---- TimedSink -------------------------------------------------------------------

void TimedSink::OnNrRunning(Time now, CpuId cpu, int nr_running) {
  Span span(ledger_, Other());
  inner_->OnNrRunning(now, cpu, nr_running);
}

void TimedSink::OnLoad(Time now, CpuId cpu, double load) {
  Span span(ledger_, Other());
  inner_->OnLoad(now, cpu, load);
}

void TimedSink::OnConsidered(Time now, CpuId initiator, const CpuSet& considered,
                             wcores::ConsideredKind kind) {
  Span span(ledger_, Considered());
  inner_->OnConsidered(now, initiator, considered, kind);
}

void TimedSink::OnMigration(Time now, ThreadId tid, CpuId from, CpuId to,
                            wcores::MigrationReason reason) {
  Span span(ledger_, Other());
  inner_->OnMigration(now, tid, from, to, reason);
}

void TimedSink::OnSwitchIn(Time now, CpuId cpu, ThreadId tid, Time waited) {
  Span span(ledger_, Switch());
  inner_->OnSwitchIn(now, cpu, tid, waited);
}

void TimedSink::OnSwitchOut(Time now, CpuId cpu, ThreadId tid, Time ran, bool still_runnable) {
  Span span(ledger_, Switch());
  inner_->OnSwitchOut(now, cpu, tid, ran, still_runnable);
}

void TimedSink::OnWakeupLatency(Time now, CpuId cpu, ThreadId tid, Time latency) {
  Span span(ledger_, Other());
  inner_->OnWakeupLatency(now, cpu, tid, latency);
}

void TimedSink::OnIdleEnter(Time now, CpuId cpu) {
  Span span(ledger_, Other());
  inner_->OnIdleEnter(now, cpu);
}

void TimedSink::OnIdleExit(Time now, CpuId cpu, Time idle_for) {
  Span span(ledger_, Other());
  inner_->OnIdleExit(now, cpu, idle_for);
}

}  // namespace simbench
