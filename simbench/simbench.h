// The simulator benchmark: host-time measurement of the program's public
// entry points (RunSweep, RunShard, RunScenario) plus an outside-in traced
// replica that attributes host time to the program's layers.
//
// Everything here lives outside the program. The traced replica rebuilds a
// scenario from public APIs only (Topology, the Simulator constructor, the
// workload Setup()s), drives it one event at a time, and wraps the
// registered SchedPolicy and the attached TraceSinks in forwarding wrappers
// that time each call. The wrappers forward every argument and return value
// unchanged, so the replica's trace digest must equal RunScenario's; the
// benchmark checks that on every run. No host-time value ever reaches the
// simulation or its trace.
#ifndef SIMBENCH_SIMBENCH_H_
#define SIMBENCH_SIMBENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/sched_policy.h"
#include "src/core/stats.h"
#include "src/core/trace.h"
#include "src/tools/sweep/scenario.h"

namespace simbench {

// ---- Host clocks -----------------------------------------------------------

uint64_t HostNowNs();         // Monotonic host time.
double ProcessCpuSeconds();   // CPU time of the whole process.
double PeakRssMb();           // Peak resident set size of the process.

// ---- Layers ------------------------------------------------------------------

// The eight SchedPolicy decision hooks, in metric-name order.
enum Hook : int {
  kWakeSelect,
  kForkSelect,
  kPickNext,
  kTickPreempt,
  kWakeupPreempt,
  kBalancePeriodic,
  kBalanceNewidle,
  kBalanceNohz,
  kHookCount,
};

// Policy families whose hooks are timed separately: CFS is the core layer,
// the two modular policies are the modsched layer.
enum Family : int { kCfs, kO1, kCoreidle, kFamilyCount };

// Span names. Each is a module-prefixed layer boundary; hook spans are
// laid out family-major after kHookBase.
enum Layer : int {
  kNoLayer = -1,
  kSetup = 0,           // One benchmark set-up (input generation).
  kExpandGrid,          // ExpandGrid.
  kManifestWrite,       // WriteManifest.
  kManifestLoad,        // LoadManifest.
  kSample,              // One sample through the public entry points.
  kShard,               // RunShard.
  kLoadStore,           // LoadResultsStore.
  kMerge,               // MergeResults.
  kRun,                 // One traced replica pass over a workload.
  kScenario,            // One scenario of that pass.
  kTopoBuild,           // Topology construction.
  kSimConstruct,        // Policy instance + Simulator constructor.
  kStreamConstruct,     // TelemetryStream construction.
  kWorkloadsSetup,      // Workload Setup(): thread spawning.
  kDispatch,            // One EventQueue::RunOne.
  kSimDestroy,          // Simulator, policy and sink teardown.
  kHashConsidered,      // TraceHashSink::OnConsidered.
  kHashOther,           // Every other TraceHashSink callback.
  kStreamSwitch,        // TelemetryStream::OnSwitchIn/OnSwitchOut.
  kStreamOther,         // Every other TelemetryStream callback.
  kStreamFinish,        // TelemetryStream::Finish.
  kHookBase,
  kLayerCount = kHookBase + static_cast<int>(kFamilyCount) * static_cast<int>(kHookCount),
};

inline int HookLayer(Family family, Hook hook) {
  return kHookBase + static_cast<int>(family) * static_cast<int>(kHookCount) + static_cast<int>(hook);
}
std::string LayerName(int layer);

// In-memory span recorder. Spans nest through a stack; each span's parent
// is the span open when it began, and its self time is its duration minus
// the durations of its direct children. Every span is folded into a
// (layer, parent) total, so millions of per-event spans cost O(1) memory.
// Spans opened with keep=true (scenario and phase level) are also stored
// individually. Write() emits both as JSON lines.
class SpanLedger {
 public:
  struct Cell {
    uint64_t calls = 0;
    uint64_t total_ns = 0;
    uint64_t child_ns = 0;
  };

  void Enter(int layer, bool keep = false, const std::string& label = "");
  void Exit();

  // Folded totals of `layer` over all parents.
  Cell Total(int layer) const;
  uint64_t SelfNs(int layer) const;

  bool Write(const std::string& path) const;

 private:
  struct Kept {
    int layer = 0;
    int parent = -1;  // Index into kept_, -1 at the top.
    std::string label;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint64_t child_ns = 0;
  };
  struct Frame {
    int layer;
    int kept_index;
    uint64_t start_ns;
    uint64_t child_ns;
  };
  static constexpr int kMaxDepth = 16;
  // cells_[layer][parent + 1]; column 0 is "no parent".
  Cell cells_[kLayerCount][kLayerCount + 1] = {};
  Frame stack_[kMaxDepth] = {};
  int depth_ = 0;
  std::vector<Kept> kept_;
};

// RAII span.
class Span {
 public:
  Span(SpanLedger* ledger, int layer, bool keep = false, const std::string& label = "")
      : ledger_(ledger) {
    ledger_->Enter(layer, keep, label);
  }
  ~Span() { ledger_->Exit(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLedger* ledger_;
};

// ---- Forwarding wrappers ----------------------------------------------------

// Wraps a registered policy: forwards Attach, WantsQueueEvents and the
// RqObserver events untimed, and times each of the eight decision hooks
// under the policy's family.
class TimedPolicy : public wcores::SchedPolicy {
 public:
  TimedPolicy(std::unique_ptr<wcores::SchedPolicy> inner, Family family, SpanLedger* ledger)
      : inner_(std::move(inner)), family_(family), ledger_(ledger) {}

  const char* name() const override { return inner_->name(); }
  void Attach(wcores::Scheduler* sched) override;
  bool WantsQueueEvents() const override { return inner_->WantsQueueEvents(); }

  wcores::CpuId SelectWakeCpu(wcores::Time now, const wcores::SchedEntity& se,
                              wcores::CpuId waker_cpu, wcores::CpuSet* considered) override;
  wcores::CpuId SelectForkCpu(wcores::Time now, const wcores::SchedEntity& se,
                              wcores::CpuId parent_cpu) override;
  wcores::SchedEntity* PickNextEntity(wcores::Time now, wcores::CpuId cpu) override;
  bool TickPreempt(wcores::Time now, wcores::CpuId cpu) override;
  bool WakeupPreempts(wcores::Time now, wcores::CpuId cpu,
                      const wcores::SchedEntity& woken) override;
  void PeriodicBalance(wcores::Time now, wcores::CpuId cpu) override;
  void NewIdleBalance(wcores::Time now, wcores::CpuId cpu) override;
  void NohzBalance(wcores::Time now, wcores::CpuId cpu) override;

  void OnRqEnqueue(wcores::Time now, wcores::CpuId cpu, wcores::SchedEntity* se,
                   wcores::CfsRunqueue::EnqueueKind kind) override;
  void OnRqDequeue(wcores::Time now, wcores::CpuId cpu, wcores::SchedEntity* se) override;
  void OnRqPick(wcores::Time now, wcores::CpuId cpu, wcores::SchedEntity* se) override;
  void OnRqReweight(wcores::Time now, wcores::CpuId cpu, wcores::SchedEntity* se,
                    int old_nice) override;

 private:
  int Layer(Hook hook) const { return HookLayer(family_, hook); }

  std::unique_ptr<wcores::SchedPolicy> inner_;
  Family family_;
  SpanLedger* ledger_;
};

// Wraps one TraceSink: every callback is forwarded unchanged and timed,
// under `hot_layer` for the callbacks `hot` selects (OnConsidered, or the
// two switch callbacks) and under `other_layer` for the rest.
class TimedSink : public wcores::TraceSink {
 public:
  enum HotSet { kConsideredHot, kSwitchHot };
  TimedSink(wcores::TraceSink* inner, HotSet hot, int hot_layer, int other_layer,
            SpanLedger* ledger)
      : inner_(inner), hot_(hot), hot_layer_(hot_layer), other_layer_(other_layer),
        ledger_(ledger) {}

  void OnNrRunning(wcores::Time now, wcores::CpuId cpu, int nr_running) override;
  void OnLoad(wcores::Time now, wcores::CpuId cpu, double load) override;
  void OnConsidered(wcores::Time now, wcores::CpuId initiator, const wcores::CpuSet& considered,
                    wcores::ConsideredKind kind) override;
  void OnMigration(wcores::Time now, wcores::ThreadId tid, wcores::CpuId from, wcores::CpuId to,
                   wcores::MigrationReason reason) override;
  void OnSwitchIn(wcores::Time now, wcores::CpuId cpu, wcores::ThreadId tid,
                  wcores::Time waited) override;
  void OnSwitchOut(wcores::Time now, wcores::CpuId cpu, wcores::ThreadId tid, wcores::Time ran,
                   bool still_runnable) override;
  void OnWakeupLatency(wcores::Time now, wcores::CpuId cpu, wcores::ThreadId tid,
                       wcores::Time latency) override;
  void OnIdleEnter(wcores::Time now, wcores::CpuId cpu) override;
  void OnIdleExit(wcores::Time now, wcores::CpuId cpu, wcores::Time idle_for) override;

 private:
  int Other() const { return other_layer_; }
  int Considered() const { return hot_ == kConsideredHot ? hot_layer_ : other_layer_; }
  int Switch() const { return hot_ == kSwitchHot ? hot_layer_ : other_layer_; }

  wcores::TraceSink* inner_;
  HotSet hot_;
  int hot_layer_;
  int other_layer_;
  SpanLedger* ledger_;
};

// ---- Replica -------------------------------------------------------------------

// What a replica run reduces to; the fields mirror ScenarioResult's
// deterministic part.
struct ReplicaResult {
  std::string name;
  Family family = kCfs;
  uint64_t trace_hash = 0;
  uint64_t trace_events = 0;
  uint64_t sim_events = 0;
  bool all_exited = false;
  std::map<std::string, double> metrics;  // "finished" / "make_finished" flags.
  // Stream reduction (Scenario::stream only).
  uint64_t stream_events = 0;
  uint64_t stream_ring_dropped = 0;
  uint64_t stream_agg_bytes_peak = 0;
  bool stream_within_budget = true;
  // Scheduler counters, for the core ratio metrics.
  wcores::SchedStats stats;
};

// Rebuilds `scenario` from public APIs, wraps its policy and sinks in the
// timing wrappers recording into `ledger`, and runs it one event at a time
// to the horizon. Mirrors RunScenario exactly; the digest must match.
ReplicaResult RunReplica(const wcores::Scenario& scenario, SpanLedger* ledger);

}  // namespace simbench

#endif  // SIMBENCH_SIMBENCH_H_
