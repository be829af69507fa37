// TraceHashSink's encoding spelled out with the general Fnv1a::Mix: every
// cpu id of a considered set is folded by its own Mix call, walked with
// First()/Next(). Differential tests run it beside TraceHashSink (directly,
// or through MultiSink) and require equal digests, so the one-multiply
// considered-set fold and the CpuSet iterator can never move a golden hash.
#ifndef TESTS_TOOLS_REFERENCE_HASH_SINK_H_
#define TESTS_TOOLS_REFERENCE_HASH_SINK_H_

#include <cstdint>

#include "src/core/trace.h"
#include "src/tools/sweep/trace_hash.h"

namespace wcores {

class ReferenceHashSink : public TraceSink {
 public:
  uint64_t digest() const { return fnv_.digest(); }
  uint64_t events() const { return events_; }

  void OnNrRunning(Time now, CpuId cpu, int nr_running) override {
    Tag(1, now);
    fnv_.Mix(static_cast<uint64_t>(cpu));
    fnv_.Mix(static_cast<uint64_t>(nr_running));
  }
  void OnLoad(Time now, CpuId cpu, double load) override {
    Tag(2, now);
    fnv_.Mix(static_cast<uint64_t>(cpu));
    fnv_.MixDouble(load);
  }
  void OnConsidered(Time now, CpuId initiator, const CpuSet& considered,
                    ConsideredKind kind) override {
    Tag(3, now);
    fnv_.Mix(static_cast<uint64_t>(initiator));
    fnv_.Mix(static_cast<uint64_t>(kind));
    for (CpuId c = considered.First(); c != kInvalidCpu; c = considered.Next(c)) {
      fnv_.Mix(static_cast<uint64_t>(c));
    }
  }
  void OnMigration(Time now, ThreadId tid, CpuId from, CpuId to,
                   MigrationReason reason) override {
    Tag(4, now);
    fnv_.Mix(static_cast<uint64_t>(tid));
    fnv_.Mix(static_cast<uint64_t>(from));
    fnv_.Mix(static_cast<uint64_t>(to));
    fnv_.Mix(static_cast<uint64_t>(reason));
  }
  void OnSwitchIn(Time now, CpuId cpu, ThreadId tid, Time waited) override {
    Tag(5, now);
    fnv_.Mix(static_cast<uint64_t>(cpu));
    fnv_.Mix(static_cast<uint64_t>(tid));
    fnv_.Mix(waited);
  }
  void OnSwitchOut(Time now, CpuId cpu, ThreadId tid, Time ran, bool still_runnable) override {
    Tag(6, now);
    fnv_.Mix(static_cast<uint64_t>(cpu));
    fnv_.Mix(static_cast<uint64_t>(tid));
    fnv_.Mix(ran);
    fnv_.Mix(still_runnable ? 1 : 0);
  }
  void OnWakeupLatency(Time now, CpuId cpu, ThreadId tid, Time latency) override {
    Tag(7, now);
    fnv_.Mix(static_cast<uint64_t>(cpu));
    fnv_.Mix(static_cast<uint64_t>(tid));
    fnv_.Mix(latency);
  }
  void OnIdleEnter(Time now, CpuId cpu) override {
    Tag(8, now);
    fnv_.Mix(static_cast<uint64_t>(cpu));
  }
  void OnIdleExit(Time now, CpuId cpu, Time idle_for) override {
    Tag(9, now);
    fnv_.Mix(static_cast<uint64_t>(cpu));
    fnv_.Mix(idle_for);
  }

 private:
  void Tag(uint64_t tag, Time now) {
    fnv_.Mix(tag);
    fnv_.Mix(now);
    ++events_;
  }

  Fnv1a fnv_;
  uint64_t events_ = 0;
};

}  // namespace wcores

#endif  // TESTS_TOOLS_REFERENCE_HASH_SINK_H_
