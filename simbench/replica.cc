// The traced replica: RunScenario rebuilt from public APIs, with every
// layer boundary wrapped in a span.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "simbench/simbench.h"
#include "src/modsched/policy_registry.h"
#include "src/sim/simulator.h"
#include "src/simkit/rng.h"
#include "src/telemetry/stream/stream_sink.h"
#include "src/tools/recorder.h"
#include "src/tools/sweep/trace_hash.h"
#include "src/topo/topology.h"
#include "src/workloads/make_r.h"
#include "src/workloads/nas.h"
#include "src/workloads/tpch.h"

namespace simbench {

using wcores::Scenario;
using wcores::Simulator;
using wcores::Topology;

namespace {

Topology MakeTopo(Scenario::Topo topo) {
  switch (topo) {
    case Scenario::Topo::kBulldozer8x8:
      return Topology::Bulldozer8x8();
    case Scenario::Topo::kFlat1x4:
      return Topology::Flat(1, 4);
    case Scenario::Topo::kFlat2x4:
      return Topology::Flat(2, 4);
    case Scenario::Topo::kFlat4x8:
      return Topology::Flat(4, 8);
  }
  return Topology::Flat(1, 4);
}

Family FamilyOf(const std::string& policy) {
  if (policy == "o1") {
    return kO1;
  }
  if (policy == "coreidle") {
    return kCoreidle;
  }
  return kCfs;
}

// Owns whichever workload object a scenario builds (behaviors point into
// it) and reads its completion flags back after the run.
struct WorkloadHolder {
  std::unique_ptr<wcores::MakeRWorkload> make_r;
  std::unique_ptr<wcores::TpchWorkload> tpch;
  std::unique_ptr<wcores::NasWorkload> nas;

  void Flags(std::map<std::string, double>* metrics) const {
    if (make_r) {
      (*metrics)["make_finished"] = make_r->MakeFinished() ? 1 : 0;
    }
    if (tpch) {
      (*metrics)["finished"] = tpch->Finished() ? 1 : 0;
    }
    if (nas) {
      (*metrics)["finished"] = nas->Finished() ? 1 : 0;
    }
  }
};

// The same inputs scenario.cc's Setup* functions derive from a Scenario.
void SetupWorkload(Simulator& sim, const Scenario& s, WorkloadHolder* holder) {
  switch (s.workload) {
    case Scenario::Workload::kMakeR: {
      wcores::MakeRConfig config;
      config.make_work_per_thread = static_cast<wcores::Time>(wcores::Milliseconds(400) * s.scale);
      config.r_work = static_cast<wcores::Time>(wcores::Seconds(3) * s.scale);
      holder->make_r = std::make_unique<wcores::MakeRWorkload>(&sim, config);
      holder->make_r->Setup();
      return;
    }
    case Scenario::Workload::kTpchQ18: {
      wcores::TpchConfig config;
      config.queries = {wcores::TpchQuery18(s.scale)};
      config.seed = s.seed;
      holder->tpch = std::make_unique<wcores::TpchWorkload>(&sim, config);
      holder->tpch->Setup();
      return;
    }
    case Scenario::Workload::kNas: {
      wcores::NasConfig config;
      config.app = s.nas_app;
      config.threads = s.nas_threads;
      config.scale = s.scale;
      holder->nas = std::make_unique<wcores::NasWorkload>(&sim, config);
      holder->nas->Setup();
      return;
    }
    case Scenario::Workload::kRandomMix: {
      uint64_t sm = s.seed;
      wcores::Rng rng(wcores::SplitMix64(sm));
      int n_cores = sim.topo().n_cores();
      for (int i = 0; i < s.mix_threads; ++i) {
        Simulator::SpawnParams params;
        params.parent_cpu =
            static_cast<wcores::CpuId>(rng.NextBelow(static_cast<uint64_t>(n_cores)));
        params.nice = static_cast<int>(rng.NextBelow(5)) - 2;
        if (rng.NextBool(0.2)) {
          params.affinity = wcores::CpuSet::Single(static_cast<wcores::CpuId>(
              rng.NextBelow(static_cast<uint64_t>(n_cores))));
        }
        std::vector<wcores::Action> script;
        if (rng.NextBool(0.4)) {
          script = {wcores::ComputeAction{static_cast<wcores::Time>(wcores::Seconds(2) * s.scale)}};
          sim.Spawn(std::make_unique<wcores::ScriptBehavior>(std::move(script)), params);
        } else {
          script = {wcores::ComputeAction{
                        rng.NextTime(wcores::Microseconds(500), wcores::Milliseconds(4))},
                    wcores::SleepAction{
                        rng.NextTime(wcores::Microseconds(100), wcores::Milliseconds(2))}};
          sim.Spawn(std::make_unique<wcores::ScriptBehavior>(std::move(script), /*repeat=*/400),
                    params);
        }
      }
      return;
    }
  }
}

}  // namespace

ReplicaResult RunReplica(const Scenario& scenario, SpanLedger* ledger) {
  Span scenario_span(ledger, kScenario, /*keep=*/true, scenario.name);

  std::unique_ptr<Topology> topo;
  {
    Span span(ledger, kTopoBuild, true);
    topo = std::make_unique<Topology>(MakeTopo(scenario.topo));
  }

  wcores::TraceHashSink hash;
  TimedSink timed_hash(&hash, TimedSink::kConsideredHot, kHashConsidered, kHashOther, ledger);
  std::unique_ptr<wcores::TelemetryStream> stream;
  std::unique_ptr<TimedSink> timed_stream;
  wcores::MultiSink multi;
  wcores::TraceSink* sink = &timed_hash;
  if (scenario.stream) {
    Span span(ledger, kStreamConstruct, true);
    stream = std::make_unique<wcores::TelemetryStream>(
        wcores::TelemetryStream::ForTopology(*topo, scenario.stream_horizon));
    timed_stream = std::make_unique<TimedSink>(stream.get(), TimedSink::kSwitchHot, kStreamSwitch,
                                               kStreamOther, ledger);
    multi.Add(&timed_hash);
    multi.Add(timed_stream.get());
    sink = &multi;
  }

  std::unique_ptr<TimedPolicy> policy;
  std::unique_ptr<Simulator> sim;
  {
    Span span(ledger, kSimConstruct, true);
    Simulator::Options opts;
    opts.features = scenario.features;
    opts.seed = scenario.seed;
    // An empty policy name selects the scheduler's built-in CfsPolicy in
    // RunScenario; the replica wraps an explicit CfsPolicy instead, which
    // cfs_bitexact_test holds byte-identical to it.
    std::unique_ptr<wcores::SchedPolicy> inner =
        scenario.policy.empty() ? std::make_unique<wcores::CfsPolicy>()
                                : wcores::CreateSchedPolicy(scenario.policy);
    if (inner == nullptr) {
      std::fprintf(stderr, "simbench: unknown policy %s\n", scenario.policy.c_str());
      std::abort();
    }
    policy = std::make_unique<TimedPolicy>(std::move(inner), FamilyOf(scenario.policy), ledger);
    opts.policy = policy.get();
    sim = std::make_unique<Simulator>(*topo, opts, sink);
  }

  WorkloadHolder holder;
  {
    Span span(ledger, kWorkloadsSetup, true);
    SetupWorkload(*sim, scenario, &holder);
  }

  for (;;) {
    Span span(ledger, kDispatch);
    if (!sim->queue().RunOne(scenario.horizon)) {
      break;
    }
  }

  ReplicaResult result;
  result.name = scenario.name;
  result.family = FamilyOf(scenario.policy);
  result.trace_hash = hash.digest();
  result.trace_events = hash.events();
  result.sim_events = sim->queue().executed_count();
  result.all_exited = sim->alive_threads() == 0;
  result.stats = sim->sched().stats();
  holder.Flags(&result.metrics);
  if (stream) {
    {
      Span span(ledger, kStreamFinish, true);
      stream->Finish(sim->Now());
    }
    const wcores::StreamAnalyzer& a = stream->analyzer();
    result.stream_events = a.events();
    result.stream_ring_dropped = stream->ring().dropped();
    result.stream_agg_bytes_peak = a.PeakAggregatorBytes();
    result.stream_within_budget = a.WithinBudget();
  }
  {
    Span span(ledger, kSimDestroy, true);
    holder = WorkloadHolder();
    sim.reset();
    policy.reset();
    stream.reset();
  }
  return result;
}

}  // namespace simbench
