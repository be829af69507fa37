// scheduler_lab: a command-line driver for ad-hoc experiments.
//
//   $ ./examples/scheduler_lab --machine=bulldozer --workload=nas:lu:16
//         --pin=1,2 --fix=none --duration=30 --heatmap --checker
//
// Options:
//   --machine=bulldozer | example32 | flat:<nodes>x<cores>   (default bulldozer)
//   --workload=nas:<app>:<threads> | make_r | tpch | hogs:<n>  (default hogs:64)
//   --pin=<node>,<node>,...      taskset the workload to these nodes
//   --fix=none|all|gi,gc,ow,md   which bug fixes to apply (default none)
//   --hotplug=<cpu>              disable+re-enable this core before the run
//   --duration=<seconds>         virtual time budget (default 30)
//   --seed=<n>                   RNG seed (default 1)
//   --heatmap                    print the runqueue-size heatmap at the end
//   --checker                    attach the online sanity checker
//   --no-autogroup               disable autogroups
//
// A malformed or out-of-range number in any option exits 2 with a message
// naming the option.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/sim/simulator.h"
#include "src/tools/heatmap.h"
#include "src/tools/recorder.h"
#include "src/tools/sanity_checker.h"
#include "src/topo/topology.h"
#include "src/workloads/make_r.h"
#include "src/workloads/nas.h"
#include "src/workloads/tpch.h"
#include "src/workloads/transient.h"

using namespace wcores;

namespace {

struct Args {
  std::string machine = "bulldozer";
  std::string workload = "hogs:64";
  std::vector<int> pin_nodes;
  std::string fixes = "none";
  int hotplug_cpu = -1;
  double duration_s = 30;
  uint64_t seed = 1;
  bool heatmap = false;
  bool checker = false;
  bool autogroup = true;
};

bool StartsWith(const char* arg, const char* prefix, const char** value) {
  size_t n = std::strlen(prefix);
  if (std::strncmp(arg, prefix, n) == 0) {
    *value = arg + n;
    return true;
  }
  return false;
}

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  size_t pos = 0;
  while (pos <= s.size()) {
    size_t next = s.find(sep, pos);
    if (next == std::string::npos) {
      parts.push_back(s.substr(pos));
      break;
    }
    parts.push_back(s.substr(pos, next - pos));
    pos = next + 1;
  }
  return parts;
}

// The checked parsers read an empty value as "not given"; on an option that
// was given ("--seed=", "flat:x4", "hogs:") it is a typo like any other.
std::string RequiredString(const char* flag, const std::string& value) {
  if (value.empty()) {
    BadFlagValue(flag, value, "a number");
  }
  return value;
}

int RequiredInt(const char* flag, const std::string& value, long long min_value,
                long long max_value) {
  return static_cast<int>(
      ParseIntFlag(flag, RequiredString(flag, value), 0, min_value, max_value));
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (StartsWith(argv[i], "--machine=", &v)) {
      args.machine = v;
    } else if (StartsWith(argv[i], "--workload=", &v)) {
      args.workload = v;
    } else if (StartsWith(argv[i], "--pin=", &v)) {
      for (const std::string& part : Split(v, ',')) {
        args.pin_nodes.push_back(RequiredInt("pin", part, 0, kMaxCpus));
      }
    } else if (StartsWith(argv[i], "--fix=", &v)) {
      args.fixes = v;
    } else if (StartsWith(argv[i], "--hotplug=", &v)) {
      args.hotplug_cpu = RequiredInt("hotplug", v, 0, kMaxCpus - 1);
    } else if (StartsWith(argv[i], "--duration=", &v)) {
      args.duration_s = ParseDoubleFlag("duration", RequiredString("duration", v), 30, 0, 1e6);
    } else if (StartsWith(argv[i], "--seed=", &v)) {
      args.seed = ParseU64Flag("seed", RequiredString("seed", v), 1);
    } else if (std::strcmp(argv[i], "--heatmap") == 0) {
      args.heatmap = true;
    } else if (std::strcmp(argv[i], "--checker") == 0) {
      args.checker = true;
    } else if (std::strcmp(argv[i], "--no-autogroup") == 0) {
      args.autogroup = false;
    } else {
      std::fprintf(stderr, "unknown option: %s (see the header of this file)\n", argv[i]);
      std::exit(2);
    }
  }
  return args;
}

Topology MakeMachine(const std::string& spec) {
  if (spec == "bulldozer") {
    return Topology::Bulldozer8x8();
  }
  if (spec == "example32") {
    return Topology::Example32();
  }
  const char* v = nullptr;
  if (StartsWith(spec.c_str(), "flat:", &v)) {
    std::vector<std::string> parts = Split(v, 'x');
    if (parts.size() == 2) {
      int nodes = RequiredInt("machine", parts[0], 1, kMaxCpus);
      int cores = RequiredInt("machine", parts[1], 1, kMaxCpus);
      if (nodes * cores > kMaxCpus) {
        BadFlagValue("machine", spec, "flat:NxC with at most 256 cpus in all");
      }
      return Topology::Flat(nodes, cores);
    }
  }
  std::fprintf(stderr, "bad --machine (want bulldozer | example32 | flat:NxC)\n");
  std::exit(2);
}

SchedFeatures MakeFeatures(const std::string& fixes, bool autogroup) {
  SchedFeatures f;
  if (fixes == "all") {
    f = SchedFeatures::AllFixed();
  } else if (fixes != "none") {
    for (const std::string& fix : Split(fixes, ',')) {
      if (fix == "gi") {
        f.fix_group_imbalance = true;
      } else if (fix == "gc") {
        f.fix_group_construction = true;
      } else if (fix == "ow") {
        f.fix_overload_wakeup = true;
      } else if (fix == "md") {
        f.fix_missing_domains = true;
      } else {
        std::fprintf(stderr, "bad --fix token '%s' (want gi,gc,ow,md|all|none)\n", fix.c_str());
        std::exit(2);
      }
    }
  }
  f.autogroup_enabled = autogroup;
  return f;
}

NasApp ParseNasApp(const std::string& name) {
  for (NasApp app : AllNasApps()) {
    if (name == NasAppName(app)) {
      return app;
    }
  }
  std::fprintf(stderr, "unknown NAS app '%s'\n", name.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Args args = Parse(argc, argv);
  Topology topo = MakeMachine(args.machine);

  EventRecorder recorder;
  Simulator::Options options;
  options.features = MakeFeatures(args.fixes, args.autogroup);
  options.seed = args.seed;
  Simulator sim(topo, options, args.heatmap ? &recorder : nullptr);

  if (args.hotplug_cpu >= 0 && args.hotplug_cpu < topo.n_cores()) {
    sim.SetCpuOnline(args.hotplug_cpu, false);
    sim.SetCpuOnline(args.hotplug_cpu, true);
    std::printf("hotplugged core %d (disable + re-enable)\n", args.hotplug_cpu);
  }

  CpuSet pin;
  for (int node : args.pin_nodes) {
    if (node >= 0 && node < topo.n_nodes()) {
      pin |= topo.CpusOfNode(node);
    }
  }

  // Workload setup. The objects must outlive the run.
  std::unique_ptr<NasWorkload> nas;
  std::unique_ptr<MakeRWorkload> make_r;
  std::unique_ptr<TpchWorkload> tpch;
  std::unique_ptr<TransientThreadGenerator> transients;
  std::vector<ThreadId> hogs;

  std::vector<std::string> wparts = Split(args.workload, ':');
  if (wparts[0] == "nas" && wparts.size() >= 2) {
    NasConfig config;
    config.app = ParseNasApp(wparts[1]);
    config.threads =
        wparts.size() >= 3 ? RequiredInt("workload", wparts[2], 1, 65536) : topo.n_cores();
    config.affinity = pin;
    config.spawn_cpu = pin.Empty() ? 0 : pin.First();
    NasWorkload* wl = new NasWorkload(&sim, config);
    nas.reset(wl);
    nas->Setup();
  } else if (wparts[0] == "make_r") {
    make_r = std::make_unique<MakeRWorkload>(&sim, MakeRConfig{});
    make_r->Setup();
  } else if (wparts[0] == "tpch") {
    TpchConfig config;
    config.queries = {TpchQuery18(2.0)};
    tpch = std::make_unique<TpchWorkload>(&sim, config);
    tpch->Setup();
    transients = std::make_unique<TransientThreadGenerator>(
        &sim, TransientThreadGenerator::Options{});
    transients->Start();
  } else if (wparts[0] == "hogs" && wparts.size() >= 2) {
    int n = RequiredInt("workload", wparts[1], 1, 65536);
    for (int i = 0; i < n; ++i) {
      Simulator::SpawnParams params;
      params.parent_cpu = pin.Empty() ? 0 : pin.First();
      params.affinity = pin;
      hogs.push_back(sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{
                                   ComputeAction{Milliseconds(500)}}),
                               params));
    }
  } else {
    std::fprintf(stderr, "bad --workload (want nas:<app>:<n> | make_r | tpch | hogs:<n>)\n");
    return 2;
  }

  std::unique_ptr<SanityChecker> checker;
  if (args.checker) {
    SanityChecker::Options copts;
    copts.check_interval = Milliseconds(250);
    checker = std::make_unique<SanityChecker>(&sim, copts);
    checker->Start();
  }

  sim.Run(Seconds(static_cast<uint64_t>(args.duration_s * 1000)) / 1000);

  // ---- Report ----------------------------------------------------------------
  std::printf("machine %s, fixes=%s, seed=%llu, ran to t=%s\n", args.machine.c_str(),
              args.fixes.c_str(), static_cast<unsigned long long>(args.seed),
              FormatTime(sim.Now()).c_str());
  if (nas != nullptr) {
    std::printf("nas %s: %s, completion %.3fs, spin %.3fs\n", wparts[1].c_str(),
                nas->Finished() ? "finished" : "STILL RUNNING",
                ToSeconds(nas->CompletionTime()), ToSeconds(nas->TotalSpinTime()));
  }
  if (make_r != nullptr) {
    std::printf("make: %s, completion %.3fs\n",
                make_r->MakeFinished() ? "finished" : "STILL RUNNING",
                ToSeconds(make_r->MakeCompletionTime()));
  }
  if (tpch != nullptr) {
    std::printf("tpch: %s, total %.3fs over %zu queries\n",
                tpch->Finished() ? "finished" : "STILL RUNNING", ToSeconds(tpch->TotalTime()),
                tpch->QueryTimes().size());
  }
  if (!hogs.empty()) {
    int done = 0;
    for (ThreadId tid : hogs) {
      done += sim.thread(tid).Alive() ? 0 : 1;
    }
    std::printf("hogs: %d/%zu finished\n", done, hogs.size());
  }

  const SchedStats& stats = sim.sched().stats();
  std::printf("migrations %llu, wakeups %llu (%llu onto busy cores), balance calls %llu\n",
              static_cast<unsigned long long>(stats.TotalMigrations()),
              static_cast<unsigned long long>(stats.wakeups),
              static_cast<unsigned long long>(stats.wakeups_on_busy),
              static_cast<unsigned long long>(stats.balance_calls));

  if (checker != nullptr) {
    std::printf("sanity checker: %llu checks, %llu confirmed violations\n",
                static_cast<unsigned long long>(checker->checks_run()),
                static_cast<unsigned long long>(checker->violations().size()));
    if (!checker->violations().empty()) {
      std::printf("%s", SanityChecker::Report(checker->violations().front()).c_str());
    }
  }
  if (args.heatmap) {
    Heatmap map = BuildHeatmap(recorder.events(), TraceEvent::Kind::kNrRunning, topo.n_cores(),
                               0, sim.Now(), 100);
    std::printf("\nrunqueue sizes over time:\n%s",
                HeatmapToAscii(map, topo.cores_per_node(), 3.0).c_str());
  }
  return 0;
}
