// simbench: the simulator's benchmark command.
//
//   simbench --workload=NAME --seed=N --seconds=S --trace=0|1 --work-dir=DIR
//
// Workloads (each runs on one host thread; --seed re-seeds only the
// generated inputs):
//   paper_matrix  FigureScenarios(kMatrixScale) through RunSweep.
//   fleet_grid    the 540-instance DefaultFleetGrid through RunShard, then
//                 LoadResultsStore + MergeResults.
//   stream_soak   one deep-queue random mix with streaming telemetry on,
//                 through RunScenario.
//
// --trace=0 sets up the workload several times (median = setup_s), then
// runs timed samples until --seconds is used and reports the end-to-end
// metrics as medians over the samples. --trace=1 runs one untimed sample and then the traced
// replica (simbench.h), and reports the per-layer metrics. Both modes check
// outputs: digests identical across samples and equal to the replica's,
// plus the per-workload checks below. The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}; any failed check
// makes the exit status 1.
#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "simbench/simbench.h"
#include "src/tools/sweep/grid.h"
#include "src/tools/sweep/manifest.h"
#include "src/tools/sweep/receipts.h"
#include "src/tools/sweep/shard.h"
#include "src/tools/sweep/sweep.h"
#include "src/tools/trend/trend.h"

namespace simbench {
namespace {

using wcores::Scenario;
using wcores::ScenarioResult;

// The default input seed; every generated seed equals its built-in value at
// this seed. kHeldOutSeed is reserved for confirming gain claims and is not
// to be used while tuning a change.
constexpr uint64_t kDefaultSeed = 1;
constexpr uint64_t kHeldOutSeed = 7919;

// FigureScenarios scale: one paper_matrix sample is a few host seconds.
constexpr double kMatrixScale = 8.0;

// stream_soak: ~32 runnable threads per cpu of the 64-cpu Bulldozer.
constexpr int kSoakThreads = 2048;
constexpr uint64_t kSoakBaseSeed = 2016;
constexpr wcores::Time kSoakHorizon = wcores::Seconds(3);

// Set-up repeats per run: at least kSetupMinRepeats, then more until
// kSetupBudgetNs is spent (set-up ranges from microseconds for the matrix to
// milliseconds for the fleet manifest). setup_s is their median.
constexpr int kSetupMinRepeats = 5;
constexpr int kSetupMaxRepeats = 2000;
constexpr uint64_t kSetupBudgetNs = 200'000'000;

// ---- Small helpers -------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::max<size_t>(rank, 1) - 1];
}

double Min(const std::vector<double>& v) { return *std::min_element(v.begin(), v.end()); }
double Max(const std::vector<double>& v) { return *std::max_element(v.begin(), v.end()); }

double Frac(double num, double den) { return den > 0 ? num / den : 0; }

// Same fold as SweepReport::CombinedHash over (name, hash, events) rows.
uint64_t CombinedDigest(const std::vector<ScenarioResult>& rows) {
  wcores::SweepReport report;
  report.results = rows;
  return report.CombinedHash();
}

// Output-check bookkeeping: every scenario run (timed or replica) is one
// attempt; every failed check is one failure.
struct Checks {
  int attempted = 0;
  int failed = 0;
  void Fail(const std::string& what) {
    ++failed;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
};

// One sample through the program's public entry points.
struct SampleOut {
  uint64_t digest = 0;
  uint64_t sim_events = 0;
  std::vector<double> scenario_ms;  // Per-scenario host time.
  double wall_s = 0;  // Host time of the timed part.
  double cpu_s = 0;   // Process CPU time of the timed part.
  // Fleet only.
  double shard_ns = 0;
  double shard_scenario_ns = 0;
};

// Times the enclosing scope's work into a SampleOut.
class Stopwatch {
 public:
  explicit Stopwatch(SampleOut* out) : out_(out) {}
  ~Stopwatch() {
    out_->cpu_s = ProcessCpuSeconds() - cpu0_;
    out_->wall_s = static_cast<double>(HostNowNs() - wall0_) * 1e-9;
  }
  Stopwatch(const Stopwatch&) = delete;
  Stopwatch& operator=(const Stopwatch&) = delete;

 private:
  SampleOut* out_;
  uint64_t wall0_ = HostNowNs();
  double cpu0_ = ProcessCpuSeconds();
};

class Workload {
 public:
  explicit Workload(uint64_t seed) : seed_(seed) {}
  virtual ~Workload() = default;

  // Builds the inputs from the seed. Spans go to `ledger`.
  virtual void Setup(SpanLedger* ledger) = 0;
  // One sample; per-scenario rows are checked against the first sample.
  virtual SampleOut Sample(SpanLedger* ledger, Checks* checks) = 0;
  // The scenarios the replica rebuilds, and the hash each must reproduce
  // (from the first sample).
  const std::vector<Scenario>& replica_scenarios() const { return replica_scenarios_; }
  uint64_t ExpectedHash(const std::string& name) const {
    auto it = expected_.find(name);
    return it == expected_.end() ? 0 : it->second;
  }
  // Workload-specific checks of one replica result.
  virtual void CheckReplica(const ReplicaResult& r, Checks* checks) const {
    (void)r;
    (void)checks;
  }

 protected:
  // Records or compares a scenario's digest against the first sample.
  void Expect(const std::string& name, uint64_t hash, Checks* checks) {
    auto [it, inserted] = expected_.emplace(name, hash);
    if (!inserted && it->second != hash) {
      checks->Fail(name + ": trace hash differs between samples");
    }
  }

  uint64_t seed_;
  std::vector<Scenario> replica_scenarios_;
  std::map<std::string, uint64_t> expected_;
};

// Input seeds move with --seed and equal their built-in values at the
// default seed.
uint64_t Reseed(uint64_t base, uint64_t seed) { return base + (seed - kDefaultSeed); }

// ---- paper_matrix ------------------------------------------------------------

class PaperMatrix : public Workload {
 public:
  using Workload::Workload;

  void Setup(SpanLedger* ledger) override {
    Span span(ledger, kSetup, true, "paper_matrix");
    replica_scenarios_ = wcores::FigureScenarios(kMatrixScale);
    for (Scenario& s : replica_scenarios_) {
      s.seed = Reseed(s.seed, seed_);
    }
  }

  SampleOut Sample(SpanLedger* ledger, Checks* checks) override {
    SampleOut out;
    wcores::SweepReport report;
    {
      Span span(ledger, kSample, true, "run_sweep");
      Stopwatch sw(&out);
      report = wcores::RunSweep(replica_scenarios_, wcores::SweepOptions{1});
    }
    out.digest = report.CombinedHash();
    out.sim_events = report.TotalSimEvents();
    for (const ScenarioResult& r : report.results) {
      ++checks->attempted;
      Expect(r.name, r.trace_hash, checks);
      CheckFinished(r.name, r.metrics, checks);
      out.scenario_ms.push_back(r.wall_ms);
    }
    return out;
  }

  void CheckReplica(const ReplicaResult& r, Checks* checks) const override {
    CheckFinished(r.name, r.metrics, checks);
  }

 private:
  // Every paper scenario with a completion flag (all but random_mix, which
  // runs to its horizon by design) finishes within its horizon today.
  static void CheckFinished(const std::string& name, const std::map<std::string, double>& m,
                            Checks* checks) {
    for (const char* flag : {"finished", "make_finished"}) {
      auto it = m.find(flag);
      if (it != m.end() && it->second < 0.5) {
        checks->Fail(name + ": did not report " + flag);
      }
    }
  }
};

// ---- fleet_grid -----------------------------------------------------------------

class FleetGrid : public Workload {
 public:
  FleetGrid(uint64_t seed, std::string work_dir) : Workload(seed), work_dir_(std::move(work_dir)) {}

  void Setup(SpanLedger* ledger) override {
    Span span(ledger, kSetup, true, "fleet_grid");
    wcores::GridSpec spec = wcores::DefaultFleetGrid();
    spec.base_seed = Reseed(spec.base_seed, seed_);
    std::vector<Scenario> grid;
    {
      Span s(ledger, kExpandGrid, true);
      grid = wcores::ExpandGrid(spec);
    }
    manifest_path_ = work_dir_ + "/fleet_manifest.jsonl";
    {
      Span s(ledger, kManifestWrite, true);
      wcores::WriteManifest(manifest_path_, grid);
    }
    std::string error;
    {
      Span s(ledger, kManifestLoad, true);
      manifest_ = wcores::Manifest();
      if (!wcores::LoadManifest(manifest_path_, &manifest_, &error)) {
        std::fprintf(stderr, "simbench: manifest load failed: %s\n", error.c_str());
        std::exit(1);
      }
    }
    if (manifest_.scenarios.size() != grid.size()) {
      std::fprintf(stderr, "simbench: manifest round trip lost scenarios\n");
      std::exit(1);
    }
    replica_scenarios_ = manifest_.scenarios;
  }

  SampleOut Sample(SpanLedger* ledger, Checks* checks) override {
    std::string dir = work_dir_ + "/fleet_results";
    std::filesystem::remove_all(dir);
    SampleOut out;
    wcores::ShardReport shard;
    wcores::ResultsStore store;
    wcores::MergeReport merge;
    std::string error;
    bool loaded = false;
    {
      Span span(ledger, kSample, true, "fleet_shard");
      Stopwatch sw(&out);
      uint64_t t0 = HostNowNs();
      {
        Span s(ledger, kShard, true);
        wcores::ShardOptions options;
        options.results_dir = dir;
        shard = wcores::RunShard(manifest_.scenarios, options);
      }
      out.shard_ns = static_cast<double>(HostNowNs() - t0);
      {
        Span s(ledger, kLoadStore, true);
        loaded = wcores::LoadResultsStore(dir, &store, &error);
      }
      {
        Span s(ledger, kMerge, true);
        merge = wcores::MergeResults(manifest_, store);
      }
    }
    out.shard_scenario_ns = shard.wall_ms_total * 1e6;
    size_t n = manifest_.scenarios.size();
    checks->attempted += static_cast<int>(n);
    if (!loaded) {
      checks->Fail("LoadResultsStore: " + error);
    }
    if (shard.ran != static_cast<int>(n)) {
      checks->Fail("RunShard ran " + std::to_string(shard.ran) + " of " + std::to_string(n));
    }
    for (const std::string& name : merge.missing) {
      checks->Fail(name + ": receipt missing");
    }
    for (const std::string& name : merge.conflicts) {
      checks->Fail(name + ": conflicting receipts");
    }
    for (const std::string& name : merge.orphans) {
      checks->Fail(name + ": orphan receipt");
    }
    if (merge.dropped_interior != 0 || merge.unique != static_cast<int>(n)) {
      checks->Fail("merge: " + std::to_string(merge.unique) + " unique receipts, " +
                   std::to_string(merge.dropped_interior) + " interior drops");
    }
    out.digest = merge.combined_hash;
    for (const wcores::Receipt& r : store.receipts) {
      Expect(r.name, r.trace_hash, checks);
      out.sim_events += r.sim_events;
      out.scenario_ms.push_back(r.wall_ms);
    }
    std::filesystem::remove_all(dir);
    return out;
  }

 private:
  std::string work_dir_;
  std::string manifest_path_;
  wcores::Manifest manifest_;
};

// ---- stream_soak ----------------------------------------------------------------

class StreamSoak : public Workload {
 public:
  using Workload::Workload;

  void Setup(SpanLedger* ledger) override {
    Span span(ledger, kSetup, true, "stream_soak");
    Scenario s;
    s.name = "stream_soak";
    s.topo = Scenario::Topo::kBulldozer8x8;
    s.workload = Scenario::Workload::kRandomMix;
    s.mix_threads = kSoakThreads;
    s.seed = Reseed(kSoakBaseSeed, seed_);
    s.horizon = kSoakHorizon;
    s.stream = true;
    replica_scenarios_ = {s};
  }

  SampleOut Sample(SpanLedger* ledger, Checks* checks) override {
    SampleOut out;
    ScenarioResult r;
    {
      Span span(ledger, kSample, true, "run_scenario");
      Stopwatch sw(&out);
      r = wcores::RunScenario(replica_scenarios_[0]);
    }
    ++checks->attempted;
    Expect(r.name, r.trace_hash, checks);
    CheckStream(r, checks);
    out.digest = CombinedDigest({r});
    out.sim_events = r.sim_events;
    out.scenario_ms.push_back(r.wall_ms);
    return out;
  }

  void CheckReplica(const ReplicaResult& r, Checks* checks) const override {
    CheckStream(r, checks);
  }

 private:
  // R is ScenarioResult or ReplicaResult.
  template <typename R>
  static void CheckStream(const R& r, Checks* checks) {
    if (r.stream_ring_dropped != 0) {
      checks->Fail(r.name + ": stream ring dropped records");
    }
    if (r.stream_events != r.trace_events) {
      checks->Fail(r.name + ": stream analyzed " + std::to_string(r.stream_events) + " of " +
                   std::to_string(r.trace_events) + " trace events");
    }
    if (!r.stream_within_budget) {
      checks->Fail(r.name + ": stream aggregator exceeded its memory budget");
    }
  }
};

// ---- Replica pass ------------------------------------------------------------------

struct ReplicaPass {
  std::vector<ReplicaResult> results;
  uint64_t digest = 0;
};

ReplicaPass RunReplicaPass(const Workload& w, SpanLedger* ledger, Checks* checks) {
  ReplicaPass pass;
  std::vector<ScenarioResult> rows;
  Span span(ledger, kRun, true, "replica");
  for (const Scenario& s : w.replica_scenarios()) {
    ReplicaResult r = RunReplica(s, ledger);
    ++checks->attempted;
    if (r.trace_hash != w.ExpectedHash(s.name)) {
      checks->Fail(s.name + ": replica trace hash differs from the public entry point's");
    }
    w.CheckReplica(r, checks);
    ScenarioResult row;
    row.name = r.name;
    row.trace_hash = r.trace_hash;
    row.trace_events = r.trace_events;
    rows.push_back(row);
    pass.results.push_back(std::move(r));
  }
  pass.digest = CombinedDigest(rows);
  return pass;
}

// ---- Metrics output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const Checks& checks, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
              checks.failed == 0 ? "true" : "false", checks.attempted, checks.failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void AddLayerMetrics(const SpanLedger& L, const ReplicaPass& pass, const SampleOut& sample,
                     std::vector<Metric>* out) {
  auto add = [out](const std::string& name, double value, const char* unit) {
    out->push_back(Metric{name, value, unit});
  };
  auto self_ns = [&L](int layer) { return static_cast<double>(L.SelfNs(layer)); };
  auto calls = [&L](int layer) { return static_cast<double>(L.Total(layer).calls); };

  uint64_t events = 0;
  uint64_t agg_peak = 0;
  uint64_t dropped = 0;
  // The core ratios describe the CFS scenarios; the modsched policies gate
  // or replace the balancers and are timed under their own prefix.
  wcores::SchedStats cfs;
  for (const ReplicaResult& r : pass.results) {
    events += r.sim_events;
    agg_peak = std::max(agg_peak, r.stream_agg_bytes_peak);
    dropped += r.stream_ring_dropped;
    if (r.family != kCfs) {
      continue;
    }
    const wcores::SchedStats& s = r.stats;
    cfs.wakeups += s.wakeups;
    cfs.wakeups_on_idle += s.wakeups_on_idle;
    cfs.balance_calls += s.balance_calls;
    cfs.balance_success += s.balance_success;
    cfs.balance_designation_skips += s.balance_designation_skips;
    cfs.balance_interval_skips += s.balance_interval_skips;
    cfs.balance_group_cache_hits += s.balance_group_cache_hits;
    cfs.balance_group_cache_misses += s.balance_group_cache_misses;
    cfs.migrations_periodic += s.migrations_periodic;
    cfs.migrations_idle += s.migrations_idle;
    cfs.migrations_nohz += s.migrations_nohz;
    cfs.migrations_hotplug += s.migrations_hotplug;
  }

  add("simkit.events", static_cast<double>(events), "count");
  add("simkit.dispatch_ns", static_cast<double>(L.Total(kDispatch).total_ns), "ns");
  add("sim.self_ns", self_ns(kDispatch), "ns");
  add("sim.construct_ns", self_ns(kSimConstruct), "ns");
  add("sim.constructs", calls(kSimConstruct), "count");
  add("topo.build_ns", self_ns(kTopoBuild), "ns");
  add("workloads.setup_ns", self_ns(kWorkloadsSetup), "ns");

  for (int f = 0; f < kFamilyCount; ++f) {
    for (int h = 0; h < kHookCount; ++h) {
      int layer = HookLayer(static_cast<Family>(f), static_cast<Hook>(h));
      add(LayerName(layer) + "_ns", self_ns(layer), "ns");
      add(LayerName(layer) + "_calls", calls(layer), "count");
    }
    if (f == kCfs) {
      double skips =
          static_cast<double>(cfs.balance_designation_skips + cfs.balance_interval_skips);
      double lookups =
          static_cast<double>(cfs.balance_group_cache_hits + cfs.balance_group_cache_misses);
      add("core.balance_useful_frac",
          Frac(static_cast<double>(cfs.balance_success), static_cast<double>(cfs.balance_calls)),
          "ratio");
      add("core.group_cache_hit_frac",
          Frac(static_cast<double>(cfs.balance_group_cache_hits), lookups), "ratio");
      add("core.balance_skip_frac",
          Frac(skips, skips + static_cast<double>(cfs.balance_calls)), "ratio");
      add("core.wake_idle_frac",
          Frac(static_cast<double>(cfs.wakeups_on_idle), static_cast<double>(cfs.wakeups)),
          "ratio");
      add("core.migrations", static_cast<double>(cfs.TotalMigrations()), "count");
    }
  }

  add("sweep.trace_hash.considered_ns", self_ns(kHashConsidered), "ns");
  add("sweep.trace_hash.considered_calls", calls(kHashConsidered), "count");
  add("sweep.trace_hash.other_ns", self_ns(kHashOther), "ns");
  add("sweep.trace_hash.other_calls", calls(kHashOther), "count");

  add("telemetry.stream.switch_ns", self_ns(kStreamSwitch), "ns");
  add("telemetry.stream.switch_calls", calls(kStreamSwitch), "count");
  add("telemetry.stream.other_ns", self_ns(kStreamOther), "ns");
  add("telemetry.stream.other_calls", calls(kStreamOther), "count");
  add("telemetry.stream.finish_ns", self_ns(kStreamFinish), "ns");
  add("telemetry.stream.agg_bytes_peak", static_cast<double>(agg_peak), "bytes");
  add("telemetry.stream.ring_dropped", static_cast<double>(dropped), "count");

  // Set-up runs several times; these are per set-up.
  auto per_call_ns = [&L](int layer) {
    return Frac(static_cast<double>(L.SelfNs(layer)), static_cast<double>(L.Total(layer).calls));
  };
  add("sweep.expand_grid_ns", per_call_ns(kExpandGrid), "ns");
  add("sweep.manifest_write_ns", per_call_ns(kManifestWrite), "ns");
  add("sweep.manifest_load_ns", per_call_ns(kManifestLoad), "ns");
  add("sweep.shard_ns", sample.shard_ns, "ns");
  add("sweep.shard_scenario_ns", sample.shard_scenario_ns, "ns");
  add("sweep.shard_overhead_frac",
      sample.shard_ns > 0 ? 1.0 - sample.shard_scenario_ns / sample.shard_ns : 0, "ratio");
  add("sweep.scenario_p50_ms", Percentile(sample.scenario_ms, 50), "ms");
  add("sweep.scenario_p98_ms", Percentile(sample.scenario_ms, 98), "ms");
  add("sweep.scenario_samples", static_cast<double>(sample.scenario_ms.size()), "count");
  add("trend.load_store_ns", self_ns(kLoadStore), "ns");
  add("trend.merge_ns", self_ns(kMerge), "ns");

  // Tracing itself: the replica's scenario spans against the same
  // scenarios' untraced host time in the public-entry sample, and the part
  // of the scenario spans no layer span covers.
  double public_ns = 0;
  for (double ms : sample.scenario_ms) {
    public_ns += ms * 1e6;
  }
  double traced_ns = static_cast<double>(L.Total(kScenario).total_ns);
  add("trace.overhead_frac", public_ns > 0 ? traced_ns / public_ns - 1.0 : 0, "ratio");
  add("trace.unattributed_frac", Frac(self_ns(kScenario), traced_ns), "ratio");
}

// ---- Command line ----------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  int trace = 0;
  std::string work_dir = ".bench_out";
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "simbench: %s\nusage: simbench --workload=paper_matrix|fleet_grid|stream_soak "
               "[--seed=N] [--seconds=S] [--trace=0|1] [--work-dir=DIR]\n"
               "default seed %" PRIu64 "; held-out seed for gain claims %" PRIu64 "\n",
               why.c_str(), kDefaultSeed, kHeldOutSeed);
  std::exit(2);
}

bool ParseU64(const std::string& text, uint64_t* out) {
  if (text.empty() || text.size() > 20 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string key = arg;
    std::string value;
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage("missing value for " + arg);
    }
    uint64_t n = 0;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      if (!ParseU64(value, &a.seed)) {
        Usage("bad --seed " + value);
      }
    } else if (key == "--seconds") {
      if (!ParseU64(value, &n) || n < 1 || n > 3600) {
        Usage("bad --seconds " + value);
      }
      a.seconds = static_cast<double>(n);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        Usage("bad --trace " + value);
      }
      a.trace = value == "1" ? 1 : 0;
    } else if (key == "--work-dir") {
      a.work_dir = value;
    } else {
      Usage("unknown flag " + key);
    }
  }
  if (a.workload.empty()) {
    Usage("--workload is required");
  }
  return a;
}

std::unique_ptr<Workload> MakeWorkload(const Args& a) {
  if (a.workload == "paper_matrix") {
    return std::make_unique<PaperMatrix>(a.seed);
  }
  if (a.workload == "fleet_grid") {
    return std::make_unique<FleetGrid>(a.seed, a.work_dir);
  }
  if (a.workload == "stream_soak") {
    return std::make_unique<StreamSoak>(a.seed);
  }
  Usage("unknown workload " + a.workload);
}

int Run(const Args& args) {
  std::filesystem::create_directories(args.work_dir);
  std::unique_ptr<Workload> w = MakeWorkload(args);
  auto ledger = std::make_unique<SpanLedger>();
  Checks checks;

  std::vector<double> setup_s;
  uint64_t setup_start = HostNowNs();
  while (static_cast<int>(setup_s.size()) < kSetupMinRepeats ||
         (static_cast<int>(setup_s.size()) < kSetupMaxRepeats &&
          HostNowNs() - setup_start < kSetupBudgetNs)) {
    uint64_t t0 = HostNowNs();
    w->Setup(ledger.get());
    setup_s.push_back(static_cast<double>(HostNowNs() - t0) * 1e-9);
  }

  std::vector<Metric> metrics;
  SampleOut first;
  if (args.trace == 0) {
    std::vector<double> wall_s;
    std::vector<double> cpu_s;
    std::vector<double> ns_per_event;
    uint64_t budget_ns = static_cast<uint64_t>(args.seconds * 1e9);
    uint64_t start = HostNowNs();
    for (;;) {
      uint64_t t0 = HostNowNs();
      SampleOut out = w->Sample(ledger.get(), &checks);
      uint64_t t1 = HostNowNs();
      wall_s.push_back(out.wall_s);
      cpu_s.push_back(out.cpu_s);
      ns_per_event.push_back(Frac(out.wall_s * 1e9, static_cast<double>(out.sim_events)));
      if (wall_s.size() == 1) {
        first = out;
      } else if (out.digest != first.digest || out.sim_events != first.sim_events) {
        checks.Fail("combined digest differs between samples");
      }
      // Stop before a sample that would overrun the measuring window.
      if (t1 - start + (t1 - t0) > budget_ns) {
        break;
      }
    }
    double peak_rss = PeakRssMb();
    std::printf("samples %s n=%zu wall_s min %.4f median %.4f max %.4f\n", args.workload.c_str(),
                wall_s.size(), Min(wall_s), Median(wall_s), Max(wall_s));
    std::printf("setup %s n=%zu setup_s median %.4g\n", args.workload.c_str(), setup_s.size(),
                Median(setup_s));
    metrics = {
        {"wall_s", Median(wall_s), "s"},
        {"cpu_s", Median(cpu_s), "s"},
        {"ns_per_event", Median(ns_per_event), "ns"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", peak_rss, "MB"},
    };
  } else {
    first = w->Sample(ledger.get(), &checks);
  }

  ReplicaPass pass = RunReplicaPass(*w, ledger.get(), &checks);
  if (pass.digest != first.digest) {
    checks.Fail("replica combined digest differs from the public entry point's");
  }
  if (args.trace == 1) {
    AddLayerMetrics(*ledger, pass, first, &metrics);
    std::string spans = args.work_dir + "/spans_" + args.workload + ".jsonl";
    if (!ledger->Write(spans)) {
      checks.Fail("could not write " + spans);
    }
    std::printf("spans %s\n", spans.c_str());
  }

  std::printf("digest %s seed=%" PRIu64 " 0x%016" PRIx64 "\n", args.workload.c_str(), args.seed,
              first.digest);
  std::printf("failed_frac %s %.6g (%d of %d scenario runs)\n", args.workload.c_str(),
              Frac(checks.failed, checks.attempted), checks.failed, checks.attempted);
  PrintResult(checks, metrics);
  std::fflush(stdout);
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace simbench

int main(int argc, char** argv) { return simbench::Run(simbench::ParseArgs(argc, argv)); }
