// Fleet sweep service tests: grid expansion, manifest round-trip, receipt
// stores, the incremental resume index (differentially against a fresh
// load, WC_FUZZ_SEED-reproducible), resume semantics (truncated tails,
// stale fingerprints, conflicting receipts), sharded execution equivalence,
// and the wc-trend merge/diff contracts. The cross-process kill/resume path is exercised by ci.sh stage
// "fleet"; everything here is in-process so it runs under ctest -j.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/simkit/rng.h"
#include "src/tools/sweep/grid.h"
#include "src/tools/sweep/manifest.h"
#include "src/tools/sweep/receipts.h"
#include "src/tools/sweep/shard.h"
#include "src/tools/sweep/sweep.h"
#include "src/tools/trend/trend.h"

namespace wcores {
namespace {

std::string TempPath(const std::string& leaf) {
  static int counter = 0;
  std::string path =
      ::testing::TempDir() + "fleet_test_" + std::to_string(++counter) + "_" + leaf;
  // Paths are deterministic across runs, and the fleet store is *designed*
  // to resume from leftovers — scrub so every test starts cold.
  std::filesystem::remove_all(path);
  return path;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteAll(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

// A small grid that runs fast enough to execute inside unit tests.
GridSpec TinyGrid() {
  GridSpec spec;
  std::string error;
  bool ok = ParseGridSpec(
      "topo=flat1x4;workload=mix;feat=stock,fixed;policy=cfs;mix=4;seeds=2;"
      "scale=0.02;horizon_ms=20;seed=11",
      &spec, &error);
  EXPECT_TRUE(ok) << error;
  return spec;
}

// ---- Grid expansion --------------------------------------------------------

TEST(FleetGrid, DefaultGridIsFleetScale) {
  std::vector<Scenario> scenarios = ExpandGrid(DefaultFleetGrid());
  EXPECT_GE(scenarios.size(), 500u);  // ISSUE acceptance floor.
  std::set<std::string> names;
  std::set<uint64_t> fingerprints;
  for (const Scenario& s : scenarios) {
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate name " << s.name;
    EXPECT_TRUE(fingerprints.insert(ScenarioFingerprint(s)).second)
        << "fingerprint collision at " << s.name;
  }
}

TEST(FleetGrid, SeedsDeriveFromCellIdentityNotOrder) {
  // Adding a value to one axis must not reseed pre-existing cells.
  GridSpec narrow = TinyGrid();
  GridSpec wide = narrow;
  wide.policies.push_back("o1");
  std::vector<Scenario> a = ExpandGrid(narrow);
  std::vector<Scenario> b = ExpandGrid(wide);
  for (const Scenario& sa : a) {
    bool found = false;
    for (const Scenario& sb : b) {
      if (sb.name == sa.name) {
        EXPECT_EQ(sb.seed, sa.seed) << sa.name;
        EXPECT_EQ(ScenarioFingerprint(sb), ScenarioFingerprint(sa)) << sa.name;
        found = true;
      }
    }
    EXPECT_TRUE(found) << sa.name;
  }
  EXPECT_GT(b.size(), a.size());
}

TEST(FleetGrid, FingerprintSensitivity) {
  std::vector<Scenario> scenarios = ExpandGrid(TinyGrid());
  ASSERT_FALSE(scenarios.empty());
  Scenario s = scenarios[0];
  uint64_t base = ScenarioFingerprint(s);
  Scenario seed = s;
  seed.seed ^= 1;
  EXPECT_NE(ScenarioFingerprint(seed), base);
  Scenario feat = s;
  feat.features.fix_group_imbalance = !feat.features.fix_group_imbalance;
  EXPECT_NE(ScenarioFingerprint(feat), base);
  Scenario pol = s;
  pol.policy = "o1";
  EXPECT_NE(ScenarioFingerprint(pol), base);
  Scenario hor = s;
  hor.horizon += 1;
  EXPECT_NE(ScenarioFingerprint(hor), base);
}

TEST(FleetGrid, ParseGridSpecRejectsBadInput) {
  GridSpec spec;
  std::string error;
  EXPECT_FALSE(ParseGridSpec("bogus_key=1", &spec, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParseGridSpec("topo=not_a_topo", &spec, &error));
  EXPECT_FALSE(ParseGridSpec("mix=abc", &spec, &error));
  EXPECT_FALSE(ParseGridSpec("seeds=0", &spec, &error));
  // Numbers strtoull/strtod would take but wrap, saturate or overflow.
  EXPECT_FALSE(ParseGridSpec("seed=-1", &spec, &error));
  EXPECT_FALSE(ParseGridSpec("seed=99999999999999999999", &spec, &error));
  EXPECT_FALSE(ParseGridSpec("horizon_ms=-1", &spec, &error));
  EXPECT_FALSE(ParseGridSpec("horizon_ms=18446744073709551", &spec, &error));
  EXPECT_FALSE(ParseGridSpec("scale=inf", &spec, &error));
  EXPECT_FALSE(ParseGridSpec("scale=1e400", &spec, &error));
  EXPECT_FALSE(ParseGridSpec("seeds= 3", &spec, &error));
  EXPECT_FALSE(ParseGridSpec("mix=+4", &spec, &error));
  EXPECT_FALSE(ParseGridSpec("scale= 0.5", &spec, &error));
  // The largest values that still fit are accepted.
  EXPECT_TRUE(ParseGridSpec("seed=18446744073709551615", &spec, &error)) << error;
  EXPECT_EQ(spec.base_seed, UINT64_MAX);
  EXPECT_TRUE(ParseGridSpec("horizon_ms=18446744073709", &spec, &error)) << error;
  EXPECT_EQ(spec.horizon, Milliseconds(18446744073709ULL));
  EXPECT_TRUE(ParseGridSpec("default", &spec, &error)) << error;
  EXPECT_EQ(ExpandGrid(spec).size(), ExpandGrid(DefaultFleetGrid()).size());
}

// ---- Manifest --------------------------------------------------------------

TEST(FleetManifest, RoundTripsEveryField) {
  std::vector<Scenario> scenarios = ExpandGrid(TinyGrid());
  std::string path = TempPath("manifest.jsonl");
  WriteManifest(path, scenarios);

  Manifest loaded;
  std::string error;
  ASSERT_TRUE(LoadManifest(path, &loaded, &error)) << error;
  ASSERT_EQ(loaded.scenarios.size(), scenarios.size());
  for (size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(loaded.scenarios[i].name, scenarios[i].name);
    EXPECT_EQ(ScenarioFingerprint(loaded.scenarios[i]), ScenarioFingerprint(scenarios[i]));
    EXPECT_EQ(ScenarioToJsonLine(loaded.scenarios[i]), ScenarioToJsonLine(scenarios[i]));
  }
}

TEST(FleetManifest, LoaderRejectsTamperedLine) {
  std::vector<Scenario> scenarios = ExpandGrid(TinyGrid());
  std::string path = TempPath("tampered.jsonl");
  WriteManifest(path, scenarios);

  // Flip a parameter without updating the fingerprint: the loader must
  // notice (this is what catches hand-edited or version-skewed manifests).
  std::string content = ReadAll(path);
  size_t pos = content.find("\"mix_threads\": 4");
  ASSERT_NE(pos, std::string::npos);
  content.replace(pos, std::string("\"mix_threads\": 4").size(), "\"mix_threads\": 9");
  WriteAll(path, content);

  Manifest loaded;
  std::string error;
  EXPECT_FALSE(LoadManifest(path, &loaded, &error));
  EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;
}

// JSON numbers are doubles; integer fields must be exact. 1.5 used to be
// truncated, 1e30 cast with undefined behaviour, 2^53 + 1 silently rounded
// to 2^53, and -0 read as 0.
const char* const kInexactCounts[] = {"1e30", "1.5", "9007199254740993", "-0"};

TEST(FleetManifest, LoaderRejectsInexactCounts) {
  std::vector<Scenario> scenarios = ExpandGrid(TinyGrid());
  std::string line = ScenarioToJsonLine(scenarios[0]);
  const std::string field = "\"mix_threads\": 4";
  size_t pos = line.find(field);
  ASSERT_NE(pos, std::string::npos);
  for (const char* bad : kInexactCounts) {
    std::string doctored = line;
    doctored.replace(pos, field.size(), std::string("\"mix_threads\": ") + bad);
    Scenario s;
    std::string error;
    EXPECT_FALSE(ScenarioFromJsonLine(doctored, &s, &error)) << bad;
    EXPECT_NE(error.find("'mix_threads'"), std::string::npos) << bad << ": " << error;
  }
  std::string path = TempPath("inexact_header.jsonl");
  WriteManifest(path, scenarios);
  std::string content = ReadAll(path);
  std::string count = "\"count\": " + std::to_string(scenarios.size());
  size_t count_pos = content.find(count);
  ASSERT_NE(count_pos, std::string::npos);
  content.replace(count_pos, count.size(), "\"count\": 4.5");
  WriteAll(path, content);
  Manifest loaded;
  std::string error;
  EXPECT_FALSE(LoadManifest(path, &loaded, &error));
  EXPECT_NE(error.find("count"), std::string::npos) << error;
}

TEST(FleetManifest, LoaderRejectsDuplicateNames) {
  std::vector<Scenario> scenarios = ExpandGrid(TinyGrid());
  std::string path = TempPath("dup.jsonl");
  WriteManifest(path, scenarios);
  std::string content = ReadAll(path);
  // Duplicate the first scenario line verbatim and bump the header count.
  size_t header_end = content.find('\n');
  size_t first_end = content.find('\n', header_end + 1);
  std::string first_line = content.substr(header_end + 1, first_end - header_end);
  std::string doctored = "{\"wc_manifest\": 1, \"count\": " +
                         std::to_string(scenarios.size() + 1) + "}\n" +
                         content.substr(header_end + 1) + first_line;
  WriteAll(path, doctored);

  Manifest loaded;
  std::string error;
  EXPECT_FALSE(LoadManifest(path, &loaded, &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
}

TEST(FleetManifestDeathTest, WriterChecksDuplicateNames) {
  std::vector<Scenario> scenarios = ExpandGrid(TinyGrid());
  scenarios.push_back(scenarios[0]);
  EXPECT_DEATH(WriteManifest(TempPath("never.jsonl"), scenarios),
               "duplicate scenario name in manifest");
}

// ---- Receipts --------------------------------------------------------------

Receipt MakeReceipt(const std::string& name, uint64_t fp, uint64_t hash) {
  Receipt r;
  r.name = name;
  r.fingerprint = fp;
  r.trace_hash = hash;
  r.trace_events = 42;
  r.sim_events = 7;
  r.context_switches = 3;
  r.migrations = 1;
  r.virtual_s = 0.02;
  r.all_exited = true;
  r.metrics["make_span_s"] = 1.5;
  r.wall_ms = 12.25;
  return r;
}

TEST(FleetReceipts, RoundTrip) {
  Receipt r = MakeReceipt("grid/a", 0xdeadbeefcafef00dull, 0x1122334455667788ull);
  Receipt back;
  std::string error;
  ASSERT_TRUE(ParseReceiptLine(ReceiptLine(r), &back, &error)) << error;
  EXPECT_EQ(back.name, r.name);
  EXPECT_EQ(back.fingerprint, r.fingerprint);
  EXPECT_EQ(back.trace_hash, r.trace_hash);
  EXPECT_EQ(back.trace_events, r.trace_events);
  EXPECT_EQ(back.metrics, r.metrics);
  EXPECT_EQ(back.wall_ms, r.wall_ms);

  // Canonical form drops only wall_ms: re-serializing the parsed canonical
  // line must be byte-stable.
  Receipt canon;
  ASSERT_TRUE(ParseReceiptLine(ReceiptCanonical(r), &canon, &error)) << error;
  EXPECT_EQ(ReceiptCanonical(canon), ReceiptCanonical(r));
  EXPECT_EQ(canon.wall_ms, 0);
}

TEST(FleetReceipts, RejectsInexactCounts) {
  std::string line = ReceiptLine(MakeReceipt("grid/a", 1, 10));
  for (const char* field : {"trace_events", "migrations", "all_exited"}) {
    std::string key = std::string("\"") + field + "\": ";
    size_t pos = line.find(key);
    ASSERT_NE(pos, std::string::npos) << field;
    size_t end = line.find(',', pos);
    for (const char* bad : kInexactCounts) {
      std::string doctored = line;
      doctored.replace(pos, end - pos, key + bad);
      Receipt r;
      std::string error;
      EXPECT_FALSE(ParseReceiptLine(doctored, &r, &error)) << field << "=" << bad;
      EXPECT_NE(error.find(field), std::string::npos) << error;
    }
  }
  // The largest exact integer still reads back.
  std::string max_exact = line;
  size_t pos = max_exact.find("\"sim_events\": 7");
  ASSERT_NE(pos, std::string::npos);
  max_exact.replace(pos, std::string("\"sim_events\": 7").size(),
                    "\"sim_events\": 9007199254740991");
  Receipt r;
  std::string error;
  ASSERT_TRUE(ParseReceiptLine(max_exact, &r, &error)) << error;
  EXPECT_EQ(r.sim_events, 9007199254740991ull);
}

TEST(FleetReceipts, TruncatedTrailingLineIsTolerated) {
  std::string dir = TempPath("store_trunc");
  std::filesystem::create_directories(dir);
  Receipt a = MakeReceipt("grid/a", 1, 10);
  Receipt b = MakeReceipt("grid/b", 2, 20);
  // Simulate a shard killed mid-append: complete line, then half a line.
  WriteAll(dir + "/shard-0.jsonl",
           ReceiptLine(a) + "\n" + ReceiptLine(b).substr(0, 25));

  ResultsStore store;
  std::string error;
  ASSERT_TRUE(LoadResultsStore(dir, &store, &error)) << error;
  ASSERT_EQ(store.receipts.size(), 1u);
  EXPECT_EQ(store.receipts[0].name, "grid/a");
  EXPECT_EQ(store.dropped_trailing, 1);
  EXPECT_EQ(store.dropped_interior, 0);
}

TEST(FleetReceipts, InteriorCorruptionIsCountedSeparately) {
  std::string dir = TempPath("store_interior");
  std::filesystem::create_directories(dir);
  Receipt a = MakeReceipt("grid/a", 1, 10);
  Receipt b = MakeReceipt("grid/b", 2, 20);
  WriteAll(dir + "/shard-0.jsonl",
           ReceiptLine(a) + "\n{broken\n" + ReceiptLine(b) + "\n");

  ResultsStore store;
  std::string error;
  ASSERT_TRUE(LoadResultsStore(dir, &store, &error)) << error;
  ASSERT_EQ(store.receipts.size(), 2u);
  EXPECT_EQ(store.dropped_trailing, 0);
  EXPECT_EQ(store.dropped_interior, 1);
}

TEST(FleetReceipts, CleanPrefixStopsBeforeDirtyTail) {
  Receipt a = MakeReceipt("grid/a", 1, 10);
  std::string good = ReceiptLine(a) + "\n";
  EXPECT_EQ(CleanReceiptPrefixBytes(good), good.size());
  EXPECT_EQ(CleanReceiptPrefixBytes(good + "{half"), good.size());
  EXPECT_EQ(CleanReceiptPrefixBytes(good + good.substr(0, 12)), good.size());
  EXPECT_EQ(CleanReceiptPrefixBytes("{half"), 0u);
  EXPECT_EQ(CleanReceiptPrefixBytes(""), 0u);
}

// ---- Incremental resume index ----------------------------------------------

uint64_t FuzzSeed() {
  const char* env = std::getenv("WC_FUZZ_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 0);
  }
  return 20261017ULL;
}

// The DONE rule of receipts.h applied to a freshly loaded store: the oracle
// ReceiptIndex must agree with after every store mutation.
bool StoreDone(const ResultsStore& store, const std::string& name, uint64_t fingerprint,
               bool* had_receipts) {
  *had_receipts = false;
  const Receipt* first_match = nullptr;
  bool conflict = false;
  for (const Receipt& r : store.receipts) {
    if (r.name != name) {
      continue;
    }
    *had_receipts = true;
    if (r.fingerprint != fingerprint) {
      continue;
    }
    if (first_match == nullptr) {
      first_match = &r;
    } else if (r.trace_hash != first_match->trace_hash ||
               r.trace_events != first_match->trace_events) {
      conflict = true;
    }
  }
  return first_match != nullptr && !conflict;
}

// Drives a results store through every mutation its writers (and its
// damage) can produce — appends, lines caught mid-write, self-repair
// truncation, new and deleted shard files, files replaced under a new
// inode, interior garbage, stale and conflicting receipts — refreshing one
// long-lived index after each step and comparing it, name by name, with a
// fresh LoadResultsStore.
TEST(FleetReceiptIndex, MatchesFreshLoadUnderRandomStoreMutations) {
  const uint64_t seed = FuzzSeed();
  SCOPED_TRACE("reproduce with: WC_FUZZ_SEED=" + std::to_string(seed) +
               " ctest --test-dir build -R FleetReceiptIndex --output-on-failure");
  uint64_t sm = seed;
  Rng rng(SplitMix64(sm));
  const std::string dir = TempPath("index_fuzz");
  std::filesystem::create_directories(dir);
  constexpr int kNames = 6;
  constexpr int kFiles = 4;
  auto file_of = [&](int k) { return dir + "/shard-" + std::to_string(k) + ".jsonl"; };
  // Bytes of a line caught mid-write, per file, still to be appended.
  std::vector<std::string> in_flight(kFiles);

  auto append = [&](int k, const std::string& bytes) {
    std::ofstream(file_of(k), std::ios::binary | std::ios::app) << bytes;
  };
  auto random_line = [&]() {
    int i = static_cast<int>(rng.NextBelow(kNames));
    uint64_t fp = rng.NextBool(0.2) ? 100 + i : 1 + i;     // Stale fingerprint.
    uint64_t hash = rng.NextBool(0.1) ? 0xff : 1000 + i;  // Conflicting hash.
    return ReceiptLine(MakeReceipt("grid/n" + std::to_string(i), fp, hash)) + "\n";
  };

  ReceiptIndex index(dir);
  for (int step = 0; step < 300; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    int mutations = 1 + static_cast<int>(rng.NextBelow(3));
    for (int m = 0; m < mutations; ++m) {
      int k = static_cast<int>(rng.NextBelow(kFiles));
      bool exists = std::filesystem::exists(file_of(k));
      switch (rng.NextBelow(8)) {
        case 0:
        case 1:
        case 2: {  // Append whole lines, finishing any line caught mid-write.
          std::string bytes = in_flight[k];
          in_flight[k].clear();
          for (uint64_t n = rng.NextInRange(1, 3); n > 0; --n) {
            bytes += random_line();
          }
          append(k, bytes);
          break;
        }
        case 3: {  // Start a line and stop mid-write; sometimes the cut
                   // falls just before the newline, a whole receipt.
          if (!in_flight[k].empty()) {
            break;
          }
          std::string line = random_line();
          size_t cut = rng.NextBool(0.3) ? line.size() - 1
                                         : static_cast<size_t>(rng.NextBelow(line.size()));
          append(k, line.substr(0, cut));
          in_flight[k] = line.substr(cut);
          break;
        }
        case 4:  // Interior garbage once more lines follow.
          append(k, in_flight[k] + "{broken\n");
          in_flight[k].clear();
          break;
        case 5:  // Writer killed and restarted: self-repair truncation. Or
                 // damage: cut anywhere, which ends the step (see below).
          if (exists) {
            std::string bytes = ReadAll(file_of(k));
            if (rng.NextBool(0.7)) {
              std::filesystem::resize_file(file_of(k), CleanReceiptPrefixBytes(bytes));
            } else {
              std::filesystem::resize_file(file_of(k), rng.NextBelow(bytes.size() + 1));
              m = mutations;
            }
            in_flight[k].clear();
          }
          break;
        case 6:  // Replaced under a new inode by different, longer content.
                 // This ends the step too.
          if (exists) {
            std::string old_bytes = ReadAll(file_of(k));
            std::string bytes = random_line();
            for (char c : old_bytes) {
              bytes += c == '\n' ? random_line() : "";
            }
            std::string tmp = dir + "/replace.tmp";
            WriteAll(tmp, bytes);
            std::filesystem::rename(tmp, file_of(k));
            in_flight[k].clear();
            m = mutations;
          }
          break;
        default:  // Deleted. A rewrite regrown past the old size, or a
                  // new file given the freed inode number, looks like
                  // growth to an index that has not looked in between, so
                  // each such change ends the step. Shard files are never
                  // deleted, replaced or cut into under a running fleet.
          if (exists) {
            std::filesystem::remove(file_of(k));
            in_flight[k].clear();
            m = mutations;
          }
          break;
      }
    }

    std::string error;
    ASSERT_TRUE(index.Refresh(&error)) << error;
    ResultsStore store;
    ASSERT_TRUE(LoadResultsStore(dir, &store, &error)) << error;
    for (int i = 0; i < kNames; ++i) {
      std::string name = "grid/n" + std::to_string(i);
      for (uint64_t fp : {uint64_t{1} + i, uint64_t{100} + i, uint64_t{999}}) {
        bool had_want = false;
        bool had_got = false;
        bool want = StoreDone(store, name, fp, &had_want);
        ASSERT_EQ(index.Done(name, fp, &had_got), want) << name << " fp " << fp;
        ASSERT_EQ(had_got, had_want) << name << " fp " << fp;
      }
    }
  }
}

// ---- Sharded execution and resume ------------------------------------------

// Runs a full single-process reference sweep for `scenarios` and returns the
// merged canonical text via a one-shard RunShard + MergeResults.
std::string ReferenceCanonical(const std::vector<Scenario>& scenarios,
                               const std::string& results_dir, uint64_t* combined) {
  ShardOptions opts;
  opts.results_dir = results_dir;
  opts.shard_index = 0;
  opts.shard_count = 1;
  opts.threads = 2;
  ShardReport report = RunShard(scenarios, opts);
  EXPECT_EQ(report.ran, static_cast<int>(scenarios.size()));

  Manifest manifest;
  manifest.scenarios = scenarios;
  ResultsStore store;
  std::string error;
  EXPECT_TRUE(LoadResultsStore(results_dir, &store, &error)) << error;
  MergeReport merge = MergeResults(manifest, store);
  EXPECT_TRUE(merge.ok());
  if (combined != nullptr) {
    *combined = merge.combined_hash;
  }
  return merge.canonical;
}

TEST(FleetShard, TwoShardsMergeBitIdenticalToSingleProcess) {
  std::vector<Scenario> scenarios = ExpandGrid(TinyGrid());
  uint64_t ref_hash = 0;
  std::string ref = ReferenceCanonical(scenarios, TempPath("ref"), &ref_hash);

  // Two concurrent shards into one store. flock(2) locks are per
  // open-file-description, so claims contend correctly even inside one
  // process.
  std::string dir = TempPath("two");
  ShardReport r0, r1;
  std::thread t0([&]() {
    ShardOptions o{dir, 0, 2, 1};
    r0 = RunShard(scenarios, o);
  });
  std::thread t1([&]() {
    ShardOptions o{dir, 1, 2, 1};
    r1 = RunShard(scenarios, o);
  });
  t0.join();
  t1.join();
  EXPECT_EQ(r0.ran + r0.skipped + r1.ran + r1.skipped + r0.contended + r1.contended,
            static_cast<int>(scenarios.size()) * 2);

  Manifest manifest;
  manifest.scenarios = scenarios;
  ResultsStore store;
  std::string error;
  ASSERT_TRUE(LoadResultsStore(dir, &store, &error)) << error;
  MergeReport merge = MergeResults(manifest, store);
  EXPECT_TRUE(merge.ok()) << (merge.missing.empty() ? "" : merge.missing[0]);
  EXPECT_EQ(merge.canonical, ref);  // Bit-identical to single-process run.
  EXPECT_EQ(merge.combined_hash, ref_hash);
}

TEST(FleetShard, ResumeSkipsCompletedScenarios) {
  std::vector<Scenario> scenarios = ExpandGrid(TinyGrid());
  std::string dir = TempPath("resume");
  ShardOptions opts{dir, 0, 1, 2};
  ShardReport first = RunShard(scenarios, opts);
  EXPECT_EQ(first.ran, static_cast<int>(scenarios.size()));

  ShardReport second = RunShard(scenarios, opts);
  EXPECT_EQ(second.ran, 0);
  EXPECT_EQ(second.skipped, static_cast<int>(scenarios.size()));
}

TEST(FleetShard, TruncatedTailReRunsThatScenarioOnly) {
  std::vector<Scenario> scenarios = ExpandGrid(TinyGrid());
  std::string dir = TempPath("kill");
  ShardOptions opts{dir, 0, 1, 1};
  RunShard(scenarios, opts);

  // Simulate a kill mid-append: chop the last receipt line in half.
  std::string path = dir + "/shard-0.jsonl";
  std::string content = ReadAll(path);
  WriteAll(path, content.substr(0, content.size() - 40));

  ShardReport resumed = RunShard(scenarios, opts);
  EXPECT_EQ(resumed.ran, 1);
  EXPECT_EQ(resumed.skipped, static_cast<int>(scenarios.size()) - 1);

  // The self-repair truncation means the store is clean after resume, and
  // the merged canonical output matches an uninterrupted run.
  uint64_t ref_hash = 0;
  std::string ref = ReferenceCanonical(scenarios, TempPath("kill_ref"), &ref_hash);
  Manifest manifest;
  manifest.scenarios = scenarios;
  ResultsStore store;
  std::string error;
  ASSERT_TRUE(LoadResultsStore(dir, &store, &error)) << error;
  MergeReport merge = MergeResults(manifest, store);
  EXPECT_TRUE(merge.ok());
  EXPECT_EQ(merge.dropped_interior, 0);
  EXPECT_EQ(merge.canonical, ref);
}

TEST(FleetShard, StaleFingerprintForcesReRun) {
  std::vector<Scenario> scenarios = ExpandGrid(TinyGrid());
  std::string dir = TempPath("stale");
  ShardOptions opts{dir, 0, 1, 1};
  RunShard(scenarios, opts);

  // Change the grid under the store: same names, different parameters.
  std::vector<Scenario> shifted = scenarios;
  for (Scenario& s : shifted) {
    s.seed ^= 0x9e3779b97f4a7c15ull;
  }
  ShardReport resumed = RunShard(shifted, opts);
  EXPECT_EQ(resumed.ran, static_cast<int>(shifted.size()));
  EXPECT_EQ(resumed.skipped, 0);
  EXPECT_EQ(resumed.requeued, static_cast<int>(shifted.size()));
}

TEST(FleetShard, ConflictingReceiptsForceReExecution) {
  std::vector<Scenario> scenarios = ExpandGrid(TinyGrid());
  std::string dir = TempPath("conflict");
  ShardOptions opts{dir, 0, 1, 1};
  RunShard(scenarios, opts);

  // Forge a second receipt for scenario 0 with the right fingerprint but a
  // different hash — a determinism violation as seen from the store.
  ResultsStore store;
  std::string error;
  ASSERT_TRUE(LoadResultsStore(dir, &store, &error)) << error;
  Receipt forged = store.receipts[0];
  forged.trace_hash ^= 0xff;
  std::ofstream(dir + "/shard-9.jsonl", std::ios::app) << ReceiptLine(forged) << "\n";

  ShardReport resumed = RunShard(scenarios, opts);
  EXPECT_EQ(resumed.ran, 1);  // Only the conflicted scenario re-runs.
  EXPECT_EQ(resumed.requeued, 1);
  EXPECT_EQ(resumed.skipped, static_cast<int>(scenarios.size()) - 1);
}

// One run reads each receipt line about once: the startup scan plus one
// incremental refresh per claim. Rereading the store per claim parsed
// about N^2/2 lines.
TEST(FleetShard, ReceiptParsingIsLinearInTheStore) {
  GridSpec spec;
  std::string error;
  ASSERT_TRUE(ParseGridSpec(
      "topo=flat1x4;workload=mix;feat=stock,fixed;policy=cfs;mix=4;seeds=12;"
      "scale=0.02;horizon_ms=20;seed=11",
      &spec, &error))
      << error;
  std::vector<Scenario> scenarios = ExpandGrid(spec);
  const uint64_t n = scenarios.size();
  ASSERT_EQ(n, 24u);
  ShardOptions opts{TempPath("linear"), 0, 1, 1};
  ShardReport fresh = RunShard(scenarios, opts);
  EXPECT_EQ(fresh.ran, static_cast<int>(n));
  EXPECT_LE(fresh.receipts_parsed, 2 * n);

  ShardReport resumed = RunShard(scenarios, opts);
  EXPECT_EQ(resumed.skipped, static_cast<int>(n));
  EXPECT_EQ(resumed.receipts_parsed, n);  // The startup scan alone.
}

TEST(FleetShardDeathTest, DuplicateManifestNamesAreRejected) {
  std::vector<Scenario> scenarios = ExpandGrid(TinyGrid());
  scenarios.push_back(scenarios[0]);
  ShardOptions opts{TempPath("dup_shard"), 0, 1, 1};
  EXPECT_DEATH(RunShard(scenarios, opts), "duplicate scenario name");
}

// ---- wc-trend merge/diff ---------------------------------------------------

TEST(FleetTrend, MergeDetectsMissingAndConflict) {
  std::vector<Scenario> scenarios = ExpandGrid(TinyGrid());
  std::string dir = TempPath("merge_err");
  ShardOptions opts{dir, 0, 1, 1};
  RunShard(scenarios, opts);

  ResultsStore store;
  std::string error;
  ASSERT_TRUE(LoadResultsStore(dir, &store, &error)) << error;

  // Missing: a manifest with one extra scenario nothing receipted.
  std::vector<Scenario> wider = scenarios;
  Scenario extra = scenarios[0];
  extra.name = "grid/extra";
  extra.seed = 999;
  wider.push_back(extra);
  Manifest manifest;
  manifest.scenarios = wider;
  MergeReport missing = MergeResults(manifest, store);
  EXPECT_FALSE(missing.ok());
  ASSERT_EQ(missing.missing.size(), 1u);
  EXPECT_EQ(missing.missing[0], "grid/extra");

  // Conflict: forge a matching-fingerprint, different-hash receipt.
  Receipt forged = store.receipts[0];
  forged.trace_hash ^= 0xff;
  store.receipts.push_back(forged);
  manifest.scenarios = scenarios;
  MergeReport conflict = MergeResults(manifest, store);
  EXPECT_FALSE(conflict.ok());
  ASSERT_EQ(conflict.conflicts.size(), 1u);
  EXPECT_EQ(conflict.conflicts[0], forged.name);

  // Orphan: a receipt whose name the manifest does not know.
  store.receipts.pop_back();
  Receipt orphan = store.receipts[0];
  orphan.name = "grid/ghost";
  store.receipts.push_back(orphan);
  MergeReport orphaned = MergeResults(manifest, store);
  EXPECT_FALSE(orphaned.ok());
  ASSERT_EQ(orphaned.orphans.size(), 1u);
  EXPECT_EQ(orphaned.orphans[0], "grid/ghost");
}

TEST(FleetTrend, MergeDedupsByteIdenticalDuplicates) {
  std::vector<Scenario> scenarios = ExpandGrid(TinyGrid());
  std::string dir = TempPath("merge_dup");
  ShardOptions opts{dir, 0, 1, 1};
  RunShard(scenarios, opts);

  ResultsStore store;
  std::string error;
  ASSERT_TRUE(LoadResultsStore(dir, &store, &error)) << error;
  // A benign claim race: the same scenario receipted twice, same payload
  // (different wall_ms is still canonical-identical).
  Receipt dup = store.receipts[0];
  dup.wall_ms += 5;
  store.receipts.push_back(dup);

  Manifest manifest;
  manifest.scenarios = scenarios;
  MergeReport merge = MergeResults(manifest, store);
  EXPECT_TRUE(merge.ok());
  EXPECT_EQ(merge.duplicates, 1);
  EXPECT_EQ(merge.unique, static_cast<int>(scenarios.size()));
}

TEST(FleetTrend, DiffReportsAddsRemovesHashAndMetricChanges) {
  Receipt a1 = MakeReceipt("grid/a", 1, 10);
  Receipt b1 = MakeReceipt("grid/b", 2, 20);
  Receipt c1 = MakeReceipt("grid/c", 3, 30);
  Receipt a2 = a1;                 // Unchanged.
  Receipt b2 = b1;
  b2.trace_hash = 21;              // Hash drift.
  b2.metrics["make_span_s"] = 2.5; // Metric moved with it.
  Receipt d2 = MakeReceipt("grid/d", 4, 40);  // Added; c removed.

  DiffReport diff = DiffStores({a1, b1, c1}, {a2, b2, d2});
  EXPECT_FALSE(diff.identical());
  ASSERT_EQ(diff.added.size(), 1u);
  EXPECT_EQ(diff.added[0], "grid/d");
  ASSERT_EQ(diff.removed.size(), 1u);
  EXPECT_EQ(diff.removed[0], "grid/c");
  ASSERT_EQ(diff.hash_changes.size(), 1u);
  EXPECT_EQ(diff.hash_changes[0].name, "grid/b");
  EXPECT_EQ(diff.hash_changes[0].hash_a, 20u);
  EXPECT_EQ(diff.hash_changes[0].hash_b, 21u);
  ASSERT_EQ(diff.metric_deltas.size(), 1u);
  EXPECT_EQ(diff.metric_deltas[0].name, "grid/b");
  EXPECT_EQ(diff.metric_deltas[0].key, "make_span_s");
  EXPECT_EQ(diff.metric_deltas[0].value_a, "1.5");
  EXPECT_EQ(diff.metric_deltas[0].value_b, "2.5");
  EXPECT_EQ(diff.unchanged, 1);

  DiffReport same = DiffStores({a1, b1}, {a1, b1});
  EXPECT_TRUE(same.identical());
  EXPECT_EQ(same.unchanged, 2);
}

TEST(FleetTrend, MergedStoreRoundTripsThroughFile) {
  std::vector<Scenario> scenarios = ExpandGrid(TinyGrid());
  std::string dir = TempPath("round");
  ShardOptions opts{dir, 0, 1, 2};
  RunShard(scenarios, opts);

  Manifest manifest;
  manifest.scenarios = scenarios;
  ResultsStore store;
  std::string error;
  ASSERT_TRUE(LoadResultsStore(dir, &store, &error)) << error;
  MergeReport merge = MergeResults(manifest, store);
  ASSERT_TRUE(merge.ok());

  std::string path = TempPath("merged.jsonl");
  WriteAll(path, merge.canonical);
  std::vector<Receipt> loaded;
  ASSERT_TRUE(LoadMergedStore(path, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), scenarios.size());
  DiffReport diff = DiffStores(loaded, loaded);
  EXPECT_TRUE(diff.identical());
}

}  // namespace
}  // namespace wcores
