// Golden-file tests for the schedstat report parser and the Chrome-trace
// validator. The existing telemetry tests are round-trip (render → parse),
// which cannot catch a bug that changes renderer and parser symmetrically;
// these fixtures freeze the on-disk formats.
//
// Fixtures live in tests/telemetry/testdata/ and are located through the
// WC_TESTDATA_DIR compile definition, so the tests run from any directory.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "src/telemetry/chrome_trace.h"
#include "src/telemetry/schedstat.h"

namespace wcores {
namespace {

std::string ReadFixture(const std::string& name) {
  std::string path = std::string(WC_TESTDATA_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(SchedstatGolden, ParsesGoodReport) {
  ParsedSchedstat parsed;
  ASSERT_TRUE(ParseSchedstatReport(ReadFixture("schedstat_good.txt"), &parsed));

  EXPECT_EQ(parsed.version, 1);
  EXPECT_EQ(parsed.timestamp, 2000000000u);
  EXPECT_EQ(parsed.cpus, 2);
  EXPECT_EQ(parsed.nodes, 1);
  EXPECT_EQ(parsed.online, 2);

  EXPECT_EQ(parsed.counters.size(), 6u);
  EXPECT_EQ(parsed.counters.at("forks"), 10u);
  EXPECT_EQ(parsed.counters.at("exits"), 8u);
  EXPECT_EQ(parsed.counters.at("wakeups"), 123u);
  EXPECT_EQ(parsed.counters.at("balance_calls"), 40u);
  EXPECT_EQ(parsed.counters.at("migrations_idle"), 3u);
  EXPECT_EQ(parsed.counters.at("ticks"), 500u);

  ASSERT_EQ(parsed.latencies.size(), 5u);
  const auto& wakeup0 = parsed.latencies.at("cpu0 wakeup");
  EXPECT_EQ(wakeup0.count, 100u);
  EXPECT_DOUBLE_EQ(wakeup0.p50_us, 12.5);
  EXPECT_DOUBLE_EQ(wakeup0.p95_us, 80.25);
  EXPECT_DOUBLE_EQ(wakeup0.p99_us, 95.125);
  EXPECT_DOUBLE_EQ(wakeup0.max_us, 120.0);
  const auto& machine = parsed.latencies.at("machine timeslice");
  EXPECT_EQ(machine.count, 400u);
  EXPECT_DOUBLE_EQ(machine.max_us, 2000.0);
  // The prose verdict table between counters and latencies must be skipped,
  // not parsed into anything.
  EXPECT_EQ(parsed.counters.count("no_busiest"), 0u);
}

TEST(SchedstatGolden, RejectsMalformedReports) {
  ParsedSchedstat parsed;
  EXPECT_FALSE(ParseSchedstatReport(ReadFixture("schedstat_malformed_counter.txt"), &parsed));
  EXPECT_FALSE(ParseSchedstatReport(ReadFixture("schedstat_malformed_lat.txt"), &parsed));
  EXPECT_FALSE(ParseSchedstatReport(ReadFixture("schedstat_missing_header.txt"), &parsed));
  EXPECT_FALSE(ParseSchedstatReport(ReadFixture("schedstat_bad_version.txt"), &parsed));
  EXPECT_FALSE(ParseSchedstatReport(ReadFixture("schedstat_negative_counter.txt"), &parsed));

  // Numeric fields parse whole and checked: a sign or a non-digit never
  // wraps around to a huge unsigned value or collapses to 0.
  const std::string good = ReadFixture("schedstat_good.txt");
  auto with = [&good](const std::string& from, const std::string& to) {
    std::string report = good;
    size_t at = report.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return report.replace(at, from.size(), to);
  };
  EXPECT_FALSE(ParseSchedstatReport(with("timestamp_ns 2000000000", "timestamp_ns -1"), &parsed));
  EXPECT_FALSE(ParseSchedstatReport(with("timestamp_ns 2000000000", "timestamp_ns 2e9"), &parsed));
  EXPECT_FALSE(ParseSchedstatReport(with("cpus 2 nodes", "cpus -2 nodes"), &parsed));
  EXPECT_FALSE(ParseSchedstatReport(with("nodes 1 online", "nodes -1 online"), &parsed));
  EXPECT_FALSE(ParseSchedstatReport(with("online 2\n", "online -2\n"), &parsed));
  EXPECT_FALSE(ParseSchedstatReport(with("counter ticks 500", "counter ticks 5x"), &parsed));
  EXPECT_FALSE(ParseSchedstatReport(
      with("counter ticks 500", "counter ticks 99999999999999999999"), &parsed));
  EXPECT_FALSE(ParseSchedstatReport(with("lat cpu0 wakeup 100", "lat cpu0 wakeup -100"), &parsed));
}

TEST(ChromeTraceGolden, AcceptsGoodTrace) {
  ChromeTraceCheck check = CheckChromeTrace(ReadFixture("chrome_trace_good.json"));
  EXPECT_TRUE(check.valid_json) << check.error;
  EXPECT_TRUE(check.ts_monotonic);
  EXPECT_TRUE(check.slices_balanced);
  EXPECT_EQ(check.thread_name_records, 2);
  EXPECT_EQ(check.slices, 2u);
  EXPECT_EQ(check.counters, 2u);
  EXPECT_EQ(check.instants, 1u);
  EXPECT_TRUE(check.Ok(2));
  EXPECT_FALSE(check.Ok(4)) << "Ok() must require one thread_name per cpu";
}

TEST(ChromeTraceGolden, FlagsUnbalancedSlices) {
  ChromeTraceCheck check = CheckChromeTrace(ReadFixture("chrome_trace_unbalanced.json"));
  EXPECT_TRUE(check.valid_json) << check.error;
  EXPECT_FALSE(check.slices_balanced);
  EXPECT_FALSE(check.Ok(1));
}

TEST(ChromeTraceGolden, FlagsNonMonotonicTimestamps) {
  ChromeTraceCheck check = CheckChromeTrace(ReadFixture("chrome_trace_nonmonotonic.json"));
  EXPECT_TRUE(check.valid_json) << check.error;
  EXPECT_FALSE(check.ts_monotonic);
  EXPECT_FALSE(check.Ok(1));
}

TEST(ChromeTraceGolden, FlagsInvalidJson) {
  ChromeTraceCheck check = CheckChromeTrace(ReadFixture("chrome_trace_invalid.json"));
  EXPECT_FALSE(check.valid_json);
  EXPECT_FALSE(check.error.empty());
  EXPECT_FALSE(check.Ok(1));
}

}  // namespace
}  // namespace wcores
