#include "src/tools/sweep/receipts.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "src/telemetry/chrome_trace.h"
#include "src/tools/sweep/jsonl.h"

namespace wcores {

Receipt ReceiptFromResult(const ScenarioResult& result, uint64_t fingerprint) {
  Receipt r;
  r.name = result.name;
  r.fingerprint = fingerprint;
  r.trace_hash = result.trace_hash;
  r.trace_events = result.trace_events;
  r.sim_events = result.sim_events;
  r.context_switches = result.context_switches;
  r.migrations = result.migrations;
  r.virtual_s = result.virtual_seconds;
  r.all_exited = result.all_exited;
  r.metrics = result.metrics;
  r.wall_ms = result.wall_ms;
  return r;
}

namespace {

std::string ReceiptBody(const Receipt& r, bool with_wall) {
  std::string out = "{";
  out += "\"name\": " + QuoteJson(r.name);
  out += ", \"fingerprint\": " + HexJson(r.fingerprint);
  out += ", \"trace_hash\": " + HexJson(r.trace_hash);
  out += ", \"trace_events\": " + std::to_string(r.trace_events);
  out += ", \"sim_events\": " + std::to_string(r.sim_events);
  out += ", \"context_switches\": " + std::to_string(r.context_switches);
  out += ", \"migrations\": " + std::to_string(r.migrations);
  out += ", \"virtual_s\": " + NumberJson(r.virtual_s);
  out += ", \"all_exited\": " + std::string(r.all_exited ? "1" : "0");
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [key, value] : r.metrics) {
    out += first ? "" : ", ";
    out += QuoteJson(key) + ": " + NumberJson(value);
    first = false;
  }
  out += "}";
  if (with_wall) {
    out += ", \"wall_ms\": " + NumberJson(r.wall_ms);
  }
  out += "}";
  return out;
}

}  // namespace

std::string ReceiptLine(const Receipt& r) { return ReceiptBody(r, /*with_wall=*/true); }

std::string ReceiptCanonical(const Receipt& r) { return ReceiptBody(r, /*with_wall=*/false); }

bool ParseReceiptLine(const std::string& line, Receipt* out, std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) {
      *error = msg;
    }
    return false;
  };
  JsonValue root;
  std::string parse_error;
  if (!ParseJson(line, &root, &parse_error)) {
    return fail("receipt line is not valid JSON: " + parse_error);
  }
  if (root.type != JsonValue::Type::kObject) {
    return fail("receipt line is not a JSON object");
  }
  Receipt r;
  const JsonValue* name = root.Find("name");
  if (name == nullptr || name->type != JsonValue::Type::kString || name->str.empty()) {
    return fail("receipt line: missing 'name'");
  }
  r.name = name->str;
  auto hex_field = [&](const char* key, uint64_t* value) {
    const JsonValue* v = root.Find(key);
    return v != nullptr && v->type == JsonValue::Type::kString && ParseHex16(v->str, value);
  };
  std::string count_error;
  auto count_field = [&](const char* key, uint64_t* value) {
    JsonUintError e = GetJsonUint(root, key, value);
    if (e != JsonUintError::kNone) {
      count_error = std::string(": '") + key + "' " + JsonUintErrorText(e);
    }
    return e == JsonUintError::kNone;
  };
  if (!hex_field("fingerprint", &r.fingerprint)) {
    return fail("receipt '" + r.name + "': bad 'fingerprint'");
  }
  if (!hex_field("trace_hash", &r.trace_hash)) {
    return fail("receipt '" + r.name + "': bad 'trace_hash'");
  }
  if (!count_field("trace_events", &r.trace_events) ||
      !count_field("sim_events", &r.sim_events) ||
      !count_field("context_switches", &r.context_switches) ||
      !count_field("migrations", &r.migrations)) {
    return fail("receipt '" + r.name + "': bad event counts" + count_error);
  }
  const JsonValue* virtual_s = root.Find("virtual_s");
  if (virtual_s == nullptr || virtual_s->type != JsonValue::Type::kNumber) {
    return fail("receipt '" + r.name + "': bad 'virtual_s'");
  }
  r.virtual_s = virtual_s->number;
  uint64_t exited = 0;
  if (!count_field("all_exited", &exited) || exited > 1) {
    return fail("receipt '" + r.name + "': bad 'all_exited'" + count_error);
  }
  r.all_exited = exited != 0;
  const JsonValue* metrics = root.Find("metrics");
  if (metrics == nullptr || metrics->type != JsonValue::Type::kObject) {
    return fail("receipt '" + r.name + "': bad 'metrics'");
  }
  for (const auto& [key, value] : metrics->object) {
    if (value.type != JsonValue::Type::kNumber) {
      return fail("receipt '" + r.name + "': non-numeric metric '" + key + "'");
    }
    r.metrics[key] = value.number;
  }
  const JsonValue* wall = root.Find("wall_ms");  // Absent in canonical form.
  if (wall != nullptr && wall->type == JsonValue::Type::kNumber) {
    r.wall_ms = wall->number;
  }
  *out = std::move(r);
  return true;
}

size_t CleanReceiptPrefixBytes(const std::string& content) {
  size_t clean_end = 0;
  size_t start = 0;
  while (start < content.size()) {
    size_t newline = content.find('\n', start);
    if (newline == std::string::npos) {
      break;  // Incomplete tail: everything from `start` is dirty.
    }
    std::string line = content.substr(start, newline - start);
    Receipt r;
    if (!line.empty() && !ParseReceiptLine(line, &r, nullptr)) {
      break;  // First unparseable complete line: stop trusting the rest.
    }
    clean_end = newline + 1;
    start = newline + 1;
  }
  return clean_end;
}

namespace {

// The *.jsonl files of a results dir, sorted by name. A missing dir has
// none. Returns false only when the dir exists but cannot be listed.
bool ListReceiptFiles(const std::string& dir, std::vector<std::filesystem::path>* files,
                      std::string* error) {
  files->clear();
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) {
    return true;  // A results dir that does not exist yet is empty.
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".jsonl") {
      files->push_back(entry.path());
    }
  }
  if (ec) {
    if (error != nullptr) {
      *error = "cannot list results dir '" + dir + "': " + ec.message();
    }
    return false;
  }
  std::sort(files->begin(), files->end());
  return true;
}

}  // namespace

bool LoadResultsStore(const std::string& dir, ResultsStore* out, std::string* error) {
  ResultsStore store;
  std::vector<std::filesystem::path> files;
  if (!ListReceiptFiles(dir, &files, error)) {
    return false;
  }
  for (const std::filesystem::path& file : files) {
    std::ifstream in(file);
    if (!in.good()) {
      if (error != nullptr) {
        *error = "cannot open results file '" + file.string() + "'";
      }
      return false;
    }
    store.files++;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
      lines.push_back(line);
    }
    // A file killed mid-append ends without a newline; getline still yields
    // that fragment as the final element, where the trailing-tolerance rule
    // below handles it.
    for (size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].empty()) {
        continue;
      }
      Receipt r;
      std::string parse_error;
      if (ParseReceiptLine(lines[i], &r, &parse_error)) {
        store.receipts.push_back(std::move(r));
        continue;
      }
      bool trailing = i + 1 == lines.size();
      if (trailing) {
        store.dropped_trailing++;
      } else {
        store.dropped_interior++;
      }
      std::ostringstream warning;
      warning << file.filename().string() << " line " << (i + 1) << " ("
              << (trailing ? "trailing" : "interior") << "): " << parse_error;
      store.warnings.push_back(warning.str());
    }
  }
  *out = std::move(store);
  return true;
}

bool ReceiptIndex::Refresh(std::string* error) {
  bool stale = false;
  if (!Scan(&stale, error)) {
    return false;
  }
  if (!stale) {
    return true;
  }
  files_.clear();
  committed_.clear();
  // Nothing is tracked any more, so this pass cannot find anything stale.
  return Scan(&stale, error);
}

bool ReceiptIndex::Scan(bool* stale, std::string* error) {
  *stale = false;
  std::vector<std::filesystem::path> files;
  if (!ListReceiptFiles(dir_, &files, error)) {
    return false;
  }
  size_t tracked_listed = 0;
  for (const std::filesystem::path& file : files) {
    tracked_listed += files_.count(file.string());
  }
  if (tracked_listed != files_.size()) {
    *stale = true;  // A tracked file vanished.
    return true;
  }
  pending_.clear();
  for (const std::filesystem::path& file : files) {
    if (!ScanFile(file.string(), stale, error)) {
      return false;
    }
    if (*stale) {
      return true;
    }
  }
  return true;
}

bool ReceiptIndex::ScanFile(const std::string& path, bool* stale, std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = "cannot " + what + " results file '" + path + "'";
    }
    return false;
  };
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(std::fopen(path.c_str(), "rb"),
                                                       &std::fclose);
  if (file == nullptr) {
    if (errno == ENOENT) {
      *stale = files_.count(path) != 0;  // Vanished since the listing.
      return true;
    }
    return fail("open");
  }
  struct stat st {};
  if (::fstat(::fileno(file.get()), &st) != 0) {
    return fail("stat");
  }
  auto [it, fresh] = files_.try_emplace(path);
  FileCursor& cursor = it->second;
  if (!fresh && (cursor.dev != static_cast<uint64_t>(st.st_dev) ||
                 cursor.ino != static_cast<uint64_t>(st.st_ino) ||
                 static_cast<uint64_t>(st.st_size) < cursor.size)) {
    *stale = true;
    return true;
  }
  cursor.dev = static_cast<uint64_t>(st.st_dev);
  cursor.ino = static_cast<uint64_t>(st.st_ino);

  // Everything past the cursor, up to whatever EOF is by the time we read.
  if (::fseeko(file.get(), static_cast<off_t>(cursor.clean_end), SEEK_SET) != 0) {
    return fail("seek in");
  }
  std::string fresh_bytes;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), file.get())) > 0) {
    fresh_bytes.append(buf, n);
  }
  if (std::ferror(file.get()) != 0) {
    return fail("read");
  }
  cursor.size = cursor.clean_end + fresh_bytes.size();

  // Same line split as LoadResultsStore: '\n'-terminated lines plus a final
  // unterminated fragment, empty lines ignored. Lines commit while the
  // prefix stays clean; after the first unparseable complete line, and for
  // the fragment, receipts only go to pending_.
  const uint64_t base = cursor.clean_end;
  bool clean = true;
  size_t start = 0;
  while (start < fresh_bytes.size()) {
    size_t newline = fresh_bytes.find('\n', start);
    bool complete = newline != std::string::npos;
    size_t end = complete ? newline : fresh_bytes.size();
    if (end > start) {
      Receipt r;
      lines_parsed_++;
      if (ParseReceiptLine(fresh_bytes.substr(start, end - start), &r, nullptr)) {
        ByName& into = clean && complete ? committed_ : pending_;
        into[r.name].push_back(Entry{r.fingerprint, r.trace_hash, r.trace_events});
      } else if (complete) {
        clean = false;
      }
    }
    if (!complete) {
      break;
    }
    start = newline + 1;
    if (clean) {
      cursor.clean_end = base + start;
    }
  }
  return true;
}

bool ReceiptIndex::Done(const std::string& name, uint64_t fingerprint,
                        bool* had_receipts) const {
  *had_receipts = false;
  const Entry* first_match = nullptr;
  for (const ByName* receipts : {&committed_, &pending_}) {
    auto it = receipts->find(name);
    if (it == receipts->end()) {
      continue;
    }
    *had_receipts = true;
    for (const Entry& e : it->second) {
      if (e.fingerprint != fingerprint) {
        continue;  // Stale: the grid definition changed under the store.
      }
      if (first_match == nullptr) {
        first_match = &e;
      } else if (e.trace_hash != first_match->trace_hash ||
                 e.trace_events != first_match->trace_events) {
        return false;  // Conflicting receipts: force re-execution.
      }
    }
  }
  return first_match != nullptr;
}

}  // namespace wcores
