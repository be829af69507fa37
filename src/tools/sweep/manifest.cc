#include "src/tools/sweep/manifest.h"

#include <filesystem>
#include <fstream>
#include <set>

#include "src/simkit/check.h"
#include "src/telemetry/chrome_trace.h"
#include "src/tools/sweep/grid.h"
#include "src/tools/sweep/jsonl.h"

namespace wcores {

namespace {

const char* NasAppAxisName(NasApp app) {
  switch (app) {
    case NasApp::kBt: return "bt";
    case NasApp::kCg: return "cg";
    case NasApp::kEp: return "ep";
    case NasApp::kFt: return "ft";
    case NasApp::kIs: return "is";
    case NasApp::kLu: return "lu";
    case NasApp::kMg: return "mg";
    case NasApp::kSp: return "sp";
    case NasApp::kUa: return "ua";
  }
  return "lu";
}

bool NasAppByAxisName(const std::string& name, NasApp* out) {
  for (NasApp app : {NasApp::kBt, NasApp::kCg, NasApp::kEp, NasApp::kFt, NasApp::kIs,
                     NasApp::kLu, NasApp::kMg, NasApp::kSp, NasApp::kUa}) {
    if (name == NasAppAxisName(app)) {
      *out = app;
      return true;
    }
  }
  return false;
}

// Typed field lookups over a parsed line. Each returns false on a missing
// key or a wrong type, which the caller turns into one uniform error.
bool GetString(const JsonValue& obj, const char* key, std::string* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || v->type != JsonValue::Type::kString) {
    return false;
  }
  *out = v->str;
  return true;
}

bool GetU64Number(const JsonValue& obj, const char* key, uint64_t* out) {
  return GetJsonUint(obj, key, out) == JsonUintError::kNone;
}

bool GetDouble(const JsonValue& obj, const char* key, double* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || v->type != JsonValue::Type::kNumber) {
    return false;
  }
  *out = v->number;
  return true;
}

bool GetHex64(const JsonValue& obj, const char* key, uint64_t* out) {
  std::string s;
  return GetString(obj, key, &s) && ParseHex16(s, out);
}

bool GetBool01(const JsonValue& obj, const char* key, bool* out) {
  uint64_t v = 0;
  if (!GetU64Number(obj, key, &v) || v > 1) {
    return false;
  }
  *out = v != 0;
  return true;
}

}  // namespace

std::string ScenarioToJsonLine(const Scenario& s) {
  std::string out = "{";
  out += "\"name\": " + QuoteJson(s.name);
  out += ", \"fingerprint\": " + HexJson(ScenarioFingerprint(s));
  out += ", \"topo\": " + QuoteJson(TopoName(s.topo));
  out += ", \"workload\": " + QuoteJson(WorkloadName(s.workload));
  out += ", \"fix_group_imbalance\": " + std::string(s.features.fix_group_imbalance ? "1" : "0");
  out += ", \"fix_group_construction\": " +
         std::string(s.features.fix_group_construction ? "1" : "0");
  out += ", \"fix_overload_wakeup\": " + std::string(s.features.fix_overload_wakeup ? "1" : "0");
  out += ", \"fix_missing_domains\": " + std::string(s.features.fix_missing_domains ? "1" : "0");
  out += ", \"autogroup\": " + std::string(s.features.autogroup_enabled ? "1" : "0");
  out += ", \"seed\": " + HexJson(s.seed);
  out += ", \"horizon_ns\": " + HexJson(s.horizon);
  out += ", \"scale\": " + NumberJson(s.scale);
  out += ", \"nas_app\": " + QuoteJson(NasAppAxisName(s.nas_app));
  out += ", \"nas_threads\": " + std::to_string(s.nas_threads);
  out += ", \"mix_threads\": " + std::to_string(s.mix_threads);
  out += ", \"policy\": " + QuoteJson(s.policy);
  out += ", \"stream\": " + std::string(s.stream ? "1" : "0");
  out += ", \"stream_horizon_ns\": " + HexJson(s.stream_horizon);
  out += "}";
  return out;
}

bool ScenarioFromJsonLine(const std::string& line, Scenario* out, std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) {
      *error = msg;
    }
    return false;
  };
  JsonValue root;
  std::string parse_error;
  if (!ParseJson(line, &root, &parse_error)) {
    return fail("manifest line is not valid JSON: " + parse_error);
  }
  if (root.type != JsonValue::Type::kObject) {
    return fail("manifest line is not a JSON object");
  }
  Scenario s;
  std::string topo_name, workload_name, nas_name;
  uint64_t fingerprint = 0, nas_threads = 0, mix_threads = 0;
  if (!GetString(root, "name", &s.name) || s.name.empty()) {
    return fail("manifest line: missing or empty 'name'");
  }
  if (!GetHex64(root, "fingerprint", &fingerprint)) {
    return fail("manifest line '" + s.name + "': bad 'fingerprint'");
  }
  if (!GetString(root, "topo", &topo_name) || !TopoByName(topo_name, &s.topo)) {
    return fail("manifest line '" + s.name + "': bad 'topo'");
  }
  if (!GetString(root, "workload", &workload_name) ||
      !WorkloadByName(workload_name, &s.workload)) {
    return fail("manifest line '" + s.name + "': bad 'workload'");
  }
  if (!GetBool01(root, "fix_group_imbalance", &s.features.fix_group_imbalance) ||
      !GetBool01(root, "fix_group_construction", &s.features.fix_group_construction) ||
      !GetBool01(root, "fix_overload_wakeup", &s.features.fix_overload_wakeup) ||
      !GetBool01(root, "fix_missing_domains", &s.features.fix_missing_domains) ||
      !GetBool01(root, "autogroup", &s.features.autogroup_enabled)) {
    return fail("manifest line '" + s.name + "': bad feature flags");
  }
  if (!GetHex64(root, "seed", &s.seed)) {
    return fail("manifest line '" + s.name + "': bad 'seed'");
  }
  if (!GetHex64(root, "horizon_ns", &s.horizon)) {
    return fail("manifest line '" + s.name + "': bad 'horizon_ns'");
  }
  if (!GetDouble(root, "scale", &s.scale) || !(s.scale > 0)) {
    return fail("manifest line '" + s.name + "': bad 'scale'");
  }
  if (!GetString(root, "nas_app", &nas_name) || !NasAppByAxisName(nas_name, &s.nas_app)) {
    return fail("manifest line '" + s.name + "': bad 'nas_app'");
  }
  if (!GetU64Number(root, "nas_threads", &nas_threads) || nas_threads < 1 ||
      nas_threads > 65536) {
    return fail("manifest line '" + s.name + "': bad 'nas_threads'");
  }
  s.nas_threads = static_cast<int>(nas_threads);
  if (!GetU64Number(root, "mix_threads", &mix_threads) || mix_threads < 1 ||
      mix_threads > 65536) {
    return fail("manifest line '" + s.name + "': bad 'mix_threads'");
  }
  s.mix_threads = static_cast<int>(mix_threads);
  if (!GetString(root, "policy", &s.policy)) {
    return fail("manifest line '" + s.name + "': bad 'policy'");
  }
  if (!GetBool01(root, "stream", &s.stream)) {
    return fail("manifest line '" + s.name + "': bad 'stream'");
  }
  if (!GetHex64(root, "stream_horizon_ns", &s.stream_horizon)) {
    return fail("manifest line '" + s.name + "': bad 'stream_horizon_ns'");
  }
  // The stored fingerprint must equal the one the reconstructed scenario
  // produces: this catches hand-edits, axis-vocabulary skew between binary
  // versions, and any field this codec would silently default.
  if (ScenarioFingerprint(s) != fingerprint) {
    return fail("manifest line '" + s.name +
                "': fingerprint mismatch (stale or edited manifest)");
  }
  *out = std::move(s);
  return true;
}

void WriteManifest(const std::string& path, const std::vector<Scenario>& scenarios) {
  std::set<std::string> names;
  for (const Scenario& s : scenarios) {
    bool inserted = names.insert(s.name).second;
    WC_CHECK(inserted, "duplicate scenario name in manifest");
  }
  std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream out(p);
  WC_CHECK(out.good(), "cannot open manifest path for writing");
  out << "{\"wc_manifest\": 1, \"count\": " << scenarios.size() << "}\n";
  for (const Scenario& s : scenarios) {
    out << ScenarioToJsonLine(s) << "\n";
  }
  out.flush();
  WC_CHECK(out.good(), "manifest write failed");
}

bool LoadManifest(const std::string& path, Manifest* out, std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) {
      *error = msg;
    }
    return false;
  };
  std::ifstream in(path);
  if (!in.good()) {
    return fail("cannot open manifest '" + path + "'");
  }
  std::string header;
  if (!std::getline(in, header)) {
    return fail("manifest '" + path + "' is empty");
  }
  JsonValue root;
  std::string parse_error;
  if (!ParseJson(header, &root, &parse_error) || root.type != JsonValue::Type::kObject) {
    return fail("manifest '" + path + "': bad header line: " + parse_error);
  }
  uint64_t version = 0, count = 0;
  if (!GetU64Number(root, "wc_manifest", &version) || version != 1) {
    return fail("manifest '" + path + "': unsupported header (want wc_manifest: 1)");
  }
  if (!GetU64Number(root, "count", &count)) {
    return fail("manifest '" + path + "': header missing 'count'");
  }
  Manifest manifest;
  std::set<std::string> names;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    Scenario s;
    if (!ScenarioFromJsonLine(line, &s, error)) {
      return false;
    }
    if (!names.insert(s.name).second) {
      return fail("manifest '" + path + "': duplicate scenario name '" + s.name + "'");
    }
    manifest.scenarios.push_back(std::move(s));
  }
  if (manifest.scenarios.size() != count) {
    return fail("manifest '" + path + "': header count " + std::to_string(count) +
                " != " + std::to_string(manifest.scenarios.size()) + " scenario lines");
  }
  *out = std::move(manifest);
  return true;
}

}  // namespace wcores
