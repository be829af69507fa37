// Minimal JSON text helpers for the fleet-sweep stores (manifest lines,
// receipt lines, merged trend output).
//
// These stores are *canonical*: the same logical record must serialize to
// the same bytes on every host and in every process, because the merge tool
// compares sharded runs to single-process runs with a byte equality check.
// That rules out std::to_string for doubles (locale-dependent) and demands a
// fixed round-trip format, so the helpers live here instead of each caller
// improvising.
//
// (bench/bench_util.h carries similar helpers for the BENCH_*.json reports;
// they are deliberately not shared — bench_util is a header-only host-side
// convenience, while these definitions are part of the receipt format
// contract and are versioned with the sweep library.)
#ifndef SRC_TOOLS_SWEEP_JSONL_H_
#define SRC_TOOLS_SWEEP_JSONL_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/telemetry/chrome_trace.h"

namespace wcores {

// "quoted" JSON string with the mandatory escapes.
inline std::string QuoteJson(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

// Shortest %g rendering that round-trips the double exactly; falls back to
// %.17g when %g loses bits. Non-finite values serialize as null.
inline std::string NumberJson(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  double back = std::strtod(buf, nullptr);
  bool exact = !(back < v) && !(v < back);  // bitwise-equal magnitudes round-trip.
  if (!exact) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

// uint64 values (seeds, fingerprints, trace hashes) as fixed-width hex
// strings: JSON numbers are doubles and silently lose bits above 2^53.
inline std::string HexJson(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"%016llx\"", static_cast<unsigned long long>(v));
  return buf;
}

inline std::string Hex16(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Strict parse of a 16-digit hex string (the HexJson payload).
inline bool ParseHex16(const std::string& s, uint64_t* out) {
  if (s.size() != 16) {
    return false;
  }
  uint64_t v = 0;
  for (char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *out = v;
  return true;
}

// Why a JSON field is not an exact unsigned integer (GetJsonUint).
enum class JsonUintError { kNone, kMissing, kNegative, kFractional, kTooLarge };

inline const char* JsonUintErrorText(JsonUintError e) {
  switch (e) {
    case JsonUintError::kNone: return "ok";
    case JsonUintError::kMissing: return "missing or not a number";
    case JsonUintError::kNegative: return "negative";
    case JsonUintError::kFractional: return "not an integer";
    case JsonUintError::kTooLarge: return "above 2^53 - 1";
  }
  return "invalid";
}

// Reads member `key` of a parsed object as an unsigned integer. JSON numbers
// are doubles: every integer up to 2^53 - 1 parses exactly, but 2^53 + 1
// parses to 2^53, so from 2^53 up a value may not be the one written. A
// negative (even -0), fractional or larger value is refused rather than
// cast, because the cast truncates silently and, past 2^64, is undefined.
inline JsonUintError GetJsonUint(const JsonValue& obj, const char* key, uint64_t* out) {
  constexpr double kMaxExact = 9007199254740991.0;  // 2^53 - 1.
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || v->type != JsonValue::Type::kNumber) {
    return JsonUintError::kMissing;
  }
  if (std::signbit(v->number)) {
    return JsonUintError::kNegative;
  }
  if (!(v->number == std::floor(v->number))) {
    return JsonUintError::kFractional;
  }
  if (v->number > kMaxExact) {
    return JsonUintError::kTooLarge;
  }
  *out = static_cast<uint64_t>(v->number);
  return JsonUintError::kNone;
}

}  // namespace wcores

#endif  // SRC_TOOLS_SWEEP_JSONL_H_
