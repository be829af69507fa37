// Receipts: the verifiable, resumable result records of the fleet sweep.
//
// Every completed scenario reduces to one JSON line — name, canonical
// parameter fingerprint (grid.h), trace hash, event counts, metrics, wall
// time — appended to a per-shard `<results_dir>/shard-K.jsonl` file. The
// pair (fingerprint, trace_hash) is the paper's determinism contract made
// portable: any process, on any host, that runs the same parameterization
// must reproduce the same hash, so a results store doubles as a
// bit-for-bit verification artifact and a perf/correctness trajectory
// database for trend tooling (src/tools/trend).
//
// Resume semantics (shard.h relies on these, fleet_test pins them):
//  - a scenario is DONE iff the store holds at least one receipt whose
//    fingerprint matches the manifest's, and every such receipt agrees on
//    (trace_hash, trace_events);
//  - a fingerprint mismatch means the grid definition changed under the
//    store: the receipt is stale and the scenario re-runs;
//  - receipts that agree disagreeing — two matching fingerprints with
//    different hashes — mark a determinism violation or a corrupted store:
//    the scenario re-runs, and `wc-trend merge` reports the conflict
//    rather than guessing a winner.
//
// Loading tolerates a truncated or corrupt *trailing* line per file (a
// shard killed mid-append) by dropping it; the scenario simply re-runs on
// resume. Interior corruption is also dropped but counted separately —
// the merge tool treats it as an integrity error, because append-only
// writers cannot produce it.
//
// The resume decision itself is ReceiptIndex: the same DONE rule, kept
// current by reading only what the store gained since the last look.
#ifndef SRC_TOOLS_SWEEP_RECEIPTS_H_
#define SRC_TOOLS_SWEEP_RECEIPTS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/tools/sweep/scenario.h"

namespace wcores {

struct Receipt {
  std::string name;
  uint64_t fingerprint = 0;
  uint64_t trace_hash = 0;
  uint64_t trace_events = 0;
  uint64_t sim_events = 0;
  uint64_t context_switches = 0;
  uint64_t migrations = 0;
  double virtual_s = 0;
  bool all_exited = false;
  std::map<std::string, double> metrics;  // Workload scalars, sorted by key.
  double wall_ms = 0;                     // Host-volatile; see CanonicalLine.
};

Receipt ReceiptFromResult(const ScenarioResult& result, uint64_t fingerprint);

// Full store line, including the host-volatile wall_ms (no newline).
std::string ReceiptLine(const Receipt& r);

// Canonical form: the full line minus wall_ms. Two runs of the same
// scenario on different hosts produce byte-identical canonical lines; the
// merge tool's "sharded == single-process" equality check compares these.
std::string ReceiptCanonical(const Receipt& r);

// Parses either form. Returns false and fills *error on malformed input.
bool ParseReceiptLine(const std::string& line, Receipt* out, std::string* error);

struct ResultsStore {
  std::vector<Receipt> receipts;  // All shard files, file-name order.
  int files = 0;
  int dropped_trailing = 0;  // Tolerated: killed-mid-append tails.
  int dropped_interior = 0;  // Store damage; merge refuses these.
  std::vector<std::string> warnings;
};

// Loads every *.jsonl file in `dir` (sorted by filename). Missing dir is
// an empty store, not an error. Returns false only on I/O failure.
bool LoadResultsStore(const std::string& dir, ResultsStore* out, std::string* error);

// Scans existing file content and returns the byte offset just past the
// last complete, parseable receipt line (0 if none). The shard runner
// truncates its own file to this offset before appending, so a tail left
// by a kill cannot become interior corruption on resume.
size_t CleanReceiptPrefixBytes(const std::string& content);

// The resume view of a results store, followed incrementally.
//
// Each receipt file has a byte cursor at the end of its clean prefix (the
// bytes CleanReceiptPrefixBytes keeps); the receipts there are parsed once
// and committed. Everything past the cursor — normally nothing, or the
// unterminated tail of a line being written — is re-parsed on every
// Refresh and never committed. Writers only append, and self-repair
// truncation only cuts a file back to its clean prefix, so committed bytes
// never change; even so, a file that shrank, vanished or changed inode
// makes Refresh rebuild the whole index from scratch. Done() therefore
// answers what a fresh LoadResultsStore of the same bytes would, while a
// store that only grows costs each line one parse in total. (A file
// rewritten in place, or re-created under a reused inode number, and
// regrown past its old size between two refreshes would pass for growth;
// nothing that writes a store does that.)
//
// Not thread-safe: the shard runner's workers share one under a mutex.
class ReceiptIndex {
 public:
  explicit ReceiptIndex(std::string dir) : dir_(std::move(dir)) {}

  // Folds in what the store gained since the last call. A missing dir is an
  // empty store. Returns false only on I/O failure.
  bool Refresh(std::string* error);

  // DONE iff >=1 fingerprint-matching receipt and all such receipts agree
  // on the determinism pair. `had_receipts` reports whether any receipt —
  // matching or stale — existed for the name (requeue accounting).
  bool Done(const std::string& name, uint64_t fingerprint, bool* had_receipts) const;

  // Receipt lines parsed so far, rebuilds and tail re-parses included.
  uint64_t lines_parsed() const { return lines_parsed_; }

 private:
  struct Entry {
    uint64_t fingerprint;
    uint64_t trace_hash;
    uint64_t trace_events;
  };
  using ByName = std::map<std::string, std::vector<Entry>>;
  struct FileCursor {
    uint64_t dev = 0;
    uint64_t ino = 0;
    uint64_t size = 0;       // Bytes seen at the last refresh.
    uint64_t clean_end = 0;  // End of the committed clean prefix.
  };

  // One pass over the store; sets *stale instead of reading on when a
  // tracked file shrank, vanished or changed inode.
  bool Scan(bool* stale, std::string* error);
  bool ScanFile(const std::string& path, bool* stale, std::string* error);

  std::string dir_;
  std::map<std::string, FileCursor> files_;  // By path.
  ByName committed_;
  ByName pending_;  // Past each cursor; rebuilt by every Refresh.
  uint64_t lines_parsed_ = 0;
};

}  // namespace wcores

#endif  // SRC_TOOLS_SWEEP_RECEIPTS_H_
