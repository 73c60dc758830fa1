#ifndef HSBENCH_LAYERED_H_
#define HSBENCH_LAYERED_H_

// The traced run's layer-by-layer pipeline: the same computation
// SafetyAnalyzer performs on a cache-less build, driven from outside
// through each module's public functions so every layer gets its own
// span. run_cold asserts that the verdicts (and per-position step
// counts) equal SafetyAnalyzer's on the same program.

#include <cstdint>
#include <string>
#include <vector>

#include "andor/subset.h"
#include "lang/program.h"
#include "trace.h"
#include "util/status.h"

namespace hsbench {

struct LayeredVerdict {
  hornsafe::Safety overall = hornsafe::Safety::kUndecided;
  std::vector<hornsafe::Safety> args;
  std::vector<uint64_t> steps;
  std::vector<uint64_t> graphs;
};

struct LayeredResult {
  std::vector<LayeredVerdict> queries;  ///< canonical query order
  uint64_t canonical_rules = 0;
  uint64_t adorned_rules = 0;
  uint64_t nodes = 0;
  uint64_t rules_total = 0;
  uint64_t rules_deleted = 0;
  uint64_t searches = 0;
  uint64_t steps = 0;
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  uint64_t scc_short_circuits = 0;
  uint64_t escapes = 0;
};

/// Runs canonicalize -> fingerprint -> FD closure -> adorn -> emptiness
/// -> build -> prune -> condense -> subset search for every query of
/// `program` with the analyzer's default options, one span per layer.
hornsafe::Result<LayeredResult> RunLayered(const hornsafe::Program& program,
                                           Tracer* tracer);

}  // namespace hsbench

#endif  // HSBENCH_LAYERED_H_
