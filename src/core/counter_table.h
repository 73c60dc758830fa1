#ifndef HORNSAFE_CORE_COUNTER_TABLE_H_
#define HORNSAFE_CORE_COUNTER_TABLE_H_

// One table per counter struct: each row names a field once, and every
// stats surface (check --stats text and JSON, serve `stats`, the fleet
// worker summary, the benches) is a loop over that table, so the
// surfaces cannot drift apart (DESIGN.md, D17).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>

#include "core/analyzer.h"
#include "core/pipeline_cache.h"
#include "util/json.h"

namespace hornsafe {

/// How two readings of one counter combine: tallies add, gauges
/// (high-water marks, generation stamps) keep the larger value.
enum class Fold { kSum, kMax };

/// One table row: the surface name (JSON key and text label), the
/// field it reads, and its fold rule (a tally unless marked kMax).
template <typename S>
struct CounterField {
  const char* name;
  uint64_t S::*field;
  Fold fold = Fold::kSum;
};

using AnalyzerCounters = SafetyAnalyzer::Counters;
using CacheCounters = PipelineCacheStats;

// The pinned-at-0 fragment and parallel_tasks fields are left out: they
// are never rendered.
inline constexpr CounterField<AnalyzerCounters> kAnalyzerCounterTable[] = {
    {"positions_analyzed", &AnalyzerCounters::positions_analyzed},
    {"subset_searches", &AnalyzerCounters::subset_searches},
    {"steps", &AnalyzerCounters::steps},
    {"graphs_checked", &AnalyzerCounters::graphs_checked},
    {"memo_hits", &AnalyzerCounters::memo_hits},
    {"memo_misses", &AnalyzerCounters::memo_misses},
    {"scc_short_circuits", &AnalyzerCounters::scc_short_circuits},
    {"cache_hits", &AnalyzerCounters::cache_hits},
    {"cache_misses", &AnalyzerCounters::cache_misses},
    {"snapshot_swaps", &AnalyzerCounters::snapshot_swaps},
    {"stage_canonicalize_ns", &AnalyzerCounters::stage_canonicalize_ns},
    {"stage_fingerprint_ns", &AnalyzerCounters::stage_fingerprint_ns},
    {"stage_fd_ns", &AnalyzerCounters::stage_fd_ns},
    {"stage_adorn_ns", &AnalyzerCounters::stage_adorn_ns},
    {"stage_build_ns", &AnalyzerCounters::stage_build_ns},
    {"stage_prune_ns", &AnalyzerCounters::stage_prune_ns},
    {"stage_scc_ns", &AnalyzerCounters::stage_scc_ns},
    {"stage_search_ns", &AnalyzerCounters::stage_search_ns},
    {"segments_total", &AnalyzerCounters::segments_total},
    {"segments_grafted", &AnalyzerCounters::segments_grafted},
    {"segment_grafts_rejected", &AnalyzerCounters::segment_grafts_rejected},
    {"segments_encoded", &AnalyzerCounters::segments_encoded},
    {"nodes_shared", &AnalyzerCounters::nodes_shared},
    {"nodes_owned", &AnalyzerCounters::nodes_owned},
    {"node_table_peak_nodes", &AnalyzerCounters::node_table_peak_nodes,
     Fold::kMax},
    {"node_table_peak_bytes", &AnalyzerCounters::node_table_peak_bytes,
     Fold::kMax},
};

inline constexpr CounterField<CacheCounters> kCacheCounterTable[] = {
    {"verdict_hits", &CacheCounters::verdict_hits},
    {"verdict_misses", &CacheCounters::verdict_misses},
    {"verdict_insertions", &CacheCounters::verdict_insertions},
    {"verdict_evictions", &CacheCounters::verdict_evictions},
    {"disk_hits", &CacheCounters::disk_hits},
    {"disk_misses", &CacheCounters::disk_misses},
    {"disk_corrupt", &CacheCounters::disk_corrupt},
    {"disk_write_failures", &CacheCounters::disk_write_failures},
    {"disk_read_failures", &CacheCounters::disk_read_failures},
    {"disk_write_skips", &CacheCounters::disk_write_skips},
    {"disk_retry_attempts", &CacheCounters::disk_retry_attempts},
    {"tmp_files_swept", &CacheCounters::tmp_files_swept},
    {"lease_acquisitions", &CacheCounters::lease_acquisitions},
    {"stale_leases_recovered", &CacheCounters::stale_leases_recovered},
    {"manifest_generation", &CacheCounters::manifest_generation,
     Fold::kMax},
    {"manifest_rollbacks", &CacheCounters::manifest_rollbacks},
    {"legacy_entries_migrated", &CacheCounters::legacy_entries_migrated},
    {"compactions_run", &CacheCounters::compactions_run},
    {"compactions_skipped", &CacheCounters::compactions_skipped},
    {"compaction_entries_removed", &CacheCounters::compaction_entries_removed},
    {"compaction_bytes_removed", &CacheCounters::compaction_bytes_removed},
    {"cones_invalidated", &CacheCounters::cones_invalidated},
    {"canon_hits", &CacheCounters::canon_hits},
    {"canon_misses", &CacheCounters::canon_misses},
    {"emptiness_hits", &CacheCounters::emptiness_hits},
    {"emptiness_misses", &CacheCounters::emptiness_misses},
    {"segment_hits", &CacheCounters::segment_hits},
    {"segment_misses", &CacheCounters::segment_misses},
    {"segment_insertions", &CacheCounters::segment_insertions},
    {"segment_evictions", &CacheCounters::segment_evictions},
    {"fd_index_hits", &CacheCounters::fd_index_hits},
    {"fd_index_misses", &CacheCounters::fd_index_misses},
    {"pred_hash_hits", &CacheCounters::pred_hash_hits},
    {"pred_hash_misses", &CacheCounters::pred_hash_misses},
};

/// The table of a counter struct, found by overload on the struct type.
inline std::span<const CounterField<AnalyzerCounters>> CounterTable(
    const AnalyzerCounters&) {
  return kAnalyzerCounterTable;
}
inline std::span<const CounterField<CacheCounters>> CounterTable(
    const CacheCounters&) {
  return kCacheCounterTable;
}

/// Folds `from` into `into`: tallies add, gauges keep the maximum.
template <typename S>
void Merge(S& into, const S& from) {
  for (const CounterField<S>& f : CounterTable(from)) {
    uint64_t& v = into.*f.field;
    v = f.fold == Fold::kSum ? v + from.*f.field : std::max(v, from.*f.field);
  }
}

/// The work done between two readings: tallies are `after - before`,
/// gauges keep `after`'s reading.
template <typename S>
S Diff(const S& after, const S& before) {
  S out = after;
  for (const CounterField<S>& f : CounterTable(after)) {
    if (f.fold == Fold::kSum) out.*f.field -= before.*f.field;
  }
  return out;
}

/// One JSON object member per table row, in table order.
template <typename S>
Json ToJson(const S& s) {
  Json out = Json::Object();
  for (const CounterField<S>& f : CounterTable(s)) {
    out.Set(f.name, s.*f.field);
  }
  return out;
}

/// Inverse of `ToJson`; absent members read 0.
template <typename S>
S FromJson(const Json& obj) {
  S out;
  for (const CounterField<S>& f : CounterTable(out)) {
    out.*f.field = static_cast<uint64_t>(obj[f.name].AsInt());
  }
  return out;
}

/// One indented "name: value" line per table row, in table order.
template <typename S>
std::string ToText(const S& s) {
  std::string out;
  for (const CounterField<S>& f : CounterTable(s)) {
    char line[96];
    std::snprintf(line, sizeof(line), "  %-28s%llu\n",
                  (std::string(f.name) + ":").c_str(),
                  static_cast<unsigned long long>(s.*f.field));
    out += line;
  }
  return out;
}

// Shared counter structs are plain structs that concurrent threads
// update only through the two functions below: every access to a
// field is then an atomic operation on it (std::atomic_ref), so there
// is no data race, and the struct itself stays copyable.
static_assert(alignof(uint64_t) >=
                  std::atomic_ref<uint64_t>::required_alignment,
              "counter fields must be usable through std::atomic_ref");

/// `Merge` for a struct shared between threads: relaxed fetch_add for
/// tallies, compare-exchange max for gauges. Zero deltas touch nothing.
template <typename S>
void AtomicMerge(S& shared, const S& delta) {
  for (const CounterField<S>& f : CounterTable(delta)) {
    const uint64_t v = delta.*f.field;
    if (v == 0) continue;
    std::atomic_ref<uint64_t> cell(shared.*f.field);
    if (f.fold == Fold::kSum) {
      cell.fetch_add(v, std::memory_order_relaxed);
      continue;
    }
    uint64_t cur = cell.load(std::memory_order_relaxed);
    while (cur < v && !cell.compare_exchange_weak(cur, v,
                                                  std::memory_order_relaxed)) {
    }
  }
}

/// A copy of a struct updated with `AtomicMerge`. Each field is exact;
/// fields may come from slightly different instants (they are
/// independent tallies, not one torn value).
template <typename S>
S AtomicLoad(S& shared) {
  S out;
  for (const CounterField<S>& f : CounterTable(out)) {
    out.*f.field = std::atomic_ref<uint64_t>(shared.*f.field)
                       .load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace hornsafe

#endif  // HORNSAFE_CORE_COUNTER_TABLE_H_
