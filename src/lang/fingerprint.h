#ifndef HORNSAFE_LANG_FINGERPRINT_H_
#define HORNSAFE_LANG_FINGERPRINT_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "lang/program.h"

namespace hornsafe {

/// The predicate dependency graph of a program: `p` depends on `q` when
/// some rule with head `p` mentions `q` in its body. Safety verdicts for
/// an argument position of `p` only ever look *down* this graph — the
/// And-Or subgraph reachable from `p`'s head-argument nodes is built
/// from `p`'s rules and its transitive callees — which is what makes
/// per-predicate cone fingerprints a sound cache key (DESIGN.md, D12).
class PredicateDepGraph {
 public:
  static PredicateDepGraph Build(const Program& program);

  /// Deduplicated, sorted callees of `pred`.
  const std::vector<PredicateId>& Callees(PredicateId pred) const {
    return callees_[pred];
  }

  /// Condensation component of `pred` (Tarjan; components are numbered
  /// in reverse topological order: callees before callers).
  int32_t SccOf(PredicateId pred) const { return scc_of_[pred]; }

  int32_t NumSccs() const { return num_sccs_; }

  /// Members of component `scc`, ascending.
  const std::vector<PredicateId>& SccMembers(int32_t scc) const {
    return scc_members_[scc];
  }

  size_t num_predicates() const { return callees_.size(); }

 private:
  std::vector<std::vector<PredicateId>> callees_;
  std::vector<int32_t> scc_of_;
  std::vector<std::vector<PredicateId>> scc_members_;
  int32_t num_sccs_ = 0;
};

/// Per-predicate content fingerprints.
struct ProgramFingerprints {
  /// own[p]: StructuralPredicateHash — name, arity, kind and the sorted
  /// rule/fact/FD/monotonicity hash multisets of `p` alone.
  std::vector<uint64_t> own;
  /// cone[p]: own[p] mixed with the fingerprint of everything reachable
  /// from `p` in the dependency graph. Mutually recursive predicates
  /// share the same cone *content* but still receive distinct
  /// fingerprints (their own hash is mixed back in), so a cache keyed
  /// by cone[p] distinguishes the members of an SCC.
  std::vector<uint64_t> cone;
  /// Alpha- and clause-order-invariant whole-program hash.
  uint64_t program = 0;
};

/// Memo of per-predicate structural own hashes across successive
/// programs, keyed by the *strict* predicate key (rendered clause
/// texts, StrictPredicateKeys). Rendering a clause is cheap; the
/// alpha-numbering term walk of StructuralPredicateHash is not — so an
/// Update() only pays structural hashing for predicates whose clauses
/// actually changed textually. Keying by the strict (name-sensitive)
/// hash is conservative: an alpha-renamed predicate misses the memo
/// and is re-hashed, never served a stale value. Thread-safe; bounded
/// (the map is cleared when it outgrows its cap, a once-in-a-blue-moon
/// event for real update streams).
class PredicateHashMemo {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  /// True (and sets *own) iff `strict_key` was stored before.
  bool Lookup(uint64_t strict_key, uint64_t* own);
  void Store(uint64_t strict_key, uint64_t own);

  Stats stats() const;
  size_t size() const;

 private:
  static constexpr size_t kMaxEntries = 65536;

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, uint64_t> memo_;
  Stats stats_;
};

/// Computes own and cone fingerprints for every predicate of `program`.
/// Cost: one Tarjan pass plus one structural-hash pass, linear in the
/// program (no search). An edit to predicate `q` changes cone[p] for
/// exactly the predicates `p` that can reach `q` — the "invalidation
/// cone" of the edit.
///
/// With a non-null `memo`, the structural-hash pass consults it keyed
/// by strict predicate keys and only re-hashes predicates whose
/// rendered clauses changed since the memo last saw them. Results are
/// bit-identical with and without a memo; pinned by tests.
ProgramFingerprints ComputeFingerprints(const Program& program,
                                        PredicateHashMemo* memo = nullptr);

}  // namespace hornsafe

#endif  // HORNSAFE_LANG_FINGERPRINT_H_
