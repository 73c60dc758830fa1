#ifndef HORNSAFE_EVAL_BOTTOMUP_H_
#define HORNSAFE_EVAL_BOTTOMUP_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "eval/builtins.h"
#include "eval/relation.h"
#include "lang/program.h"
#include "lang/unify.h"
#include "util/deadline.h"
#include "util/status.h"

namespace hornsafe {

/// Options for bottom-up evaluation.
struct BottomUpOptions {
  /// Semi-naive evaluation: per iteration, each rule fires only against
  /// at least one delta tuple. `false` re-derives everything every
  /// iteration (the classic naive strategy; kept for the benchmark
  /// comparison).
  bool semi_naive = true;
  /// Abort with BudgetExhausted once this many tuples were derived —
  /// the guard rail when evaluating queries the analyzer could not
  /// prove safe.
  uint64_t max_tuples = 1'000'000;
  /// Abort after this many fixpoint iterations.
  uint64_t max_iterations = 1'000'000;
  /// Wall-clock deadline / cancellation, checked at every iteration
  /// barrier and every `ExecContext::kCheckInterval` installed tuples.
  /// Exceeding either aborts the fixpoint with kDeadlineExceeded /
  /// kCancelled (derived relations are left partial and must not be
  /// queried).
  ExecContext exec;
  /// Record, for every derived tuple, the rule and premise tuples of
  /// its first derivation (why-provenance), enabling `Explain`.
  bool track_provenance = false;
  /// Probe joins through lazily built per-column hash indexes instead
  /// of scanning whole relations. Kept as a knob for the ablation
  /// benchmark; leave on.
  bool use_index = true;
  /// Ignored (evaluation is serial); kept because hsbench sets it.
  int jobs = 1;
};

/// Evaluation statistics.
struct BottomUpStats {
  uint64_t iterations = 0;
  uint64_t tuples_derived = 0;
  uint64_t rule_firings = 0;
  /// Wall-clock seconds per evaluation round: entry 0 is the initial
  /// all-rules round, entry i >= 1 is fixpoint iteration i.
  std::vector<double> round_seconds;
  /// rule_firings broken down by rule index.
  std::vector<uint64_t> firings_per_rule;
  /// Always 0 (evaluation is serial); kept because hsbench reads it.
  uint64_t parallel_tasks = 0;
};

/// The historical name of the stats block in docs and issues.
using EvalStats = BottomUpStats;

/// A freshly derived tuple tagged with its predicate.
struct Derivation {
  PredicateId pred = kInvalidPredicate;
  Tuple tuple;
};

/// A ground fact reference: predicate + tuple.
struct FactRef {
  PredicateId pred = kInvalidPredicate;
  Tuple tuple;

  bool operator==(const FactRef& o) const {
    return pred == o.pred && tuple == o.tuple;
  }
};

/// Why-provenance of one derived tuple: the rule applied and the body
/// facts it joined (in body-plan order).
struct ProvenanceEntry {
  /// Index into the program's rule list.
  uint32_t rule_index = 0;
  std::vector<FactRef> premises;
};

/// Bottom-up (forward chaining) evaluation of the derived predicates of
/// a Horn program to fixpoint, with sideways information passing into
/// computable infinite relations.
///
/// Body literals are reordered per rule so that every infinite-relation
/// access happens under a supported binding pattern (the operational
/// reading of the paper's Section 5 assumptions); `Run` fails with
/// UnsafeQuery if no such order exists for some rule.
class BottomUpEvaluator {
 public:
  /// `program` and `builtins` must outlive the evaluator; `program` is
  /// mutated only by interning new ground terms (e.g. computed sums).
  BottomUpEvaluator(Program* program, const BuiltinRegistry* builtins,
                    const BottomUpOptions& options = {});

  /// Runs to fixpoint (or budget).
  Status Run();

  /// The computed relation for a derived predicate (empty before Run).
  const Relation& RelationFor(PredicateId pred) const;

  /// Matches `query` against facts, computed relations, or a builtin;
  /// returns the matching ground argument tuples. Call after Run.
  Result<std::vector<Tuple>> Query(const Literal& query);

  /// Renders the derivation tree of a derived tuple (requires
  /// `track_provenance`): the first-found rule application and,
  /// recursively, its premises; EDB and builtin premises are leaves.
  /// Provenance is well-founded (premises are always derived strictly
  /// earlier), so the tree is finite even on recursive programs.
  Result<std::string> Explain(PredicateId pred, const Tuple& tuple) const;

  const BottomUpStats& stats() const { return stats_; }

 private:
  /// State of one rule evaluation: where derivations go and which
  /// plan position reads the delta relation (-1 reads full relations
  /// everywhere).
  struct EvalContext {
    std::vector<Derivation>* out = nullptr;
    int delta_index = -1;
  };

  /// Chooses an evaluation order for the body of `rule` such that every
  /// infinite occurrence is reached with a supported binding pattern.
  Result<std::vector<size_t>> PlanRule(const Rule& rule) const;

  Status JoinFrom(const Rule& rule, uint32_t rule_index,
                  const std::vector<size_t>& order, size_t step,
                  Substitution* subst, EvalContext* ctx);

  Status EmitHead(const Rule& rule, uint32_t rule_index,
                  Substitution* subst, EvalContext* ctx);

  /// The relation feeding body position `step` of the plan, or nullptr
  /// for infinite builtins.
  const Relation* RelationAtStep(const Rule& rule,
                                 const std::vector<size_t>& order,
                                 int delta_index, size_t step) const;

  /// Runs one evaluation round over every rule in rule order — against
  /// full relations, or once per derived body occurrence reading the
  /// delta there — appending derivations to `*fresh`.
  Status RunRound(const std::vector<std::vector<size_t>>& plans,
                  bool use_delta, std::vector<Derivation>* fresh);

  void AppendExplanation(PredicateId pred, const Tuple& tuple,
                         const std::string& indent, bool last,
                         std::string* out, int depth) const;

  struct FactRefHash {
    size_t operator()(const FactRef& f) const {
      size_t seed = TupleHash{}(f.tuple);
      HashCombine(seed, std::hash<uint64_t>{}(f.pred));
      return seed;
    }
  };

  Program* program_;
  const BuiltinRegistry* builtins_;
  BottomUpOptions options_;
  BottomUpStats stats_;
  /// Joins `lit` against `rel` under `*subst`, probing the most
  /// selective ground column's index (when indexing is enabled) and
  /// calling `try_tuple` for each candidate in dense-id order.
  template <typename Fn>
  Status ForEachCandidate(const Relation& rel, const Literal& lit,
                          const Substitution& subst, Fn try_tuple);

  std::vector<Relation> full_;
  std::vector<Relation> delta_;
  /// EDB facts, materialised as relations so that joins can probe them.
  std::vector<Relation> facts_rel_;
  /// Join trail of the in-flight rule application (provenance only).
  std::vector<FactRef> trail_;
  std::unordered_map<FactRef, ProvenanceEntry, FactRefHash> provenance_;
  bool ran_ = false;
};

}  // namespace hornsafe

#endif  // HORNSAFE_EVAL_BOTTOMUP_H_
