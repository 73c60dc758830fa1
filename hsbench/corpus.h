#ifndef HSBENCH_CORPUS_H_
#define HSBENCH_CORPUS_H_

// Seeded input generators and the independent expected-answer oracle.
//
// Every generated program carries its expected outcome, derived from
// how the program was built and never from running hornsafe:
//   - per-query safety verdicts by construction (a finite guard on the
//     recursive argument, an FD-grounded cycle without one, a
//     decreasing-and-bounded chain for Theorem 5, ...);
//   - closed-form answer counts for the evaluation programs (a chain of
//     n edges has n(n+1)/2 transitive-closure pairs, a cycle of n nodes
//     n^2, ...);
//   - hand-written expectations for the pinned copies of the example
//     programs under hsbench/programs/.
//
// The seed renames predicates, relabels constants, shuffles program
// order and draws the random family's guard bits; it never changes the
// size mix, so any two seeds measure the same amount of work.

#include <cstdint>
#include <string>
#include <vector>

#include "util.h"

namespace hsbench {

/// One query to evaluate and its closed-form answer count.
struct EvalCase {
  std::string query;  ///< literal text, e.g. "path(X,Y)"
  size_t answers = 0;
};

/// A program of the run_cold corpus.
struct CorpusProgram {
  std::string name;    ///< family/size, e.g. "chain_tc/256"
  std::string text;
  /// Expected overall verdict ("safe" / "unsafe") of each query, in
  /// source order.
  std::vector<std::string> verdicts;
  /// Queries `hornsafe run` evaluates (only queries expected safe).
  std::vector<EvalCase> evals;
};

/// The run_cold corpus: generator families, evaluation programs and the
/// pinned example copies read from `programs_dir`. Fails (empty result,
/// message in `error`) when an example file is missing.
std::vector<CorpusProgram> ColdCorpus(uint64_t seed,
                                      const std::string& programs_dir,
                                      std::string* error);

/// A modular program: `diamonds` SharedDiamond modules of ring size
/// `ring` (every ring and diamond predicate queried) plus
/// `chains` FD-grounded unguarded chain modules (every predicate
/// queried, all unsafe). `guards[j]` names the extra finite guard on
/// diamond module j's grounding rule ("" = none): the single-rule edit
/// the edit and serve streams apply. Predicate names carry `tag`.
struct ModularSpec {
  int diamonds = 16;
  int ring = 6;
  int chains = 0;
  int chain_depth = 4;
  std::string tag;
  std::vector<std::string> guards;  ///< size == diamonds
};
std::string ModularText(const ModularSpec& spec);

/// The seeded single-rule edit stream over a modular program: edit `e`
/// gives a random module's grounding rule a fresh extra guard ("w<e>"),
/// except every fourth edit, which drops the guard of a random guarded
/// module (an undo back to text the caches have seen). The fixed share
/// keeps the mix of cache-miss and cache-hit edits equal across seeds.
void NextModularEdit(SeededRng* rng, uint64_t e,
                     std::vector<std::string>* guards);

/// Query predicates of ModularText ("name/arity") with their expected
/// verdicts, in query order.
struct QueryPoint {
  std::string predicate;
  std::string verdict;
};
std::vector<QueryPoint> ModularQueries(const ModularSpec& spec);

/// Small self-contained programs for the serve stream's ephemeral
/// check-with-program requests, with expected per-query verdicts.
std::vector<CorpusProgram> EphemeralPrograms(const std::string& tag);

/// A lint request body with its expected severity counts.
struct LintCase {
  std::string text;
  size_t errors = 0;
  size_t warnings = 0;
  size_t notes = 0;
};
std::vector<LintCase> LintCases(const std::string& programs_dir,
                                std::string* error);

/// The fleet corpus: programs that each combine two or three shared
/// library modules (byte-identical text across programs) with a private
/// module. `edit_guard` appends a fresh guard to the private module's
/// base rule (the rerun pass's single-rule edit).
struct FleetProgram {
  std::string rel_path;
  std::vector<int> libs;
  int index = 0;
  std::string verdict;  ///< "safe" | "unsafe"
};
struct FleetCorpus {
  std::string tag;
  std::vector<std::string> library;  ///< module texts
  std::vector<bool> library_unsafe;
  std::vector<FleetProgram> programs;
};
FleetCorpus MakeFleetCorpus(uint64_t seed, int programs);
std::string FleetProgramText(const FleetCorpus& corpus,
                             const FleetProgram& program,
                             const std::string& edit_guard);

}  // namespace hsbench

#endif  // HSBENCH_CORPUS_H_
