#include "layered.h"

#include <memory>
#include <unordered_map>

#include "andor/adorn.h"
#include "andor/build.h"
#include "andor/emptiness.h"
#include "andor/reduce.h"
#include "andor/scc.h"
#include "canonical/canonical.h"
#include "constraints/mono.h"
#include "core/analyzer.h"
#include "fd/fd.h"
#include "lang/fingerprint.h"

namespace hsbench {

using hornsafe::Safety;

hornsafe::Result<LayeredResult> RunLayered(const hornsafe::Program& program,
                                           Tracer* tracer) {
  // Defaults of the analyzer this pipeline mirrors.
  const hornsafe::AnalyzerOptions defaults;
  LayeredResult out;
  HORNSAFE_RETURN_IF_ERROR(program.Validate());

  Tracer::Span canon_span(tracer, "canonical");
  auto canon = hornsafe::Canonicalize(program, defaults.canonicalize);
  canon_span.End();
  if (!canon.ok()) return canon.status();
  const hornsafe::Program& cp = canon->program;
  out.canonical_rules = cp.rules().size();

  {
    Tracer::Span span(tracer, "fingerprint");
    hornsafe::ProgramFingerprints fps = hornsafe::ComputeFingerprints(cp);
    (void)fps;
  }

  hornsafe::BuildOptions bopts;
  bopts.use_fd_closure = defaults.use_fd_closure;
  hornsafe::FdClosureCache closures;
  hornsafe::BuildOptions::FdIndexMap fd_indexes;
  {
    Tracer::Span span(tracer, "fd");
    const auto np = static_cast<hornsafe::PredicateId>(cp.num_predicates());
    for (hornsafe::PredicateId p = 0; p < np; ++p) {
      const hornsafe::PredicateInfo& info = cp.predicate(p);
      if (info.kind != hornsafe::PredicateKind::kInfiniteBase) continue;
      fd_indexes.emplace(p, closures.For(cp.FdsFor(p), info.arity,
                                         defaults.use_fd_closure));
    }
    bopts.fd_indexes = &fd_indexes;
  }

  Tracer::Span adorn_span(tracer, "adorn");
  auto adorned = hornsafe::BuildAdornedProgram(cp);
  adorn_span.End();
  if (!adorned.ok()) return adorned.status();
  out.adorned_rules = adorned->rules.size();

  std::vector<bool> empty;
  {
    Tracer::Span span(tracer, "prune");
    empty = hornsafe::EmptyPredicates(cp);
  }

  Tracer::Span build_span(tracer, "build");
  auto system = hornsafe::BuildAndOrSystem(cp, *adorned, bopts);
  build_span.End();
  if (!system.ok()) return system.status();
  out.nodes = system->nodes().size();
  out.rules_total = system->num_rules();

  {
    Tracer::Span span(tracer, "prune");
    out.rules_deleted += hornsafe::ApplyEmptinessPruning(empty, &*system);
    out.rules_deleted += hornsafe::ReduceSystem(&*system).rules_deleted;
  }

  std::unique_ptr<hornsafe::MonotonicityAnalyzer> mono;
  std::unique_ptr<hornsafe::SccAnalysis> scc;
  {
    Tracer::Span span(tracer, "scc");
    if (defaults.use_monotonicity && !cp.monos().empty()) {
      mono = std::make_unique<hornsafe::MonotonicityAnalyzer>(cp, *adorned,
                                                              *system);
    }
    scc = std::make_unique<hornsafe::SccAnalysis>(
        hornsafe::SccAnalysis::Compute(*system));
  }

  hornsafe::SubsetOptions sopts;
  sopts.budget = defaults.subset_budget;
  sopts.scc = scc.get();
  uint64_t escapes = 0;
  if (mono != nullptr) {
    // Count Theorem 5 escapes at the public callback boundary.
    hornsafe::GraphEscape inner = mono->MakeEscape();
    sopts.escape = [inner, &escapes](const hornsafe::AndGraph& g) {
      bool ok = inner(g);
      if (ok) ++escapes;
      return ok;
    };
  }

  // Per-position classification, as SafetyAnalyzer::AnalyzePredicate
  // does for an all-free canonical query.
  for (const hornsafe::Literal& q : cp.queries()) {
    LayeredVerdict v;
    const uint32_t arity = cp.predicate(q.pred).arity;
    bool any_unsafe = false, any_undecided = false;
    for (uint32_t k = 0; k < arity; ++k) {
      Safety s = Safety::kSafe;
      uint64_t steps = 0, graphs = 0;
      if (cp.IsFiniteBase(q.pred)) {
        s = Safety::kSafe;
      } else if (cp.IsInfiniteBase(q.pred)) {
        bool determined = false;
        for (const hornsafe::FiniteDependency& fd : cp.FdsFor(q.pred)) {
          if (fd.lhs.SubsetOf(hornsafe::AttrSet(0)) && fd.rhs.Contains(k)) {
            determined = true;
          }
        }
        s = determined ? Safety::kSafe : Safety::kUnsafe;
      } else {
        Tracer::Span span(tracer, "subset");
        hornsafe::NodeId root = system->FindHeadArg(q.pred, 0, k);
        hornsafe::SubsetResult r =
            hornsafe::CheckSubsetCondition(*system, root, sopts);
        s = r.verdict;
        steps = r.steps;
        graphs = r.graphs_checked;
        ++out.searches;
        out.steps += r.steps;
        out.memo_hits += r.memo_hits;
        out.memo_misses += r.memo_misses;
        out.scc_short_circuits += r.scc_short_circuits;
      }
      any_unsafe |= s == Safety::kUnsafe;
      any_undecided |= s == Safety::kUndecided;
      v.args.push_back(s);
      v.steps.push_back(steps);
      v.graphs.push_back(graphs);
    }
    v.overall = any_unsafe      ? Safety::kUnsafe
                : any_undecided ? Safety::kUndecided
                                : Safety::kSafe;
    out.queries.push_back(std::move(v));
  }
  out.escapes = escapes;
  return out;
}

}  // namespace hsbench
