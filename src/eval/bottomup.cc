#include "eval/bottomup.h"

#include <chrono>
#include <unordered_set>

#include "lang/unify.h"
#include "util/strings.h"

namespace hornsafe {

namespace {

/// Collects the variables of `lit` that are unbound under `subst`.
bool ArgGroundUnderSubst(TermPool& pool, const Substitution& subst,
                         TermId arg) {
  TermId applied = ApplySubstitution(pool, subst, arg);
  return pool.IsGround(applied);
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

BottomUpEvaluator::BottomUpEvaluator(Program* program,
                                     const BuiltinRegistry* builtins,
                                     const BottomUpOptions& options)
    : program_(program), builtins_(builtins), options_(options) {
  full_.resize(program_->num_predicates());
  delta_.resize(program_->num_predicates());
  facts_rel_.resize(program_->num_predicates());
  for (const Literal& f : program_->facts()) {
    facts_rel_[f.pred].Insert(f.args);
  }
}

Result<std::vector<size_t>> BottomUpEvaluator::PlanRule(
    const Rule& rule) const {
  std::vector<size_t> order;
  std::vector<bool> placed(rule.body.size(), false);
  std::unordered_set<TermId> bound_vars;
  auto vars_bound = [&](TermId arg) {
    std::vector<TermId> vars;
    program_->terms().CollectVariables(arg, &vars);
    for (TermId v : vars) {
      if (bound_vars.find(v) == bound_vars.end()) return false;
    }
    return true;
  };
  auto bind_literal_vars = [&](const Literal& lit) {
    std::vector<TermId> vars;
    for (TermId a : lit.args) {
      vars.clear();
      program_->terms().CollectVariables(a, &vars);
      bound_vars.insert(vars.begin(), vars.end());
    }
  };

  while (order.size() < rule.body.size()) {
    bool progress = false;
    // Finite base and derived literals can always be scanned.
    for (size_t i = 0; i < rule.body.size() && !progress; ++i) {
      if (placed[i]) continue;
      PredicateId pred = rule.body[i].pred;
      if (!program_->IsInfiniteBase(pred)) {
        order.push_back(i);
        placed[i] = true;
        bind_literal_vars(rule.body[i]);
        progress = true;
      }
    }
    if (progress) continue;
    // Otherwise an infinite occurrence with a supported binding pattern.
    bool saw_unregistered = false;
    for (size_t i = 0; i < rule.body.size() && !progress; ++i) {
      if (placed[i]) continue;
      const Literal& lit = rule.body[i];
      const InfiniteRelation* rel = builtins_->Find(lit.pred);
      if (rel == nullptr) {
        saw_unregistered = true;
        continue;
      }
      AttrSet bound;
      for (uint32_t k = 0; k < lit.args.size(); ++k) {
        if (vars_bound(lit.args[k])) bound.Add(k);
      }
      if (rel->SupportsBinding(bound)) {
        order.push_back(i);
        placed[i] = true;
        bind_literal_vars(lit);
        progress = true;
      }
    }
    if (!progress) {
      if (saw_unregistered) {
        return Status::Unsupported(
            StrCat("no generator registered for an infinite predicate in "
                   "rule ",
                   program_->ToString(rule)));
      }
      return Status::UnsafeQuery(
          StrCat("no sideways-information-passing order evaluates rule ",
                 program_->ToString(rule),
                 " bottom-up: an infinite relation is accessed with an "
                 "unsupported binding pattern"));
    }
  }
  return order;
}

Status BottomUpEvaluator::EmitHead(const Rule& rule, uint32_t rule_index,
                                   Substitution* subst, EvalContext* ctx) {
  ++stats_.rule_firings;
  ++stats_.firings_per_rule[rule_index];
  Tuple head;
  head.reserve(rule.head.args.size());
  for (TermId a : rule.head.args) {
    TermId g = ApplySubstitution(program_->terms(), *subst, a);
    if (!program_->terms().IsGround(g)) {
      return Status::UnsafeQuery(
          StrCat("rule ", program_->ToString(rule),
                 " derives a non-ground head (range-unrestricted "
                 "variable)"));
    }
    head.push_back(g);
  }
  if (!full_[rule.head.pred].Contains(head)) {
    if (options_.track_provenance) {
      provenance_.emplace(FactRef{rule.head.pred, head},
                          ProvenanceEntry{rule_index, trail_});
    }
    ctx->out->push_back(Derivation{rule.head.pred, std::move(head)});
  }
  return Status::Ok();
}

const Relation* BottomUpEvaluator::RelationAtStep(
    const Rule& rule, const std::vector<size_t>& order, int delta_index,
    size_t step) const {
  PredicateId pred = rule.body[order[step]].pred;
  if (program_->IsFiniteBase(pred)) return &facts_rel_[pred];
  if (program_->IsDerived(pred)) {
    return static_cast<int>(step) == delta_index ? &delta_[pred]
                                                 : &full_[pred];
  }
  return nullptr;  // infinite builtin
}

Status BottomUpEvaluator::JoinFrom(const Rule& rule, uint32_t rule_index,
                                   const std::vector<size_t>& order,
                                   size_t step, Substitution* subst,
                                   EvalContext* ctx) {
  if (step == order.size()) {
    return EmitHead(rule, rule_index, subst, ctx);
  }
  const Literal& lit = rule.body[order[step]];
  PredicateId pred = lit.pred;

  auto try_tuple = [&](TupleView tuple) -> Status {
    Substitution saved = *subst;
    bool ok = true;
    for (size_t k = 0; k < tuple.size(); ++k) {
      if (!Unify(program_->terms(), lit.args[k], tuple[k], subst)) {
        ok = false;
        break;
      }
    }
    Status st;
    if (ok) {
      if (options_.track_provenance) {
        trail_.push_back(FactRef{pred, tuple.ToTuple()});
      }
      st = JoinFrom(rule, rule_index, order, step + 1, subst, ctx);
      if (options_.track_provenance) trail_.pop_back();
    }
    *subst = std::move(saved);
    return st;
  };

  if (const Relation* rel = RelationAtStep(rule, order, ctx->delta_index,
                                           step)) {
    return ForEachCandidate(*rel, lit, *subst, try_tuple);
  }
  // Infinite builtin.
  const InfiniteRelation* rel = builtins_->Find(pred);
  if (rel == nullptr) {
    return Status::Unsupported(
        StrCat("no generator for '", program_->PredicateName(pred), "'"));
  }
  Tuple partial(lit.args.size(), kInvalidTerm);
  for (size_t k = 0; k < lit.args.size(); ++k) {
    if (ArgGroundUnderSubst(program_->terms(), *subst, lit.args[k])) {
      partial[k] = ApplySubstitution(program_->terms(), *subst, lit.args[k]);
    }
  }
  std::vector<Tuple> matches;
  HORNSAFE_RETURN_IF_ERROR(rel->Enumerate(program_, partial, &matches));
  for (const Tuple& t : matches) {
    HORNSAFE_RETURN_IF_ERROR(try_tuple(t));
  }
  return Status::Ok();
}

template <typename Fn>
Status BottomUpEvaluator::ForEachCandidate(const Relation& rel,
                                           const Literal& lit,
                                           const Substitution& subst,
                                           Fn try_tuple) {
  if (options_.use_index) {
    // Hash-consing makes ground-term equality id equality, so an index
    // probe on any ground column is exact; pick the most selective one
    // (smallest posting list) to minimise candidates.
    int best_col = -1;
    size_t best_count = 0;
    TermId best_value = kInvalidTerm;
    for (uint32_t k = 0; k < lit.args.size(); ++k) {
      TermId applied = ApplySubstitution(program_->terms(), subst,
                                         lit.args[k]);
      if (!program_->terms().IsGround(applied)) continue;
      size_t count = rel.ProbeCount(k, applied);
      if (count == 0) return Status::Ok();  // no tuple can match
      if (best_col < 0 || count < best_count) {
        best_col = static_cast<int>(k);
        best_count = count;
        best_value = applied;
      }
    }
    if (best_col >= 0) {
      for (uint32_t id :
           rel.Probe(static_cast<uint32_t>(best_col), best_value)) {
        HORNSAFE_RETURN_IF_ERROR(try_tuple(rel.At(id)));
      }
      return Status::Ok();
    }
  }
  for (TupleView t : rel) {
    HORNSAFE_RETURN_IF_ERROR(try_tuple(t));
  }
  return Status::Ok();
}

Status BottomUpEvaluator::RunRound(
    const std::vector<std::vector<size_t>>& plans, bool use_delta,
    std::vector<Derivation>* fresh) {
  const std::vector<Rule>& rules = program_->rules();
  for (uint32_t r = 0; r < rules.size(); ++r) {
    const std::vector<size_t>& order = plans[r];
    auto eval = [&](int delta_index) {
      EvalContext ctx{fresh, delta_index};
      Substitution subst;
      return JoinFrom(rules[r], r, order, 0, &subst, &ctx);
    };
    if (!use_delta) {
      HORNSAFE_RETURN_IF_ERROR(eval(-1));
      continue;
    }
    // One evaluation per derived occurrence, reading the delta there.
    for (size_t s = 0; s < order.size(); ++s) {
      if (!program_->IsDerived(rules[r].body[order[s]].pred)) continue;
      HORNSAFE_RETURN_IF_ERROR(eval(static_cast<int>(s)));
    }
  }
  return Status::Ok();
}

Status BottomUpEvaluator::Run() {
  ran_ = true;
  const std::vector<Rule>& rules = program_->rules();
  // Plan every rule once.
  std::vector<std::vector<size_t>> plans;
  plans.reserve(rules.size());
  for (const Rule& rule : rules) {
    HORNSAFE_ASSIGN_OR_RETURN(std::vector<size_t> plan, PlanRule(rule));
    plans.push_back(std::move(plan));
  }
  stats_.firings_per_rule.assign(rules.size(), 0);

  // Round 0: all rules against the (initially empty) full relations.
  std::vector<Derivation> fresh;
  {
    auto start = std::chrono::steady_clock::now();
    HORNSAFE_RETURN_IF_ERROR(RunRound(plans, /*use_delta=*/false, &fresh));
    stats_.round_seconds.push_back(SecondsSince(start));
  }

  while (true) {
    auto start = std::chrono::steady_clock::now();
    ++stats_.iterations;
    if (stats_.iterations > options_.max_iterations) {
      return Status::BudgetExhausted(
          StrCat("fixpoint not reached after ", options_.max_iterations,
                 " iterations"));
    }
    HORNSAFE_RETURN_IF_ERROR(options_.exec.Check("bottom-up evaluation"));
    // Install fresh tuples as the next delta.
    for (Relation& d : delta_) d.clear();
    bool any = false;
    for (const Derivation& d : fresh) {
      if (full_[d.pred].Insert(d.tuple)) {
        delta_[d.pred].Insert(d.tuple);
        any = true;
        if (++stats_.tuples_derived > options_.max_tuples) {
          return Status::BudgetExhausted(
              StrCat("more than ", options_.max_tuples,
                     " tuples derived; the query may be unsafe"));
        }
        if (options_.exec.active() &&
            (stats_.tuples_derived &
             (ExecContext::kCheckInterval - 1)) == 0) {
          HORNSAFE_RETURN_IF_ERROR(
              options_.exec.Check("bottom-up evaluation"));
        }
      }
    }
    if (!any) {
      stats_.round_seconds.push_back(SecondsSince(start));
      break;
    }
    fresh.clear();

    HORNSAFE_RETURN_IF_ERROR(
        RunRound(plans, /*use_delta=*/options_.semi_naive, &fresh));
    stats_.round_seconds.push_back(SecondsSince(start));
  }
  return Status::Ok();
}

const Relation& BottomUpEvaluator::RelationFor(PredicateId pred) const {
  return full_[pred];
}

void BottomUpEvaluator::AppendExplanation(PredicateId pred,
                                          const Tuple& tuple,
                                          const std::string& indent,
                                          bool last, std::string* out,
                                          int depth) const {
  std::string fact =
      program_->ToString(Literal{pred, tuple});
  *out += indent;
  if (depth > 0) *out += last ? "`- " : "|- ";
  *out += fact;
  auto it = provenance_.find(FactRef{pred, tuple});
  if (it == provenance_.end()) {
    if (program_->IsInfiniteBase(pred)) {
      *out += "  [computed]";
    } else if (program_->IsFiniteBase(pred)) {
      *out += "  [fact]";
    }
    *out += "\n";
    return;
  }
  const ProvenanceEntry& prov = it->second;
  *out += StrCat("  [rule: ",
                 program_->ToString(program_->rules()[prov.rule_index]),
                 "]\n");
  std::string child_indent =
      depth == 0 ? indent : indent + (last ? "   " : "|  ");
  for (size_t i = 0; i < prov.premises.size(); ++i) {
    AppendExplanation(prov.premises[i].pred, prov.premises[i].tuple,
                      child_indent, i + 1 == prov.premises.size(), out,
                      depth + 1);
  }
}

Result<std::string> BottomUpEvaluator::Explain(PredicateId pred,
                                               const Tuple& tuple) const {
  if (!options_.track_provenance) {
    return Status::Unsupported(
        "provenance tracking was not enabled (BottomUpOptions)");
  }
  if (!provenance_.count(FactRef{pred, tuple})) {
    if (program_->IsDerived(pred)) {
      return Status::NotFound(
          StrCat("no derivation recorded for ",
                 program_->ToString(Literal{pred, tuple})));
    }
  }
  std::string out;
  AppendExplanation(pred, tuple, "", true, &out, 0);
  return out;
}

Result<std::vector<Tuple>> BottomUpEvaluator::Query(const Literal& query) {
  if (!ran_) {
    return Status::Internal("call Run() before Query()");
  }
  std::vector<Tuple> out;
  auto match = [&](TupleView tuple) {
    Substitution subst;
    for (size_t k = 0; k < tuple.size(); ++k) {
      if (!Unify(program_->terms(), query.args[k], tuple[k], &subst)) {
        return;
      }
    }
    out.push_back(tuple.ToTuple());
  };
  PredicateId pred = query.pred;
  if (program_->IsFiniteBase(pred)) {
    for (TupleView t : facts_rel_[pred]) match(t);
    return out;
  }
  if (program_->IsDerived(pred)) {
    for (TupleView t : full_[pred]) match(t);
    return out;
  }
  const InfiniteRelation* rel = builtins_->Find(pred);
  if (rel == nullptr) {
    return Status::Unsupported(
        StrCat("no generator for '", program_->PredicateName(pred), "'"));
  }
  Tuple partial(query.args.size(), kInvalidTerm);
  AttrSet bound;
  for (size_t k = 0; k < query.args.size(); ++k) {
    if (program_->terms().IsGround(query.args[k])) {
      partial[k] = query.args[k];
      bound.Add(static_cast<uint32_t>(k));
    }
  }
  if (!rel->SupportsBinding(bound)) {
    return Status::UnsafeQuery(
        StrCat("query ", program_->ToString(query),
               " enumerates an infinite relation"));
  }
  std::vector<Tuple> matches;
  HORNSAFE_RETURN_IF_ERROR(rel->Enumerate(program_, partial, &matches));
  for (const Tuple& t : matches) match(t);
  return out;
}

}  // namespace hornsafe
