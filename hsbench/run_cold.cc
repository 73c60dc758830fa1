// run_cold: closed loop, one driving thread. For every program of the
// seeded corpus, do what `hornsafe check` and then `hornsafe run` do,
// each program with a fresh memory-only cache and jobs = min(4, nproc)
// for both the analyzer and bottom-up evaluation.
//
//   op  = check: program text -> all verdicts (parse, builtin
//         registration, lint, SafetyAnalyzer::Create, per-query
//         analysis, finiteness and termination checks)
//   aux = eval: one safe query -> all answers (Engine::Query on an
//         engine whose analyzer is already built)

#include <algorithm>
#include <memory>

#include "core/analyzer.h"
#include "core/finiteness.h"
#include "core/pipeline_cache.h"
#include "core/termination.h"
#include "constraints/consistency.h"
#include "corpus.h"
#include "eval/builtins.h"
#include "eval/engine.h"
#include "layered.h"
#include "lint/lint.h"
#include "parser/parser.h"
#include "workloads.h"

namespace hsbench {
namespace {

using hornsafe::SafetyAnalyzer;

hornsafe::Result<hornsafe::Program> Load(const std::string& text) {
  HORNSAFE_ASSIGN_OR_RETURN(hornsafe::Program program,
                            hornsafe::ParseProgram(text));
  hornsafe::BuiltinRegistry referenced;
  HORNSAFE_RETURN_IF_ERROR(
      hornsafe::RegisterReferencedStandardBuiltins(&program, &referenced));
  return program;
}

/// Attaches one build's stage clocks as children of the open span.
void AttachBuildStages(Tracer* tracer, const SafetyAnalyzer::Stats& s) {
  if (tracer == nullptr) return;
  tracer->AttachChild("stage.canonicalize", s.stage_canonicalize_ns);
  tracer->AttachChild("stage.fingerprint", s.stage_fingerprint_ns);
  tracer->AttachChild("stage.fd", s.stage_fd_ns);
  tracer->AttachChild("stage.adorn", s.stage_adorn_ns);
  tracer->AttachChild("stage.build", s.stage_build_ns);
  tracer->AttachChild("stage.prune", s.stage_prune_ns);
  tracer->AttachChild("stage.scc", s.stage_scc_ns);
}

/// Layer tallies of the traced phase (sums over programs).
struct Tallies {
  double programs = 0, rules_parsed = 0;
  double canonical_rules = 0, adorned_rules = 0, nodes = 0;
  double rules_total = 0, rules_deleted = 0;
  double searches = 0, steps = 0, memo_hits = 0, memo_misses = 0;
  double scc_short_circuits = 0, escapes = 0;
  double creates = 0, parallel_tasks = 0;
  double analyzer_cpu = 0, analyzer_wall = 0;
  double verdict_hits = 0, verdict_misses = 0, canon_hits = 0,
         canon_misses = 0, evictions = 0;
  double segments_grafted = 0, segments_total = 0;
  double fragments_spliced = 0, fragments_rebuilt = 0;
  double evals = 0, eval_iterations = 0, eval_tuples = 0, eval_firings = 0,
         eval_parallel = 0, eval_cpu = 0, eval_wall = 0;
};

class ColdRunner {
 public:
  ColdRunner(const Context& ctx, std::vector<CorpusProgram> corpus)
      : corpus_(std::move(corpus)), jobs_(std::min(4, ctx.nproc)) {}

  /// Runs whole corpus passes until `seconds` have elapsed and the
  /// tail percentiles have ten samples beyond them (so a slower program
  /// cannot silently switch the reported percentile), within a hard cap
  /// of five times `seconds`.
  /// With a tracer, alternate programs are traced and the others are
  /// measured untraced into `untraced`; the pattern flips every pass, so
  /// every program is seen both ways. A traced run makes at least two
  /// passes and fails unless every program was traced.
  Phase Measure(double seconds, Tracer* tracer, Report* report,
                Phase* untraced = nullptr) {
    Phase phase;
    uint64_t evals = 0;
    std::vector<bool> traced(corpus_.size(), false);
    const auto start = Clock::now();
    uint64_t pass = 0;
    auto more = [&] {
      double t = SecondsSince(start);
      if (tracer != nullptr) return t < seconds || pass < 2;
      bool short_of_samples =
          phase.op.count() < kOpSamples || phase.aux.count() < kAuxSamples;
      return t < seconds || (short_of_samples && t < 5 * seconds);
    };
    // Rates are per corpus pass, median over passes: a burst of host
    // noise slows one pass, not the reported rate.
    std::vector<double> pass_seconds;
    do {
      ++pass;
      const auto p0 = Clock::now();
      for (size_t i = 0; i < corpus_.size(); ++i) {
        if (tracer != nullptr && (i + pass) % 2 == 0) {
          RunOne(corpus_[i], nullptr, untraced, &evals, report);
        } else {
          RunOne(corpus_[i], tracer, &phase, &evals, report);
          traced[i] = true;
        }
      }
      pass_seconds.push_back(SecondsSince(p0));
    } while (more());
    if (tracer != nullptr) {
      for (size_t i = 0; i < corpus_.size(); ++i) {
        if (!traced[i]) report->Fail(corpus_[i].name + ": never traced");
      }
    }
    const double per_pass = MedianOf(pass_seconds);
    phase.op_per_s = corpus_.size() / per_pass;
    phase.aux_per_s = static_cast<double>(evals) / pass / per_pass;
    return phase;
  }

  const Tallies& tallies() const { return t_; }

  // Ten samples beyond p99 (check) and p90 (eval).
  static constexpr size_t kOpSamples = 1000;
  static constexpr size_t kAuxSamples = 100;
  int jobs() const { return jobs_; }

 private:
  void RunOne(const CorpusProgram& p, Tracer* tracer, Phase* phase,
              uint64_t* evals, Report* report) {
    const uint64_t request = ++request_;
    hornsafe::PipelineCache cache;  // fresh, memory-only
    hornsafe::AnalyzerOptions aopts;
    aopts.jobs = jobs_;
    aopts.cache = &cache;

    // --- check: program text to all verdicts (timed) ------------------
    ++report->attempted;
    const auto t0 = Clock::now();
    Tracer::Span parse_span(tracer, "parser", request);
    auto program = Load(p.text);
    parse_span.End();
    if (!program.ok()) {
      report->Fail(p.name + ": load: " + program.status().ToString());
      return;
    }
    {
      Tracer::Span span(tracer, "lint", request);
      std::vector<hornsafe::Diagnostic> diags =
          hornsafe::LintProgram(*program);
      (void)diags;
    }
    const double cpu0 = ProcessCpuSeconds();
    const auto a0 = Clock::now();
    Tracer::Span create_span(tracer, "analyzer.create", request);
    auto analyzer = SafetyAnalyzer::Create(*program, aopts);
    if (analyzer.ok()) AttachBuildStages(tracer, analyzer->stats());
    create_span.End();
    if (!analyzer.ok()) {
      report->Fail(p.name + ": create: " + analyzer.status().ToString());
      return;
    }
    std::vector<hornsafe::QueryAnalysis> analyses;
    const std::vector<hornsafe::Literal> queries =
        analyzer->canonical().queries();
    {
      Tracer::Span span(tracer, "analyzer.analyze", request);
      const uint64_t search0 = analyzer->counters().stage_search_ns;
      for (const hornsafe::Literal& q : queries) {
        analyses.push_back(analyzer->AnalyzeQueryLiteral(q));
      }
      if (tracer != nullptr) {
        tracer->AttachChild("stage.search",
                            analyzer->counters().stage_search_ns - search0);
      }
    }
    const double analyzer_wall = SecondsSince(a0);
    const double analyzer_cpu = ProcessCpuSeconds() - cpu0;
    {
      Tracer::Span span(tracer, "analyzer.extras", request);
      auto warnings = hornsafe::CheckConstraintConsistency(
          analyzer->canonical());
      (void)warnings;
      for (const hornsafe::Literal& q : queries) {
        auto fin = hornsafe::CheckFiniteIntermediateResults(
            analyzer->canonical(), analyzer->adorned(), analyzer->system(),
            q);
        auto term = hornsafe::CheckTermination(*analyzer, q);
        (void)fin;
        (void)term;
      }
    }
    phase->op.Add(SecondsSince(t0) * 1e3);

    // Oracle (untimed).
    if (analyses.size() != p.verdicts.size()) {
      report->Fail(p.name + ": " + std::to_string(analyses.size()) +
                   " queries, expected " + std::to_string(p.verdicts.size()));
    } else {
      for (size_t i = 0; i < analyses.size(); ++i) {
        std::string got = hornsafe::SafetyName(analyses[i].overall);
        if (got != p.verdicts[i]) {
          report->Fail(p.name + ": query " + std::to_string(i) + " is " +
                       got + ", expected " + p.verdicts[i]);
        }
      }
    }

    if (tracer != nullptr) {
      Trace(p, *program, *analyzer, analyses, analyzer_cpu, analyzer_wall,
            tracer, report);
    }
    RunEvals(p, *program, &cache, tracer, phase, evals, report);
    if (tracer != nullptr) {
      // After the evals: the engine's analysis hits the check's entries.
      hornsafe::PipelineCacheStats cs = cache.stats();
      t_.verdict_hits += cs.verdict_hits;
      t_.verdict_misses += cs.verdict_misses;
      t_.canon_hits += cs.canon_hits;
      t_.canon_misses += cs.canon_misses;
      t_.evictions +=
          cs.verdict_evictions + cs.fragment_evictions + cs.segment_evictions;
    }
  }

  /// `hornsafe run`: evaluates the program's safe queries on an engine
  /// sharing the check's cache; each Engine::Query is one aux sample.
  void RunEvals(const CorpusProgram& p, const hornsafe::Program& program,
                hornsafe::PipelineCache* cache, Tracer* tracer, Phase* phase,
                uint64_t* evals, Report* report) {
    const uint64_t request = request_;

    if (p.evals.empty()) return;
    hornsafe::EngineOptions eopts;
    eopts.bottom_up.jobs = jobs_;
    eopts.analyzer.jobs = jobs_;
    eopts.analyzer.cache = cache;
    auto engine = hornsafe::Engine::Create(program, eopts);
    if (!engine.ok()) {
      report->attempted += p.evals.size();
      report->Fail(p.name + ": engine: " + engine.status().ToString());
      return;
    }
    // Build the engine's analyzer before timing (the check above has
    // already paid for analysis).
    auto lit = hornsafe::ParseLiteralInto(p.evals[0].query,
                                          &engine->program());
    if (lit.ok()) (void)engine->Analyze(*lit);
    for (const EvalCase& e : p.evals) {
      ++report->attempted;
      const double ecpu0 = ProcessCpuSeconds();
      const auto e0 = Clock::now();
      Tracer::Span span(tracer, "eval", request);
      auto r = engine->Query(e.query);
      span.End();
      const double ms = SecondsSince(e0) * 1e3;
      phase->aux.Add(ms);
      ++*evals;
      if (!r.ok()) {
        report->Fail(p.name + ": " + e.query + ": " + r.status().ToString());
        continue;
      }
      if (r->tuples.size() != e.answers) {
        report->Fail(p.name + ": " + e.query + " gave " +
                     std::to_string(r->tuples.size()) + " answers, expected " +
                     std::to_string(e.answers));
      }
      if (tracer != nullptr) {
        t_.evals += 1;
        t_.eval_iterations += r->eval_stats.iterations;
        t_.eval_tuples += r->eval_stats.tuples_derived;
        t_.eval_firings += r->eval_stats.rule_firings;
        t_.eval_parallel += r->eval_stats.parallel_tasks;
        t_.eval_cpu += ProcessCpuSeconds() - ecpu0;
        t_.eval_wall += ms / 1e3;
      }
    }
  }

  /// Traced run only: the layer-by-layer replica plus the tallies the
  /// per-layer metrics are computed from.
  void Trace(const CorpusProgram& p, const hornsafe::Program& program,
             SafetyAnalyzer& analyzer,
             const std::vector<hornsafe::QueryAnalysis>& analyses,
             double analyzer_cpu,
             double analyzer_wall, Tracer* tracer, Report* report) {
    t_.programs += 1;
    t_.rules_parsed += program.rules().size();
    t_.creates += 1;
    t_.analyzer_cpu += analyzer_cpu;
    t_.analyzer_wall += analyzer_wall;
    SafetyAnalyzer::Counters c = analyzer.counters();
    t_.parallel_tasks += c.parallel_tasks;
    t_.segments_grafted += c.segments_grafted;
    t_.segments_total += c.segments_total;
    t_.fragments_spliced += c.fragments_spliced;
    t_.fragments_rebuilt += c.fragments_rebuilt;
    Tracer::Span root(tracer, "layered");
    auto layered = RunLayered(program, tracer);
    root.End();
    if (!layered.ok()) {
      report->Fail(p.name + ": layered: " + layered.status().ToString());
      return;
    }
    t_.canonical_rules += layered->canonical_rules;
    t_.adorned_rules += layered->adorned_rules;
    t_.nodes += layered->nodes;
    t_.rules_total += layered->rules_total;
    t_.rules_deleted += layered->rules_deleted;
    t_.searches += layered->searches;
    t_.steps += layered->steps;
    t_.memo_hits += layered->memo_hits;
    t_.memo_misses += layered->memo_misses;
    t_.scc_short_circuits += layered->scc_short_circuits;
    t_.escapes += layered->escapes;
    // The layer-by-layer verdicts must be SafetyAnalyzer's.
    bool same = layered->queries.size() == analyses.size();
    for (size_t i = 0; same && i < analyses.size(); ++i) {
      const LayeredVerdict& lv = layered->queries[i];
      const hornsafe::QueryAnalysis& qa = analyses[i];
      same = lv.overall == qa.overall && lv.args.size() == qa.args.size();
      for (size_t k = 0; same && k < qa.args.size(); ++k) {
        same = lv.args[k] == qa.args[k].safety &&
               lv.steps[k] == qa.args[k].steps &&
               lv.graphs[k] == qa.args[k].graphs_checked;
      }
    }
    if (!same) report->Fail(p.name + ": layered verdicts differ from analyzer");
  }

  std::vector<CorpusProgram> corpus_;
  const int jobs_;
  uint64_t request_ = 0;
  Tallies t_;
};

void FillLayers(const Tracer& tr, const Tallies& t, Report* report) {
  auto& l = report->layer;
  const double n = t.programs;
  l["parser.busy_ms"] = SelfMsPerOp(tr, "parser", n);
  l["parser.rules_per_ms"] =
      Ratio(t.rules_parsed, tr.Get("parser").self_s * 1e3);
  l["lint.busy_us"] = SelfMsPerOp(tr, "lint", n) * 1e3;
  l["canonical.busy_ms"] = SelfMsPerOp(tr, "canonical", n);
  l["canonical.rules_out"] = Ratio(t.canonical_rules, n);
  l["fingerprint.busy_ms"] = SelfMsPerOp(tr, "fingerprint", n);
  l["fd.busy_ms"] = SelfMsPerOp(tr, "fd", n);
  l["adorn.busy_ms"] = SelfMsPerOp(tr, "adorn", n);
  l["adorn.adorned_rules"] = Ratio(t.adorned_rules, n);
  l["build.busy_ms"] = SelfMsPerOp(tr, "build", n);
  l["build.nodes"] = Ratio(t.nodes, n);
  l["prune.busy_ms"] = SelfMsPerOp(tr, "prune", n);
  l["prune.rules_deleted_share"] = Ratio(t.rules_deleted, t.rules_total);
  l["scc.busy_ms"] = SelfMsPerOp(tr, "scc", n);
  l["subset.busy_ms"] = SelfMsPerOp(tr, "subset", n);
  l["subset.searches"] = Ratio(t.searches, n);
  l["subset.steps"] = Ratio(t.steps, n);
  l["subset.memo_hit_rate"] =
      Ratio(t.memo_hits, t.memo_hits + t.memo_misses);
  l["subset.scc_short_circuit_share"] =
      Ratio(t.scc_short_circuits, t.searches);
  l["mono.escapes"] = Ratio(t.escapes, n);
  const Tracer::Totals create = tr.Get("analyzer.create");
  const Tracer::Totals analyze = tr.Get("analyzer.analyze");
  l["analyzer.create_ms"] = Ratio(create.total_s * 1e3, create.count);
  l["analyzer.analyze_ms"] = Ratio(analyze.total_s * 1e3, analyze.count);
  l["analyzer.unattributed_share"] =
      Ratio(create.self_s + analyze.self_s, create.total_s + analyze.total_s);
  l["analyzer.cpu_per_wall"] = Ratio(t.analyzer_cpu, t.analyzer_wall);
  l["analyzer.parallel_tasks"] = Ratio(t.parallel_tasks, n);
  l["cache.verdict_hit_rate"] =
      Ratio(t.verdict_hits, t.verdict_hits + t.verdict_misses);
  l["cache.segment_graft_rate"] =
      Ratio(t.segments_grafted, t.segments_total);
  l["cache.fragment_reuse_rate"] =
      Ratio(t.fragments_spliced, t.fragments_spliced + t.fragments_rebuilt);
  l["cache.canon_hit_rate"] =
      Ratio(t.canon_hits, t.canon_hits + t.canon_misses);
  l["cache.evictions"] = t.evictions;
  l["eval.busy_ms"] = SelfMsPerOp(tr, "eval", t.evals);
  l["eval.iterations"] = Ratio(t.eval_iterations, t.evals);
  l["eval.tuples_per_ms"] = Ratio(t.eval_tuples, t.eval_wall * 1e3);
  l["eval.rule_firings"] = Ratio(t.eval_firings, t.evals);
  l["eval.parallel_tasks"] = Ratio(t.eval_parallel, t.evals);
  l["eval.cpu_per_wall"] = Ratio(t.eval_cpu, t.eval_wall);
}

}  // namespace

Report RunCold(const Context& ctx) {
  Report report;
  // Set-up: generate the seeded corpus and parse every program once.
  SetupTimes setup;
  std::vector<CorpusProgram> corpus;
  auto prepare = [&]() -> double {
    const auto s0 = Clock::now();
    std::string error;
    corpus = ColdCorpus(ctx.seed, ctx.data_dir + "/programs", &error);
    if (corpus.empty()) {
      report.Fail(error);
      return -1;
    }
    for (const CorpusProgram& p : corpus) {
      auto parsed = Load(p.text);
      if (!parsed.ok()) {
        report.Fail(p.name + ": " + parsed.status().ToString());
        return -1;
      }
    }
    return SecondsSince(s0);
  };
  if (!TimeSetupBlock(prepare, &setup.before)) return report;
  Digest digest;
  size_t eval_count = 0;
  for (const CorpusProgram& p : corpus) {
    digest.Add(p.name);
    digest.Add(p.text);
    eval_count += p.evals.size();
  }
  report.info["input_digest"] = digest.Hex();
  report.info["corpus_programs"] = std::to_string(corpus.size());
  report.info["corpus_evals"] = std::to_string(eval_count);

  ColdRunner runner(ctx, std::move(corpus));
  report.info["jobs"] = std::to_string(runner.jobs());
  const AliasNames names{"check_ms_p50", "check_ms_p99", "programs_per_s",
                         "eval_ms_p50",  "eval_ms_p90",  "evals_per_s"};
  if (!ctx.trace) {
    Phase phase = runner.Measure(ctx.seconds, nullptr, &report);
    FillEndToEnd(phase, 99, 90, names, &report);
  } else {
    Phase untraced;
    Tracer tracer;
    Phase traced = runner.Measure(ctx.seconds, &tracer, &report, &untraced);
    FillEndToEnd(untraced, 99, 90, names, &report);
    FillLayers(tracer, runner.tallies(), &report);
    FillTraceOverhead(untraced, traced, tracer, &report);
    tracer.Write(ctx.results_dir + "/trace-run_cold-seed" +
                 std::to_string(ctx.seed) + ".json");
  }
  TimeSetupBlock(prepare, &setup.after);
  FillSetup(setup, &report);
  return report;
}

}  // namespace hsbench
