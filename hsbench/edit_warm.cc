// edit_warm: closed loop, one thread, jobs = 1 (the serve default). The
// base program is ModularText(16 diamond modules, ring 6); a seeded
// stream of single-rule edits (NextModularEdit: a fresh extra guard on
// one random module's grounding rule, every fourth edit an undo) follows,
// each applied as
// SafetyAnalyzer::Update then AnalyzeQueries against one shared
// memory-only cache.
//
//   op  = edit: Update + AnalyzeQueries
//   aux = Update alone
//
// Every 25th edit is re-analyzed by a fresh cold analyzer (untimed):
// verdicts, explanations, stop reasons, per-position steps and the
// AndOrSystem::ToString rendering must be byte-identical.

#include <memory>
#include <optional>

#include "core/analyzer.h"
#include "core/pipeline_cache.h"
#include "corpus.h"
#include "parser/parser.h"
#include "workloads.h"

namespace hsbench {
namespace {

using hornsafe::SafetyAnalyzer;

constexpr int kModules = 16;
constexpr int kRing = 6;
constexpr uint64_t kSpotEvery = 25;

constexpr uint64_t kStreamSalt = 0x6564697473ULL;

/// Stage-clock deltas between two counter readings, attached as
/// children of the open span.
void AttachStageDeltas(Tracer* tracer, const SafetyAnalyzer::Counters& a,
                       const SafetyAnalyzer::Counters& b) {
  tracer->AttachChild("stage.canonicalize",
                      b.stage_canonicalize_ns - a.stage_canonicalize_ns);
  tracer->AttachChild("stage.fingerprint",
                      b.stage_fingerprint_ns - a.stage_fingerprint_ns);
  tracer->AttachChild("stage.fd", b.stage_fd_ns - a.stage_fd_ns);
  tracer->AttachChild("stage.adorn", b.stage_adorn_ns - a.stage_adorn_ns);
  tracer->AttachChild("stage.build", b.stage_build_ns - a.stage_build_ns);
  tracer->AttachChild("stage.prune", b.stage_prune_ns - a.stage_prune_ns);
  tracer->AttachChild("stage.scc", b.stage_scc_ns - a.stage_scc_ns);
}

/// Compares a warm analysis with a fresh cold analyzer's; returns the
/// first difference or "".
std::string CompareWithCold(SafetyAnalyzer& warm,
                            const std::vector<hornsafe::QueryAnalysis>& got,
                            const hornsafe::Program& program) {
  hornsafe::AnalyzerOptions opts;
  opts.jobs = 1;
  auto cold = SafetyAnalyzer::Create(program, opts);
  if (!cold.ok()) return "cold create: " + cold.status().ToString();
  std::vector<hornsafe::QueryAnalysis> want = cold->AnalyzeQueries();
  if (want.size() != got.size()) return "query count differs";
  for (size_t i = 0; i < want.size(); ++i) {
    if (want[i].overall != got[i].overall) {
      return "verdict differs on query " + std::to_string(i);
    }
    if (want[i].args.size() != got[i].args.size()) return "arity differs";
    for (size_t k = 0; k < want[i].args.size(); ++k) {
      const hornsafe::ArgumentVerdict& w = want[i].args[k];
      const hornsafe::ArgumentVerdict& g = got[i].args[k];
      if (w.safety != g.safety || w.stop != g.stop ||
          w.explanation != g.explanation || w.steps != g.steps ||
          w.graphs_checked != g.graphs_checked) {
        return "position " + std::to_string(k) + " of query " +
               std::to_string(i) + " differs";
      }
    }
  }
  if (warm.system().ToString(warm.canonical()) !=
      cold->system().ToString(cold->canonical())) {
    return "AndOrSystem::ToString differs";
  }
  return "";
}

struct Tallies {
  double edits = 0, rules_parsed = 0;
  double canonical_rules = 0, adorned_rules = 0, nodes = 0;
  double rules_total = 0, rules_deleted = 0;
  double analyzer_cpu = 0, analyzer_wall = 0;
  SafetyAnalyzer::Counters c0, c1;
  hornsafe::PipelineCacheStats s0, s1;
};

class EditRunner {
 public:
  EditRunner(uint64_t seed, Report* report)
      : rng_(seed ^ kStreamSalt), report_(report) {
    spec_.diamonds = kModules;
    spec_.ring = kRing;
    spec_.tag = "_" + SeedTag(seed);
    spec_.guards.assign(kModules, "");
    for (const QueryPoint& q : ModularQueries(spec_)) {
      expected_.push_back(q.verdict);
    }
  }

  /// Builds the analyzer for the base program and primes the cache;
  /// returns the set-up seconds, or -1 on failure.
  double Setup() {
    analyzer_.reset();  // before its cache goes away
    cache_.reset();
    const auto s0 = Clock::now();
    cache_ = std::make_unique<hornsafe::PipelineCache>();
    ModularSpec base = spec_;  // the edit stream may have moved spec_
    base.guards.assign(kModules, "");
    auto program = hornsafe::ParseProgram(ModularText(base));
    if (!program.ok()) {
      report_->Fail("base parse: " + program.status().ToString());
      return -1;
    }
    hornsafe::AnalyzerOptions opts;
    opts.jobs = 1;
    opts.cache = cache_.get();
    const auto c0 = Clock::now();
    auto analyzer = SafetyAnalyzer::Create(*program, opts);
    create_s_.push_back(SecondsSince(c0));
    if (!analyzer.ok()) {
      report_->Fail("base create: " + analyzer.status().ToString());
      return -1;
    }
    analyzer_.emplace(std::move(analyzer).value());
    analyzer_->AnalyzeQueries();
    return SecondsSince(s0);
  }

  /// Runs edits for `seconds` (and at least 1000). With a tracer, odd
  /// edits are traced and even ones are measured untraced into
  /// `untraced`, so both see the same cache state.
  Phase Measure(double seconds, Tracer* tracer, Phase* untraced = nullptr) {
    Phase phase;
    double excluded = 0;
    uint64_t edits = 0;
    if (tracer != nullptr) {
      t_.c0 = analyzer_->counters();
      t_.s0 = cache_->stats();
    }
    const auto start = Clock::now();
    auto more = [&] {
      double t = SecondsSince(start);
      bool short_of_samples = phase.op.count() < 1000;
      return t < seconds ||
             (tracer == nullptr && short_of_samples && t < 5 * seconds);
    };
    while (more()) {
      if (tracer != nullptr && edits % 2 == 0) {
        excluded += EditOnce(nullptr, untraced);
      } else {
        excluded += EditOnce(tracer, &phase);
      }
      ++edits;
    }
    const double wall = SecondsSince(start) - excluded;
    phase.op_per_s = edits / wall;
    phase.aux_per_s = edits / wall;
    if (tracer != nullptr) {
      t_.c1 = analyzer_->counters();
      t_.s1 = cache_->stats();
    }
    return phase;
  }

  const Tallies& tallies() const { return t_; }
  double mean_create_ms() const {
    double s = 0;
    for (double v : create_s_) s += v;
    return create_s_.empty() ? 0 : s * 1e3 / create_s_.size();
  }

 private:
  /// Applies one seeded edit; returns untimed seconds (spot checks) to
  /// exclude from the throughput base.
  double EditOnce(Tracer* tracer, Phase* phase) {
    const uint64_t edit = ++edit_;
    NextModularEdit(&rng_, edit, &spec_.guards);
    const std::string text = ModularText(spec_);

    ++report_->attempted;
    Tracer::Span parse_span(tracer, "parser", edit);
    auto program = hornsafe::ParseProgram(text);
    parse_span.End();
    if (!program.ok()) {
      report_->Fail("edit parse: " + program.status().ToString());
      return 0;
    }
    const double cpu0 = ProcessCpuSeconds();
    const auto t0 = Clock::now();
    SafetyAnalyzer::Counters before;
    if (tracer != nullptr) before = analyzer_->counters();
    Tracer::Span update_span(tracer, "analyzer.update", edit);
    auto stats = analyzer_->Update(*program);
    if (tracer != nullptr) {
      AttachStageDeltas(tracer, before, analyzer_->counters());
    }
    update_span.End();
    const double update_ms = SecondsSince(t0) * 1e3;
    if (!stats.ok()) {
      report_->Fail("update: " + stats.status().ToString());
      return 0;
    }
    std::vector<hornsafe::QueryAnalysis> results;
    {
      Tracer::Span span(tracer, "analyzer.analyze", edit);
      const uint64_t search0 = analyzer_->counters().stage_search_ns;
      results = analyzer_->AnalyzeQueries();
      if (tracer != nullptr) {
        tracer->AttachChild("stage.search",
                            analyzer_->counters().stage_search_ns - search0);
      }
    }
    phase->op.Add(SecondsSince(t0) * 1e3);
    phase->aux.Add(update_ms);

    if (tracer != nullptr) {
      t_.edits += 1;
      t_.rules_parsed += program->rules().size();
      t_.analyzer_cpu += ProcessCpuSeconds() - cpu0;
      t_.analyzer_wall += SecondsSince(t0);
      const SafetyAnalyzer::Stats& s = analyzer_->stats();
      t_.canonical_rules += s.canonical_rules;
      t_.adorned_rules += s.adorned_rules;
      t_.nodes += s.nodes;
      t_.rules_total += s.rules_total;
      t_.rules_deleted += s.rules_pruned_emptiness + s.rules_pruned_reduction;
    }

    // Oracle: every module stays safe under guard edits.
    if (results.size() != expected_.size()) {
      report_->Fail("edit " + std::to_string(edit) + ": " +
                    std::to_string(results.size()) + " queries, expected " +
                    std::to_string(expected_.size()));
    } else {
      for (size_t i = 0; i < results.size(); ++i) {
        std::string got = hornsafe::SafetyName(results[i].overall);
        if (got != expected_[i]) {
          report_->Fail("edit " + std::to_string(edit) + ": query " +
                        std::to_string(i) + " is " + got + ", expected " +
                        expected_[i]);
          break;
        }
      }
    }

    if (edit % kSpotEvery != 0) return 0;
    const auto x0 = Clock::now();
    ++report_->attempted;
    ++spot_checks_;
    std::string diff = CompareWithCold(*analyzer_, results, *program);
    if (!diff.empty()) {
      report_->Fail("warm != cold after edit " + std::to_string(edit) + ": " +
                    diff);
    }
    return SecondsSince(x0);
  }

 public:
  /// Digest of the base program and the first 4096 edits of the
  /// stream: the same for every run with this seed, however many edits
  /// a run gets through.
  std::string InputDigest(uint64_t seed) const {
    ModularSpec spec = spec_;
    spec.guards.assign(kModules, "");
    Digest d;
    d.Add(ModularText(spec));
    SeededRng rng(seed ^ kStreamSalt);
    for (uint64_t e = 1; e <= 4096; ++e) {
      NextModularEdit(&rng, e, &spec.guards);
      for (const std::string& g : spec.guards) d.Add(g);
    }
    return d.Hex();
  }
  uint64_t spot_checks() const { return spot_checks_; }

 private:
  ModularSpec spec_;
  SeededRng rng_;
  Report* report_;
  std::vector<std::string> expected_;
  std::unique_ptr<hornsafe::PipelineCache> cache_;
  std::optional<SafetyAnalyzer> analyzer_;
  std::vector<double> create_s_;
  uint64_t edit_ = 0;
  uint64_t spot_checks_ = 0;
  Tallies t_;
};

void FillLayers(const Tracer& tr, const Tallies& t, double create_ms,
                Report* report) {
  auto& l = report->layer;
  const double n = t.edits;
  const auto& a = t.c0;
  const auto& b = t.c1;
  l["parser.busy_ms"] = SelfMsPerOp(tr, "parser", n);
  l["parser.rules_per_ms"] =
      Ratio(t.rules_parsed, tr.Get("parser").self_s * 1e3);
  l["canonical.busy_ms"] = SelfMsPerOp(tr, "stage.canonicalize", n);
  l["canonical.rules_out"] = Ratio(t.canonical_rules, n);
  l["fingerprint.busy_ms"] = SelfMsPerOp(tr, "stage.fingerprint", n);
  l["fd.busy_ms"] = SelfMsPerOp(tr, "stage.fd", n);
  l["adorn.busy_ms"] = SelfMsPerOp(tr, "stage.adorn", n);
  l["adorn.adorned_rules"] = Ratio(t.adorned_rules, n);
  l["build.busy_ms"] = SelfMsPerOp(tr, "stage.build", n);
  l["build.nodes"] = Ratio(t.nodes, n);
  l["prune.busy_ms"] = SelfMsPerOp(tr, "stage.prune", n);
  l["prune.rules_deleted_share"] = Ratio(t.rules_deleted, t.rules_total);
  l["scc.busy_ms"] = SelfMsPerOp(tr, "stage.scc", n);
  l["subset.busy_ms"] = SelfMsPerOp(tr, "stage.search", n);
  const double searches = b.subset_searches - a.subset_searches;
  const double memo_hits = b.memo_hits - a.memo_hits;
  const double memo_misses = b.memo_misses - a.memo_misses;
  l["subset.searches"] = Ratio(searches, n);
  l["subset.steps"] = Ratio(b.steps - a.steps, n);
  l["subset.memo_hit_rate"] = Ratio(memo_hits, memo_hits + memo_misses);
  l["subset.scc_short_circuit_share"] =
      Ratio(b.scc_short_circuits - a.scc_short_circuits, searches);
  const Tracer::Totals update = tr.Get("analyzer.update");
  const Tracer::Totals analyze = tr.Get("analyzer.analyze");
  l["analyzer.create_ms"] = create_ms;
  l["analyzer.update_ms"] = Ratio(update.total_s * 1e3, update.count);
  l["analyzer.analyze_ms"] = Ratio(analyze.total_s * 1e3, analyze.count);
  l["analyzer.unattributed_share"] =
      Ratio(update.self_s + analyze.self_s, update.total_s + analyze.total_s);
  l["analyzer.cpu_per_wall"] = Ratio(t.analyzer_cpu, t.analyzer_wall);
  l["analyzer.parallel_tasks"] = Ratio(b.parallel_tasks - a.parallel_tasks, n);
  const auto& s0 = t.s0;
  const auto& s1 = t.s1;
  const double vh = s1.verdict_hits - s0.verdict_hits;
  const double vm = s1.verdict_misses - s0.verdict_misses;
  l["cache.verdict_hit_rate"] = Ratio(vh, vh + vm);
  l["cache.segment_graft_rate"] = Ratio(b.segments_grafted - a.segments_grafted,
                                        b.segments_total - a.segments_total);
  const double spliced = b.fragments_spliced - a.fragments_spliced;
  const double rebuilt = b.fragments_rebuilt - a.fragments_rebuilt;
  l["cache.fragment_reuse_rate"] = Ratio(spliced, spliced + rebuilt);
  const double ch = s1.canon_hits - s0.canon_hits;
  const double cm = s1.canon_misses - s0.canon_misses;
  l["cache.canon_hit_rate"] = Ratio(ch, ch + cm);
  l["cache.evictions"] =
      (s1.verdict_evictions - s0.verdict_evictions) +
      (s1.fragment_evictions - s0.fragment_evictions) +
      (s1.segment_evictions - s0.segment_evictions);
}

}  // namespace

Report EditWarm(const Context& ctx) {
  Report report;
  EditRunner runner(ctx.seed, &report);
  SetupTimes setup;
  auto setup_once = [&runner] { return runner.Setup(); };
  if (!TimeSetupBlock(setup_once, &setup.before)) return report;
  report.info["jobs"] = "1";
  report.info["modules"] = std::to_string(kModules);
  report.info["ring"] = std::to_string(kRing);
  // Tails at p95: a 25 s run holds ~2300 edits, and their p99 (about
  // 20 samples beyond it) varied by more than the metric's bound
  // between runs.
  const AliasNames names{"edit_ms_p50", "edit_ms_p95", "edits_per_s",
                         "update_ms_p50", "update_ms_p95", ""};
  if (!ctx.trace) {
    Phase phase = runner.Measure(ctx.seconds, nullptr);
    FillEndToEnd(phase, 95, 95, names, &report);
  } else {
    Phase untraced;
    Tracer tracer;
    Phase traced = runner.Measure(ctx.seconds, &tracer, &untraced);
    FillEndToEnd(untraced, 95, 95, names, &report);
    FillLayers(tracer, runner.tallies(), runner.mean_create_ms(), &report);
    FillTraceOverhead(untraced, traced, tracer, &report);
    tracer.Write(ctx.results_dir + "/trace-edit_warm-seed" +
                 std::to_string(ctx.seed) + ".json");
  }
  report.info["input_digest"] = runner.InputDigest(ctx.seed);
  report.info["warm_cold_spot_checks"] = std::to_string(runner.spot_checks());
  TimeSetupBlock(setup_once, &setup.after);
  FillSetup(setup, &report);
  return report;
}

}  // namespace hsbench
