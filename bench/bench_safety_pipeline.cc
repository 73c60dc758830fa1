// End-to-end analysis latency across synthetic program families: the
// whole pipeline (Algorithm 1, adornment, Algorithm 2, Algorithms 3/4,
// subset condition) per query, the number a user of the library
// actually experiences.

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench/bench_util.h"
#include "core/analyzer.h"
#include "core/counter_table.h"
#include "util/strings.h"

namespace hornsafe {
namespace {

void BM_PipelineGuardedChain(benchmark::State& state) {
  Program p = bench::GuardedChain(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto analyzer = SafetyAnalyzer::Create(p);
    benchmark::DoNotOptimize(analyzer->AnalyzeQueries());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PipelineGuardedChain)
    ->RangeMultiplier(2)
    ->Range(2, 64)
    ->Complexity();

void BM_PipelineUnguardedChain(benchmark::State& state) {
  Program p = bench::UnguardedChain(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto analyzer = SafetyAnalyzer::Create(p);
    benchmark::DoNotOptimize(analyzer->AnalyzeQueries());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PipelineUnguardedChain)
    ->RangeMultiplier(2)
    ->Range(2, 64)
    ->Complexity();

void BM_PipelineMixedFamily(benchmark::State& state) {
  Program p = bench::MustParse(bench::RandomFamilyText(
      /*seed=*/7, static_cast<int>(state.range(0)), 1, 2));
  for (auto _ : state) {
    auto analyzer = SafetyAnalyzer::Create(p);
    benchmark::DoNotOptimize(analyzer->AnalyzeQueries());
  }
}
BENCHMARK(BM_PipelineMixedFamily)->Arg(4)->Arg(16)->Arg(64);

/// Four independent copies of the SharedDiamond ring behind one
/// arity-4 wrapper predicate. Each wrapper position resolves to its own
/// unary ring, so all four run a genuine subset search with no
/// cross-position adornment coupling — the workload the analyzer fans
/// across its pool.
Program WideDiamondRing(int m) {
  constexpr int kArity = 4;
  std::string head, body;
  for (int j = 0; j < kArity; ++j) {
    head += StrCat(j ? "," : "", "X", j);
    body += StrCat(j ? ", " : "", "p", j, "b0(X", j, ")");
  }
  std::string text =
      ".infinite f/2.\n.fd f: 2 -> 1.\n"
      ".infinite g/2.\n.fd g: 2 -> 1.\n"
      ".infinite t2/2.\n";
  text += StrCat("q(", head, ") :- ", body, ".\n");
  for (int j = 0; j < kArity; ++j) {
    for (int i = 0; i < m; ++i) {
      text += StrCat("p", j, "b", i, "(X) :- p", j, "d", i, "(X), p", j,
                     "b", (i + 1) % m, "(X).\n");
      text += StrCat("p", j, "d", i, "(X) :- f(X,Y), p", j, "e", i,
                     "(Y).\n");
      text += StrCat("p", j, "d", i, "(X) :- g(X,Y), p", j, "e", i,
                     "(Y).\n");
      text += StrCat("p", j, "e", i, "(X) :- t2(X,Z).\n");
    }
    text += StrCat("p", j, "b0(X) :- c(X).\n");
  }
  text += StrCat("?- q(", head, ").\n");
  return bench::MustParse(text);
}

void BM_PipelineWide(benchmark::State& state) {
  Program p = WideDiamondRing(8);
  double seconds = 0;
  for (auto _ : state) {
    auto t0 = std::chrono::steady_clock::now();
    auto analyzer = SafetyAnalyzer::Create(p);
    benchmark::DoNotOptimize(analyzer->AnalyzeQueries());
    seconds += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  }
  auto analyzer = SafetyAnalyzer::Create(p);
  analyzer->AnalyzeQueries();
  SafetyAnalyzer::Counters c = analyzer->counters();
  state.counters["steps"] = static_cast<double>(c.steps);
  bench::JsonDump& dump = bench::JsonDump::Get("safety");
  const std::string name = "pipeline_wide";
  dump.Record(name, "seconds_per_analysis",
              seconds / static_cast<double>(state.iterations()));
  for (const CounterField<SafetyAnalyzer::Counters>& f :
       kAnalyzerCounterTable) {
    dump.Record(name, f.name, static_cast<double>(c.*f.field));
  }
}
BENCHMARK(BM_PipelineWide);

void BM_PipelineCreateOnly(benchmark::State& state) {
  // Pipeline construction (no queries): parse-to-pruned-system.
  Program p = bench::GuardedChain(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto analyzer = SafetyAnalyzer::Create(p);
    benchmark::DoNotOptimize(analyzer);
  }
  auto analyzer = SafetyAnalyzer::Create(p);
  state.counters["nodes"] =
      static_cast<double>(analyzer->stats().nodes);
  state.counters["live_rules"] =
      static_cast<double>(analyzer->stats().rules_live);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PipelineCreateOnly)
    ->RangeMultiplier(2)
    ->Range(2, 128)
    ->Complexity(benchmark::oN);

}  // namespace
}  // namespace hornsafe
