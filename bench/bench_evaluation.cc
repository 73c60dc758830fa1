// Evaluation-substrate benchmarks — experiment E9's engine side:
// naive vs semi-naive bottom-up (the crossover the deductive-database
// literature predicts: semi-naive wins and the gap widens with
// recursion depth), plus top-down resolution and builtin costs.

#include <chrono>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "util/rng.h"
#include "eval/bottomup.h"
#include "eval/topdown.h"

namespace hornsafe {
namespace {

void BM_BottomUpChain(benchmark::State& state) {
  bool semi_naive = state.range(1) != 0;
  uint64_t firings = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Program p = bench::ChainGraph(static_cast<int>(state.range(0)));
    BuiltinRegistry registry;
    state.ResumeTiming();
    BottomUpOptions opts;
    opts.semi_naive = semi_naive;
    BottomUpEvaluator eval(&p, &registry, opts);
    Status st = eval.Run();
    firings = eval.stats().rule_firings;
    benchmark::DoNotOptimize(st);
  }
  state.counters["rule_firings"] = static_cast<double>(firings);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BottomUpChain)
    ->ArgsProduct({{16, 32, 64, 128}, {0, 1}})
    ->Complexity();

void BM_BottomUpWithArithmetic(benchmark::State& state) {
  std::string text = "v(0).\n";
  text += StrCat("limit(", state.range(0), ").\n");
  text +=
      "v(J) :- v(I), limit(N), less(I, N), successor(I, J).\n";
  uint64_t derived = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Program p = bench::MustParse(text);
    BuiltinRegistry registry;
    Status st = RegisterStandardBuiltins(&p, &registry);
    state.ResumeTiming();
    BottomUpEvaluator eval(&p, &registry);
    st = eval.Run();
    derived = eval.stats().tuples_derived;
    benchmark::DoNotOptimize(st);
  }
  state.counters["tuples"] = static_cast<double>(derived);
}
BENCHMARK(BM_BottomUpWithArithmetic)->Arg(64)->Arg(256)->Arg(1024);

void BM_TopDownConcat(benchmark::State& state) {
  // Backward concat over a list of length n: n+1 splits.
  std::string list = "[";
  for (int i = 0; i < state.range(0); ++i) {
    list += StrCat(i == 0 ? "" : ",", i);
  }
  list += "]";
  Program p = bench::MustParse(
      "concat([X|Y], Z, [X|U]) :- concat(Y, Z, U).\n"
      "concat([], Z, Z).\n");
  BuiltinRegistry registry;
  auto query = ParseLiteralInto(StrCat("concat(A, B, ", list, ")"), &p);
  size_t answers = 0;
  for (auto _ : state) {
    TopDownEvaluator eval(&p, &registry);
    auto r = eval.Solve(*query);
    answers = r->size();
    benchmark::DoNotOptimize(r);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_TopDownConcat)->Arg(4)->Arg(16)->Arg(64);

void BM_TopDownAncestorBoundLevel(benchmark::State& state) {
  // ancestor(c0, Y, depth) over a parent chain of the given depth.
  int n = static_cast<int>(state.range(0));
  std::string text;
  for (int i = 0; i < n; ++i) {
    text += StrCat("parent(c", i, ", c", i + 1, ").\n");
  }
  text +=
      "ancestor(X,Y,1) :- parent(X,Y).\n"
      "ancestor(X,Y,J) :- parent(X,Z), ancestor(Z,Y,I), successor(I,J).\n";
  Program p = bench::MustParse(text);
  BuiltinRegistry registry;
  Status st = RegisterStandardBuiltins(&p, &registry);
  auto query = ParseLiteralInto(StrCat("ancestor(c0, Y, ", n, ")"), &p);
  for (auto _ : state) {
    TopDownEvaluator eval(&p, &registry);
    benchmark::DoNotOptimize(eval.Solve(*query));
  }
  benchmark::DoNotOptimize(st);
}
BENCHMARK(BM_TopDownAncestorBoundLevel)->Arg(4)->Arg(8)->Arg(16);

void BM_IndexedJoinAblation(benchmark::State& state) {
  // A join-heavy workload: triangles over a random graph. With column
  // indexes each probe is O(matches); without, every join step scans
  // the whole edge relation.
  int n = static_cast<int>(state.range(0));
  bool use_index = state.range(1) != 0;
  Rng rng(5);
  std::string text;
  for (int i = 0; i < 4 * n; ++i) {
    text += StrCat("edge(", rng.Below(n), ",", rng.Below(n), ").\n");
  }
  text += "tri(X,Y,Z) :- edge(X,Y), edge(Y,Z), edge(Z,X).\n";
  for (auto _ : state) {
    state.PauseTiming();
    Program p = bench::MustParse(text);
    BuiltinRegistry registry;
    BottomUpOptions opts;
    opts.use_index = use_index;
    state.ResumeTiming();
    BottomUpEvaluator eval(&p, &registry, opts);
    Status st = eval.Run();
    benchmark::DoNotOptimize(st);
  }
}
BENCHMARK(BM_IndexedJoinAblation)->ArgsProduct({{64, 128, 256}, {0, 1}});

void BM_ParallelTransitiveClosure(benchmark::State& state) {
  // Transitive closure of a chain (EXPERIMENTS.md E21); the recorded
  // per-evaluation seconds feed EXPERIMENTS.md via
  // BENCH_evaluation.json.
  int n = static_cast<int>(state.range(0));
  double total_seconds = 0;
  uint64_t tuples = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Program p = bench::ChainGraph(n);
    BuiltinRegistry registry;
    state.ResumeTiming();
    auto start = std::chrono::steady_clock::now();
    BottomUpEvaluator eval(&p, &registry);
    Status st = eval.Run();
    total_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    tuples = eval.stats().tuples_derived;
    benchmark::DoNotOptimize(st);
  }
  state.counters["tuples"] = static_cast<double>(tuples);
  bench::JsonDump::Get("evaluation")
      .Record(StrCat("parallel_tc/n=", n), "seconds_per_eval",
              total_seconds / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ParallelTransitiveClosure)->Arg(128)->Arg(256);

void BM_BuiltinSuccessorEnumerate(benchmark::State& state) {
  Program p;
  auto rel = MakeSuccessorRelation();
  TermId five = p.Int(5);
  for (auto _ : state) {
    std::vector<Tuple> out;
    Status st = rel->Enumerate(&p, {five, kInvalidTerm}, &out);
    benchmark::DoNotOptimize(out);
    benchmark::DoNotOptimize(st);
  }
}
BENCHMARK(BM_BuiltinSuccessorEnumerate);

}  // namespace
}  // namespace hornsafe
