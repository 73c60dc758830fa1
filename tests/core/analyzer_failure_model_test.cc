// The analyzer's failure model: a per-position step budget, a
// wall-clock deadline and a cancellation token each degrade the
// affected positions to kUndecided with the matching StopReason and
// explanation, and only the deterministic (budget) outcome may enter
// the pipeline cache (DESIGN.md, D13).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/analyzer.h"
#include "parser/parser.h"

namespace hornsafe {
namespace {

/// Both positions force a real search (a derived self-occurrence keeps
/// an f-free forward cycle possible, so no SCC short-circuit applies).
constexpr const char* kTwoSearchText =
    ".infinite t/2.\n"
    ".fd t: 2 -> 1.\n"
    ".infinite t2/2.\n"
    "p(X1,X2) :- p(X1,X2), t(X1,Y1), t(X2,Y2).\n"
    "p(X1,X2) :- t2(X1,Z1), t2(X2,Z2).\n"
    "?- p(X1,X2).\n";

TEST(AnalyzerFailureModelTest, BudgetExhaustionDegradesEveryPosition) {
  // A budget of one step exhausts each position independently.
  auto program = ParseProgram(kTwoSearchText);
  ASSERT_TRUE(program.ok());
  AnalyzerOptions opts;
  opts.subset_budget = 1;
  auto analyzer = SafetyAnalyzer::Create(*program, opts);
  ASSERT_TRUE(analyzer.ok());
  std::vector<QueryAnalysis> qs = analyzer->AnalyzeQueries();
  ASSERT_EQ(qs.size(), 1u);
  EXPECT_EQ(qs[0].overall, Safety::kUndecided);
  for (const ArgumentVerdict& a : qs[0].args) {
    EXPECT_EQ(a.safety, Safety::kUndecided);
    EXPECT_EQ(a.stop, StopReason::kBudget);
    EXPECT_NE(a.explanation.find("budget exhausted"), std::string::npos)
        << a.explanation;
  }
}

TEST(AnalyzerFailureModelTest, ExpiredDeadlineIsDeterministic) {
  // A deadline that is already expired when the analysis starts must
  // stop every search at step 0, so the degraded verdicts (positions,
  // stop reasons and explanation strings) are bit-identical from run
  // to run. (Mid-flight expiry is timing-dependent by design; only the
  // pre-expired case carries the determinism contract — DESIGN.md,
  // D13.)
  auto program = ParseProgram(kTwoSearchText);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  // Building under an expired deadline fails with kDeadlineExceeded
  // rather than producing verdicts.
  {
    AnalyzerOptions opts;
    opts.exec.deadline = Deadline::AfterMillis(0);
    auto analyzer = SafetyAnalyzer::Create(*program, opts);
    ASSERT_FALSE(analyzer.ok());
    EXPECT_EQ(analyzer.status().code(), StatusCode::kDeadlineExceeded)
        << analyzer.status().ToString();
  }

  // The serve path: build normally, then install the expired context.
  auto analyze_degraded = [&] {
    auto analyzer = SafetyAnalyzer::Create(*program, {});
    EXPECT_TRUE(analyzer.ok());
    ExecContext exec;
    exec.deadline = Deadline::AfterMillis(0);
    analyzer->set_exec(exec);
    return analyzer->AnalyzeQueries();
  };
  std::vector<QueryAnalysis> q1 = analyze_degraded();
  std::vector<QueryAnalysis> q2 = analyze_degraded();
  ASSERT_EQ(q1.size(), 1u);
  ASSERT_EQ(q2.size(), 1u);
  EXPECT_EQ(q1[0].overall, Safety::kUndecided);
  ASSERT_EQ(q1[0].args.size(), q2[0].args.size());
  for (size_t k = 0; k < q1[0].args.size(); ++k) {
    EXPECT_EQ(q1[0].args[k].safety, Safety::kUndecided);
    EXPECT_EQ(q1[0].args[k].stop, StopReason::kDeadline);
    EXPECT_EQ(q2[0].args[k].stop, StopReason::kDeadline);
    EXPECT_EQ(q1[0].args[k].explanation, q2[0].args[k].explanation)
        << "arg " << k << " explanation differs";
    EXPECT_NE(q1[0].args[k].explanation.find("deadline"),
              std::string::npos)
        << q1[0].args[k].explanation;
  }
}

TEST(AnalyzerFailureModelTest, CancellationDegradesWithCancelledReason) {
  auto program = ParseProgram(kTwoSearchText);
  ASSERT_TRUE(program.ok());
  auto analyzer = SafetyAnalyzer::Create(*program, {});
  ASSERT_TRUE(analyzer.ok());
  CancelToken cancel;
  cancel.Cancel();  // cancelled before the analysis starts
  ExecContext exec;
  exec.cancel = &cancel;
  analyzer->set_exec(exec);
  std::vector<QueryAnalysis> qs = analyzer->AnalyzeQueries();
  ASSERT_EQ(qs.size(), 1u);
  for (const ArgumentVerdict& a : qs[0].args) {
    EXPECT_EQ(a.safety, Safety::kUndecided);
    EXPECT_EQ(a.stop, StopReason::kCancelled);
    EXPECT_NE(a.explanation.find("cancelled"), std::string::npos)
        << a.explanation;
  }
}

TEST(AnalyzerFailureModelTest, DegradedVerdictsAreNeverCached) {
  // A deadline-degraded kUndecided must not poison the cache: a later
  // analysis with time to spare has to redo the search. A *budget*-
  // stopped kUndecided, by contrast, is a deterministic property of
  // the program + options and does cache. The program forces a real
  // search on both positions (no SCC short-circuit applies — those
  // O(1) verdicts stay valid, and cacheable, even under an expired
  // deadline) and a one-step budget keeps the fault-free run cheap.
  auto program = ParseProgram(kTwoSearchText);
  ASSERT_TRUE(program.ok());
  PipelineCache cache;
  AnalyzerOptions opts;
  opts.cache = &cache;
  opts.subset_budget = 1;
  auto analyzer = SafetyAnalyzer::Create(*program, opts);
  ASSERT_TRUE(analyzer.ok());

  ExecContext expired;
  expired.deadline = Deadline::AfterMillis(0);
  analyzer->set_exec(expired);
  std::vector<QueryAnalysis> degraded = analyzer->AnalyzeQueries();
  ASSERT_EQ(degraded.size(), 1u);
  EXPECT_EQ(degraded[0].overall, Safety::kUndecided);
  for (const ArgumentVerdict& a : degraded[0].args) {
    EXPECT_EQ(a.stop, StopReason::kDeadline);
  }
  EXPECT_EQ(cache.size(), 0u) << "degraded verdict leaked into the cache";

  analyzer->set_exec(ExecContext{});  // deadline lifted
  std::vector<QueryAnalysis> fresh = analyzer->AnalyzeQueries();
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].overall, Safety::kUndecided);
  for (const ArgumentVerdict& a : fresh[0].args) {
    EXPECT_EQ(a.stop, StopReason::kBudget);
  }
  EXPECT_GT(cache.size(), 0u) << "budget-stopped verdicts should cache";
}

}  // namespace
}  // namespace hornsafe
