#include "corpus.h"

#include <algorithm>
#include <numeric>

namespace hsbench {
namespace {

std::string Str(uint64_t v) { return std::to_string(v); }

/// A seeded permutation of 0..n-1, used to relabel constants.
std::vector<int> Permutation(SeededRng& rng, int n) {
  std::vector<int> p(n);
  std::iota(p.begin(), p.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    std::swap(p[i], p[rng.Below(static_cast<uint64_t>(i) + 1)]);
  }
  return p;
}

// --- Safety families ------------------------------------------------------
// Each recursive argument passes through the infinite relation f under
// the FD f: 2 -> 1, so the head variable X is finite only if Y is.

/// r0 -> r1 -> ... -> r<d>, every step guarded by a finite g<i>(Y):
/// every AND-graph contains a finite (0-)node, so every query is safe.
CorpusProgram GuardedChain(int depth, const std::string& t) {
  std::string s = ".infinite f" + t + "/2.\n.fd f" + t + ": 2 -> 1.\n";
  for (int i = 0; i < depth; ++i) {
    s += "r" + Str(i) + t + "(X) :- f" + t + "(X,Y), r" + Str(i + 1) + t +
         "(Y), g" + Str(i) + t + "(Y).\n";
  }
  s += "r" + Str(depth) + t + "(X) :- base" + t + "(X).\n";
  s += "?- r0" + t + "(X).\n";
  return {"guarded_chain/" + Str(depth), s, {"safe"}, {}};
}

/// The same chain without guards and closed into a cycle r<d> -> r0:
/// the cycle through f has no finite node and no f-node-free forward
/// cycle, so the query is unsafe (Theorem 3).
CorpusProgram UnguardedChain(int depth, const std::string& t) {
  std::string s = ".infinite f" + t + "/2.\n.fd f" + t + ": 2 -> 1.\n";
  for (int i = 0; i < depth; ++i) {
    s += "r" + Str(i) + t + "(X) :- f" + t + "(X,Y), r" + Str(i + 1) + t +
         "(Y).\n";
  }
  s += "r" + Str(depth) + t + "(X) :- f" + t + "(X,Y), r0" + t + "(Y).\n";
  s += "r" + Str(depth) + t + "(X) :- base" + t + "(X).\n";
  s += "?- r0" + t + "(X).\n";
  return {"unguarded_chain/" + Str(depth), s, {"unsafe"}, {}};
}

/// One recursive predicate with m parallel guarded rules (Lemma 8's "m
/// rules per literal"); every rule carries a finite guard: safe.
CorpusProgram ParallelRules(int m, const std::string& t) {
  std::string s = ".infinite f" + t + "/2.\n.fd f" + t + ": 2 -> 1.\n";
  for (int i = 0; i < m; ++i) {
    s += "r" + t + "(X) :- f" + t + "(X,Y), r" + t + "(Y), g" + Str(i) + t +
         "(Y).\n";
  }
  s += "r" + t + "(X) :- base" + t + "(X).\n?- r" + t + "(X).\n";
  return {"parallel_rules/" + Str(m), s, {"safe"}, {}};
}

/// A ring b0 -> ... -> b<m-1> -> b0 passing X straight through, each
/// node also requiring a two-way diamond d<i> of unguarded f/g rules.
/// The ring closes an f-node-free forward cycle in every AND-graph that
/// avoids the grounding rule, so every query is safe — but a naive
/// search re-enumerates 2^m diamond choices (search-heavy).
std::string DiamondModule(int m, const std::string& s,
                          const std::string& guard) {
  std::string text = ".infinite f" + s + "/2.\n.fd f" + s + ": 2 -> 1.\n";
  text += ".infinite g" + s + "/2.\n.fd g" + s + ": 2 -> 1.\n";
  text += ".infinite t2" + s + "/2.\n";
  for (int i = 0; i < m; ++i) {
    text += "b" + Str(i) + s + "(X) :- d" + Str(i) + s + "(X), b" +
            Str((i + 1) % m) + s + "(X).\n";
    text += "d" + Str(i) + s + "(X) :- f" + s + "(X,Y), e" + Str(i) + s +
            "(Y).\n";
    text += "d" + Str(i) + s + "(X) :- g" + s + "(X,Y), e" + Str(i) + s +
            "(Y).\n";
    text += "e" + Str(i) + s + "(X) :- t2" + s + "(X,Z).\n";
  }
  if (guard.empty()) {
    text += "b0" + s + "(X) :- c" + s + "(X).\n";
  } else {
    text += "b0" + s + "(X) :- c" + s + "(X), " + guard + s + "(X).\n";
  }
  return text;
}

CorpusProgram SharedDiamond(int m, const std::string& t) {
  std::string s = DiamondModule(m, t, "");
  s += "?- b0" + t + "(X).\n";
  return {"shared_diamond/" + Str(m), s, {"safe"}, {}};
}

/// One rule over a head of the given arity plus a recursive rule: the
/// 2^arity adornment blow-up of Algorithm 2. Every argument is bound by
/// its own finite b<i>: safe.
CorpusProgram WideHead(int arity, const std::string& t) {
  std::string head, body;
  for (int i = 0; i < arity; ++i) {
    head += (i > 0 ? "," : "") + std::string("X") + Str(i);
    body += (i > 0 ? ", " : "") + std::string("b") + Str(i) + t + "(X" +
            Str(i) + ")";
  }
  std::string s = "r" + t + "(" + head + ") :- " + body + ".\n";
  s += "r" + t + "(" + head + ") :- r" + t + "(" + head + "), c" + t +
       "(X0).\n";
  s += "?- r" + t + "(" + head + ").\n";
  return {"wide_head/" + Str(arity), s, {"safe"}, {}};
}

/// Rules whose bodies hold nested function terms and constants
/// (Algorithm 1 stress); X is bound by the finite b: every query safe.
CorpusProgram DeepTerm(int rules, int depth, const std::string& t) {
  std::string term = "a" + t;
  for (int i = 0; i < depth; ++i) term = "f(" + term + ")";
  std::string s;
  CorpusProgram p;
  for (int i = 0; i < rules; ++i) {
    s += "r" + Str(i) + t + "(X) :- b" + t + "(X, " + term + ", " + Str(i) +
         ").\n";
  }
  for (int i = 0; i < 2; ++i) {
    s += "?- r" + Str(i) + t + "(X).\n";
    p.verdicts.push_back("safe");
  }
  p.name = "deep_term/" + Str(rules) + "x" + Str(depth);
  p.text = s;
  return p;
}

/// Independent recursive predicates r<i>(X) :- f(X,Y), r<i>(Y)[, a(Y)],
/// half of them guarded (seeded choice). Guarded ones are safe by the
/// guard. With `mono`, f is declared decreasing in its recursive
/// argument and bounded below (.mono f: 2 > 1, f: 1 > const(0)), so the
/// unguarded ones are safe by Theorem 5; without it they are unsafe.
CorpusProgram RandomFamily(SeededRng& rng, int rules, bool mono,
                           const std::string& t) {
  std::string f = "f" + t;
  std::string s = ".infinite " + f + "/2.\n.fd " + f + ": 2 -> 1.\n";
  if (mono) {
    s += ".mono " + f + ": 2 > 1.\n.mono " + f + ": 1 > const(0).\n";
  }
  // Exactly half the rules are guarded; the seed picks which.
  std::vector<int> order = Permutation(rng, rules);
  CorpusProgram p;
  for (int i = 0; i < rules; ++i) {
    bool guarded = order[i] % 2 == 0;
    std::string r = "r" + Str(i) + t;
    s += r + "(X) :- " + f + "(X,Y), " + r + "(Y)" +
         (guarded ? ", a" + t + "(Y)" : "") + ".\n";
    s += r + "(X) :- b" + t + "(X).\n";
    s += "?- " + r + "(X).\n";
    p.verdicts.push_back(guarded || mono ? "safe" : "unsafe");
  }
  p.name = std::string(mono ? "random_mono/" : "random_plain/") + Str(rules);
  p.text = s;
  return p;
}

// --- Evaluation programs (EDB facts, closed-form answer counts) -----------

/// Chain of n edges over relabeled nodes, left-recursive closure:
/// n(n+1)/2 pairs (bottom-up, all-free query).
CorpusProgram ChainTc(SeededRng& rng, int n, const std::string& t) {
  std::vector<int> label = Permutation(rng, n + 1);
  std::string e = "edge" + t, p = "path" + t;
  std::string s;
  for (int i = 0; i < n; ++i) {
    s += e + "(" + Str(label[i]) + "," + Str(label[i + 1]) + ").\n";
  }
  s += p + "(X,Y) :- " + e + "(X,Y).\n";
  s += p + "(X,Y) :- " + p + "(X,Z), " + e + "(Z,Y).\n";
  s += "?- " + p + "(X,Y).\n";
  size_t pairs = static_cast<size_t>(n) * (n + 1) / 2;
  return {"chain_tc/" + Str(n), s, {"safe"}, {{p + "(X,Y)", pairs}}};
}

/// Directed cycle of n nodes: every node reaches every node, n^2 pairs.
CorpusProgram CycleTc(SeededRng& rng, int n, const std::string& t) {
  std::vector<int> label = Permutation(rng, n);
  std::string e = "edge" + t, p = "path" + t;
  std::string s;
  for (int i = 0; i < n; ++i) {
    s += e + "(" + Str(label[i]) + "," + Str(label[(i + 1) % n]) + ").\n";
  }
  s += p + "(X,Y) :- " + e + "(X,Y).\n";
  s += p + "(X,Y) :- " + p + "(X,Z), " + e + "(Z,Y).\n";
  s += "?- " + p + "(X,Y).\n";
  size_t pairs = static_cast<size_t>(n) * n;
  return {"cycle_tc/" + Str(n), s, {"safe"}, {{p + "(X,Y)", pairs}}};
}

/// Bounded arithmetic: plus over a finite domain of k numbers. The FD
/// plus: 1,2 -> 3 makes Z finite, so the all-free query is safe and has
/// exactly k^2 answers.
CorpusProgram BoundedSum(int k, const std::string& t) {
  std::string num = "num" + t, sum = "sum" + t;
  std::string s;
  for (int i = 0; i < k; ++i) s += num + "(" + Str(i) + ").\n";
  s += sum + "(X,Y,Z) :- " + num + "(X), " + num + "(Y), plus(X,Y,Z).\n";
  s += "?- " + sum + "(X,Y,Z).\n";
  size_t answers = static_cast<size_t>(k) * k;
  return {"bounded_sum/" + Str(k), s, {"safe"},
          {{sum + "(X,Y,Z)", answers}}};
}

/// Bound top-down reachability along a chain of n edges (right
/// recursion, SLD): the start node reaches exactly n nodes.
CorpusProgram ReachTopDown(SeededRng& rng, int n, const std::string& t) {
  std::vector<int> label = Permutation(rng, n + 1);
  std::string e = "edge" + t, r = "reach" + t;
  std::string s;
  for (int i = 0; i < n; ++i) {
    s += e + "(" + Str(label[i]) + "," + Str(label[i + 1]) + ").\n";
  }
  s += r + "(X,Y) :- " + e + "(X,Y).\n";
  s += r + "(X,Y) :- " + e + "(X,Z), " + r + "(Z,Y).\n";
  std::string q = r + "(" + Str(label[0]) + ",Y)";
  s += "?- " + q + ".\n";
  return {"reach_topdown/" + Str(n), s, {"safe"}, {{q, size_t(n)}}};
}

/// Example 1 stretched over a parent chain of n: ancestor with
/// generation counting through successor/2, queried with the start and
/// the level bound — exactly one ancestor sits k levels up.
CorpusProgram AncestorLevel(int n, const std::string& t) {
  std::string par = "parent" + t, anc = "anc" + t;
  std::string s;
  for (int i = 0; i < n; ++i) {
    s += par + "(c" + Str(i) + t + ", c" + Str(i + 1) + t + ").\n";
  }
  s += anc + "(X,Y,1) :- " + par + "(X,Y).\n";
  s += anc + "(X,Y,J) :- " + par + "(X,Z), " + anc +
       "(Z,Y,I), successor(I,J).\n";
  std::string q = anc + "(c0" + t + ", Y, " + Str(n / 2) + ")";
  s += "?- " + q + ".\n";
  return {"ancestor_level/" + Str(n), s, {"safe"}, {{q, 1}}};
}

/// Hand-written expectations for the pinned example copies (see the
/// comment at the top of each file for the paper example it encodes).
struct ExampleExpectation {
  const char* file;
  std::vector<std::string> verdicts;
  std::vector<EvalCase> evals;
};

std::vector<ExampleExpectation> Examples() {
  return {
      // Example 1: the level argument is bound; parent(sem,abel) and
      // abel's two parents give two ancestors two generations up.
      {"ancestor.hs", {"safe"}, {{"ancestor(sem, Y, 2)", 2}}},
      // Example 7: [1,2,3] splits four ways.
      {"concat.hs", {"safe"}, {{"concat(A, B, [1,2,3])", 4}}},
      // Example 13: safe only through monotonicity (Theorem 5); SLD
      // cannot enumerate it, so it is checked, not run.
      {"example13.hs", {"safe"}, {}},
      {"fleet_routes_a.hs",
       {"safe", "safe"},
       {{"route(hub, Y, 2)", 1}, {"express(hub, Y)", 1}}},
      {"fleet_routes_b.hs",
       {"safe", "safe"},
       {{"route(hub, Y, 2)", 1}, {"scenic(hub, 3)", 1}}},
      // free(a,Y): Y occurs nowhere in the body.
      {"lint_errors.hs", {"unsafe"}, {}},
      {"lint_showcase.hs", {"safe"}, {{"path(a, Y)", 2}}},
      // Example 14: projecting an infinite relation.
      {"unsafe_projection.hs", {"unsafe"}, {}},
      // a->c costs 9 directly and 3+4 via b: exactly one path costs 7.
      {"weighted_paths.hs", {"safe"}, {{"dist(a, c, 7)", 1}}},
  };
}

}  // namespace

std::vector<CorpusProgram> ColdCorpus(uint64_t seed,
                                      const std::string& programs_dir,
                                      std::string* error) {
  SeededRng rng(seed);
  const std::string tag = "_" + SeedTag(seed);
  std::vector<CorpusProgram> out;
  for (int d : {4, 8, 16, 32}) out.push_back(GuardedChain(d, tag));
  // 43 programs in all: an odd count keeps the check median inside one
  // program's timings.
  for (int d : {4, 8, 16, 32}) out.push_back(UnguardedChain(d, tag));
  for (int m : {4, 6, 8}) out.push_back(SharedDiamond(m, tag));
  for (int m : {4, 8, 16}) out.push_back(ParallelRules(m, tag));
  out.push_back(WideHead(4, tag));
  out.push_back(DeepTerm(8, 6, tag));
  out.push_back(DeepTerm(16, 10, tag));
  for (int rules : {8, 16}) {
    out.push_back(RandomFamily(rng, rules, /*mono=*/true, tag));
    out.push_back(RandomFamily(rng, rules, /*mono=*/false, tag));
  }
  // Two relabeled copies of the largest chain: the heaviest evaluations
  // are then 15% of the mix, so the reported p90 sits inside one size
  // class instead of on the boundary between two.
  for (int n : {64, 128, 256, 256}) out.push_back(ChainTc(rng, n, tag));
  // 21 evaluations per pass: nine cheap ones (the examples and the small
  // sum), then three relabeled copies of the 32-node cycle, then nine
  // heavier ones. The eval median is therefore the middle copy of the
  // cycle, not a boundary between two programs whose order host noise
  // can flip.
  for (int n : {32, 32, 32, 64}) out.push_back(CycleTc(rng, n, tag));
  out.push_back(BoundedSum(16, tag));
  for (int n : {32, 64}) out.push_back(ReachTopDown(rng, n, tag));
  for (int n : {16, 32}) out.push_back(AncestorLevel(n, tag));
  for (const ExampleExpectation& ex : Examples()) {
    std::string text = ReadFile(programs_dir + "/" + ex.file);
    if (text.empty()) {
      *error = "missing example program " + programs_dir + "/" + ex.file;
      return {};
    }
    out.push_back({std::string("example/") + ex.file, text, ex.verdicts,
                   ex.evals});
  }
  // Seeded order: the same multiset of programs in a different sequence.
  for (size_t i = out.size() - 1; i > 0; --i) {
    std::swap(out[i], out[rng.Below(i + 1)]);
  }
  return out;
}

std::string ModularText(const ModularSpec& spec) {
  std::string text;
  for (int j = 0; j < spec.diamonds; ++j) {
    std::string s = "_m" + Str(j) + spec.tag;
    text += DiamondModule(spec.ring, s, spec.guards[j]);
    for (int i = 0; i < spec.ring; ++i) {
      text += "?- b" + Str(i) + s + "(X).\n";
      text += "?- d" + Str(i) + s + "(X).\n";
    }
  }
  for (int j = 0; j < spec.chains; ++j) {
    std::string t = "_u" + Str(j) + spec.tag;
    std::string body = UnguardedChain(spec.chain_depth, t).text;
    text += body.substr(0, body.rfind("?-"));
    for (int i = 0; i <= spec.chain_depth; ++i) {
      text += "?- r" + Str(i) + t + "(X).\n";
    }
  }
  return text;
}

void NextModularEdit(SeededRng* rng, uint64_t e,
                     std::vector<std::string>* guards) {
  std::vector<size_t> guarded;
  for (size_t j = 0; j < guards->size(); ++j) {
    if (!(*guards)[j].empty()) guarded.push_back(j);
  }
  if (e % 4 == 0 && !guarded.empty()) {
    (*guards)[guarded[rng->Below(guarded.size())]].clear();
  } else {
    (*guards)[rng->Below(guards->size())] = "w" + Str(e);
  }
}

std::vector<QueryPoint> ModularQueries(const ModularSpec& spec) {
  std::vector<QueryPoint> out;
  for (int j = 0; j < spec.diamonds; ++j) {
    std::string s = "_m" + Str(j) + spec.tag;
    for (int i = 0; i < spec.ring; ++i) {
      // The ring closes an f-node-free forward cycle: b<i> is safe. A
      // diamond d<i> on its own binds X only through the FD from Y, and
      // Y comes from the unconstrained infinite t2: unsafe.
      out.push_back({"b" + Str(i) + s + "/1", "safe"});
      out.push_back({"d" + Str(i) + s + "/1", "unsafe"});
    }
  }
  // Every predicate of an unguarded cycle reaches the whole cycle.
  for (int j = 0; j < spec.chains; ++j) {
    std::string t = "_u" + Str(j) + spec.tag;
    for (int i = 0; i <= spec.chain_depth; ++i) {
      out.push_back({"r" + Str(i) + t + "/1", "unsafe"});
    }
  }
  return out;
}

std::vector<CorpusProgram> EphemeralPrograms(const std::string& tag) {
  return {GuardedChain(4, "_e" + tag), UnguardedChain(3, "_e" + tag),
          SharedDiamond(4, "_e" + tag), ParallelRules(4, "_e" + tag)};
}

std::vector<LintCase> LintCases(const std::string& programs_dir,
                                std::string* error) {
  // Expected counts follow the per-line annotations in each file:
  // lint_showcase trips HS005/HS006/HS008/HS007/HS009 x2/HS010
  // (warnings) and HS011 (note); lint_errors trips HS002 (error);
  // ancestor.hs is clean.
  struct Spec {
    const char* file;
    size_t errors, warnings, notes;
  };
  std::vector<LintCase> out;
  for (const Spec& s : {Spec{"lint_showcase.hs", 0, 7, 1},
                        Spec{"lint_errors.hs", 1, 0, 0},
                        Spec{"ancestor.hs", 0, 0, 0}}) {
    std::string text = ReadFile(programs_dir + "/" + s.file);
    if (text.empty()) {
      *error = "missing lint program " + programs_dir + "/" + s.file;
      return {};
    }
    out.push_back({text, s.errors, s.warnings, s.notes});
  }
  return out;
}

FleetCorpus MakeFleetCorpus(uint64_t seed, int programs) {
  SeededRng rng(seed ^ 0x666c656574ULL);
  FleetCorpus c;
  c.tag = "_" + SeedTag(seed);
  // Six shared library modules: four diamond rings (safe), one guarded
  // chain (safe), one unguarded cycle (unsafe).
  for (int j = 0; j < 4; ++j) {
    std::string s = "_lib" + Str(j) + c.tag;
    std::string text = DiamondModule(4, s, "");
    for (int i = 0; i < 4; ++i) text += "?- b" + Str(i) + s + "(X).\n";
    c.library.push_back(text);
    c.library_unsafe.push_back(false);
  }
  c.library.push_back(GuardedChain(6, "_lib4" + c.tag).text);
  c.library_unsafe.push_back(false);
  c.library.push_back(UnguardedChain(4, "_lib5" + c.tag).text);
  c.library_unsafe.push_back(true);

  // A fixed multiset of library combinations (every pair, every triple,
  // then pairs again), so every seed shares the same amount of library
  // text; the seed only decides which program gets which combination.
  const int n = static_cast<int>(c.library.size());
  std::vector<std::vector<int>> pairs, combos;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) pairs.push_back({a, b});
  }
  combos = pairs;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      for (int d = b + 1; d < n; ++d) combos.push_back({a, b, d});
    }
  }
  for (size_t i = 0; static_cast<int>(combos.size()) < programs; ++i) {
    combos.push_back(pairs[i % pairs.size()]);
  }
  std::vector<int> pick = Permutation(rng, programs);
  for (int k = 0; k < programs; ++k) {
    FleetProgram p;
    p.index = k;
    p.rel_path = "p" + Str(k / 16) + "/prog" + Str(k) + ".hs";
    p.libs = combos[pick[k]];
    bool unsafe = false;
    for (int lib : p.libs) unsafe |= c.library_unsafe[lib];
    p.verdict = unsafe ? "unsafe" : "safe";
    c.programs.push_back(std::move(p));
  }
  return c;
}

std::string FleetProgramText(const FleetCorpus& corpus,
                             const FleetProgram& program,
                             const std::string& edit_guard) {
  std::string text;
  for (int lib : program.libs) text += corpus.library[lib];
  // Private module: a guarded chain unique to this program, not queried.
  // Only the shared library cones are searched and stored, so a cold
  // pass writes ~17 disk entries instead of one more per program (with
  // a stored verdict per program, fsync latency swamped the pass).
  std::string t = "_p" + Str(program.index) + corpus.tag;
  std::string priv = GuardedChain(3, t).text;
  priv.erase(priv.rfind("?-"));
  if (!edit_guard.empty()) {
    std::string base = "r3" + t + "(X) :- base" + t + "(X)";
    size_t at = priv.find(base);
    if (at != std::string::npos) {
      priv.insert(at + base.size(), ", " + edit_guard + t + "(X)");
    }
  }
  return text + priv;
}

}  // namespace hsbench
