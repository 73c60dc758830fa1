#include "andor/subset.h"

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "andor/scc.h"
#include "util/strings.h"

namespace hornsafe {

const char* SafetyName(Safety s) {
  switch (s) {
    case Safety::kSafe:
      return "safe";
    case Safety::kUnsafe:
      return "unsafe";
    case Safety::kUndecided:
      return "undecided";
  }
  return "?";
}

std::string AndGraph::Describe(const AndOrSystem& system,
                               const Program& program) const {
  std::string out = StrCat("AND-graph rooted at ",
                           system.NodeName(root, program), ":\n");
  // Stable order: by node id.
  std::vector<std::pair<NodeId, uint32_t>> entries(chosen.begin(),
                                                   chosen.end());
  std::sort(entries.begin(), entries.end());
  for (const auto& [node, rule_idx] : entries) {
    const PropRule& r = system.rule(rule_idx);
    out += StrCat("  ", system.NodeName(node, program), " <- ",
                  JoinMapped(r.body, ", ",
                             [&](NodeId b) {
                               return system.NodeName(b, program);
                             }),
                  "\n");
  }
  return out;
}

std::string AndGraph::ToDot(const AndOrSystem& system,
                            const Program& program) const {
  std::string out = "digraph and_graph {\n  rankdir=TB;\n";
  auto quoted = [&](NodeId n) {
    std::string name = system.NodeName(n, program);
    std::string escaped;
    for (char c : name) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    return StrCat("\"", escaped, "\"");
  };
  // Stable order: by node id.
  std::vector<std::pair<NodeId, uint32_t>> entries(chosen.begin(),
                                                   chosen.end());
  std::sort(entries.begin(), entries.end());
  std::unordered_set<NodeId> declared;
  auto declare = [&](NodeId n) {
    if (!declared.insert(n).second) return;
    const PropNode& pn = system.node(n);
    std::string attrs;
    if (pn.is_f_node) {
      attrs = "shape=diamond";
    } else if (pn.kind == PropNodeKind::kHeadArg) {
      attrs = "shape=box";
    } else if (pn.kind == PropNodeKind::kZero ||
               pn.kind == PropNodeKind::kOne) {
      attrs = "shape=plaintext";
    } else {
      attrs = "shape=ellipse";
    }
    if (n == root) attrs += ",peripheries=2";
    out += StrCat("  ", quoted(n), " [", attrs, "];\n");
  };
  for (const auto& [node, rule_idx] : entries) {
    declare(node);
    const PropRule& r = system.rule(rule_idx);
    for (NodeId b : r.body) {
      declare(b);
      bool forward = system.node(node).kind == PropNodeKind::kHeadArg &&
                     system.node(b).kind == PropNodeKind::kVariable;
      out += StrCat("  ", quoted(node), " -> ", quoted(b),
                    forward ? " [style=dashed]" : "", ";\n");
    }
  }
  out += "}\n";
  return out;
}

namespace {

bool IsTerminalNode(const AndOrSystem& system, NodeId n) {
  PropNodeKind k = system.node(n).kind;
  return k == PropNodeKind::kZero || k == PropNodeKind::kOne;
}

/// Tarjan SCC over the chosen subgraph restricted to non-f-nodes.
/// Returns component ids; f-nodes get component -1.
class FFreeScc {
 public:
  FFreeScc(const AndOrSystem& system,
           const std::unordered_map<NodeId, uint32_t>& chosen)
      : system_(system), chosen_(chosen) {}

  /// node -> SCC id for non-f chosen nodes.
  std::unordered_map<NodeId, int> Run() {
    for (const auto& [node, rule] : chosen_) {
      if (Skip(node)) continue;
      if (index_.find(node) == index_.end()) Strongconnect(node);
    }
    return comp_;
  }

 private:
  bool Skip(NodeId n) const {
    const PropNode& pn = system_.node(n);
    if (pn.is_f_node) return true;
    return chosen_.find(n) == chosen_.end();
  }

  void Strongconnect(NodeId v) {
    index_[v] = next_index_;
    low_[v] = next_index_;
    ++next_index_;
    stack_.push_back(v);
    on_stack_.insert(v);

    auto it = chosen_.find(v);
    if (it != chosen_.end()) {
      const PropRule& r = system_.rule(it->second);
      for (NodeId w : r.body) {
        const PropNode& wn = system_.node(w);
        if (wn.kind == PropNodeKind::kZero ||
            wn.kind == PropNodeKind::kOne || wn.is_f_node) {
          continue;
        }
        if (chosen_.find(w) == chosen_.end()) continue;
        if (index_.find(w) == index_.end()) {
          Strongconnect(w);
          low_[v] = std::min(low_[v], low_[w]);
        } else if (on_stack_.count(w)) {
          low_[v] = std::min(low_[v], index_[w]);
        }
      }
    }

    if (low_[v] == index_[v]) {
      while (true) {
        NodeId w = stack_.back();
        stack_.pop_back();
        on_stack_.erase(w);
        comp_[w] = num_components_;
        if (w == v) break;
      }
      ++num_components_;
    }
  }

  const AndOrSystem& system_;
  const std::unordered_map<NodeId, uint32_t>& chosen_;
  std::unordered_map<NodeId, int> index_;
  std::unordered_map<NodeId, int> low_;
  std::unordered_map<NodeId, int> comp_;
  std::vector<NodeId> stack_;
  std::unordered_set<NodeId> on_stack_;
  int next_index_ = 0;
  int num_components_ = 0;
};

/// True iff the chosen subgraph contains a cycle through a forward edge
/// (head-argument -> variable) with no f-node on it. Checked by
/// computing SCCs of the subgraph minus f-nodes: a forward edge inside
/// one SCC closes such a cycle.
bool HasFFreeForwardCycleIn(
    const AndOrSystem& system,
    const std::unordered_map<NodeId, uint32_t>& chosen) {
  std::unordered_map<NodeId, int> comp = FFreeScc(system, chosen).Run();
  for (const auto& [node, rule_idx] : chosen) {
    const PropNode& head = system.node(node);
    if (head.kind != PropNodeKind::kHeadArg) continue;
    const PropRule& r = system.rule(rule_idx);
    for (NodeId b : r.body) {
      if (system.node(b).kind != PropNodeKind::kVariable) continue;
      auto cu = comp.find(node);
      auto cv = comp.find(b);
      if (cu != comp.end() && cv != comp.end() &&
          cu->second == cv->second) {
        return true;
      }
    }
  }
  return false;
}

/// The counterexample search. Two execution modes share the state:
///
///  * Joint mode (the pre-memo algorithm): one DFS over rule choices
///    for every reachable node, with the partial-cycle prune. Used when
///    a Theorem 5 escape is installed (the escape inspects whole
///    graphs, so subproblems are not context-free), when memoization is
///    disabled, or when the condensation was too wide for reach sets.
///
///  * Fragment mode: the same DFS, but a body node b that comes up for
///    expansion while reach_sccs(b) is disjoint from the components of
///    every currently chosen node (across all active fragments) is an
///    *independence frontier*: whether b can anchor a closed, 0-free,
///    cycle-free assignment is a context-free fact. It is decided once
///    by a nested fragment search and memoized by node id. Soundness of
///    skipping b rests on two facts: a cycle of any chosen subgraph
///    lies inside a single union-graph SCC (choices only remove edges),
///    and with the disjointness guard no cycle can span a fragment
///    boundary — so independently found fragments merge with the rest
///    of the graph (earliest fragment preferred per node) into a valid
///    counterexample. Without the guard, node-keyed caching is unsound:
///    inside an active SCC the existence of a cycle through b depends
///    on the ancestors' rule choices.
class SubsetSearch {
 public:
  SubsetSearch(const AndOrSystem& system, NodeId root,
               const SubsetOptions& opts, const SccAnalysis* scc)
      : system_(system), root_(root), opts_(opts), scc_(scc) {}

  SubsetResult Run() {
    SubsetResult result;
    if (root_ == kInvalidNode || system_.RulesFor(root_).empty()) {
      // No graph can be rooted here: vacuously safe (the node can never
      // produce a binding).
      result.verdict = Safety::kSafe;
      return result;
    }
    if (scc_ == nullptr) ComputeCapability();
    if (!Capable(root_)) {
      // Every completion of every graph rooted here contains a 0-node:
      // the subset condition holds without search.
      result.verdict = Safety::kSafe;
      if (scc_ != nullptr && opts_.use_scc) result.scc_short_circuits = 1;
      return result;
    }
    const bool has_escape = static_cast<bool>(opts_.escape);
    if (opts_.use_scc && scc_ != nullptr && !has_escape &&
        !scc_->cycle_reachable(root_)) {
      // No reachable union-graph component can host an f-node-free
      // forward cycle, so *any* greedy 0-free completion is already a
      // counterexample: unsafe with zero enumeration.
      result.verdict = Safety::kUnsafe;
      AndGraph g;
      g.root = root_;
      GreedyClose(root_, &g.chosen);
      result.witness = std::move(g);
      result.scc_short_circuits = 1;
      return result;
    }

    // Pre-expired deadlines (and already-triggered cancellations) stop
    // before the first step, so every search under them degrades
    // identically on every run; only the cheap O(1) short-circuits
    // above still resolve.
    if (StopReason r = opts_.exec.ShouldStop(); r != StopReason::kNone) {
      exhausted_ = true;
      stop_reason_ = r;
      result.verdict = Safety::kUndecided;
      result.stop_reason = r;
      return result;
    }

    memo_mode_ = opts_.use_memo && scc_ != nullptr && !has_escape &&
                 scc_->has_reach_sets();
    Fragment top;
    top.root = root_;
    top.worklist.push_back(root_);
    bool found = false;
    if (memo_mode_) {
      active_count_.assign(scc_->num_sccs(), 0);
      active_bits_.assign(scc_->reach_blocks(), 0);
      found = FragmentSearch(top, 0);
      if (found && !exhausted_) {
        for (const auto& [n, ri] : top.chosen) fragment_rule_.emplace(n, ri);
        result.witness = ExtractWitness();
      }
    } else {
      JointSearch(top, 0, &found);
      if (found) {
        AndGraph g;
        g.root = root_;
        g.chosen = std::move(top.chosen);
        result.witness = std::move(g);
      }
    }
    result.graphs_checked = graphs_checked_;
    result.steps = steps_;
    result.memo_hits = memo_hits_;
    result.memo_misses = memo_misses_;
    result.scc_short_circuits = scc_short_;
    if (found && !exhausted_) {
      result.verdict = Safety::kUnsafe;
    } else if (exhausted_) {
      result.verdict = Safety::kUndecided;
      result.stop_reason = stop_reason_;
      result.witness.reset();
    } else {
      result.verdict = Safety::kSafe;
    }
    return result;
  }

 private:
  /// One DFS over rule choices; the top-level search and every
  /// delegated subproblem each own one.
  struct Fragment {
    NodeId root = kInvalidNode;
    std::vector<NodeId> worklist;
    std::unordered_map<NodeId, uint32_t> chosen;
  };

  bool IsTerminal(NodeId n) const { return IsTerminalNode(system_, n); }

  /// One DFS step: the exact per-step budget check plus a periodic
  /// deadline/cancellation check (every kCheckInterval steps, so the
  /// steady_clock read stays off the per-step path). Returns true when
  /// the search must unwind; `exhausted_`/`stop_reason_` are set.
  bool StepStops() {
    if (++steps_ > opts_.budget) {
      exhausted_ = true;
      stop_reason_ = StopReason::kBudget;
      return true;
    }
    if (opts_.exec.active() &&
        (steps_ & (ExecContext::kCheckInterval - 1)) == 0) {
      if (StopReason r = opts_.exec.ShouldStop(); r != StopReason::kNone) {
        exhausted_ = true;
        stop_reason_ = r;
        return true;
      }
    }
    return false;
  }

  bool Capable(NodeId n) const {
    return scc_ != nullptr ? scc_->capable(n) : capable_[n] != 0;
  }

  /// A counterexample graph cannot use a rule that mentions 0 (it would
  /// contain a 0-node) or a node that cannot itself be expanded into a
  /// 0-free subgraph.
  bool RuleUsable(uint32_t rule_index) const {
    if (scc_ != nullptr) return scc_->rule_usable(rule_index);
    const PropRule& r = system_.rule(rule_index);
    for (NodeId b : r.body) {
      if (b == system_.zero()) return false;
      if (!IsTerminal(b) && !capable_[b]) return false;
    }
    return true;
  }

  /// Greatest-fixpoint pre-pass used only when no SccAnalysis was
  /// supplied or requested: a node is *capable* of appearing in a
  /// counterexample graph iff it has a live rule whose body avoids 0
  /// and whose non-terminal members are all capable.
  void ComputeCapability() {
    const size_t n = system_.nodes().size();
    capable_.assign(n, 1);
    bool changed = true;
    while (changed) {
      changed = false;
      for (NodeId v = 0; v < n; ++v) {
        if (!capable_[v] || IsTerminal(v)) continue;
        bool has_usable = false;
        for (uint32_t ri : system_.RulesFor(v)) {
          const PropRule& r = system_.rule(ri);
          bool usable = true;
          for (NodeId b : r.body) {
            if (b == system_.zero() ||
                (!IsTerminal(b) && !capable_[b])) {
              usable = false;
              break;
            }
          }
          if (usable) {
            has_usable = true;
            break;
          }
        }
        if (!has_usable) {
          capable_[v] = 0;
          changed = true;
        }
      }
    }
  }

  /// Joint-mode DFS (exactly the pre-memo algorithm). Sets *found when
  /// a counterexample graph is confirmed; sets exhausted_ when the
  /// budget runs out.
  void JointSearch(Fragment& f, size_t from, bool* found) {
    if (*found || exhausted_) return;
    if (StepStops()) return;
    // Next unchosen non-terminal node.
    size_t i = from;
    while (i < f.worklist.size() &&
           (IsTerminal(f.worklist[i]) || f.chosen.count(f.worklist[i]))) {
      ++i;
    }
    if (i == f.worklist.size()) {
      // Complete graph.
      ++graphs_checked_;
      if (!HasFFreeForwardCycleIn(system_, f.chosen) &&
          !(opts_.escape && EscapeAccepts(f))) {
        *found = true;
      }
      return;
    }
    NodeId n = f.worklist[i];
    for (uint32_t ri : system_.RulesFor(n)) {
      if (!RuleUsable(ri)) continue;
      const PropRule& r = system_.rule(ri);
      f.chosen.emplace(n, ri);
      size_t mark = f.worklist.size();
      bool closes_back_edge = false;
      for (NodeId b : r.body) {
        if (!IsTerminal(b)) {
          f.worklist.push_back(b);
          closes_back_edge |= (f.chosen.count(b) > 0);
        }
      }
      // Cycles persist under completion, so once the partial graph
      // already satisfies the subset condition (an f-free forward cycle,
      // or the Theorem 5 escape), no completion below this choice can be
      // a counterexample: prune the whole subtree.
      bool pruned = false;
      if (closes_back_edge) {
        pruned = HasFFreeForwardCycleIn(system_, f.chosen) ||
                 (opts_.escape && EscapeAccepts(f));
      }
      if (!pruned) {
        JointSearch(f, i + 1, found);
        if (*found) return;  // keep chosen intact as the witness
      }
      f.worklist.resize(mark);
      f.chosen.erase(n);
      if (exhausted_) return;
    }
  }

  bool EscapeAccepts(const Fragment& f) {
    AndGraph g;
    g.root = root_;
    g.chosen = f.chosen;
    return opts_.escape(g);
  }

  /// Fragment-mode DFS. Returns true when the fragment completed a
  /// closed (modulo delegation), 0-free, cycle-free assignment; the
  /// assignment is left in f.chosen. Returns false on exhaustive
  /// failure or when exhausted_ was set.
  bool FragmentSearch(Fragment& f, size_t from) {
    if (exhausted_) return false;
    if (StepStops()) return false;
    // Next unchosen non-terminal node; delegate independence frontiers.
    size_t i = from;
    NodeId n = kInvalidNode;
    while (i < f.worklist.size()) {
      NodeId cand = f.worklist[i];
      if (IsTerminal(cand) || f.chosen.count(cand)) {
        ++i;
        continue;
      }
      if (cand != f.root) {
        auto it = memo_.find(cand);
        if (it != memo_.end() && !it->second) {
          // Context-free: no closed cycle-free assignment contains
          // cand, so no completion of this branch exists.
          ++memo_hits_;
          return false;
        }
        // A fragment must not delegate its own root (its memo entry is
        // the one being computed), hence the cand != f.root guard; any
        // deeper re-entry is excluded by the disjointness check because
        // the root's component is active once chosen.
        if (Delegable(cand)) {
          if (it != memo_.end()) {
            ++memo_hits_;
            ++i;
            continue;
          }
          ++memo_misses_;
          if (!DelegateCompute(cand)) return false;
          ++i;
          continue;
        }
      }
      n = cand;
      break;
    }
    if (n == kInvalidNode) {
      // Complete (modulo delegated members, which merge cycle-free by
      // the frontier guarantee).
      ++graphs_checked_;
      return !HasFFreeForwardCycleIn(system_, f.chosen);
    }
    for (uint32_t ri : system_.RulesFor(n)) {
      if (!RuleUsable(ri)) continue;
      const PropRule& r = system_.rule(ri);
      bool dead = false;
      for (NodeId b : r.body) {
        if (IsTerminal(b)) continue;
        auto mit = memo_.find(b);
        if (mit != memo_.end() && !mit->second) {
          dead = true;
          break;
        }
      }
      if (dead) {
        ++memo_hits_;
        continue;
      }
      f.chosen.emplace(n, ri);
      ActivateChoice(n);
      size_t mark = f.worklist.size();
      bool closes_back_edge = false;
      for (NodeId b : r.body) {
        if (!IsTerminal(b)) {
          f.worklist.push_back(b);
          closes_back_edge |= (f.chosen.count(b) > 0);
        }
      }
      bool pruned = false;
      if (closes_back_edge) {
        pruned = HasFFreeForwardCycleIn(system_, f.chosen);
      }
      if (!pruned) {
        if (FragmentSearch(f, i + 1)) return true;  // keep chosen intact
      }
      f.worklist.resize(mark);
      f.chosen.erase(n);
      DeactivateChoice(n);
      if (exhausted_) return false;
    }
    return false;
  }

  /// An independence frontier: nothing reachable from n shares a
  /// component with any currently chosen node, so no cycle can connect
  /// n's closure to the graphs under construction.
  bool Delegable(NodeId n) const {
    int32_t s = scc_->scc_of(n);
    if (s < 0) return false;
    return !scc_->ReachesAny(s, active_bits_.data());
  }

  /// Decides (and memoizes) whether `b` can anchor a closed, 0-free,
  /// cycle-free assignment. On success the fragment's rules are merged
  /// into fragment_rule_ (earliest fragment wins) for later witness
  /// assembly. Returns false on infeasible *or* exhausted_.
  bool DelegateCompute(NodeId b) {
    if (opts_.use_scc && !scc_->cycle_reachable(b)) {
      // No component reachable from b can host a counted cycle: any
      // greedy 0-free closure anchors b.
      std::unordered_map<NodeId, uint32_t> closure;
      GreedyClose(b, &closure);
      for (const auto& [n, ri] : closure) fragment_rule_.emplace(n, ri);
      ++scc_short_;
      memo_.emplace(b, true);
      return true;
    }
    Fragment f;
    f.root = b;
    f.worklist.push_back(b);
    bool feasible = FragmentSearch(f, 0);
    if (exhausted_) return false;  // verdict unknown: do not memoize
    if (feasible) {
      for (const auto& [n, ri] : f.chosen) {
        fragment_rule_.emplace(n, ri);
        // The success path never backtracked these choices; release
        // their activations now that the fragment is closed.
        DeactivateChoice(n);
      }
    }
    memo_.emplace(b, feasible);
    return feasible;
  }

  void ActivateChoice(NodeId n) {
    int32_t s = scc_->scc_of(n);
    if (s < 0) return;
    if (active_count_[s]++ == 0) {
      active_bits_[s / 64] |= uint64_t{1} << (s % 64);
    }
  }

  void DeactivateChoice(NodeId n) {
    int32_t s = scc_->scc_of(n);
    if (s < 0) return;
    if (--active_count_[s] == 0) {
      active_bits_[s / 64] &= ~(uint64_t{1} << (s % 64));
    }
  }

  /// Closes `from` downward using the first usable rule per node. Only
  /// called below nodes with no reachable cycle-capable component, so
  /// the result is automatically a valid counterexample piece.
  void GreedyClose(NodeId from,
                   std::unordered_map<NodeId, uint32_t>* out) const {
    std::vector<NodeId> stack{from};
    while (!stack.empty()) {
      NodeId v = stack.back();
      stack.pop_back();
      if (IsTerminal(v) || out->count(v)) continue;
      for (uint32_t ri : system_.RulesFor(v)) {
        if (!RuleUsable(ri)) continue;
        out->emplace(v, ri);
        for (NodeId b : system_.rule(ri).body) {
          if (!IsTerminal(b)) stack.push_back(b);
        }
        break;
      }
    }
  }

  /// Resolves the final witness from fragment_rule_ by walking from the
  /// root. Every reachable node is covered: the top fragment merged its
  /// domain last, delegated nodes were merged at their fragments'
  /// completion, and earliest-fragment preference keeps every edge
  /// inside the chosen fragment or one completed before it — so the
  /// merged graph inherits cycle-freeness from the per-fragment checks.
  AndGraph ExtractWitness() const {
    AndGraph g;
    g.root = root_;
    std::vector<NodeId> stack{root_};
    while (!stack.empty()) {
      NodeId v = stack.back();
      stack.pop_back();
      if (IsTerminal(v) || g.chosen.count(v)) continue;
      auto it = fragment_rule_.find(v);
      if (it == fragment_rule_.end()) continue;  // unreachable by design
      g.chosen.emplace(v, it->second);
      for (NodeId b : system_.rule(it->second).body) {
        if (!IsTerminal(b)) stack.push_back(b);
      }
    }
    return g;
  }

  const AndOrSystem& system_;
  NodeId root_;
  const SubsetOptions& opts_;
  const SccAnalysis* scc_;
  /// Joint-mode capability map (scc_ == nullptr only).
  std::vector<char> capable_;

  bool memo_mode_ = false;
  bool exhausted_ = false;
  StopReason stop_reason_ = StopReason::kNone;
  /// node -> can it anchor a closed, 0-free, cycle-free assignment?
  std::unordered_map<NodeId, bool> memo_;
  /// node -> rule from the earliest completed fragment containing it.
  std::unordered_map<NodeId, uint32_t> fragment_rule_;
  /// Per-SCC count/bitset of components of currently chosen nodes.
  std::vector<uint32_t> active_count_;
  std::vector<uint64_t> active_bits_;

  uint64_t steps_ = 0;
  uint64_t graphs_checked_ = 0;
  uint64_t memo_hits_ = 0;
  uint64_t memo_misses_ = 0;
  uint64_t scc_short_ = 0;
};

}  // namespace

SubsetResult CheckSubsetCondition(const AndOrSystem& system, NodeId root,
                                  const SubsetOptions& opts) {
  const SccAnalysis* scc = opts.scc;
  std::optional<SccAnalysis> local;
  if (scc == nullptr && (opts.use_scc || opts.use_memo) &&
      root != kInvalidNode && !system.RulesFor(root).empty()) {
    local = SccAnalysis::Compute(system);
    scc = &*local;
  }
  return SubsetSearch(system, root, opts, scc).Run();
}

bool IsCounterexampleGraph(const AndOrSystem& system, const AndGraph& graph) {
  if (graph.root == kInvalidNode || !graph.chosen.count(graph.root)) {
    return false;
  }
  for (const auto& [node, rule_idx] : graph.chosen) {
    if (IsTerminalNode(system, node)) return false;
    // The rule must be a live rule of this node.
    bool owns = false;
    for (uint32_t ri : system.RulesFor(node)) {
      if (ri == rule_idx) {
        owns = true;
        break;
      }
    }
    if (!owns) return false;
    for (NodeId b : system.rule(rule_idx).body) {
      if (b == system.zero()) return false;
      if (!IsTerminalNode(system, b) && !graph.chosen.count(b)) {
        return false;  // not closed
      }
    }
  }
  return !HasFFreeForwardCycleIn(system, graph.chosen);
}

}  // namespace hornsafe
