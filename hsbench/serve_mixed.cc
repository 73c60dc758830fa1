// serve_mixed: closed loop, four client threads calling
// Server::HandleLine on one Server (jobs = 1, memory-only cache). The
// preloaded program is ModularText(8 diamond modules of ring 4 plus two
// unguarded chain modules), whose verdicts are known by construction.
// Seeded traffic per client: 75% targeted check, 5% explain, 5% lint,
// 5% ephemeral check carrying its own program, 10% update with a
// single-rule edit.
//
//   op  = a non-update request (check, explain, lint, ephemeral check)
//   aux = an update request; its tail is reported at p75. The four
//         clients' updates serialize, and about 70% of an update's
//         latency is its place in that queue; higher percentiles moved
//         two to three times as much as the median when the host's
//         speed changed, by more than the metric's bound between sets
//         of runs
//   op_per_s = all requests per second (rps)
//
// After the timed loop, eight more edits from the stream are sent as
// updates, and after each one every query is explained by the server and
// by a fresh cold analyzer (untimed): verdicts, stop reasons, steps and
// explanations must be identical.

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

#include "core/analyzer.h"
#include "core/pipeline_cache.h"
#include "core/server.h"
#include "corpus.h"
#include "eval/builtins.h"
#include "parser/parser.h"
#include "util/json.h"
#include "workloads.h"

namespace hsbench {
namespace {

using hornsafe::Json;

constexpr int kClients = 4;
constexpr int kDiamonds = 8;
constexpr int kRing = 4;
constexpr int kChains = 2;
constexpr uint64_t kStreamSalt = 0x7365727665ULL;
constexpr int kSpotChecks = 8;

enum class Kind { kCheck, kExplain, kLint, kEphemeral, kUpdate };

Kind PickKind(SeededRng* rng) {
  uint64_t r = rng->Below(100);
  if (r < 75) return Kind::kCheck;
  if (r < 80) return Kind::kExplain;
  if (r < 85) return Kind::kLint;
  if (r < 90) return Kind::kEphemeral;
  return Kind::kUpdate;
}

const char* SpanName(Kind k) {
  switch (k) {
    case Kind::kCheck: return "server.check";
    case Kind::kExplain: return "server.explain";
    case Kind::kLint: return "server.lint";
    case Kind::kEphemeral: return "server.ephemeral";
    case Kind::kUpdate: return "server.update";
  }
  return "server.other";
}

hornsafe::Status PrepareProgram(hornsafe::Program* program) {
  hornsafe::BuiltinRegistry referenced;
  return hornsafe::RegisterReferencedStandardBuiltins(program, &referenced);
}

/// The analyzer counters of a `stats` reply, by name.
using ServerStats = std::map<std::string, double>;

class ServeRunner {
 public:
  ServeRunner(const Context& ctx, Report* report)
      : ctx_(ctx), report_(report), edit_rng_(ctx.seed ^ kStreamSalt) {
    spec_.diamonds = kDiamonds;
    spec_.ring = kRing;
    spec_.chains = kChains;
    spec_.tag = "_" + SeedTag(ctx.seed);
    spec_.guards.assign(kDiamonds, "");
    points_ = ModularQueries(spec_);
    ephemeral_ = EphemeralPrograms(spec_.tag);
    std::string error;
    lint_ = LintCases(ctx.data_dir + "/programs", &error);
    if (lint_.empty()) report_->Fail(error);
  }

  /// Constructs the server, preloads the base program and primes the
  /// verdict cache with one check of every query. Seconds, or -1; the
  /// previous server is torn down before the clock starts.
  double Setup() {
    server_.reset();
    cache_.reset();
    const auto s0 = Clock::now();
    cache_ = std::make_unique<hornsafe::PipelineCache>();
    hornsafe::ServerOptions opts;
    opts.analyzer.jobs = 1;
    opts.cache = cache_.get();
    opts.prepare_program = PrepareProgram;
    server_ = std::make_unique<hornsafe::Server>(std::move(opts));
    ModularSpec base = spec_;
    base.guards.assign(kDiamonds, "");
    Json preload = Json::Object();
    preload.Set("id", "preload");
    preload.Set("method", "update");
    preload.Set("program", ModularText(base));
    Json prime = Json::Object();
    prime.Set("id", "prime");
    prime.Set("method", "check");
    for (const Json* req : {&preload, &prime}) {
      auto reply = Json::Parse(server_->HandleLine(req->Dump()));
      if (!reply.ok() || !(*reply)["ok"].AsBool()) {
        report_->Fail("server set-up request failed");
        return -1;
      }
    }
    return SecondsSince(s0);
  }

  /// Runs the clients for `seconds` (and until the tails have ten
  /// samples beyond p99). With a tracer, each client traces every other
  /// request and records the rest into `untraced`.
  Phase Measure(double seconds, Tracer* tracer, Phase* untraced = nullptr) {
    std::vector<Phase> traced_parts(kClients), untraced_parts(kClients);
    std::vector<uint64_t> counts(kClients, 0);
    std::atomic<uint64_t> total_ops{0}, total_updates{0};
    const auto start = Clock::now();
    auto more = [&] {
      double t = SecondsSince(start);
      bool short_of_samples =
          total_ops.load() < 1000 || total_updates.load() < 1000;
      return t < seconds ||
             (tracer == nullptr && short_of_samples && t < 5 * seconds);
    };
    const double cpu0 = ProcessCpuSeconds();
    const hornsafe::Server::Counters c0 = server_->counters();
    const ServerStats st0 = Stats();
    const hornsafe::PipelineCacheStats cs0 = cache_->stats();
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        SeededRng rng(ctx_.seed * 7919 + c + 1);
        uint64_t n = 0;
        while (more()) {
          bool trace_this = tracer != nullptr && n % 2 == 1;
          Phase* into = tracer != nullptr && !trace_this ? &untraced_parts[c]
                                                         : &traced_parts[c];
          Kind kind = Request(&rng, trace_this ? tracer : nullptr, into);
          ++n;
          if (kind == Kind::kUpdate) {
            total_updates.fetch_add(1);
          } else {
            total_ops.fetch_add(1);
          }
        }
        counts[c] = n;
      });
    }
    for (std::thread& t : clients) t.join();
    const double wall = SecondsSince(start);
    Phase phase;
    uint64_t requests = 0;
    for (int c = 0; c < kClients; ++c) {
      phase.op.Append(traced_parts[c].op);
      phase.aux.Append(traced_parts[c].aux);
      if (untraced != nullptr) {
        untraced->op.Append(untraced_parts[c].op);
        untraced->aux.Append(untraced_parts[c].aux);
      }
      requests += counts[c];
    }
    std::vector<Clock::time_point> all = phase.op.times();
    all.insert(all.end(), phase.aux.times().begin(), phase.aux.times().end());
    phase.op_per_s = WindowedRate(all);
    phase.aux_per_s = WindowedRate(phase.aux.times());
    if (tracer != nullptr) {
      const ServerStats st1 = Stats();
      const hornsafe::PipelineCacheStats cs1 = cache_->stats();
      FillLayers(*tracer, st0, st1, cs0, cs1, requests,
                 server_->counters().errors - c0.errors,
                 (ProcessCpuSeconds() - cpu0) / wall);
    }
    return phase;
  }

  /// Applies kSpotChecks more edits from the stream and compares the
  /// server's explanations with a fresh cold analyzer's. The server keeps
  /// its analyzer private, so AndOrSystem::ToString cannot be compared
  /// here (edit_warm compares it).
  void SpotCheck() {
    for (int i = 0; i < kSpotChecks; ++i) {
      std::string text;
      {
        std::lock_guard<std::mutex> lock(edit_mu_);
        NextEdit();
        text = ModularText(spec_);
      }
      ++report_->attempted;
      std::string diff = CompareWithCold(text);
      if (!diff.empty()) report_->Fail("serve warm != cold: " + diff);
    }
  }

  std::string InputDigest() const {
    ModularSpec spec = spec_;
    spec.guards.assign(kDiamonds, "");
    Digest d;
    d.Add(ModularText(spec));
    SeededRng edits(ctx_.seed ^ kStreamSalt);
    for (int e = 0; e < 4096; ++e) d.Add(edits.Next());
    for (int c = 0; c < kClients; ++c) {
      SeededRng rng(ctx_.seed * 7919 + c + 1);
      for (int i = 0; i < 4096; ++i) d.Add(rng.Next());
    }
    for (const CorpusProgram& p : ephemeral_) d.Add(p.text);
    for (const LintCase& l : lint_) d.Add(l.text);
    return d.Hex();
  }

 private:
  /// Advances the shared single-rule edit stream (caller holds edit_mu_).
  void NextEdit() { NextModularEdit(&edit_rng_, ++edit_, &spec_.guards); }

  /// Sends one seeded request and checks the reply; returns its kind.
  Kind Request(SeededRng* rng, Tracer* tracer, Phase* phase) {
    const Kind kind = PickKind(rng);
    const uint64_t id = next_id_.fetch_add(1) + 1;
    Json req = Json::Object();
    req.Set("id", id);
    const QueryPoint* point = nullptr;
    const CorpusProgram* eph = nullptr;
    const LintCase* lint = nullptr;
    switch (kind) {
      case Kind::kCheck:
      case Kind::kExplain:
        point = &points_[rng->Below(points_.size())];
        req.Set("method", kind == Kind::kCheck ? "check" : "explain");
        req.Set("predicate", point->predicate);
        break;
      case Kind::kLint:
        lint = &lint_[rng->Below(lint_.size())];
        req.Set("method", "lint");
        req.Set("program", lint->text);
        break;
      case Kind::kEphemeral:
        eph = &ephemeral_[rng->Below(ephemeral_.size())];
        req.Set("method", "check");
        req.Set("program", eph->text);
        break;
      case Kind::kUpdate: {
        std::lock_guard<std::mutex> lock(edit_mu_);
        NextEdit();
        req.Set("method", "update");
        req.Set("program", ModularText(spec_));
        break;
      }
    }
    const std::string line = req.Dump();
    const auto t0 = Clock::now();
    Tracer::Span span(tracer, SpanName(kind), id);
    const std::string reply_line = server_->HandleLine(line);
    span.End();
    const double ms = SecondsSince(t0) * 1e3;
    if (kind == Kind::kUpdate) {
      phase->aux.Add(ms);
      if (tracer != nullptr) SampleUpdateText(req["program"].AsString());
    } else {
      phase->op.Add(ms);
    }

    std::lock_guard<std::mutex> lock(report_mu_);
    ++report_->attempted;
    auto reply = Json::Parse(reply_line);
    if (!reply.ok() || !(*reply)["ok"].AsBool()) {
      report_->Fail(std::string(SpanName(kind)) + " failed: " + reply_line);
      return kind;
    }
    const Json& result = (*reply)["result"];
    if (point != nullptr) {
      const Json& q = result["queries"].items().empty()
                          ? Json()
                          : result["queries"].items()[0];
      if (q["safety"].AsString() != point->verdict) {
        report_->Fail(point->predicate + " is " + q["safety"].AsString() +
                      ", expected " + point->verdict);
      }
      if (kind == Kind::kExplain) {
        for (const Json& a : q["args"].items()) {
          if (a["explanation"].AsString().empty()) {
            report_->Fail("explain without explanation: " + point->predicate);
          }
        }
      }
    } else if (eph != nullptr) {
      const auto& qs = result["queries"].items();
      bool same = qs.size() == eph->verdicts.size();
      for (size_t i = 0; same && i < qs.size(); ++i) {
        same = qs[i]["safety"].AsString() == eph->verdicts[i];
      }
      if (!same) report_->Fail("ephemeral " + eph->name + " verdicts differ");
    } else if (lint != nullptr) {
      if (static_cast<size_t>(result["errors"].AsInt()) != lint->errors ||
          static_cast<size_t>(result["warnings"].AsInt()) != lint->warnings ||
          static_cast<size_t>(result["notes"].AsInt()) != lint->notes) {
        report_->Fail("lint counts differ: " + reply_line);
      }
    }
    return kind;
  }

  /// Keeps up to 64 update texts of the traced run; parser.busy_ms is
  /// measured by re-parsing them (the server's own parse is not
  /// visible from outside).
  void SampleUpdateText(const std::string& text) {
    std::lock_guard<std::mutex> lock(report_mu_);
    if (update_texts_.size() < 64) update_texts_.push_back(text);
  }

  std::string CompareWithCold(const std::string& text) {
    Json update = Json::Object();
    update.Set("id", "spot-update");
    update.Set("method", "update");
    update.Set("program", text);
    Json explain = Json::Object();
    explain.Set("id", "spot-explain");
    explain.Set("method", "explain");
    auto up = Json::Parse(server_->HandleLine(update.Dump()));
    auto warm = Json::Parse(server_->HandleLine(explain.Dump()));
    if (!up.ok() || !warm.ok() || !(*warm)["ok"].AsBool()) {
      return "spot-check request failed";
    }
    auto program = hornsafe::ParseProgram(text);
    if (!program.ok() || !PrepareProgram(&*program).ok()) return "parse";
    hornsafe::AnalyzerOptions opts;
    opts.jobs = 1;
    auto cold = hornsafe::SafetyAnalyzer::Create(*program, opts);
    if (!cold.ok()) return "cold create failed";
    std::vector<hornsafe::QueryAnalysis> want = cold->AnalyzeQueries();
    const auto& got = (*warm)["result"]["queries"].items();
    if (got.size() != want.size()) return "query count differs";
    for (size_t i = 0; i < want.size(); ++i) {
      if (got[i]["safety"].AsString() !=
          hornsafe::SafetyName(want[i].overall)) {
        return "verdict differs on query " + std::to_string(i);
      }
      const auto& args = got[i]["args"].items();
      if (args.size() != want[i].args.size()) return "arity differs";
      for (size_t k = 0; k < args.size(); ++k) {
        const hornsafe::ArgumentVerdict& w = want[i].args[k];
        if (args[k]["safety"].AsString() != hornsafe::SafetyName(w.safety) ||
            args[k]["stop"].AsString() != hornsafe::StopReasonName(w.stop) ||
            static_cast<uint64_t>(args[k]["steps"].AsInt()) != w.steps ||
            static_cast<uint64_t>(args[k]["graphs_checked"].AsInt()) !=
                w.graphs_checked ||
            args[k]["explanation"].AsString() != w.explanation) {
          return "position " + std::to_string(k) + " of query " +
                 std::to_string(i) + " differs";
        }
      }
    }
    return "";
  }

  ServerStats Stats() {
    ServerStats out;
    auto reply = Json::Parse(
        server_->HandleLine("{\"id\": \"stats\", \"method\": \"stats\"}"));
    if (!reply.ok()) return out;
    for (const auto& [k, v] : (*reply)["result"]["analyzer"].members()) {
      out[k] = v.AsNumber();
    }
    return out;
  }

  void FillLayers(const Tracer& tr, const ServerStats& a, const ServerStats& b,
                  const hornsafe::PipelineCacheStats& s0,
                  const hornsafe::PipelineCacheStats& s1, uint64_t requests,
                  uint64_t errors, double cpu_per_wall) {
    auto delta = [&](const char* key) {
      auto x = a.find(key);
      auto y = b.find(key);
      return (y == b.end() ? 0 : y->second) - (x == a.end() ? 0 : x->second);
    };
    auto& l = report_->layer;
    const double n = static_cast<double>(requests);
    double parse_s = 0, rules = 0;
    for (const std::string& text : update_texts_) {
      const auto p0 = Clock::now();
      auto program = hornsafe::ParseProgram(text);
      parse_s += SecondsSince(p0);
      if (program.ok()) rules += program->rules().size();
    }
    l["parser.busy_ms"] = Ratio(parse_s * 1e3, update_texts_.size());
    l["parser.rules_per_ms"] = Ratio(rules, parse_s * 1e3);
    const Tracer::Totals lint = tr.Get("server.lint");
    l["lint.busy_us"] = Ratio(lint.total_s * 1e6, lint.count);
    l["canonical.busy_ms"] = delta("stage_canonicalize_ns") / 1e6 / n;
    l["fingerprint.busy_ms"] = delta("stage_fingerprint_ns") / 1e6 / n;
    l["fd.busy_ms"] = delta("stage_fd_ns") / 1e6 / n;
    l["adorn.busy_ms"] = delta("stage_adorn_ns") / 1e6 / n;
    l["build.busy_ms"] = delta("stage_build_ns") / 1e6 / n;
    l["prune.busy_ms"] = delta("stage_prune_ns") / 1e6 / n;
    l["scc.busy_ms"] = delta("stage_scc_ns") / 1e6 / n;
    l["subset.busy_ms"] = delta("stage_search_ns") / 1e6 / n;
    l["subset.searches"] = delta("subset_searches") / n;
    l["subset.steps"] = delta("steps") / n;
    l["subset.memo_hit_rate"] =
        Ratio(delta("memo_hits"), delta("memo_hits") + delta("memo_misses"));
    const double vh = s1.verdict_hits - s0.verdict_hits;
    const double vm = s1.verdict_misses - s0.verdict_misses;
    l["cache.verdict_hit_rate"] = Ratio(vh, vh + vm);
    l["cache.segment_graft_rate"] =
        Ratio(delta("segments_grafted"), delta("segments_total"));
    l["cache.fragment_reuse_rate"] =
        Ratio(delta("fragments_spliced"),
              delta("fragments_spliced") + delta("fragments_rebuilt"));
    const double ch = s1.canon_hits - s0.canon_hits;
    const double cm = s1.canon_misses - s0.canon_misses;
    l["cache.canon_hit_rate"] = Ratio(ch, ch + cm);
    l["cache.evictions"] = (s1.verdict_evictions - s0.verdict_evictions) +
                           (s1.fragment_evictions - s0.fragment_evictions) +
                           (s1.segment_evictions - s0.segment_evictions);
    const Tracer::Totals check = tr.Get("server.check");
    const Tracer::Totals update = tr.Get("server.update");
    l["server.check_us"] = Ratio(check.total_s * 1e6, check.count);
    l["server.update_ms"] = Ratio(update.total_s * 1e3, update.count);
    l["server.errors"] = static_cast<double>(errors);
    l["server.cpu_per_wall"] = cpu_per_wall;
  }

  const Context& ctx_;
  Report* report_;
  ModularSpec spec_;
  std::vector<QueryPoint> points_;
  std::vector<CorpusProgram> ephemeral_;
  std::vector<LintCase> lint_;
  std::unique_ptr<hornsafe::PipelineCache> cache_;
  std::unique_ptr<hornsafe::Server> server_;
  std::atomic<uint64_t> next_id_{0};
  std::mutex edit_mu_;  // guards spec_.guards, edit_, edit_rng_
  SeededRng edit_rng_;
  uint64_t edit_ = 0;
  std::mutex report_mu_;  // guards report_ and update_texts_
  std::vector<std::string> update_texts_;
};

}  // namespace

Report ServeMixed(const Context& ctx) {
  Report report;
  ServeRunner runner(ctx, &report);
  if (report.failed > 0) return report;
  SetupTimes setup;
  auto setup_once = [&runner] { return runner.Setup(); };
  if (!TimeSetupBlock(setup_once, &setup.before)) return report;
  report.info["jobs"] = "1";
  report.info["clients"] = std::to_string(kClients);
  report.info["input_digest"] = runner.InputDigest();
  const AliasNames names{"request_ms_p50", "request_ms_p99", "rps",
                         "update_ms_p50",  "update_ms_p75",  "updates_per_s"};
  if (!ctx.trace) {
    Phase phase = runner.Measure(ctx.seconds, nullptr);
    FillEndToEnd(phase, 99, 75, names, &report);
  } else {
    Phase untraced;
    Tracer tracer;
    Phase traced = runner.Measure(ctx.seconds, &tracer, &untraced);
    FillEndToEnd(untraced, 99, 75, names, &report);
    FillTraceOverhead(untraced, traced, tracer, &report);
    tracer.Write(ctx.results_dir + "/trace-serve_mixed-seed" +
                 std::to_string(ctx.seed) + ".json");
  }
  report.aliases["request_us_p50"] = report.e2e["op_ms_p50"] * 1e3;
  report.aliases["request_us_p99"] = report.e2e["op_ms_tail"] * 1e3;
  runner.SpotCheck();
  TimeSetupBlock(setup_once, &setup.after);
  FillSetup(setup, &report);
  return report;
}

}  // namespace hsbench
