// hsbench: the benchmark of record for hornsafe. One workload per
// invocation; run through hsbench/run.py, which builds this binary and
// passes the directories below.
//
//   hsbench --workload run_cold|edit_warm|serve_mixed|fleet_corpus
//           --seed N --seconds S --trace 0|1
//           --data-dir hsbench --work-dir DIR --results-dir DIR
//           --hornsafe PATH [--git-sha SHA] [--source-digest HEX]
//
// Prints provenance lines, then as its last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exit code 0 iff
// the run completed (a wrong answer is reported through "correct" and
// "failed", not the exit code); 2 on bad usage or set-up failure.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "util/json.h"
#include "workloads.h"

#ifndef HSBENCH_BUILD_TYPE
#define HSBENCH_BUILD_TYPE "unknown"
#endif
#ifndef HSBENCH_COMPILER
#define HSBENCH_COMPILER __VERSION__
#endif

namespace hsbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must list exactly the names and units of BENCHMARK.json (run.py
// checks the printed metrics against that file).
const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},         {"peak_rss_mb", "MB"},
      {"op_ms_p50", "ms"},      {"op_ms_tail", "ms"},
      {"op_per_s", "1/s"},      {"aux_ms_p50", "ms"},
      {"aux_ms_tail", "ms"},    {"aux_per_s", "1/s"},
  };
  return defs;
}

const std::vector<MetricDef>& LayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"parser.busy_ms", "ms"},
      {"parser.rules_per_ms", "1/ms"},
      {"lint.busy_us", "us"},
      {"canonical.busy_ms", "ms"},
      {"canonical.rules_out", "count"},
      {"fingerprint.busy_ms", "ms"},
      {"fd.busy_ms", "ms"},
      {"adorn.busy_ms", "ms"},
      {"adorn.adorned_rules", "count"},
      {"build.busy_ms", "ms"},
      {"build.nodes", "count"},
      {"prune.busy_ms", "ms"},
      {"prune.rules_deleted_share", "share"},
      {"scc.busy_ms", "ms"},
      {"subset.busy_ms", "ms"},
      {"subset.searches", "count"},
      {"subset.steps", "count"},
      {"subset.memo_hit_rate", "share"},
      {"subset.scc_short_circuit_share", "1/search"},
      {"mono.escapes", "count"},
      {"analyzer.create_ms", "ms"},
      {"analyzer.update_ms", "ms"},
      {"analyzer.analyze_ms", "ms"},
      {"analyzer.unattributed_share", "share"},
      {"analyzer.cpu_per_wall", "ratio"},
      {"analyzer.parallel_tasks", "count"},
      {"cache.verdict_hit_rate", "share"},
      {"cache.segment_graft_rate", "share"},
      {"cache.fragment_reuse_rate", "share"},
      {"cache.canon_hit_rate", "share"},
      {"cache.evictions", "count"},
      {"disk.stores", "count"},
      {"disk.hits", "count"},
      {"disk.misses", "count"},
      {"disk.write_skips", "count"},
      {"disk.read_failures", "count"},
      {"disk.bytes_per_entry", "bytes"},
      {"disk.cross_process_hit_rate", "share"},
      {"server.check_us", "us"},
      {"server.update_ms", "ms"},
      {"server.errors", "count"},
      {"server.cpu_per_wall", "ratio"},
      {"fleet.driver_overhead_ms", "ms"},
      {"fleet.program_ms_p50", "ms"},
      {"fleet.worker_crashes", "count"},
      {"fleet.respawns", "count"},
      {"eval.busy_ms", "ms"},
      {"eval.iterations", "count"},
      {"eval.tuples_per_ms", "1/ms"},
      {"eval.rule_firings", "count"},
      {"eval.parallel_tasks", "count"},
      {"eval.cpu_per_wall", "ratio"},
      {"trace.overhead_ms", "ms"},
      {"trace.overhead_share", "share"},
      {"trace.spans", "count"},
      {"bench.fail_rate", "share"},
  };
  return defs;
}

int Usage(const char* why) {
  std::fprintf(stderr, "hsbench: %s\n", why);
  return 2;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace hsbench

int main(int argc, char** argv) {
  using namespace hsbench;
  using hornsafe::Json;
  std::string workload, git_sha = "unknown", source_digest = "unknown";
  Context ctx;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      ctx.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      ctx.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      ctx.trace = value == "1";
    } else if (flag == "--data-dir") {
      ctx.data_dir = value;
    } else if (flag == "--work-dir") {
      ctx.work_dir = value;
    } else if (flag == "--results-dir") {
      ctx.results_dir = value;
    } else if (flag == "--hornsafe") {
      ctx.hornsafe_exe = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--source-digest") {
      source_digest = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (ctx.seconds <= 0) return Usage("--seconds must be positive");
  if (ctx.data_dir.empty() || ctx.work_dir.empty() ||
      ctx.results_dir.empty()) {
    return Usage("--data-dir, --work-dir and --results-dir are required");
  }
  long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  ctx.nproc = cpus > 0 ? static_cast<int>(cpus) : 1;
  if (!MakeDirs(ctx.work_dir)) return Usage("cannot create --work-dir");
  if (!MakeDirs(ctx.results_dir)) return Usage("cannot create --results-dir");

  const std::map<std::string, std::function<Report(const Context&)>> table =
      {{"run_cold", RunCold},
       {"edit_warm", EditWarm},
       {"serve_mixed", ServeMixed},
       {"fleet_corpus", FleetCorpusWorkload}};
  auto it = table.find(workload);
  if (it == table.end()) return Usage("unknown --workload");

  Report report = it->second(ctx);
  if (report.attempted == 0) {
    for (const std::string& f : report.failures) {
      std::fprintf(stderr, "hsbench: %s\n", f.c_str());
    }
    return Usage("workload set-up failed");
  }
  report.e2e["peak_rss_mb"] = PeakRssMb() + report.children_rss_mb;
  report.layer["bench.fail_rate"] =
      Ratio(static_cast<double>(report.failed), report.attempted);

  // Provenance.
  Json prov = Json::Object();
  prov.Set("workload", workload);
  prov.Set("seed", static_cast<uint64_t>(ctx.seed));
  prov.Set("seconds", ctx.seconds);
  prov.Set("trace", ctx.trace);
  prov.Set("git_sha", git_sha);
  prov.Set("source_digest", source_digest);
  prov.Set("nproc", static_cast<int64_t>(ctx.nproc));
  prov.Set("compiler", std::string(HSBENCH_COMPILER));
  prov.Set("build_type", std::string(HSBENCH_BUILD_TYPE));
  for (const auto& [k, v] : report.info) prov.Set(k, v);
  // The descriptive names label the end-to-end metrics, which a traced
  // run does not report.
  Json aliases = Json::Object();
  if (!ctx.trace) {
    for (const auto& [k, v] : report.aliases) aliases.Set(k, v);
  }

  std::string metrics = "{";
  const auto& defs = ctx.trace ? LayerMetrics() : EndToEndMetrics();
  const auto& values = ctx.trace ? report.layer : report.e2e;
  for (size_t i = 0; i < defs.size(); ++i) {
    auto v = values.find(defs[i].name);
    double value = v == values.end() ? 0.0 : v->second;
    if (!ctx.trace && v == values.end()) {
      return Usage((std::string("workload did not measure ") + defs[i].name)
                       .c_str());
    }
    metrics += std::string(i == 0 ? "" : ", ") + "\"" + defs[i].name +
               "\": {\"value\": " + Num(value) + ", \"unit\": \"" +
               defs[i].unit + "\"}";
  }
  metrics += "}";
  // Unmeasured end-to-end metrics on a traced run are still recorded in
  // the result file for the overhead comparison.
  Json e2e = Json::Object();
  for (const auto& [k, v] : report.e2e) e2e.Set(k, v);
  Json fails = Json::Array();
  for (const std::string& f : report.failures) {
    std::fprintf(stderr, "hsbench: FAIL %s\n", f.c_str());
    fails.Append(f);
  }

  const bool correct = report.failed == 0;
  std::string result = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(report.attempted) +
                       ", \"failed\": " + std::to_string(report.failed) +
                       ", \"metrics\": " + metrics + "}";

  Json file = Json::Object();
  file.Set("provenance", std::move(prov));
  file.Set("aliases", std::move(aliases));
  file.Set("end_to_end", std::move(e2e));
  file.Set("failures", std::move(fails));
  std::string stem = ctx.results_dir + "/" + workload + "-seed" +
                     std::to_string(ctx.seed) + "-trace" +
                     (ctx.trace ? "1" : "0");
  WriteFile(stem + ".json", file.Dump() + "\n" + result + "\n");

  std::printf("# provenance %s\n", file["provenance"].Dump().c_str());
  std::printf("# aliases %s\n", file["aliases"].Dump().c_str());
  std::printf("%s\n", result.c_str());
  return 0;
}
