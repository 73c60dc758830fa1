#ifndef HSBENCH_WORKLOADS_H_
#define HSBENCH_WORKLOADS_H_

// The four workloads of the benchmark of record and the report each one
// fills. Every workload measures the same end-to-end metric names (see
// BENCHMARK.json and hsbench/README.md for what "op" and "aux" are on
// each workload) and, in the traced run, every per-layer metric name;
// layers a workload bypasses report zero.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "trace.h"
#include "util.h"

namespace hsbench {

struct Context {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int nproc = 1;
  /// hsbench/ in the checkout (pinned example programs live here).
  std::string data_dir;
  /// Private scratch directory for this run (fleet corpus, cache dirs).
  std::string work_dir;
  /// Where result and trace files are written.
  std::string results_dir;
  /// The hornsafe CLI, used as the fleet worker executable.
  std::string hornsafe_exe;
};

/// One measured phase: the workload's primary operation ("op") and its
/// secondary operation ("aux"), latencies in ms.
struct Phase {
  Samples op;
  Samples aux;
  double op_per_s = 0;
  double aux_per_s = 0;
};

struct Report {
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  /// Provenance and sample counts, printed and written with the result.
  std::map<std::string, std::string> info;
  /// The workload's metrics under their descriptive names
  /// (check_ms_p50, rps, ...), echoed next to the generic names.
  std::map<std::string, double> aliases;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  /// Peak RSS of child processes to add to this process's (fleet).
  double children_rss_mb = 0;

  void Fail(const std::string& message) {
    ++failed;
    if (failures.size() < 20) failures.push_back(message);
  }
};

/// Issue-level names of a workload's op/aux metrics ("" = none).
struct AliasNames {
  std::string op_p50, op_tail, op_rate, aux_p50, aux_tail, aux_rate;
};

/// Fills the generic end-to-end metrics from a phase, the sample counts
/// and chosen percentiles into `info`, and the alias names.
void FillEndToEnd(const Phase& phase, double op_tail_want,
                  double aux_tail_want, const AliasNames& names,
                  Report* report);

/// Set-up timings of one run, in seconds. Each workload times one block
/// of set-ups before its measured phase and one after it: a set-up takes
/// milliseconds, and a few of them sample the host's speed at one
/// instant only. The blocks differ (the first runs in a fresh process),
/// so a median over both would jump between them from run to run;
/// setup_s is the mean of the two blocks' medians instead.
struct SetupTimes {
  std::vector<double> before, after;
};

/// Times one block of set-up repetitions: `once` runs a whole set-up and
/// returns its seconds, or records its failure in the report and returns
/// a negative value. A block repeats for at least kSetupBlockSeconds and
/// kSetupMinReps times, and at most kSetupMaxReps times. False when a
/// repetition fails.
bool TimeSetupBlock(const std::function<double()>& once,
                    std::vector<double>* seconds);
constexpr double kSetupBlockSeconds = 2.0;
constexpr int kSetupMinReps = 10;
constexpr int kSetupMaxReps = 20000;

/// Records setup_s and each block's median and size.
void FillSetup(const SetupTimes& setup, Report* report);

/// Tracing overhead: traced minus untraced op p50, absolute and as a
/// share of the untraced value.
void FillTraceOverhead(const Phase& untraced, const Phase& traced,
                       const Tracer& tracer, Report* report);

/// Self time per operation, in ms, of spans called `name`.
double SelfMsPerOp(const Tracer& tracer, const std::string& name,
                   double ops);

/// a / b, or 0 when b == 0.
inline double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

Report RunCold(const Context& ctx);
Report EditWarm(const Context& ctx);
Report ServeMixed(const Context& ctx);
Report FleetCorpusWorkload(const Context& ctx);

}  // namespace hsbench

#endif  // HSBENCH_WORKLOADS_H_
