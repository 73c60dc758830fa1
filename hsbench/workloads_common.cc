#include <string>

#include "workloads.h"

namespace hsbench {
namespace {

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

void FillEndToEnd(const Phase& phase, double op_tail_want,
                  double aux_tail_want, const AliasNames& names,
                  Report* report) {
  const double op_tail = phase.op.TailPercentile(op_tail_want);
  const double aux_tail = phase.aux.TailPercentile(aux_tail_want);
  int op_windows = 1, aux_windows = 1;
  auto& e = report->e2e;
  e["op_ms_p50"] = phase.op.Median();
  e["op_ms_tail"] = phase.op.WindowedPercentile(op_tail, &op_windows);
  e["op_per_s"] = phase.op_per_s;
  e["aux_ms_p50"] = phase.aux.Median();
  e["aux_ms_tail"] = phase.aux.WindowedPercentile(aux_tail, &aux_windows);
  e["aux_per_s"] = phase.aux_per_s;
  report->info["op_samples"] = std::to_string(phase.op.count());
  report->info["op_tail_percentile"] = Fmt(op_tail);
  report->info["op_tail_windows"] = std::to_string(op_windows);
  report->info["aux_samples"] = std::to_string(phase.aux.count());
  report->info["aux_tail_percentile"] = Fmt(aux_tail);
  report->info["aux_tail_windows"] = std::to_string(aux_windows);
  auto alias = [&](const std::string& name, const char* key) {
    if (!name.empty()) report->aliases[name] = e[key];
  };
  alias(names.op_p50, "op_ms_p50");
  alias(names.op_tail, "op_ms_tail");
  alias(names.op_rate, "op_per_s");
  alias(names.aux_p50, "aux_ms_p50");
  alias(names.aux_tail, "aux_ms_tail");
  alias(names.aux_rate, "aux_per_s");
}

bool TimeSetupBlock(const std::function<double()>& once,
                    std::vector<double>* seconds) {
  const auto start = Clock::now();
  for (int rep = 0; rep < kSetupMaxReps; ++rep) {
    if (rep >= kSetupMinReps && SecondsSince(start) >= kSetupBlockSeconds) {
      break;
    }
    const double s = once();
    if (s < 0) return false;
    seconds->push_back(s);
  }
  return true;
}

void FillSetup(const SetupTimes& setup, Report* report) {
  const double before = MedianOf(setup.before);
  const double after = MedianOf(setup.after);
  report->e2e["setup_s"] = (before + after) / 2;
  report->info["setup_before_ms"] = Fmt(before * 1e3);
  report->info["setup_after_ms"] = Fmt(after * 1e3);
  report->info["setup_repetitions"] =
      std::to_string(setup.before.size() + setup.after.size());
}

void FillTraceOverhead(const Phase& untraced, const Phase& traced,
                       const Tracer& tracer, Report* report) {
  const double base = untraced.op.Median();
  const double delta = traced.op.Median() - base;
  report->layer["trace.overhead_ms"] = delta;
  report->layer["trace.overhead_share"] = Ratio(delta, base);
  report->layer["trace.spans"] = static_cast<double>(tracer.spans());
  report->info["untraced_op_ms_p50"] = Fmt(base);
  report->info["traced_op_ms_p50"] = Fmt(traced.op.Median());
}

double SelfMsPerOp(const Tracer& tracer, const std::string& name,
                   double ops) {
  return Ratio(tracer.Get(name).self_s * 1e3, ops);
}

}  // namespace hsbench
