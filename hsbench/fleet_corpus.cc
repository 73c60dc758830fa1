// fleet_corpus: RunFleet with procs = min(4, nproc) worker processes of
// the hornsafe CLI and jobs = 1, over a seeded on-disk corpus of 512
// programs that share library modules, against a fresh shared cache
// directory per iteration. Each iteration runs two passes:
//   cold pass  - empty cache dir: write-heavy (fsync'd write-through,
//                shard leases, MANIFEST), cross-process hits only;
//   rerun pass - after ~10% of the programs get a single-rule edit:
//                read-heavy.
// Iterations run back to back until the run's seconds are spent, and
// each one deletes its cache and scratch directories when it is done.
//
//   op  = one program of a cold pass (worker-reported wall time); its
//         tail is p90. The programs that search the shared cones (the
//         first few of each worker, ~2% of a pass) sit above p97: their
//         times vary several-fold with how the workers race for the
//         same cones. p95, at the edge of that group, varied between
//         seeds twice as much as p90
//   aux = one program of a rerun pass; its tail is p95. Each worker's
//         first program (~0.8% of a pass) pays the new process's
//         first-touch costs, so p99 fell among them and followed the
//         host's memory state more than the program's work
//   op_per_s / aux_per_s = programs per second of a cold / rerun pass
//         (median over iterations, pass wall measured around RunFleet)

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <map>

#include "core/fleet.h"
#include "core/pipeline_cache.h"
#include "corpus.h"
#include "workloads.h"

namespace hsbench {
namespace {

// A pass of 512 programs keeps worker start-up, the cache directory's
// fsync'd writes and the programs that search the shared cones a small
// share of its wall time. With 48 programs they dominated it, and with
// 256 cold pass rates still varied by nearly the bound between runs.
constexpr int kPrograms = 512;
constexpr int kEdited = 51;  // ~10% of the corpus
// The fewest iterations a run makes, however short its seconds.
constexpr int kMinIterations = 8;

struct DiskScan {
  double entries = 0;
  double bytes = 0;
};

DiskScan ScanCacheDir(const std::string& dir) {
  DiskScan out;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec) && it->path().extension() == ".hsv") {
      out.entries += 1;
      out.bytes += static_cast<double>(it->file_size(ec));
    }
  }
  return out;
}

/// Per-pass tallies of the traced iterations (sums).
struct Tallies {
  double passes = 0;
  std::vector<double> overhead_ms;
  Samples program_ms;
  double disk_hits = 0, disk_misses = 0, write_skips = 0, read_failures = 0;
  double stores = 0, store_bytes = 0;
  double cold_disk_hits = 0, cold_disk_misses = 0;
  double verdict_hits = 0, verdict_misses = 0;
  double crashes = 0, respawns = 0;
};

class FleetRunner {
 public:
  FleetRunner(const Context& ctx, Report* report)
      : ctx_(ctx),
        report_(report),
        corpus_(MakeFleetCorpus(ctx.seed, kPrograms)),
        rng_(ctx.seed ^ 0x7265727572ULL),
        root_(ctx.work_dir + "/fleet"),
        procs_(std::min(4, ctx.nproc)) {}

  /// Opens and recovers the cache directory of a finished cold pass
  /// (manifest check, per-shard lease and tmp-file recovery): what a
  /// fleet worker pays before its first lookup. Seconds, or -1. The
  /// first call writes the corpus and fills that directory with one
  /// untimed cold pass. Reopening a healthy directory writes nothing,
  /// so repeated set-ups leave no files behind and do not wait on the
  /// disk.
  double Setup() {
    const std::string dir = root_ + "/cache-setup";
    if (!primed_) {
      for (const FleetProgram& p : corpus_.programs) {
        if (!WriteProgram(p, "")) return -1;
      }
      hornsafe::FleetOptions opts = Options(dir);
      auto fleet = hornsafe::RunFleet(opts);
      Discard(opts.scratch_dir);
      if (!fleet.ok() || fleet->programs.size() != corpus_.programs.size()) {
        report_->Fail("set-up cold pass failed");
        return -1;
      }
      primed_ = true;
    }
    const auto s0 = Clock::now();
    hornsafe::PipelineCache::Options opts;
    opts.dir = dir;
    hornsafe::PipelineCache cache(opts);
    (void)cache.stats();
    return SecondsSince(s0);
  }

  /// Runs iterations back to back for `seconds`, and at least
  /// kMinIterations. There are no idle gaps: after one, a pass measures
  /// the host waking up, and cold-pass tails read about three times
  /// higher and vary twice as much. With a tracer, odd iterations are
  /// traced and even ones are measured untraced into `untraced`.
  Phase Measure(double seconds, Tracer* tracer, Phase* untraced = nullptr) {
    Phase phase;
    std::vector<double> cold_rates, warm_rates;
    const auto start = Clock::now();
    int iteration = 0;
    for (; iteration < kMinIterations || SecondsSince(start) < seconds;
         ++iteration) {
      const bool traced = tracer != nullptr && iteration % 2 == 1;
      Phase* into = tracer != nullptr && !traced ? untraced : &phase;
      if (!Iterate(traced ? tracer : nullptr, into, traced)) break;
      if (into == &phase) {
        cold_rates.push_back(last_cold_rate_);
        warm_rates.push_back(last_warm_rate_);
      }
    }
    phase.op_per_s = MedianOf(cold_rates);
    phase.aux_per_s = MedianOf(warm_rates);
    report_->info["fleet_iterations"] = std::to_string(iteration);
    return phase;
  }

  /// Deletes the corpus and the set-up cache directory.
  void RemoveWorkDir() { Discard(root_); }

  const Tallies& tallies() const { return t_; }
  int procs() const { return procs_; }

  std::string InputDigest() const {
    Digest d;
    for (const FleetProgram& p : corpus_.programs) {
      d.Add(p.rel_path);
      d.Add(FleetProgramText(corpus_, p, ""));
    }
    SeededRng rng(ctx_.seed ^ 0x7265727572ULL);
    for (int i = 0; i < 4096; ++i) d.Add(rng.Next());
    return d.Hex();
  }

 private:
  /// Deletes a used cache or scratch directory, outside any timed
  /// pass. Used directories kept on disk make every later pass of the
  /// run slower: with them kept, cold pass wall time rose by half over
  /// ten seconds.
  void Discard(const std::string& path) {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }

  /// Commits this file system's journal, untimed, before a timed pass.
  /// The deletions and program writes between passes otherwise commit
  /// during the next pass and delay its fsyncs: with this, cold passes
  /// of one run had a third less spread between their quartiles.
  void SettleDisk() {
    const int fd = ::open(root_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) return;
    ::syncfs(fd);
    ::close(fd);
  }

  hornsafe::FleetOptions Options(const std::string& cache_dir) const {
    hornsafe::FleetOptions opts;
    opts.corpus_dir = root_ + "/corpus";
    opts.cache_dir = cache_dir;
    opts.procs = procs_;
    opts.jobs = 1;
    opts.worker_exe = ctx_.hornsafe_exe;
    opts.scratch_dir = root_ + "/scratch";
    return opts;
  }

  bool WriteProgram(const FleetProgram& p, const std::string& guard) {
    const std::string path = root_ + "/corpus/" + p.rel_path;
    MakeDirs(std::filesystem::path(path).parent_path().string());
    if (!WriteFile(path, FleetProgramText(corpus_, p, guard))) {
      report_->Fail("cannot write " + path);
      return false;
    }
    return true;
  }

  /// One cold pass, the edits, one rerun pass; false on driver failure.
  bool Iterate(Tracer* tracer, Phase* phase, bool traced) {
    const std::string dir = root_ + "/cache-" + std::to_string(++iter_);
    // Restore the programs edited by the previous iteration.
    for (int k : edited_) {
      if (!WriteProgram(corpus_.programs[k], "")) return false;
    }
    edited_.clear();

    hornsafe::FleetOptions opts = Options(dir);
    Discard(opts.scratch_dir);
    SettleDisk();

    hornsafe::Result<hornsafe::FleetReport> cold = Pass(
        opts, tracer, "fleet.cold_pass", phase, /*cold=*/true, traced);
    if (!cold.ok()) return false;
    if (traced) {
      DiskScan scan = ScanCacheDir(dir);
      t_.stores += scan.entries;
      t_.store_bytes += scan.bytes;
      t_.cold_disk_hits += cold->disk_hits;
      t_.cold_disk_misses += cold->disk_misses;
    }

    // Single-rule edits on ~10% of the programs (verdicts unchanged:
    // the extra guard lands on a safe private module).
    while (static_cast<int>(edited_.size()) < kEdited) {
      int k = static_cast<int>(rng_.Below(corpus_.programs.size()));
      if (std::find(edited_.begin(), edited_.end(), k) != edited_.end()) {
        continue;
      }
      edited_.push_back(k);
      if (!WriteProgram(corpus_.programs[k], "w" + std::to_string(iter_))) {
        return false;
      }
    }
    Discard(opts.scratch_dir);
    SettleDisk();
    hornsafe::Result<hornsafe::FleetReport> warm = Pass(
        opts, tracer, "fleet.rerun_pass", phase, /*cold=*/false, traced);
    Discard(opts.scratch_dir);
    Discard(dir);
    return warm.ok();
  }

  hornsafe::Result<hornsafe::FleetReport> Pass(
      const hornsafe::FleetOptions& opts, Tracer* tracer, const char* name,
      Phase* phase, bool cold, bool traced) {
    const auto t0 = Clock::now();
    Tracer::Span span(tracer, name, iter_);
    auto report = hornsafe::RunFleet(opts);
    span.End();
    const double wall = SecondsSince(t0);
    if (!report.ok()) {
      report_->Fail(std::string(name) + ": " + report.status().ToString());
      return report;
    }
    (cold ? last_cold_rate_ : last_warm_rate_) =
        report->programs.size() / wall;

    // Oracle: every program analyzed, with its by-construction verdict.
    std::map<std::string, std::string> expected;
    for (const FleetProgram& p : corpus_.programs) {
      expected[p.rel_path] = p.verdict;
    }
    std::map<int, double> worker_busy;
    report_->attempted += expected.size();
    if (report->programs.size() != expected.size()) {
      report_->Fail(std::string(name) + ": " +
                    std::to_string(report->programs.size()) +
                    " programs reported, expected " +
                    std::to_string(expected.size()));
    }
    for (const hornsafe::FleetProgramResult& r : report->programs) {
      (cold ? phase->op : phase->aux).Add(r.wall_seconds * 1e3);
      worker_busy[r.worker] += r.wall_seconds;
      auto it = expected.find(r.path);
      if (it == expected.end() || it->second != r.verdict) {
        report_->Fail(std::string(name) + ": " + r.path + " is " + r.verdict +
                      (r.error.empty() ? "" : " (" + r.error + ")"));
      }
    }
    if (traced) {
      double busiest = 0;
      for (const auto& [w, s] : worker_busy) busiest = std::max(busiest, s);
      if (cold) {
        t_.passes += 1;
        t_.overhead_ms.push_back((wall - busiest) * 1e3);
        for (const auto& r : report->programs) {
          t_.program_ms.Add(r.wall_seconds * 1e3);
        }
      }
      t_.disk_hits += report->disk_hits;
      t_.disk_misses += report->disk_misses;
      t_.write_skips += report->disk_write_skips;
      t_.read_failures += report->disk_read_failures;
      t_.verdict_hits += report->verdict_hits;
      t_.verdict_misses += report->verdict_misses;
      t_.crashes += report->worker_crashes;
      t_.respawns += report->respawns;
    }
    return report;
  }

  const Context& ctx_;
  Report* report_;
  FleetCorpus corpus_;
  SeededRng rng_;
  const std::string root_;
  const int procs_;
  uint64_t iter_ = 0;
  bool primed_ = false;
  std::vector<int> edited_;
  double last_cold_rate_ = 0, last_warm_rate_ = 0;
  Tallies t_;
};

void FillLayers(const Tallies& t, Report* report) {
  auto& l = report->layer;
  const double passes = t.passes;
  l["disk.stores"] = Ratio(t.stores, passes);
  l["disk.hits"] = Ratio(t.disk_hits, passes);
  l["disk.misses"] = Ratio(t.disk_misses, passes);
  l["disk.write_skips"] = Ratio(t.write_skips, passes);
  l["disk.read_failures"] = Ratio(t.read_failures, passes);
  l["disk.bytes_per_entry"] = Ratio(t.store_bytes, t.stores);
  l["disk.cross_process_hit_rate"] =
      Ratio(t.cold_disk_hits, t.cold_disk_hits + t.cold_disk_misses);
  l["cache.verdict_hit_rate"] =
      Ratio(t.verdict_hits, t.verdict_hits + t.verdict_misses);
  l["fleet.driver_overhead_ms"] = MedianOf(t.overhead_ms);
  l["fleet.program_ms_p50"] = t.program_ms.Median();
  l["fleet.worker_crashes"] = t.crashes;
  l["fleet.respawns"] = t.respawns;
}

}  // namespace

Report FleetCorpusWorkload(const Context& ctx) {
  Report report;
  if (ctx.hornsafe_exe.empty()) {
    report.Fail("fleet_corpus needs --hornsafe (the worker executable)");
    return report;
  }
  FleetRunner runner(ctx, &report);
  SetupTimes setup;
  auto setup_once = [&runner] { return runner.Setup(); };
  if (!TimeSetupBlock(setup_once, &setup.before)) return report;
  report.info["jobs"] = "1";
  report.info["procs"] = std::to_string(runner.procs());
  report.info["corpus_programs"] = std::to_string(kPrograms);
  report.info["input_digest"] = runner.InputDigest();
  const AliasNames names{"cold_program_ms_p50", "cold_program_ms_p90",
                         "cold_programs_per_s", "warm_program_ms_p50",
                         "warm_program_ms_p95", "warm_programs_per_s"};
  if (!ctx.trace) {
    Phase phase = runner.Measure(ctx.seconds, nullptr);
    FillEndToEnd(phase, 90, 95, names, &report);
  } else {
    Phase untraced;
    Tracer tracer;
    Phase traced = runner.Measure(ctx.seconds, &tracer, &untraced);
    FillEndToEnd(untraced, 90, 95, names, &report);
    FillLayers(runner.tallies(), &report);
    FillTraceOverhead(untraced, traced, tracer, &report);
    tracer.Write(ctx.results_dir + "/trace-fleet_corpus-seed" +
                 std::to_string(ctx.seed) + ".json");
  }
  // Workers run concurrently: count each one at the largest child peak.
  report.children_rss_mb = ChildrenPeakRssMb() * runner.procs();
  TimeSetupBlock(setup_once, &setup.after);
  FillSetup(setup, &report);
  runner.RemoveWorkDir();
  return report;
}

}  // namespace hsbench
