#ifndef HSBENCH_UTIL_H_
#define HSBENCH_UTIL_H_

// Measurement helpers for the benchmark of record: clocks, sample sets
// with the "highest percentile that has at least ten samples beyond it"
// rule, resident-set readings, an input digest and a seeded generator
// that belongs to the benchmark (so inputs do not move when the
// program's own RNG changes).

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hsbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU seconds consumed by the whole process (every thread).
double ProcessCpuSeconds();

/// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb();

/// Largest peak resident set among waited-for child processes, in MB.
double ChildrenPeakRssMb();

/// splitmix64: the benchmark's own deterministic input generator.
class SeededRng {
 public:
  explicit SeededRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// FNV-1a over every generated input, so two runs can show they
/// measured byte-identical inputs.
class Digest {
 public:
  void Add(std::string_view bytes);
  void Add(uint64_t v);
  std::string Hex() const;

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// A set of latency samples (any unit), each stamped with the time it
/// was added. Not thread-safe: concurrent clients keep one each and
/// merge with Append.
class Samples {
 public:
  void Add(double v);
  void Append(const Samples& other);
  size_t count() const { return values_.size(); }
  /// Nearest-rank percentile, p in [0, 100]; 0 when empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(50); }
  /// The highest percentile from {want, 90, 75, 50} (each <= want) that
  /// leaves at least ten samples beyond it.
  double TailPercentile(double want) const;
  /// Percentile p as the median over k consecutive, equally sized
  /// windows (in time order) of each window's own percentile p, with k
  /// the largest of {5, 3, 1} that leaves every window ten samples
  /// beyond p. A burst of host noise then moves one window, not the
  /// reported tail. Sets *windows to k.
  double WindowedPercentile(double p, int* windows) const;
  /// Completion times, in insertion order.
  const std::vector<Clock::time_point>& times() const { return times_; }

 private:
  std::vector<double> values_;
  std::vector<Clock::time_point> times_;
};

/// Events per second as the median over five equal time windows
/// spanning `times` (robust to a burst of host noise in one window).
double WindowedRate(std::vector<Clock::time_point> times);

/// Median of a small vector (copy).
double MedianOf(std::vector<double> v);

/// Base-36 tag derived from a seed, used to rename generated predicates
/// so each seed yields distinct (but equally sized) programs.
std::string SeedTag(uint64_t seed);

/// Reads a whole file; empty string when missing.
std::string ReadFile(const std::string& path);
/// Writes a whole file; false on failure.
bool WriteFile(const std::string& path, std::string_view bytes);
/// mkdir -p.
bool MakeDirs(const std::string& path);

}  // namespace hsbench

#endif  // HSBENCH_UTIL_H_
