#include "util.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace hsbench {

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double ChildrenPeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

uint64_t SeededRng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Digest::Add(std::string_view bytes) {
  for (unsigned char c : bytes) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
  Add(static_cast<uint64_t>(bytes.size()));
}

void Digest::Add(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ULL;
  }
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

void Samples::Add(double v) {
  values_.push_back(v);
  times_.push_back(Clock::now());
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  times_.insert(times_.end(), other.times_.begin(), other.times_.end());
}

namespace {

/// Nearest rank: the smallest value with at least p% of samples at or
/// below it. Sorts `v`.
double NearestRank(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, n);
  return v[rank - 1];
}

}  // namespace

double Samples::Percentile(double p) const {
  std::vector<double> v = values_;
  return NearestRank(v, p);
}

double Samples::WindowedPercentile(double p, int* windows) const {
  const size_t n = values_.size();
  // Time order (merged clients may interleave).
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return times_[a] < times_[b];
  });
  for (int k : {5, 3, 1}) {
    if (k > 1 && (n / k) * (100.0 - p) / 100.0 < 10.0) continue;
    std::vector<double> per_window;
    for (int w = 0; w < k; ++w) {
      std::vector<double> chunk;
      for (size_t i = n * w / k; i < n * (w + 1) / k; ++i) {
        chunk.push_back(values_[order[i]]);
      }
      per_window.push_back(NearestRank(chunk, p));
    }
    *windows = k;
    return MedianOf(per_window);
  }
  *windows = 1;
  return Percentile(p);
}

double WindowedRate(std::vector<Clock::time_point> times) {
  if (times.size() < 2) return 0;
  std::sort(times.begin(), times.end());
  const auto start = times.front();
  const double span =
      std::chrono::duration<double>(times.back() - start).count();
  if (span <= 0) return 0;
  constexpr int kWindows = 5;
  std::vector<double> counts(kWindows, 0);
  for (const auto& t : times) {
    double x = std::chrono::duration<double>(t - start).count() / span;
    counts[std::min(kWindows - 1, static_cast<int>(x * kWindows))] += 1;
  }
  for (double& c : counts) c /= span / kWindows;
  return MedianOf(counts);
}

double Samples::TailPercentile(double want) const {
  const double n = static_cast<double>(count());
  for (double p : {want, 90.0, 75.0, 50.0}) {
    if (p <= want && n * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 50.0;
}

double MedianOf(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string SeedTag(uint64_t seed) {
  SeededRng rng(seed ^ 0x7461677461677461ULL);
  uint64_t v = rng.Next();
  std::string tag;
  for (int i = 0; i < 4; ++i) {
    tag += "abcdefghijklmnopqrstuvwxyz0123456789"[v % 36];
    v /= 36;
  }
  return tag;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool WriteFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

bool MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return !ec;
}

}  // namespace hsbench
