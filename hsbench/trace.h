#ifndef HSBENCH_TRACE_H_
#define HSBENCH_TRACE_H_

// In-memory span recorder for the traced run. Spans are opened by the
// benchmark's own code around calls into the program's public
// functions: name, start, end, parent span and request id. Per-name
// self time (duration minus the time covered by child spans) is
// aggregated as spans close; the raw spans (capped) are written to a
// file at exit.
//
// Stages that run inside a single public call (SafetyAnalyzer::Update,
// AnalyzeQueries) cannot be spanned from outside; their existing
// stage clocks are attached as synthetic child spans instead.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util.h"

namespace hsbench {

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span on the calling thread; nests under the thread's open
  /// span. `tracer` may be null: an untraced operation records nothing.
  class Span {
   public:
    Span(Tracer* tracer, const char* name, uint64_t request = 0);
    ~Span() { End(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    void End();

   private:
    Tracer* tracer_ = nullptr;
  };

  /// Attaches a synthetic child of the calling thread's open span with
  /// the given duration (a stage clock read from the program).
  void AttachChild(const char* name, uint64_t duration_ns);

  struct Totals {
    double self_s = 0;
    double total_s = 0;
    uint64_t count = 0;
  };
  /// Aggregate for spans called `name` (zero when never recorded).
  Totals Get(const std::string& name) const;
  uint64_t spans() const;

  /// Writes the recorded spans and the per-name aggregates as JSON.
  bool Write(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    int64_t id;
    int64_t parent;
    uint64_t request;
    bool synthetic;
  };

  uint64_t NowNs() const;
  void Begin(const char* name, uint64_t request);
  void Finish();
  void Close(const char* name, uint64_t start_ns, uint64_t end_ns,
             uint64_t child_ns, int64_t id, int64_t parent, uint64_t request,
             bool synthetic);

  static constexpr size_t kMaxRecords = 200000;

  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::map<std::string, Totals> totals_;
  std::vector<Record> records_;
  int64_t next_id_ = 0;
  uint64_t closed_ = 0;
};

}  // namespace hsbench

#endif  // HSBENCH_TRACE_H_
