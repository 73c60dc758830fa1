#include "trace.h"

#include <cstdio>

namespace hsbench {
namespace {

struct OpenFrame {
  const char* name;
  uint64_t start_ns;
  uint64_t child_ns;
  int64_t id;
  uint64_t request;
};

/// The calling thread's stack of open spans. One tracer is active per
/// phase, so a single thread-local stack serves every tracer.
std::vector<OpenFrame>& Stack() {
  thread_local std::vector<OpenFrame> stack;
  return stack;
}

}  // namespace

Tracer::Span::Span(Tracer* tracer, const char* name, uint64_t request) {
  if (tracer == nullptr) return;
  tracer_ = tracer;
  tracer_->Begin(name, request);
}

void Tracer::Span::End() {
  if (tracer_ == nullptr) return;
  tracer_->Finish();
  tracer_ = nullptr;
}

uint64_t Tracer::NowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count());
}

void Tracer::Begin(const char* name, uint64_t request) {
  std::vector<OpenFrame>& stack = Stack();
  if (request == 0 && !stack.empty()) request = stack.back().request;
  int64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_id_++;
  }
  stack.push_back({name, NowNs(), 0, id, request});
}

void Tracer::Finish() {
  std::vector<OpenFrame>& stack = Stack();
  if (stack.empty()) return;
  OpenFrame f = stack.back();
  stack.pop_back();
  uint64_t end = NowNs();
  int64_t parent = stack.empty() ? -1 : stack.back().id;
  if (!stack.empty()) stack.back().child_ns += end - f.start_ns;
  Close(f.name, f.start_ns, end, f.child_ns, f.id, parent, f.request, false);
}

void Tracer::AttachChild(const char* name, uint64_t duration_ns) {
  std::vector<OpenFrame>& stack = Stack();
  if (stack.empty()) return;
  OpenFrame& parent = stack.back();
  int64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_id_++;
  }
  parent.child_ns += duration_ns;
  Close(name, parent.start_ns, parent.start_ns + duration_ns, 0, id,
        parent.id, parent.request, true);
}

void Tracer::Close(const char* name, uint64_t start_ns, uint64_t end_ns,
                   uint64_t child_ns, int64_t id, int64_t parent,
                   uint64_t request, bool synthetic) {
  const uint64_t dur = end_ns - start_ns;
  const uint64_t self = dur > child_ns ? dur - child_ns : 0;
  std::lock_guard<std::mutex> lock(mu_);
  Totals& t = totals_[name];
  t.self_s += self * 1e-9;
  t.total_s += dur * 1e-9;
  ++t.count;
  ++closed_;
  if (records_.size() < kMaxRecords) {
    records_.push_back(
        {name, start_ns, end_ns, id, parent, request, synthetic});
  }
}

Tracer::Totals Tracer::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = totals_.find(name);
  return it == totals_.end() ? Totals{} : it->second;
}

uint64_t Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"spans_closed\": %llu, \"spans_written\": %zu,\n",
               static_cast<unsigned long long>(closed_), records_.size());
  std::fprintf(f, " \"self\": {");
  bool first = true;
  for (const auto& [name, t] : totals_) {
    std::fprintf(f,
                 "%s\n  \"%s\": {\"self_ms\": %.6f, \"total_ms\": %.6f, "
                 "\"count\": %llu}",
                 first ? "" : ",", name.c_str(), t.self_s * 1e3,
                 t.total_s * 1e3, static_cast<unsigned long long>(t.count));
    first = false;
  }
  std::fprintf(f, "},\n \"spans\": [");
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "%s\n  {\"id\": %lld, \"parent\": %lld, \"request\": %llu, "
                 "\"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": %llu%s}",
                 i == 0 ? "" : ",", static_cast<long long>(r.id),
                 static_cast<long long>(r.parent),
                 static_cast<unsigned long long>(r.request), r.name,
                 static_cast<unsigned long long>(r.start_ns),
                 static_cast<unsigned long long>(r.end_ns),
                 r.synthetic ? ", \"synthetic\": true" : "");
  }
  std::fprintf(f, "\n ]}\n");
  return std::fclose(f) == 0;
}

}  // namespace hsbench
