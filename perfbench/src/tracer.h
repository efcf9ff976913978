// Span recorder for the traced run. Spans are taken in the benchmark's own
// code, around its calls into each layer's public functions; the engine is
// not instrumented for this. Every span carries the id of the query it
// belongs to and its parent (the span open on the same thread when it
// started). Spans stay in memory until the run ends, then go out as Chrome
// trace-event JSON (loadable in https://ui.perfetto.dev) plus a per-layer
// summary of inclusive and self time.

#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;  // "<layer>.<call>", e.g. "engine.prepare".
    std::uint64_t query_id = 0;
    int thread = 0;
    std::int64_t parent = -1;  // Index into spans(), -1 for a root.
    double start_us = 0;       // Since the tracer's construction.
    double end_us = 0;
  };

  /// Inclusive and self time of all spans of one name.
  struct NameSummary {
    std::size_t count = 0;
    double inclusive_us = 0;
    double self_us = 0;
  };

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread; returns its handle for End.
  std::size_t Begin(std::string name, std::uint64_t query_id);
  void End(std::size_t handle);

  std::vector<Span> spans() const;

  /// Per span name: a span's self time is its duration minus the part of
  /// it that its child spans cover.
  std::map<std::string, NameSummary> Summarize() const;

  /// {"traceEvents":[...]} with one complete event per span.
  std::string ToChromeJson() const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // Guarded by mu_.
  std::map<std::uint64_t, int> thread_ids_;  // Guarded by mu_.
};

/// Scoped span; a null tracer records nothing and reads no clock.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::uint64_t query_id)
      : tracer_(tracer) {
    if (tracer_ != nullptr) handle_ = tracer_->Begin(std::move(name), query_id);
  }
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span early (idempotent).
  void End() {
    if (tracer_ != nullptr) tracer_->End(handle_);
    tracer_ = nullptr;
  }

 private:
  Tracer* tracer_;
  std::size_t handle_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
