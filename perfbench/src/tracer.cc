#include "tracer.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>

namespace perfbench {

namespace {

// Spans open on this thread, innermost last: the parent of a new span.
thread_local std::vector<std::size_t> open_spans;

void AppendEscaped(const std::string& s, std::string* out) {
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
}

}  // namespace

Tracer::Tracer() : epoch_(Clock::now()) {}

std::size_t Tracer::Begin(std::string name, std::uint64_t query_id) {
  const double start_us =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  const std::uint64_t tid =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, fresh] =
      thread_ids_.emplace(tid, static_cast<int>(thread_ids_.size()) + 1);
  Span span;
  span.name = std::move(name);
  span.query_id = query_id;
  span.thread = it->second;
  span.parent = open_spans.empty()
                    ? -1
                    : static_cast<std::int64_t>(open_spans.back());
  span.start_us = start_us;
  span.end_us = start_us;
  spans_.push_back(std::move(span));
  open_spans.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::End(std::size_t handle) {
  const double end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[handle].end_us = end_us;
  }
  auto it = std::find(open_spans.begin(), open_spans.end(), handle);
  if (it != open_spans.end()) open_spans.erase(it);
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, Tracer::NameSummary> Tracer::Summarize() const {
  const std::vector<Span> all = spans();
  // Children of each span, to subtract the part of its interval they cover.
  std::vector<std::vector<std::size_t>> children(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].parent >= 0) {
      children[static_cast<std::size_t>(all[i].parent)].push_back(i);
    }
  }
  std::map<std::string, NameSummary> summary;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& span = all[i];
    std::vector<std::pair<double, double>> covered;
    for (std::size_t c : children[i]) {
      covered.emplace_back(std::max(all[c].start_us, span.start_us),
                           std::min(all[c].end_us, span.end_us));
    }
    std::sort(covered.begin(), covered.end());
    double covered_us = 0;
    double reach = span.start_us;
    for (const auto& [begin, end] : covered) {
      const double from = std::max(begin, reach);
      if (end > from) {
        covered_us += end - from;
        reach = end;
      }
    }
    NameSummary& s = summary[span.name];
    ++s.count;
    s.inclusive_us += span.end_us - span.start_us;
    s.self_us += (span.end_us - span.start_us) - covered_us;
  }
  return summary;
}

std::string Tracer::ToChromeJson() const {
  const std::vector<Span> all = spans();
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& span = all[i];
    if (i > 0) out += ",\n";
    out += "{\"name\":\"";
    AppendEscaped(span.name, &out);
    out += "\",\"cat\":\"";
    AppendEscaped(span.name.substr(0, span.name.find('.')), &out);
    std::snprintf(buf, sizeof(buf),
                  "\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"query_id\":%llu,\"span\":%zu,"
                  "\"parent\":%lld}}",
                  span.thread, span.start_us, span.end_us - span.start_us,
                  static_cast<unsigned long long>(span.query_id), i,
                  static_cast<long long>(span.parent));
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
