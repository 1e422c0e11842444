// Header-only span recorder for bench_e2e's traced runs.
//
// Spans are recorded from the benchmark's own code, around its calls into
// each layer's public functions; nothing inside src/ is instrumented. Each
// thread appends to its own in-memory buffer (no lock on the hot path);
// buffers live until the process ends, are analysed after every client
// thread has joined, and are flushed once as Chrome trace-event JSON
// (load the file in chrome://tracing or Perfetto).
//
// A span records name, layer, op id (shared by every span of one request),
// parent, and bytes. A span's self time is its duration minus the time its
// children cover. Children of one span always run on the parent's thread,
// one after another, so their coverage is the sum of their durations.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

struct Span {
  const char* name = "";
  const char* layer = "";
  std::uint64_t op = 0;
  int parent = -1;  // index into the same thread's buffer; -1 for a root
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t bytes = 0;

  double ms() const { return static_cast<double>(end_ns - begin_ns) * 1e-6; }
};

// A finished span with its thread and self time, as analysis sees it.
struct SpanView {
  Span span;
  int tid = 0;
  double self_ms = 0.0;
};

class Tracer {
 public:
  static Tracer& global() {
    static Tracer tracer;
    return tracer;
  }

  struct Buffer {
    int tid = 0;
    std::vector<Span> spans;
    std::vector<int> open;  // indices of spans not yet closed, innermost last
  };

  // The calling thread's buffer, registered on first use.
  Buffer& local() {
    thread_local Buffer* buf = nullptr;
    thread_local std::uint64_t generation = 0;
    if (!buf || generation != generation_) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      buf = buffers_.back().get();
      buf->tid = static_cast<int>(buffers_.size());
      generation = generation_;
    }
    return *buf;
  }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  // Drops every recorded span. Only call while no thread is recording.
  void reset() {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.clear();
    ++generation_;
  }

  // Every closed span with its self time. Only call while no thread is
  // recording (after the client threads joined).
  std::vector<SpanView> collect() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SpanView> out;
    for (const auto& buf : buffers_) {
      const std::size_t base = out.size();
      for (const Span& s : buf->spans)
        out.push_back({s, buf->tid, s.ms()});
      for (const Span& s : buf->spans)
        if (s.parent >= 0)
          out[base + static_cast<std::size_t>(s.parent)].self_ms -= s.ms();
    }
    return out;
  }

  // Writes every span as a Chrome trace-event "X" (complete) event.
  bool write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [", f);
    bool first = true;
    for (const SpanView& v : collect()) {
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"op\": %llu, \"bytes\": %llu, "
                   "\"self_ms\": %.6f}}",
                   first ? "" : ",", v.span.name, v.span.layer, v.tid,
                   static_cast<double>(v.span.begin_ns) * 1e-3,
                   static_cast<double>(v.span.end_ns - v.span.begin_ns) * 1e-3,
                   static_cast<unsigned long long>(v.span.op),
                   static_cast<unsigned long long>(v.span.bytes), v.self_ms);
      first = false;
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;

  Tracer() : epoch_(Clock::now()) {}

  const Clock::time_point epoch_;
  mutable std::mutex mu_;  // guards buffers_ and generation_
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::uint64_t generation_ = 0;
};

// Opens a span on construction and closes it on destruction. Span names
// and layers must be string literals (the buffers keep the pointers).
class SpanScope {
 public:
  SpanScope(const char* name, const char* layer, std::uint64_t op,
            std::uint64_t bytes = 0)
      : buf_(&Tracer::global().local()) {
    index_ = static_cast<int>(buf_->spans.size());
    Span s;
    s.name = name;
    s.layer = layer;
    s.op = op;
    s.parent = buf_->open.empty() ? -1 : buf_->open.back();
    s.bytes = bytes;
    s.begin_ns = Tracer::global().now_ns();
    buf_->spans.push_back(s);
    buf_->open.push_back(index_);
  }
  ~SpanScope() {
    buf_->spans[static_cast<std::size_t>(index_)].end_ns =
        Tracer::global().now_ns();
    buf_->open.pop_back();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer::Buffer* buf_;
  int index_ = 0;
};

// Runs `fn` inside a span and returns its result. `bytes` is the size of
// the data the call consumes.
template <typename F>
decltype(auto) traced(const char* name, const char* layer, std::uint64_t op,
                      std::uint64_t bytes, F&& fn) {
  SpanScope scope(name, layer, op, bytes);
  return std::forward<F>(fn)();
}

template <typename F>
decltype(auto) traced(const char* name, const char* layer, std::uint64_t op,
                      F&& fn) {
  return traced(name, layer, op, 0, std::forward<F>(fn));
}

}  // namespace e2e
