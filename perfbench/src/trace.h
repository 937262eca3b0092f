// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code around calls into the
// library's public entry points; nothing inside libmrca is instrumented.
// Each thread appends to its own buffer (registration takes a lock once
// per thread, recording takes none), and the buffers are read only after
// every worker has joined.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One finished span. `parent` is a global span id (see Tracer::id_of) or
/// -1; `run` is the sweep task index the span belongs to, or -1.
struct SpanRecord {
  std::uint32_t name = 0;
  std::uint32_t thread = 0;
  std::int64_t parent = -1;
  std::int64_t run = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-name totals of a finished trace.
struct NameTotals {
  double self_s = 0.0;
  double total_s = 0.0;
  std::size_t count = 0;
};

/// The trace folded into self times. `thread_s` is the time the spans
/// account for: the root span's serial part (its duration minus the
/// "session.run" span that waits for the workers) plus every "task" span.
/// `unattributed_s` is the part of it no layer span covers (root and task
/// self time), so thread_s == unattributed_s + sum of layer self times.
struct TraceSummary {
  std::map<std::string, NameTotals> by_name;
  double thread_s = 0.0;
  double unattributed_s = 0.0;
  double task_s = 0.0;
  std::size_t spans = 0;
};

class Tracer {
 public:
  static constexpr const char* kRoot = "sweep";
  static constexpr const char* kParallel = "session.run";
  static constexpr const char* kTask = "task";

  /// At most one Tracer may exist per process: each thread caches its
  /// buffer for the life of the process.
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Name id for `name`. Call before any thread records with it.
  std::uint32_t intern(const std::string& name);

  /// RAII span on the calling thread.
  class Span {
   public:
    Span(Tracer& tracer, std::uint32_t name, std::int64_t run = -1);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    std::uint32_t index_;
  };

  /// Parent given to the first span a fresh worker thread opens.
  void set_ambient_parent(std::int64_t id) { ambient_parent_ = id; }
  /// Global id of the calling thread's innermost open span, or -1.
  std::int64_t current_span();

  /// Folds every buffer into self times. Call after all workers joined.
  TraceSummary summarize() const;
  /// Writes every span as CSV (one line per span).
  void write_csv(const std::string& path) const;

 private:
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<SpanRecord> spans;
    std::vector<std::uint32_t> open;
  };

  Buffer& buffer();
  static std::int64_t id_of(std::uint32_t thread, std::uint32_t index) {
    return (static_cast<std::int64_t>(thread) << 32) | index;
  }
  std::int64_t now_ns() const;

  static thread_local Buffer* thread_buffer_;
  const Clock::time_point epoch_;
  std::int64_t ambient_parent_ = -1;
  std::vector<std::string> names_;
  std::mutex buffers_mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace perfbench
