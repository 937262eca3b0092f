#include "trace.h"

#include <fstream>
#include <stdexcept>

namespace perfbench {

// One Tracer lives per process, and parallel_for joins its workers on
// every call, so a thread's cached buffer never outlives its Tracer.
thread_local Tracer::Buffer* Tracer::thread_buffer_ = nullptr;

Tracer::Tracer() : epoch_(Clock::now()) {}

std::uint32_t Tracer::intern(const std::string& name) {
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

Tracer::Buffer& Tracer::buffer() {
  if (thread_buffer_ == nullptr) {
    std::lock_guard<std::mutex> lock(buffers_mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->thread = static_cast<std::uint32_t>(buffers_.size() - 1);
    buffers_.back()->spans.reserve(1 << 12);
    thread_buffer_ = buffers_.back().get();
  }
  return *thread_buffer_;
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::int64_t Tracer::current_span() {
  Buffer& buf = buffer();
  return buf.open.empty() ? ambient_parent_
                          : id_of(buf.thread, buf.open.back());
}

Tracer::Span::Span(Tracer& tracer, std::uint32_t name, std::int64_t run)
    : tracer_(tracer) {
  Buffer& buf = tracer.buffer();
  SpanRecord record;
  record.name = name;
  record.thread = buf.thread;
  if (buf.open.empty()) {
    record.parent = tracer.ambient_parent_;
  } else {
    record.parent = id_of(buf.thread, buf.open.back());
    if (run < 0) run = buf.spans[buf.open.back()].run;
  }
  record.run = run;
  index_ = static_cast<std::uint32_t>(buf.spans.size());
  buf.open.push_back(index_);
  record.start_ns = tracer.now_ns();
  buf.spans.push_back(record);
}

Tracer::Span::~Span() {
  const std::int64_t end = tracer_.now_ns();
  Buffer& buf = tracer_.buffer();
  buf.spans[index_].end_ns = end;
  buf.open.pop_back();
}

TraceSummary Tracer::summarize() const {
  TraceSummary summary;
  for (const auto& buf : buffers_) {
    if (!buf->open.empty()) {
      throw std::logic_error("Tracer::summarize: spans still open");
    }
    // Self time subtracts only same-thread children: a task's parent is
    // the session.run span on the main thread, which merely waits.
    std::vector<std::int64_t> child_ns(buf->spans.size(), 0);
    for (const SpanRecord& span : buf->spans) {
      if (span.parent >= 0 &&
          static_cast<std::uint32_t>(span.parent >> 32) == buf->thread) {
        child_ns[static_cast<std::size_t>(span.parent & 0xffffffff)] +=
            span.end_ns - span.start_ns;
      }
    }
    for (std::size_t i = 0; i < buf->spans.size(); ++i) {
      const SpanRecord& span = buf->spans[i];
      const double total = 1e-9 * static_cast<double>(span.end_ns -
                                                      span.start_ns);
      const double self = total - 1e-9 * static_cast<double>(child_ns[i]);
      const std::string& name = names_[span.name];
      ++summary.spans;
      if (name == kRoot) {
        summary.thread_s += total;
        summary.unattributed_s += self;
      } else if (name == kParallel) {
        summary.thread_s -= total;
      } else if (name == kTask) {
        summary.thread_s += total;
        summary.task_s += total;
        summary.unattributed_s += self;
      } else {
        NameTotals& totals = summary.by_name[name];
        totals.self_s += self;
        totals.total_s += total;
        ++totals.count;
      }
    }
  }
  return summary;
}

void Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  out << "thread,span,parent_thread,parent_span,run,name,start_ns,end_ns\n";
  for (const auto& buf : buffers_) {
    for (std::size_t i = 0; i < buf->spans.size(); ++i) {
      const SpanRecord& span = buf->spans[i];
      out << span.thread << ',' << i << ',';
      if (span.parent >= 0) {
        out << (span.parent >> 32) << ',' << (span.parent & 0xffffffff);
      } else {
        out << ",";
      }
      out << ',' << span.run << ',' << names_[span.name] << ','
          << span.start_ns << ',' << span.end_ns << '\n';
    }
  }
  out.close();
  if (!out) throw std::runtime_error("cannot write span file '" + path + "'");
}

}  // namespace perfbench
