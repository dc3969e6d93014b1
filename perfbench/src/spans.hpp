// In-memory span recorder for the benchmark's traced runs.
//
// Spans are opened and closed from the benchmark's own code around calls into
// the library's public seams; nothing inside the library is instrumented.
// Each span carries a name, start and end (steady-clock seconds since the
// recorder was created), its parent span and the id of the query (request)
// it belongs to. Spans stay in memory until write_json() at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace eim::perfbench {

class SpanRecorder {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNoParent = std::numeric_limits<Id>::max();

  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  Id open(std::string name, Id parent, std::uint64_t request) {
    spans_.push_back(Span{std::move(name), now(), -1.0, parent, request});
    return static_cast<Id>(spans_.size() - 1);
  }
  void close(Id id) { spans_[id].end = now(); }

  [[nodiscard]] double duration(Id id) const { return spans_[id].end - spans_[id].start; }

  /// Summed duration of the direct children of `parent` called `name`.
  [[nodiscard]] double children_seconds(Id parent, std::string_view name) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.parent == parent && s.name == name) total += s.end - s.start;
    }
    return total;
  }

  /// {"spans":[{"id":0,"name":"query","request":1,"parent":null,
  ///            "start_s":0.1,"end_s":2.3}, ...]}
  void write_json(std::ostream& out) const {
    out.precision(17);
    out << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",") << "\n{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"request\":" << s.request << ",\"parent\":";
      if (s.parent == kNoParent) {
        out << "null";
      } else {
        out << s.parent;
      }
      out << ",\"start_s\":" << s.start << ",\"end_s\":" << s.end << "}";
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    Id parent;
    std::uint64_t request;
  };

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, SpanRecorder::Id parent,
             std::uint64_t request)
      : rec_(&rec), id_(rec.open(std::move(name), parent, request)) {}
  ~ScopedSpan() { rec_->close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] SpanRecorder::Id id() const noexcept { return id_; }

 private:
  SpanRecorder* rec_;
  SpanRecorder::Id id_;
};

}  // namespace eim::perfbench
