// In-memory span recorder for the traced run.
//
// Spans are taken from outside the simulator, around the driver's calls into
// a layer's public functions; nothing inside src/ is instrumented. A span's
// name is "<layer>.<call>[.<detail>]" and its layer is the part before the
// first dot. Spans stay in memory and are written out once, when the run
// exits, so recording a span costs two clock reads and a vector push.
#pragma once

#include <chrono>
#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;  // static storage
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  // index into Tracer::spans(), -1 for a root span
  std::int64_t op;      // op id; set-up repetition r is -(r + 1)
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_op(std::int64_t op) { op_ = op; }

  std::int32_t open(const char* name) {
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, now_ns(), 0,
                      open_.empty() ? -1 : open_.back(), op_});
    open_.push_back(id);
    return id;
  }
  void close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  std::int64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Records one span when the tracer is enabled; costs a branch otherwise.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.enabled() ? tracer.open(name) : -1) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() {
    if (id_ >= 0) tracer_.close(id_);
  }

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

inline std::string_view span_layer(std::string_view name) {
  return name.substr(0, name.find('.'));
}

}  // namespace perfbench
