#include "obs/trace.h"

#include <utility>

#include "obs/introspect.h"

namespace mbq::obs {

TraceSpan::TraceSpan(std::string name, Histogram* latency)
    : latency_(latency), name_(std::move(name)) {
  if (!name_.empty()) trace_scope_.emplace(ChildOrRootContext());
  start_nanos_ = clock_.NowNanos();
}

TraceSpan::TraceSpan(Histogram* latency) : latency_(latency) {
  start_nanos_ = clock_.NowNanos();
}

void TraceSpan::Finish() {
  if (finished_) return;
  finished_ = true;
  uint64_t elapsed = clock_.NowNanos() - start_nanos_;
  if (latency_ != nullptr) latency_->Record(elapsed);
  if (!name_.empty()) {
    // Record while the child context is still installed so the span
    // carries its own span id, then pop the context.
    SpanRecorder::Global().Record(name_, "import", start_nanos_, elapsed);
  }
  trace_scope_.reset();
}

}  // namespace mbq::obs
