#ifndef MBQ_OBS_TRACE_H_
#define MBQ_OBS_TRACE_H_

#include <cstdint>
#include <optional>
#include <string>

#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "util/clock.h"

namespace mbq::obs {

/// RAII scoped timer. On destruction (or Finish()) it records the elapsed
/// nanoseconds into the Histogram (which may be null). A named span also
/// lands in the process-wide SpanRecorder, so the stats server's /trace
/// and /trace.json cover import phases out of the box. It opens a child
/// of the active TraceContext, or a fresh root when none is active, for
/// its extent, so every span it encloses (including RPCs) nests under it
/// by parent id.
class TraceSpan {
 public:
  explicit TraceSpan(std::string name, Histogram* latency = nullptr);
  explicit TraceSpan(Histogram* latency);
  ~TraceSpan() { Finish(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void Finish();

 private:
  Histogram* latency_ = nullptr;
  std::string name_;  // non-empty spans forward to SpanRecorder::Global()
  /// The span's own context, held open until Finish().
  std::optional<ScopedTraceContext> trace_scope_;
  uint64_t start_nanos_ = 0;
  bool finished_ = false;
  WallClock clock_;
};

}  // namespace mbq::obs

#endif  // MBQ_OBS_TRACE_H_
