#ifndef MBQ_TESTS_RECORDED_SPANS_H_
#define MBQ_TESTS_RECORDED_SPANS_H_

// The process-wide span ring read back the way /trace.json shows it, for
// the tests that check how spans nest by parent id.

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/introspect.h"
#include "obs/trace_context.h"

namespace mbq::obs {

/// One span of SpanRecorder::ToTraceJson(), which prints a span per line.
struct RecordedSpan {
  std::string name;
  std::string trace_id;
  std::string span_id;
  std::string parent_span_id;
};

/// The spans SpanRecorder::Global() holds, oldest first.
inline std::vector<RecordedSpan> RecordedSpans() {
  auto field = [](const std::string& line, const std::string& key) {
    const std::string open = "\"" + key + "\": \"";
    size_t at = line.find(open);
    if (at == std::string::npos) return std::string();
    at += open.size();
    return line.substr(at, line.find('"', at) - at);
  };
  std::vector<RecordedSpan> spans;
  std::istringstream json(SpanRecorder::Global().ToTraceJson());
  for (std::string line; std::getline(json, line);) {
    if (line.find("\"span_id\"") == std::string::npos) continue;
    spans.push_back({field(line, "name"), field(line, "trace_id"),
                     field(line, "span_id"), field(line, "parent_span_id")});
  }
  return spans;
}

/// The names of the spans whose parent is neither zero, nor another span
/// of `spans`, nor one of `known_parents` (hex span ids): the spans a
/// trace viewer cannot place.
inline std::vector<std::string> OrphanSpans(
    const std::vector<RecordedSpan>& spans,
    std::set<std::string> known_parents = {}) {
  known_parents.insert(SpanIdHex(0));
  for (const RecordedSpan& span : spans) known_parents.insert(span.span_id);
  std::vector<std::string> orphans;
  for (const RecordedSpan& span : spans) {
    if (known_parents.count(span.parent_span_id) == 0) {
      orphans.push_back(span.name);
    }
  }
  return orphans;
}

}  // namespace mbq::obs

#endif  // MBQ_TESTS_RECORDED_SPANS_H_
