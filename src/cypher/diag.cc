#include "cypher/diag.h"

namespace mbq::cypher {

std::string SourceSpan::ToString() const {
  if (!known()) return "<unknown position>";
  return "line " + std::to_string(line) + ", column " + std::to_string(column);
}

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kHint:
      return "hint";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "unknown";
}

std::string Diagnostic::ToString() const {
  std::string out = SeverityName(severity);
  out += "[";
  out += rule;
  out += "] ";
  if (span.known()) {
    out += span.ToString();
    out += ": ";
  }
  out += message;
  return out;
}

bool LintLevelBlocks(LintLevel level, Severity severity) {
  switch (level) {
    case LintLevel::kOff:
      return false;
    case LintLevel::kError:
      return severity >= Severity::kError;
    case LintLevel::kWarning:
      return severity >= Severity::kWarning;
    case LintLevel::kHint:
      return true;
  }
  return false;
}

Severity AnalysisResult::max_severity() const {
  Severity max = Severity::kHint;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity > max) max = d.severity;
  }
  return max;
}

bool AnalysisResult::BlockedAt(LintLevel level) const {
  for (const Diagnostic& d : diagnostics) {
    if (LintLevelBlocks(level, d.severity)) return true;
  }
  return false;
}

std::string AnalysisResult::ToText() const {
  std::string out;
  for (const Diagnostic& d : diagnostics) {
    out += d.ToString();
    out += '\n';
  }
  return out;
}

}  // namespace mbq::cypher
