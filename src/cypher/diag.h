#ifndef MBQ_CYPHER_DIAG_H_
#define MBQ_CYPHER_DIAG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mbq::cypher {

/// A position in the query text, shared by lexer/parser error messages
/// and the semantic analyzer's diagnostics. Line and column are 1-based;
/// line 0 marks an unknown position (e.g. a synthesized expression).
struct SourceSpan {
  size_t offset = 0;
  uint32_t line = 0;
  uint32_t column = 0;

  bool known() const { return line != 0; }
  /// "line L, column C" (or "<unknown position>").
  std::string ToString() const;
};

/// Diagnostic severity, ordered from mildest to most severe.
enum class Severity : uint8_t { kHint = 0, kWarning = 1, kError = 2 };

const char* SeverityName(Severity severity);

/// One finding of the semantic analyzer: a rule name (the lint
/// catalogue's stable identifier, e.g. "unknown-label"), a severity, a
/// human-readable message and the source span it anchors to.
struct Diagnostic {
  Severity severity = Severity::kWarning;
  std::string rule;
  std::string message;
  SourceSpan span;

  /// "error[unknown-label] line 1, column 8: unknown label 'usr' ...".
  std::string ToString() const;
};

/// The session's enforcement threshold for semantic diagnostics
/// (SessionOptions::lint_level). kOff never blocks; the other levels
/// refuse to plan/execute a query carrying a diagnostic at or above the
/// named severity. LINT and EXPLAIN are analysis verbs and always run.
enum class LintLevel : uint8_t {
  kOff = 0,      ///< analyze, report, never refuse
  kError = 1,    ///< strict mode: refuse error-level queries
  kWarning = 2,  ///< additionally refuse warnings
  kHint = 3,     ///< pedantic: refuse hints too
};

/// True when `level` refuses queries carrying `severity` diagnostics.
bool LintLevelBlocks(LintLevel level, Severity severity);

/// The analyzer's output: diagnostics in source order (most severe first
/// on ties is NOT guaranteed; callers sort if they need to).
struct AnalysisResult {
  std::vector<Diagnostic> diagnostics;

  bool empty() const { return diagnostics.empty(); }
  /// Highest severity present; kHint when empty.
  Severity max_severity() const;
  bool has_errors() const { return max_severity() == Severity::kError; }
  /// True when `level` refuses a query with these diagnostics.
  bool BlockedAt(LintLevel level) const;
  /// One Diagnostic::ToString() line per finding (trailing newline).
  std::string ToText() const;
};

}  // namespace mbq::cypher

#endif  // MBQ_CYPHER_DIAG_H_
