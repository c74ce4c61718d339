#ifndef MBQ_CYPHER_PLANNER_H_
#define MBQ_CYPHER_PLANNER_H_

#include <memory>
#include <string>
#include <vector>

#include "cypher/ast.h"
#include "cypher/operators.h"
#include "cypher/runtime.h"

namespace mbq::cypher {

/// A compiled, executable query: the operator tree plus everything it
/// borrows (the AST and synthesized expressions). Plans are cached by
/// query text and re-executed with fresh parameters; Open() resets all
/// operator state.
struct PlannedQuery {
  Query ast;                                // owned; operators point into it
  std::vector<ExprPtr> synthesized;         // planner-made filter exprs
  SlotMap slots;                            // variable -> slot
  SlotMap output_slots;                     // post-projection column refs
  uint32_t width = 0;                       // match-phase row width
  std::vector<std::string> columns;         // visible output column names
  std::unique_ptr<Operator> root;
  /// Epoch footprint for the result cache: the label/rel-type domains
  /// this query reads (cache::LabelDomain / cache::RelTypeDomain).
  /// `epoch_use_global` marks an inexact footprint — an unlabelled node,
  /// an untyped relationship, or a name unknown at plan time — in which
  /// case cached results validate against the global epoch instead (any
  /// write invalidates).
  std::vector<uint32_t> epoch_domains;
  bool epoch_use_global = false;
  /// True for CREATE/SET/DELETE queries: the root is a WriteClause
  /// operator that lowers them to a WriteBatch and emits one summary row.
  /// The session commits the batch through the engine's writer, and
  /// never serves or stores these through the result cache.
  bool is_write = false;
  /// Semantic diagnostics from the analyzer pass (cypher/semantic.h),
  /// attached by the session at compile time; EXPLAIN/PROFILE prepend
  /// them and strict mode re-checks them on plan-cache hits.
  std::vector<Diagnostic> diagnostics;

  /// Renders the (profiled) plan tree.
  std::string Explain() const;
};

/// Compiles a parsed query against the database's current schema (index
/// availability decides between index seeks and label scans, as Cypher's
/// planner does).
Result<std::unique_ptr<PlannedQuery>> PlanQuery(Query query, GraphDb* db);

}  // namespace mbq::cypher

#endif  // MBQ_CYPHER_PLANNER_H_
