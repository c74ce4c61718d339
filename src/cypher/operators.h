#ifndef MBQ_CYPHER_OPERATORS_H_
#define MBQ_CYPHER_OPERATORS_H_

#include <atomic>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cypher/runtime.h"
#include "nodestore/traversal.h"

namespace mbq::cypher {

/// Pull-based physical operator. Open() resets state; Next() produces one
/// row or signals exhaustion. Every operator tracks the rows it produced
/// and the db hits charged while it was running (inclusive of its
/// children, since the counter delta spans the whole Next call), for
/// PROFILE output.
class Operator {
 public:
  virtual ~Operator() = default;

  virtual Status Open(ExecContext* ctx) = 0;
  /// Returns true and fills `out` with the next row, or false at the end.
  virtual Result<bool> Next(Row* out) = 0;
  /// Operator name with its key argument, e.g. "NodeIndexSeek(:user.uid)".
  virtual std::string Describe() const = 0;

  /// Fresh operator with the same configuration but pristine runtime
  /// state, over `child` (ignored by leaves). Cached plans are shared
  /// across threads, so every execution clones the plan tree first.
  virtual std::unique_ptr<Operator> CloneWithChild(
      std::unique_ptr<Operator> child) const = 0;

  /// Deep-clones this operator and its children.
  std::unique_ptr<Operator> CloneTree() const;

  uint64_t rows_produced() const { return rows_produced_; }
  uint64_t db_hits() const { return db_hits_; }
  Operator* child() const { return child_.get(); }

  /// Pulls everything into `rows` (testing / pipeline breakers).
  Status Drain(std::vector<Row>* rows);

  /// Folds a clone's profile back into this operator — how the parallel
  /// executor attributes worker-pipeline rows/db-hits to the plan ops the
  /// user sees in PROFILE.
  void AbsorbStats(const Operator& other) {
    rows_produced_ += other.rows_produced_;
    db_hits_ += other.db_hits_;
  }
  void AddDbHits(uint64_t hits) { db_hits_ += hits; }

  /// Annotates PROFILE output with the worker count that executed this
  /// operator (shown as `par=N`); 0 means sequential.
  void MarkParallel(uint32_t workers) { parallel_workers_ = workers; }
  uint32_t parallel_workers() const { return parallel_workers_; }

  /// Zeroes the rows/db-hits profile of this operator and its subtree —
  /// called per execution so PROFILE output covers one run.
  virtual void ResetStatsTree() {
    rows_produced_ = 0;
    db_hits_ = 0;
    parallel_workers_ = 0;
    if (child_ != nullptr) child_->ResetStatsTree();
  }

 protected:
  /// Helper for subclasses: pulls one row from the child while
  /// attributing its db hits to the child (the counter delta bookkeeping
  /// happens in the child's own NextTracked call).
  Result<bool> ChildNext(Row* out) { return child_->NextTracked(out); }

  std::unique_ptr<Operator> child_;
  ExecContext* ctx_ = nullptr;
  uint64_t rows_produced_ = 0;
  uint64_t db_hits_ = 0;
  uint32_t parallel_workers_ = 0;

 public:
  /// Next() wrapped with rows/db-hit accounting. The session calls this
  /// on the root; operators call it on their children via ChildNext.
  Result<bool> NextTracked(Row* out);
};

/// Emits one empty row (the start of an expansion pipeline with no scan).
class SingleRow : public Operator {
 public:
  explicit SingleRow(uint32_t width) : width_(width) {}
  Status Open(ExecContext* ctx) override;
  Result<bool> Next(Row* out) override;
  std::string Describe() const override { return "SingleRow"; }
  std::unique_ptr<Operator> CloneWithChild(
      std::unique_ptr<Operator> child) const override;

 private:
  uint32_t width_;
  bool done_ = false;
};

/// Scans all nodes with a label via the label scan store.
class NodeLabelScan : public Operator {
 public:
  NodeLabelScan(uint32_t slot, uint32_t width, std::string label)
      : slot_(slot), width_(width), label_(std::move(label)) {}
  Status Open(ExecContext* ctx) override;
  Result<bool> Next(Row* out) override;
  std::string Describe() const override {
    return "NodeByLabelScan(:" + label_ + ")";
  }
  std::unique_ptr<Operator> CloneWithChild(
      std::unique_ptr<Operator> child) const override;

 private:
  uint32_t slot_;
  uint32_t width_;
  std::string label_;
  std::vector<NodeId> buffer_;
  size_t index_ = 0;
};

/// Seeks nodes by (label, property = value) through an index.
class NodeIndexSeek : public Operator {
 public:
  NodeIndexSeek(uint32_t slot, uint32_t width, std::string label,
                std::string property, const Expr* value)
      : slot_(slot),
        width_(width),
        label_(std::move(label)),
        property_(std::move(property)),
        value_(value) {}
  Status Open(ExecContext* ctx) override;
  Result<bool> Next(Row* out) override;
  std::string Describe() const override {
    return "NodeIndexSeek(:" + label_ + "." + property_ + ")";
  }
  std::unique_ptr<Operator> CloneWithChild(
      std::unique_ptr<Operator> child) const override;

 private:
  uint32_t slot_;
  uint32_t width_;
  std::string label_;
  std::string property_;
  const Expr* value_;
  std::vector<NodeId> buffer_;
  size_t index_ = 0;
};

/// Expands one hop from a bound node slot, writing the reached node (and
/// optionally the relationship) into new slots. With `into_bound` the
/// target slot is already bound and the expansion filters to it
/// (ExpandInto).
class Expand : public Operator {
 public:
  Expand(std::unique_ptr<Operator> child, uint32_t from_slot, uint32_t to_slot,
         std::optional<uint32_t> rel_slot, std::string rel_type,
         nodestore::Direction dir, bool into_bound)
      : from_slot_(from_slot),
        to_slot_(to_slot),
        rel_slot_(rel_slot),
        rel_type_(std::move(rel_type)),
        dir_(dir),
        into_bound_(into_bound) {
    child_ = std::move(child);
  }
  Status Open(ExecContext* ctx) override;
  Result<bool> Next(Row* out) override;
  std::string Describe() const override {
    return std::string(into_bound_ ? "Expand(Into" : "Expand(All") +
           (rel_type_.empty() ? "" : ", :" + rel_type_) + ")";
  }
  std::unique_ptr<Operator> CloneWithChild(
      std::unique_ptr<Operator> child) const override;

 private:
  Status RefillFromRow();

  uint32_t from_slot_;
  uint32_t to_slot_;
  std::optional<uint32_t> rel_slot_;
  std::string rel_type_;
  nodestore::Direction dir_;
  bool into_bound_;
  std::optional<nodestore::RelTypeId> resolved_type_;
  bool type_unknown_ = false;
  Row current_row_;
  bool have_row_ = false;
  std::vector<GraphDb::RelInfo> matches_;
  size_t match_index_ = 0;
};

/// Variable-length expansion ([*min..max]) with per-path node uniqueness.
class VarLengthExpand : public Operator {
 public:
  VarLengthExpand(std::unique_ptr<Operator> child, uint32_t from_slot,
                  uint32_t to_slot, std::string rel_type,
                  nodestore::Direction dir, uint32_t min_hops,
                  uint32_t max_hops)
      : from_slot_(from_slot),
        to_slot_(to_slot),
        rel_type_(std::move(rel_type)),
        dir_(dir),
        min_hops_(min_hops),
        max_hops_(max_hops) {
    child_ = std::move(child);
  }
  Status Open(ExecContext* ctx) override;
  Result<bool> Next(Row* out) override;
  std::string Describe() const override {
    return "VarLengthExpand(:" + rel_type_ + "*" + std::to_string(min_hops_) +
           ".." + std::to_string(max_hops_) + ")";
  }
  std::unique_ptr<Operator> CloneWithChild(
      std::unique_ptr<Operator> child) const override;

 private:
  Status RefillFromRow();

  uint32_t from_slot_;
  uint32_t to_slot_;
  std::string rel_type_;
  nodestore::Direction dir_;
  uint32_t min_hops_;
  uint32_t max_hops_;
  std::optional<nodestore::RelTypeId> resolved_type_;
  bool type_unknown_ = false;
  Row current_row_;
  bool have_row_ = false;
  std::vector<NodeId> reached_;  // targets for the current input row
  size_t reach_index_ = 0;
};

/// Keeps rows satisfying a predicate expression.
class Filter : public Operator {
 public:
  Filter(std::unique_ptr<Operator> child, const Expr* predicate,
         const SlotMap* slots)
      : predicate_(predicate), slots_(slots) {
    child_ = std::move(child);
  }
  Status Open(ExecContext* ctx) override;
  Result<bool> Next(Row* out) override;
  std::string Describe() const override { return "Filter"; }
  std::unique_ptr<Operator> CloneWithChild(
      std::unique_ptr<Operator> child) const override;

 private:
  const Expr* predicate_;
  const SlotMap* slots_;
};

/// Keeps rows whose slot holds a node with the given label.
class LabelFilter : public Operator {
 public:
  LabelFilter(std::unique_ptr<Operator> child, uint32_t slot,
              std::string label)
      : slot_(slot), label_(std::move(label)) {
    child_ = std::move(child);
  }
  Status Open(ExecContext* ctx) override;
  Result<bool> Next(Row* out) override;
  std::string Describe() const override {
    return "Filter(label :" + label_ + ")";
  }
  std::unique_ptr<Operator> CloneWithChild(
      std::unique_ptr<Operator> child) const override;

 private:
  uint32_t slot_;
  std::string label_;
  std::optional<nodestore::LabelId> resolved_;
  bool label_unknown_ = false;
};

/// Computes shortest paths between two bound node slots, writing the path
/// into a slot (rows with no path are dropped, as with Cypher's
/// shortestPath when the pattern is mandatory).
class ShortestPathOp : public Operator {
 public:
  ShortestPathOp(std::unique_ptr<Operator> child, uint32_t src_slot,
                 uint32_t dst_slot, uint32_t path_slot, std::string rel_type,
                 nodestore::Direction dir, uint32_t max_hops)
      : src_slot_(src_slot),
        dst_slot_(dst_slot),
        path_slot_(path_slot),
        rel_type_(std::move(rel_type)),
        dir_(dir),
        max_hops_(max_hops) {
    child_ = std::move(child);
  }
  Status Open(ExecContext* ctx) override;
  Result<bool> Next(Row* out) override;
  std::string Describe() const override {
    return "ShortestPath(:" + rel_type_ + "*.." + std::to_string(max_hops_) +
           ")";
  }
  std::unique_ptr<Operator> CloneWithChild(
      std::unique_ptr<Operator> child) const override;

 private:
  uint32_t src_slot_;
  uint32_t dst_slot_;
  uint32_t path_slot_;
  std::string rel_type_;
  nodestore::Direction dir_;
  uint32_t max_hops_;
  std::optional<nodestore::RelTypeId> resolved_type_;
};

/// Grouped aggregation (pipeline breaker). Output rows are
/// [group keys..., aggregate values...]; without grouping keys there is
/// exactly one output row, also over no input rows. When the ExecContext
/// carries a
/// thread pool and the input chain is a parallelizable pipeline (scans,
/// expands and filters only), Materialize fans the input out over worker
/// threads and merges the partial groups (see cypher/parallel.h).
class Aggregate : public Operator {
 public:
  struct AggItem {
    /// Aggregated expression; nullptr means COUNT(*).
    const Expr* arg = nullptr;
    AggFunc func = AggFunc::kCount;
    bool distinct = false;
  };

  /// Running state of one aggregate within one group.
  struct AggState {
    uint64_t count = 0;
    int64_t isum = 0;
    double dsum = 0;
    bool saw_double = false;
    bool has_best = false;
    RtValue best;
    std::unordered_set<Row, RowHash, RowEq> distinct;
  };
  struct GroupState {
    Row keys;
    std::vector<AggState> aggs;
  };

  Aggregate(std::unique_ptr<Operator> child,
            std::vector<const Expr*> group_exprs, std::vector<AggItem> aggs,
            const SlotMap* slots)
      : group_exprs_(std::move(group_exprs)),
        aggs_(std::move(aggs)),
        slots_(slots) {
    child_ = std::move(child);
  }
  Status Open(ExecContext* ctx) override;
  Result<bool> Next(Row* out) override;
  std::string Describe() const override {
    return "EagerAggregation(" + std::to_string(group_exprs_.size()) +
           " keys, " + std::to_string(aggs_.size()) + " aggregates)";
  }
  std::unique_ptr<Operator> CloneWithChild(
      std::unique_ptr<Operator> child) const override;

  /// Childless clone used by worker threads as a partial-group collector.
  std::unique_ptr<Aggregate> CloneCollector() const;
  /// Folds `row` into the group table (ctx passed explicitly so worker
  /// threads can use their own context).
  Status AccumulateRow(const Row& row, ExecContext* ctx);
  /// Merges another collector's partial groups into this one.
  Status MergeFrom(Aggregate* other);
  /// Converts the group table into output rows.
  Status FinalizeGroups();

 private:
  Status Materialize();

  std::vector<const Expr*> group_exprs_;
  std::vector<AggItem> aggs_;
  const SlotMap* slots_;
  std::unordered_map<Row, GroupState, RowHash, RowEq> groups_;
  bool materialized_ = false;
  std::vector<Row> output_;
  size_t index_ = 0;
};

/// Projects expressions into a fresh row layout (the RETURN clause).
class Projection : public Operator {
 public:
  Projection(std::unique_ptr<Operator> child,
             std::vector<const Expr*> exprs, const SlotMap* slots)
      : exprs_(std::move(exprs)), slots_(slots) {
    child_ = std::move(child);
  }
  Status Open(ExecContext* ctx) override;
  Result<bool> Next(Row* out) override;
  std::string Describe() const override {
    return "Projection(" + std::to_string(exprs_.size()) + " columns)";
  }
  std::unique_ptr<Operator> CloneWithChild(
      std::unique_ptr<Operator> child) const override;

 private:
  std::vector<const Expr*> exprs_;
  const SlotMap* slots_;
};

/// Sorts materialized rows by column indices (pipeline breaker).
class Sort : public Operator {
 public:
  struct Key {
    uint32_t column;
    bool ascending;
  };
  Sort(std::unique_ptr<Operator> child, std::vector<Key> keys)
      : keys_(std::move(keys)) {
    child_ = std::move(child);
  }
  Status Open(ExecContext* ctx) override;
  Result<bool> Next(Row* out) override;
  std::string Describe() const override {
    return "Sort(" + std::to_string(keys_.size()) + " keys)";
  }
  std::unique_ptr<Operator> CloneWithChild(
      std::unique_ptr<Operator> child) const override;

 private:
  std::vector<Key> keys_;
  bool materialized_ = false;
  std::vector<Row> output_;
  size_t index_ = 0;
};

/// Passes at most N rows through (early exit).
class Limit : public Operator {
 public:
  Limit(std::unique_ptr<Operator> child, const Expr* count_expr,
        const SlotMap* slots)
      : count_expr_(count_expr), slots_(slots) {
    child_ = std::move(child);
  }
  Status Open(ExecContext* ctx) override;
  Result<bool> Next(Row* out) override;
  std::string Describe() const override { return "Limit"; }
  std::unique_ptr<Operator> CloneWithChild(
      std::unique_ptr<Operator> child) const override;

 private:
  const Expr* count_expr_;
  const SlotMap* slots_;
  uint64_t remaining_ = 0;
};

/// Drops duplicate rows (hash-based).
class Distinct : public Operator {
 public:
  explicit Distinct(std::unique_ptr<Operator> child) {
    child_ = std::move(child);
  }
  Status Open(ExecContext* ctx) override;
  Result<bool> Next(Row* out) override;
  std::string Describe() const override { return "Distinct"; }
  std::unique_ptr<Operator> CloneWithChild(
      std::unique_ptr<Operator> child) const override;

 private:
  std::unordered_set<Row, RowHash, RowEq> seen_;
};

/// Nested-loop combination of two independent sub-plans: for every left
/// row, the right plan is re-opened and its rows merged in (slots are
/// disjoint; the merged row takes non-null slots from both sides).
class Apply : public Operator {
 public:
  Apply(std::unique_ptr<Operator> left, std::unique_ptr<Operator> right)
      : right_(std::move(right)) {
    child_ = std::move(left);
  }
  Status Open(ExecContext* ctx) override;
  Result<bool> Next(Row* out) override;
  std::string Describe() const override { return "Apply"; }
  std::unique_ptr<Operator> CloneWithChild(
      std::unique_ptr<Operator> child) const override;
  Operator* right() const { return right_.get(); }
  void ResetStatsTree() override {
    Operator::ResetStatsTree();
    if (right_ != nullptr) right_->ResetStatsTree();
  }

 private:
  std::unique_ptr<Operator> right_;
  Row left_row_;
  bool have_left_ = false;
};

/// Replays rows from a shared in-memory buffer — the source under worker
/// pipelines in morsel-parallel execution. With a shared atomic cursor,
/// concurrent instances claim disjoint morsels of `grain` rows each; with
/// a null cursor a single instance serves the whole buffer in order.
class RowBufferSource : public Operator {
 public:
  RowBufferSource(std::shared_ptr<const std::vector<Row>> rows,
                  std::shared_ptr<std::atomic<size_t>> cursor, size_t grain)
      : rows_(std::move(rows)), cursor_(std::move(cursor)), grain_(grain) {}
  Status Open(ExecContext* ctx) override;
  Result<bool> Next(Row* out) override;
  std::string Describe() const override { return "RowBuffer"; }
  std::unique_ptr<Operator> CloneWithChild(
      std::unique_ptr<Operator> child) const override;

 private:
  std::shared_ptr<const std::vector<Row>> rows_;
  std::shared_ptr<std::atomic<size_t>> cursor_;
  size_t grain_;
  size_t morsel_pos_ = 0;
  size_t morsel_end_ = 0;
};

/// Renders a plan tree as an indented string (PROFILE output).
std::string DescribePlanTree(const Operator& root, int indent = 0);

/// Renders the plan tree shape only — operator names without rows/db-hits
/// (EXPLAIN output: the query was compiled but never executed).
std::string DescribePlanShape(const Operator& root, int indent = 0);

}  // namespace mbq::cypher

#endif  // MBQ_CYPHER_OPERATORS_H_
