#include "cypher/operators.h"

#include <algorithm>

#include "cache/adjacency_cache.h"
#include "cypher/parallel.h"
#include "nodestore/record_file.h"

namespace mbq::cypher {

Result<bool> Operator::NextTracked(Row* out) {
  // Thread-local deltas, not the database's global counter: parallel
  // worker pipelines each profile their own ops without seeing hits
  // charged by sibling threads.
  uint64_t before = nodestore::DbHitCounter::ThreadHits();
  Result<bool> r = Next(out);
  db_hits_ += nodestore::DbHitCounter::ThreadHits() - before;
  if (r.ok() && *r) ++rows_produced_;
  return r;
}

std::unique_ptr<Operator> Operator::CloneTree() const {
  return CloneWithChild(child_ != nullptr ? child_->CloneTree() : nullptr);
}

Status Operator::Drain(std::vector<Row>* rows) {
  Row row;
  for (;;) {
    MBQ_ASSIGN_OR_RETURN(bool more, NextTracked(&row));
    if (!more) return Status::OK();
    rows->push_back(row);
  }
}

// ---------------------------------------------------------------- SingleRow

Status SingleRow::Open(ExecContext* ctx) {
  ctx_ = ctx;
  done_ = false;
  return Status::OK();
}

Result<bool> SingleRow::Next(Row* out) {
  if (done_) return false;
  done_ = true;
  if (ctx_->outer_row != nullptr) {
    *out = *ctx_->outer_row;
  } else {
    out->assign(width_, RtValue::Null());
  }
  return true;
}

std::unique_ptr<Operator> SingleRow::CloneWithChild(
    std::unique_ptr<Operator>) const {
  return std::make_unique<SingleRow>(width_);
}

// ------------------------------------------------------------ NodeLabelScan

Status NodeLabelScan::Open(ExecContext* ctx) {
  ctx_ = ctx;
  buffer_.clear();
  index_ = 0;
  auto label = ctx->db->FindLabel(label_);
  if (!label.ok()) return Status::OK();  // no such label: empty scan
  return ctx->db->ForEachNodeWithLabel(*label, [this](NodeId id) {
    buffer_.push_back(id);
    return true;
  });
}

Result<bool> NodeLabelScan::Next(Row* out) {
  if (index_ >= buffer_.size()) return false;
  if (ctx_->outer_row != nullptr) {
    *out = *ctx_->outer_row;
  } else {
    out->assign(width_, RtValue::Null());
  }
  (*out)[slot_] = RtValue::FromNode(buffer_[index_++]);
  return true;
}

std::unique_ptr<Operator> NodeLabelScan::CloneWithChild(
    std::unique_ptr<Operator>) const {
  return std::make_unique<NodeLabelScan>(slot_, width_, label_);
}

// ------------------------------------------------------------ NodeIndexSeek

Status NodeIndexSeek::Open(ExecContext* ctx) {
  ctx_ = ctx;
  buffer_.clear();
  index_ = 0;
  auto label = ctx->db->FindLabel(label_);
  if (!label.ok()) return Status::OK();
  auto key = ctx->db->FindPropKey(property_);
  if (!key.ok()) return Status::OK();
  Row empty;
  SlotMap no_slots;
  MBQ_ASSIGN_OR_RETURN(RtValue value, EvalExpr(*value_, empty, no_slots, ctx));
  if (value.kind != RtValue::Kind::kValue) {
    return Status::InvalidArgument("index seek value must be a literal");
  }
  MBQ_ASSIGN_OR_RETURN(buffer_,
                       ctx->db->IndexLookup(*label, *key, value.value));
  return Status::OK();
}

Result<bool> NodeIndexSeek::Next(Row* out) {
  if (index_ >= buffer_.size()) return false;
  if (ctx_->outer_row != nullptr) {
    *out = *ctx_->outer_row;
  } else {
    out->assign(width_, RtValue::Null());
  }
  (*out)[slot_] = RtValue::FromNode(buffer_[index_++]);
  return true;
}

std::unique_ptr<Operator> NodeIndexSeek::CloneWithChild(
    std::unique_ptr<Operator>) const {
  return std::make_unique<NodeIndexSeek>(slot_, width_, label_, property_,
                                         value_);
}

// ----------------------------------------------------------------- Expand

Status Expand::Open(ExecContext* ctx) {
  ctx_ = ctx;
  have_row_ = false;
  matches_.clear();
  match_index_ = 0;
  resolved_type_.reset();
  type_unknown_ = false;
  if (!rel_type_.empty()) {
    auto type = ctx->db->FindRelType(rel_type_);
    if (type.ok()) {
      resolved_type_ = *type;
    } else {
      type_unknown_ = true;
    }
  }
  return child_->Open(ctx);
}

Status Expand::RefillFromRow() {
  matches_.clear();
  match_index_ = 0;
  const RtValue& from = current_row_[from_slot_];
  if (from.kind != RtValue::Kind::kNode) {
    return Status::InvalidArgument("expand source is not a node");
  }
  NodeId bound_target = nodestore::kInvalidNode;
  if (into_bound_) {
    const RtValue& to = current_row_[to_slot_];
    if (to.kind != RtValue::Kind::kNode) {
      return Status::InvalidArgument("expand-into target is not a node");
    }
    bound_target = to.node;
  }
  // Hot adjacency cache: typed expansions replay a memoized (rel, other)
  // list instead of re-walking the chain — no record reads, no db hits.
  // Only typed expansions qualify; an untyped walk has no single epoch
  // domain to validate against.
  cache::AdjacencyCache* adj_cache = ctx_->adj_cache;
  if (adj_cache != nullptr && resolved_type_.has_value()) {
    int32_t etype = static_cast<int32_t>(*resolved_type_);
    uint8_t dir = static_cast<uint8_t>(dir_);
    if (auto entry = adj_cache->Get(from.node, etype, dir)) {
      for (size_t i = 0; i < entry->edges.size(); ++i) {
        if (into_bound_ && entry->neighbors[i] != bound_target) continue;
        GraphDb::RelInfo rel;
        rel.id = entry->edges[i];
        rel.type = *resolved_type_;
        rel.other = entry->neighbors[i];
        matches_.push_back(rel);
      }
      return Status::OK();
    }
    // Miss: one walk fills both the operator's matches and the cache
    // entry (unfiltered, so later ExpandAll and ExpandInto share it).
    cache::EpochStamp stamp =
        cache::CaptureStamp(ctx_->db->epochs(),
                            {cache::RelTypeDomain(*resolved_type_)},
                            /*use_global=*/false);
    auto entry = std::make_shared<cache::AdjacencyEntry>();
    MBQ_RETURN_IF_ERROR(ctx_->db->ForEachRelationship(
        from.node, dir_, resolved_type_, [&](const GraphDb::RelInfo& rel) {
          entry->edges.push_back(rel.id);
          entry->neighbors.push_back(rel.other);
          if (!into_bound_ || rel.other == bound_target) {
            matches_.push_back(rel);
          }
          return true;
        }));
    adj_cache->Put(from.node, etype, dir, std::move(entry), std::move(stamp));
    return Status::OK();
  }
  return ctx_->db->ForEachRelationship(
      from.node, dir_, resolved_type_, [&](const GraphDb::RelInfo& rel) {
        if (!into_bound_ || rel.other == bound_target) {
          matches_.push_back(rel);
        }
        return true;
      });
}

Result<bool> Expand::Next(Row* out) {
  if (type_unknown_) return false;
  for (;;) {
    if (have_row_ && match_index_ < matches_.size()) {
      const GraphDb::RelInfo& rel = matches_[match_index_++];
      *out = current_row_;
      (*out)[to_slot_] = RtValue::FromNode(rel.other);
      if (rel_slot_.has_value()) (*out)[*rel_slot_] = RtValue::FromRel(rel.id);
      return true;
    }
    MBQ_ASSIGN_OR_RETURN(bool more, ChildNext(&current_row_));
    if (!more) return false;
    have_row_ = true;
    MBQ_RETURN_IF_ERROR(RefillFromRow());
  }
}

std::unique_ptr<Operator> Expand::CloneWithChild(
    std::unique_ptr<Operator> child) const {
  return std::make_unique<Expand>(std::move(child), from_slot_, to_slot_,
                                  rel_slot_, rel_type_, dir_, into_bound_);
}

// --------------------------------------------------------- VarLengthExpand

Status VarLengthExpand::Open(ExecContext* ctx) {
  ctx_ = ctx;
  have_row_ = false;
  reached_.clear();
  reach_index_ = 0;
  resolved_type_.reset();
  type_unknown_ = false;
  if (!rel_type_.empty()) {
    auto type = ctx->db->FindRelType(rel_type_);
    if (type.ok()) {
      resolved_type_ = *type;
    } else {
      type_unknown_ = true;
    }
  }
  return child_->Open(ctx);
}

Status VarLengthExpand::RefillFromRow() {
  reached_.clear();
  reach_index_ = 0;
  const RtValue& from = current_row_[from_slot_];
  if (from.kind != RtValue::Kind::kNode) {
    return Status::InvalidArgument("expand source is not a node");
  }
  // Depth-first path enumeration with per-path relationship uniqueness
  // (Cypher's var-length semantics): every distinct path of length in
  // [min,max] contributes its end node — the same end node can appear
  // many times (multiset semantics).
  std::vector<RelId> rel_stack;
  Status status = Status::OK();
  std::function<Status(NodeId, uint32_t)> dfs = [&](NodeId node,
                                                    uint32_t depth) -> Status {
    if (depth >= min_hops_ && depth > 0) reached_.push_back(node);
    if (depth >= max_hops_) return Status::OK();
    Status inner = ctx_->db->ForEachRelationship(
        node, dir_, resolved_type_, [&](const GraphDb::RelInfo& rel) {
          if (std::find(rel_stack.begin(), rel_stack.end(), rel.id) !=
              rel_stack.end()) {
            return true;  // relationship-unique within a path
          }
          rel_stack.push_back(rel.id);
          Status st = dfs(rel.other, depth + 1);
          rel_stack.pop_back();
          if (!st.ok()) {
            status = st;
            return false;
          }
          return true;
        });
    MBQ_RETURN_IF_ERROR(inner);
    return status;
  };
  return dfs(from.node, 0);
}

Result<bool> VarLengthExpand::Next(Row* out) {
  if (type_unknown_) return false;
  for (;;) {
    if (have_row_ && reach_index_ < reached_.size()) {
      *out = current_row_;
      (*out)[to_slot_] = RtValue::FromNode(reached_[reach_index_++]);
      return true;
    }
    MBQ_ASSIGN_OR_RETURN(bool more, ChildNext(&current_row_));
    if (!more) return false;
    have_row_ = true;
    MBQ_RETURN_IF_ERROR(RefillFromRow());
  }
}

std::unique_ptr<Operator> VarLengthExpand::CloneWithChild(
    std::unique_ptr<Operator> child) const {
  return std::make_unique<VarLengthExpand>(std::move(child), from_slot_,
                                           to_slot_, rel_type_, dir_,
                                           min_hops_, max_hops_);
}

// ----------------------------------------------------------------- Filter

Status Filter::Open(ExecContext* ctx) {
  ctx_ = ctx;
  return child_->Open(ctx);
}

Result<bool> Filter::Next(Row* out) {
  for (;;) {
    MBQ_ASSIGN_OR_RETURN(bool more, ChildNext(out));
    if (!more) return false;
    MBQ_ASSIGN_OR_RETURN(bool keep,
                         EvalPredicate(*predicate_, *out, *slots_, ctx_));
    if (keep) return true;
  }
}

std::unique_ptr<Operator> Filter::CloneWithChild(
    std::unique_ptr<Operator> child) const {
  return std::make_unique<Filter>(std::move(child), predicate_, slots_);
}

// ------------------------------------------------------------- LabelFilter

Status LabelFilter::Open(ExecContext* ctx) {
  ctx_ = ctx;
  resolved_.reset();
  label_unknown_ = false;
  auto label = ctx->db->FindLabel(label_);
  if (label.ok()) {
    resolved_ = *label;
  } else {
    label_unknown_ = true;
  }
  return child_->Open(ctx);
}

Result<bool> LabelFilter::Next(Row* out) {
  if (label_unknown_) return false;
  for (;;) {
    MBQ_ASSIGN_OR_RETURN(bool more, ChildNext(out));
    if (!more) return false;
    const RtValue& v = (*out)[slot_];
    if (v.kind != RtValue::Kind::kNode) continue;
    MBQ_ASSIGN_OR_RETURN(nodestore::LabelId label,
                         ctx_->db->NodeLabel(v.node));
    if (label == *resolved_) return true;
  }
}

std::unique_ptr<Operator> LabelFilter::CloneWithChild(
    std::unique_ptr<Operator> child) const {
  return std::make_unique<LabelFilter>(std::move(child), slot_, label_);
}

// ---------------------------------------------------------- ShortestPathOp

Status ShortestPathOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  resolved_type_.reset();
  if (!rel_type_.empty()) {
    auto type = ctx->db->FindRelType(rel_type_);
    if (type.ok()) resolved_type_ = *type;
  }
  return child_->Open(ctx);
}

Result<bool> ShortestPathOp::Next(Row* out) {
  for (;;) {
    MBQ_ASSIGN_OR_RETURN(bool more, ChildNext(out));
    if (!more) return false;
    const RtValue& src = (*out)[src_slot_];
    const RtValue& dst = (*out)[dst_slot_];
    if (src.kind != RtValue::Kind::kNode ||
        dst.kind != RtValue::Kind::kNode) {
      return Status::InvalidArgument("shortestPath endpoints must be nodes");
    }
    if (!resolved_type_.has_value() && !rel_type_.empty()) {
      return false;  // unknown relationship type: no paths
    }
    nodestore::BidirectionalShortestPath bfs(ctx_->db, resolved_type_, dir_);
    bfs.SetMaxHops(max_hops_);
    MBQ_ASSIGN_OR_RETURN(std::vector<NodeId> path,
                         bfs.Find(src.node, dst.node));
    if (path.empty()) continue;  // no path: row dropped
    (*out)[path_slot_] = RtValue::FromPath(std::move(path));
    return true;
  }
}

std::unique_ptr<Operator> ShortestPathOp::CloneWithChild(
    std::unique_ptr<Operator> child) const {
  return std::make_unique<ShortestPathOp>(std::move(child), src_slot_,
                                          dst_slot_, path_slot_, rel_type_,
                                          dir_, max_hops_);
}

// --------------------------------------------------------------- Aggregate

Status Aggregate::Open(ExecContext* ctx) {
  ctx_ = ctx;
  materialized_ = false;
  groups_.clear();
  output_.clear();
  index_ = 0;
  return child_->Open(ctx);
}

namespace {

using AggState = Aggregate::AggState;

Status AccumulateValue(const Aggregate::AggItem& agg, const RtValue& v,
                       AggState* state) {
  switch (agg.func) {
    case AggFunc::kCount:
      ++state->count;
      return Status::OK();
    case AggFunc::kSum:
    case AggFunc::kAvg: {
      if (v.kind != RtValue::Kind::kValue) {
        return Status::InvalidArgument("sum/avg over a non-numeric value");
      }
      MBQ_ASSIGN_OR_RETURN(double d, v.value.ToNumber());
      if (v.value.type() == common::ValueType::kInt) {
        state->isum += v.value.AsInt();
      } else {
        state->saw_double = true;
        state->dsum += d;
      }
      ++state->count;
      return Status::OK();
    }
    case AggFunc::kMin:
    case AggFunc::kMax: {
      bool better = !state->has_best ||
                    (agg.func == AggFunc::kMin
                         ? v.Compare(state->best) < 0
                         : v.Compare(state->best) > 0);
      if (better) {
        state->best = v;
        state->has_best = true;
      }
      return Status::OK();
    }
  }
  return Status::Internal("unhandled aggregate function");
}

Result<RtValue> FinalizeAgg(const Aggregate::AggItem& agg, AggState* state) {
  // Distinct aggregates buffer values in a set and fold at the end.
  AggState folded;
  if (agg.distinct) {
    if (agg.func == AggFunc::kCount) {
      return RtValue::FromValue(
          Value::Int(static_cast<int64_t>(state->distinct.size())));
    }
    for (const Row& row : state->distinct) {
      MBQ_RETURN_IF_ERROR(AccumulateValue(agg, row[0], &folded));
    }
    state = &folded;
  }
  switch (agg.func) {
    case AggFunc::kCount:
      return RtValue::FromValue(
          Value::Int(static_cast<int64_t>(state->count)));
    case AggFunc::kSum:
      if (state->saw_double) {
        return RtValue::FromValue(
            Value::Double(state->dsum + static_cast<double>(state->isum)));
      }
      return RtValue::FromValue(Value::Int(state->isum));
    case AggFunc::kMin:
    case AggFunc::kMax:
      return state->has_best ? state->best : RtValue::Null();
    case AggFunc::kAvg: {
      if (state->count == 0) return RtValue::Null();
      double total = state->dsum + static_cast<double>(state->isum);
      return RtValue::FromValue(
          Value::Double(total / static_cast<double>(state->count)));
    }
  }
  return Status::Internal("unhandled aggregate function");
}

}  // namespace

Status Aggregate::AccumulateRow(const Row& row, ExecContext* ctx) {
  Row keys;
  keys.reserve(group_exprs_.size());
  for (const Expr* e : group_exprs_) {
    MBQ_ASSIGN_OR_RETURN(RtValue v, EvalExpr(*e, row, *slots_, ctx));
    keys.push_back(std::move(v));
  }
  auto [it, inserted] = groups_.try_emplace(keys);
  GroupState& state = it->second;
  if (inserted) {
    state.keys = keys;
    state.aggs.resize(aggs_.size());
  }
  for (size_t a = 0; a < aggs_.size(); ++a) {
    const AggItem& agg = aggs_[a];
    if (agg.arg == nullptr) {  // COUNT(*)
      ++state.aggs[a].count;
      continue;
    }
    MBQ_ASSIGN_OR_RETURN(RtValue v, EvalExpr(*agg.arg, row, *slots_, ctx));
    if (v.is_null()) continue;  // aggregates skip nulls
    if (agg.distinct) {
      state.aggs[a].distinct.insert(Row{v});
    } else {
      MBQ_RETURN_IF_ERROR(AccumulateValue(agg, v, &state.aggs[a]));
    }
  }
  return Status::OK();
}

Status Aggregate::MergeFrom(Aggregate* other) {
  for (auto& [keys, theirs] : other->groups_) {
    auto [it, inserted] = groups_.try_emplace(keys);
    GroupState& ours = it->second;
    if (inserted) {
      ours = std::move(theirs);
      continue;
    }
    for (size_t a = 0; a < aggs_.size(); ++a) {
      AggState& dst = ours.aggs[a];
      AggState& src = theirs.aggs[a];
      dst.count += src.count;
      dst.isum += src.isum;
      dst.dsum += src.dsum;
      dst.saw_double |= src.saw_double;
      if (src.has_best) {
        bool better =
            !dst.has_best || (aggs_[a].func == AggFunc::kMin
                                  ? src.best.Compare(dst.best) < 0
                                  : src.best.Compare(dst.best) > 0);
        if (better) {
          dst.best = std::move(src.best);
          dst.has_best = true;
        }
      }
      dst.distinct.merge(src.distinct);
    }
  }
  other->groups_.clear();
  return Status::OK();
}

Status Aggregate::FinalizeGroups() {
  // Without grouping keys the whole input is one group, even when it is
  // empty: one row with count 0, sum 0 and min/max/avg null.
  if (group_exprs_.empty() && groups_.empty()) {
    groups_[Row{}].aggs.resize(aggs_.size());
  }
  for (auto& [keys, state] : groups_) {
    Row out = state.keys;
    for (size_t a = 0; a < aggs_.size(); ++a) {
      MBQ_ASSIGN_OR_RETURN(RtValue v, FinalizeAgg(aggs_[a], &state.aggs[a]));
      out.push_back(std::move(v));
    }
    output_.push_back(std::move(out));
  }
  groups_.clear();
  materialized_ = true;
  return Status::OK();
}

std::unique_ptr<Operator> Aggregate::CloneWithChild(
    std::unique_ptr<Operator> child) const {
  return std::make_unique<Aggregate>(std::move(child), group_exprs_, aggs_,
                                     slots_);
}

std::unique_ptr<Aggregate> Aggregate::CloneCollector() const {
  return std::make_unique<Aggregate>(nullptr, group_exprs_, aggs_, slots_);
}

Status Aggregate::Materialize() {
  if (ctx_->pool != nullptr && ctx_->threads > 1 &&
      ctx_->outer_row == nullptr) {
    MBQ_ASSIGN_OR_RETURN(bool consumed,
                         ParallelMaterializeAggregate(this, ctx_));
    if (consumed) return FinalizeGroups();
  }
  Row row;
  for (;;) {
    MBQ_ASSIGN_OR_RETURN(bool more, ChildNext(&row));
    if (!more) break;
    MBQ_RETURN_IF_ERROR(AccumulateRow(row, ctx_));
  }
  return FinalizeGroups();
}

Result<bool> Aggregate::Next(Row* out) {
  if (!materialized_) MBQ_RETURN_IF_ERROR(Materialize());
  if (index_ >= output_.size()) return false;
  *out = output_[index_++];
  return true;
}

// -------------------------------------------------------------- Projection

Status Projection::Open(ExecContext* ctx) {
  ctx_ = ctx;
  return child_->Open(ctx);
}

Result<bool> Projection::Next(Row* out) {
  Row input;
  MBQ_ASSIGN_OR_RETURN(bool more, ChildNext(&input));
  if (!more) return false;
  out->clear();
  out->reserve(exprs_.size());
  for (const Expr* e : exprs_) {
    MBQ_ASSIGN_OR_RETURN(RtValue v, EvalExpr(*e, input, *slots_, ctx_));
    out->push_back(std::move(v));
  }
  return true;
}

std::unique_ptr<Operator> Projection::CloneWithChild(
    std::unique_ptr<Operator> child) const {
  return std::make_unique<Projection>(std::move(child), exprs_, slots_);
}

// ------------------------------------------------------------------- Sort

Status Sort::Open(ExecContext* ctx) {
  ctx_ = ctx;
  materialized_ = false;
  output_.clear();
  index_ = 0;
  return child_->Open(ctx);
}

Result<bool> Sort::Next(Row* out) {
  if (!materialized_) {
    Row row;
    for (;;) {
      MBQ_ASSIGN_OR_RETURN(bool more, ChildNext(&row));
      if (!more) break;
      output_.push_back(row);
    }
    std::stable_sort(output_.begin(), output_.end(),
                     [this](const Row& a, const Row& b) {
                       for (const Key& key : keys_) {
                         int c = a[key.column].Compare(b[key.column]);
                         if (c != 0) return key.ascending ? c < 0 : c > 0;
                       }
                       return false;
                     });
    materialized_ = true;
  }
  if (index_ >= output_.size()) return false;
  *out = output_[index_++];
  return true;
}

std::unique_ptr<Operator> Sort::CloneWithChild(
    std::unique_ptr<Operator> child) const {
  return std::make_unique<Sort>(std::move(child), keys_);
}

// ------------------------------------------------------------------ Limit

Status Limit::Open(ExecContext* ctx) {
  ctx_ = ctx;
  Row empty;
  SlotMap no_slots;
  MBQ_ASSIGN_OR_RETURN(RtValue v, EvalExpr(*count_expr_, empty, no_slots, ctx));
  if (v.kind != RtValue::Kind::kValue ||
      v.value.type() != common::ValueType::kInt || v.value.AsInt() < 0) {
    return Status::InvalidArgument("LIMIT requires a non-negative integer");
  }
  remaining_ = static_cast<uint64_t>(v.value.AsInt());
  return child_->Open(ctx);
}

Result<bool> Limit::Next(Row* out) {
  if (remaining_ == 0) return false;
  MBQ_ASSIGN_OR_RETURN(bool more, ChildNext(out));
  if (!more) return false;
  --remaining_;
  return true;
}

std::unique_ptr<Operator> Limit::CloneWithChild(
    std::unique_ptr<Operator> child) const {
  return std::make_unique<Limit>(std::move(child), count_expr_, slots_);
}

// --------------------------------------------------------------- Distinct

Status Distinct::Open(ExecContext* ctx) {
  ctx_ = ctx;
  seen_.clear();
  return child_->Open(ctx);
}

Result<bool> Distinct::Next(Row* out) {
  for (;;) {
    MBQ_ASSIGN_OR_RETURN(bool more, ChildNext(out));
    if (!more) return false;
    if (seen_.insert(*out).second) return true;
  }
}

std::unique_ptr<Operator> Distinct::CloneWithChild(
    std::unique_ptr<Operator> child) const {
  return std::make_unique<Distinct>(std::move(child));
}

// ------------------------------------------------------------------ Apply

Status Apply::Open(ExecContext* ctx) {
  ctx_ = ctx;
  have_left_ = false;
  return child_->Open(ctx);
}

Result<bool> Apply::Next(Row* out) {
  for (;;) {
    if (have_left_) {
      const Row* saved = ctx_->outer_row;
      ctx_->outer_row = &left_row_;
      Result<bool> more = right_->NextTracked(out);
      ctx_->outer_row = saved;
      MBQ_RETURN_IF_ERROR(more.status());
      if (*more) return true;
      have_left_ = false;
    }
    MBQ_ASSIGN_OR_RETURN(bool more_left, ChildNext(&left_row_));
    if (!more_left) return false;
    have_left_ = true;
    // Re-open the right side for this left row.
    const Row* saved = ctx_->outer_row;
    ctx_->outer_row = &left_row_;
    Status st = right_->Open(ctx_);
    ctx_->outer_row = saved;
    MBQ_RETURN_IF_ERROR(st);
  }
}

std::unique_ptr<Operator> Apply::CloneWithChild(
    std::unique_ptr<Operator> child) const {
  return std::make_unique<Apply>(std::move(child), right_->CloneTree());
}

// ---------------------------------------------------------- RowBufferSource

Status RowBufferSource::Open(ExecContext* ctx) {
  ctx_ = ctx;
  morsel_pos_ = 0;
  morsel_end_ = 0;
  return Status::OK();
}

Result<bool> RowBufferSource::Next(Row* out) {
  if (morsel_pos_ >= morsel_end_) {
    if (cursor_ == nullptr) {
      // Serve-all mode: one pass over the whole buffer.
      if (morsel_end_ != 0 || rows_->empty()) return false;
      morsel_pos_ = 0;
      morsel_end_ = rows_->size();
    } else {
      size_t begin = cursor_->fetch_add(grain_, std::memory_order_relaxed);
      if (begin >= rows_->size()) return false;
      morsel_pos_ = begin;
      morsel_end_ = std::min(begin + grain_, rows_->size());
    }
  }
  *out = (*rows_)[morsel_pos_++];
  return true;
}

std::unique_ptr<Operator> RowBufferSource::CloneWithChild(
    std::unique_ptr<Operator>) const {
  return std::make_unique<RowBufferSource>(rows_, cursor_, grain_);
}

// ----------------------------------------------------------------- Helpers

std::string DescribePlanTree(const Operator& root, int indent) {
  std::string out(indent * 2, ' ');
  out += root.Describe();
  out += "  rows=" + std::to_string(root.rows_produced());
  out += " dbHits=" + std::to_string(root.db_hits());
  if (root.parallel_workers() > 0) {
    out += " par=" + std::to_string(root.parallel_workers());
  }
  out += "\n";
  if (const auto* apply = dynamic_cast<const Apply*>(&root)) {
    if (apply->child() != nullptr) {
      out += DescribePlanTree(*apply->child(), indent + 1);
    }
    if (apply->right() != nullptr) {
      out += DescribePlanTree(*apply->right(), indent + 1);
    }
    return out;
  }
  if (root.child() != nullptr) {
    out += DescribePlanTree(*root.child(), indent + 1);
  }
  return out;
}

std::string DescribePlanShape(const Operator& root, int indent) {
  std::string out(indent * 2, ' ');
  out += root.Describe();
  out += "\n";
  if (const auto* apply = dynamic_cast<const Apply*>(&root)) {
    if (apply->child() != nullptr) {
      out += DescribePlanShape(*apply->child(), indent + 1);
    }
    if (apply->right() != nullptr) {
      out += DescribePlanShape(*apply->right(), indent + 1);
    }
    return out;
  }
  if (root.child() != nullptr) {
    out += DescribePlanShape(*root.child(), indent + 1);
  }
  return out;
}

}  // namespace mbq::cypher
