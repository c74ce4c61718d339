#include "cypher/planner.h"

#include <algorithm>
#include <unordered_set>

#include "cache/epoch.h"
#include "cypher/write_ops.h"
#include "util/logging.h"

namespace mbq::cypher {

namespace {

/// Structural equality for the expression shapes that can appear both in
/// RETURN and ORDER BY (variables, properties, calls, literals, params).
bool ExprEquals(const Expr& a, const Expr& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case ExprKind::kLiteral:
      return a.literal == b.literal;
    case ExprKind::kParameter:
      return a.param_name == b.param_name;
    case ExprKind::kVariable:
      return a.variable == b.variable;
    case ExprKind::kProperty:
      return a.variable == b.variable && a.property == b.property;
    case ExprKind::kAggCall:
      return a.agg_func == b.agg_func && a.variable == b.variable &&
             a.count_star == b.count_star && a.distinct == b.distinct;
    case ExprKind::kLengthCall:
    case ExprKind::kIdCall:
      return a.variable == b.variable;
    default:
      return false;
  }
}

/// Display text for a return item without an alias.
std::string ExprText(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.literal.ToString();
    case ExprKind::kParameter:
      return "$" + e.param_name;
    case ExprKind::kVariable:
      return e.variable;
    case ExprKind::kProperty:
      return e.variable + "." + e.property;
    case ExprKind::kAggCall: {
      const char* name = e.agg_func == AggFunc::kCount ? "count"
                         : e.agg_func == AggFunc::kSum ? "sum"
                         : e.agg_func == AggFunc::kMin ? "min"
                         : e.agg_func == AggFunc::kMax ? "max"
                                                       : "avg";
      if (e.count_star) return std::string(name) + "(*)";
      return std::string(name) + "(" + (e.distinct ? "DISTINCT " : "") +
             e.variable + ")";
    }
    case ExprKind::kLengthCall:
      return "length(" + e.variable + ")";
    case ExprKind::kIdCall:
      return "id(" + e.variable + ")";
    default:
      return "expr";
  }
}

nodestore::Direction ToDirection(RelPattern::Dir dir, bool reversed) {
  switch (dir) {
    case RelPattern::Dir::kOut:
      return reversed ? nodestore::Direction::kIncoming
                      : nodestore::Direction::kOutgoing;
    case RelPattern::Dir::kIn:
      return reversed ? nodestore::Direction::kOutgoing
                      : nodestore::Direction::kIncoming;
    case RelPattern::Dir::kBoth:
      return nodestore::Direction::kBoth;
  }
  return nodestore::Direction::kBoth;
}

/// Splits a WHERE tree into top-level conjuncts.
void SplitConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kAnd) {
    SplitConjuncts(e->children[0].get(), out);
    SplitConjuncts(e->children[1].get(), out);
    return;
  }
  out->push_back(e);
}

class PlanBuilder {
 public:
  PlanBuilder(Query query, GraphDb* db)
      : plan_(std::make_unique<PlannedQuery>()), db_(db) {
    plan_->ast = std::move(query);
  }

  Result<std::unique_ptr<PlannedQuery>> Build() {
    AssignSlots();
    // A CREATE-only query has no reading side; everything else plans its
    // MATCH/WHERE first.
    if (!ast().patterns.empty()) {
      MBQ_RETURN_IF_ERROR(PlanMatch());
      MBQ_RETURN_IF_ERROR(PlanWhere());
    }
    if (ast().IsWrite()) {
      MBQ_RETURN_IF_ERROR(PlanWrite());
    } else {
      MBQ_RETURN_IF_ERROR(PlanReturn());
    }
    return std::move(plan_);
  }

 private:
  Query& ast() { return plan_->ast; }

  uint32_t SlotFor(const std::string& name) {
    auto it = plan_->slots.find(name);
    if (it != plan_->slots.end()) return it->second;
    uint32_t slot = plan_->width++;
    plan_->slots.emplace(name, slot);
    return slot;
  }

  std::string FreshName() {
    return "  anon" + std::to_string(anon_counter_++);
  }

  void AssignSlots() {
    for (PatternPart& part : ast().patterns) {
      for (NodePattern& node : part.nodes) {
        if (node.variable.empty()) node.variable = FreshName();
        SlotFor(node.variable);
      }
      for (RelPattern& rel : part.rels) {
        if (!rel.variable.empty()) SlotFor(rel.variable);
      }
      if (part.shortest_path && part.path_variable.empty()) {
        part.path_variable = FreshName();
      }
      if (!part.path_variable.empty()) SlotFor(part.path_variable);
    }
    // Create-pattern variables get slots too: a node created for one row
    // is bound into the row so later rels/SETs in the same query see it.
    for (PatternPart& part : ast().create_patterns) {
      for (NodePattern& node : part.nodes) {
        if (node.variable.empty()) node.variable = FreshName();
        SlotFor(node.variable);
      }
      for (RelPattern& rel : part.rels) {
        if (!rel.variable.empty()) SlotFor(rel.variable);
      }
    }
  }

  /// Appends a filter checking `var.prop == value_expr` (inline property
  /// maps on non-anchor nodes).
  void AddPropertyFilter(const std::string& var, const std::string& prop,
                         const Expr* value) {
    // Clone the value expression shallowly (literals and params only).
    auto clone = std::make_unique<Expr>();
    clone->kind = value->kind;
    clone->literal = value->literal;
    clone->param_name = value->param_name;
    ExprPtr filter = MakeComparison(
        CompareOp::kEq, MakeProperty(var, prop), std::move(clone));
    current_ = std::make_unique<Filter>(std::move(current_), filter.get(),
                                        &plan_->slots);
    plan_->synthesized.push_back(std::move(filter));
  }

  void AddNodeConstraints(const NodePattern& node) {
    if (!node.label.empty()) {
      current_ = std::make_unique<LabelFilter>(std::move(current_),
                                               plan_->slots[node.variable],
                                               node.label);
    }
    for (const auto& [prop, value] : node.properties) {
      AddPropertyFilter(node.variable, prop, value.get());
    }
  }

  /// Index-seekable property of a node pattern, if any.
  Result<int> SeekablePropertyIndex(const NodePattern& node) {
    if (node.label.empty() || node.properties.empty()) return -1;
    auto label = db_->FindLabel(node.label);
    if (!label.ok()) return -1;
    for (size_t i = 0; i < node.properties.size(); ++i) {
      auto key = db_->FindPropKey(node.properties[i].first);
      if (key.ok() && db_->HasIndex(*label, *key)) return static_cast<int>(i);
    }
    return -1;
  }

  /// Plans the scan/seek for an anchor node into `current_`.
  Result<bool> PlanAnchor(const NodePattern& node) {
    uint32_t slot = plan_->slots[node.variable];
    MBQ_ASSIGN_OR_RETURN(int seek_prop, SeekablePropertyIndex(node));
    std::unique_ptr<Operator> scan;
    if (seek_prop >= 0) {
      scan = std::make_unique<NodeIndexSeek>(
          slot, plan_->width, node.label,
          node.properties[seek_prop].first,
          node.properties[seek_prop].second.get());
    } else if (!node.label.empty()) {
      scan = std::make_unique<NodeLabelScan>(slot, plan_->width, node.label);
    } else {
      return Status::InvalidArgument(
          "cannot plan anchor for unlabeled node '" + node.variable +
          "' — add a label");
    }
    if (current_ == nullptr) {
      current_ = std::move(scan);
    } else {
      current_ = std::make_unique<Apply>(std::move(current_), std::move(scan));
    }
    // Residual property constraints (the seek consumed at most one).
    for (size_t i = 0; i < node.properties.size(); ++i) {
      if (seek_prop >= 0 && static_cast<size_t>(i) ==
                                static_cast<size_t>(seek_prop)) {
        continue;
      }
      AddPropertyFilter(node.variable, node.properties[i].first,
                        node.properties[i].second.get());
    }
    return true;
  }

  /// Expands rel index `r` of `part`; `reversed` walks right-to-left.
  Status PlanExpandStep(const PatternPart& part, size_t r, bool reversed) {
    const RelPattern& rel = part.rels[r];
    const NodePattern& from = part.nodes[reversed ? r + 1 : r];
    const NodePattern& to = part.nodes[reversed ? r : r + 1];
    uint32_t from_slot = plan_->slots[from.variable];
    uint32_t to_slot = plan_->slots[to.variable];
    bool target_bound = bound_.count(to.variable) != 0;
    nodestore::Direction dir = ToDirection(rel.dir, reversed);

    if (rel.min_hops != 1 || rel.max_hops != 1) {
      if (target_bound) {
        return Status::NotImplemented(
            "variable-length expand into a bound node");
      }
      current_ = std::make_unique<VarLengthExpand>(
          std::move(current_), from_slot, to_slot, rel.type, dir,
          rel.min_hops, rel.max_hops);
    } else {
      std::optional<uint32_t> rel_slot;
      if (!rel.variable.empty()) rel_slot = plan_->slots[rel.variable];
      current_ = std::make_unique<Expand>(std::move(current_), from_slot,
                                          to_slot, rel_slot, rel.type, dir,
                                          target_bound);
    }
    if (!target_bound) {
      bound_.insert(to.variable);
      AddNodeConstraints(to);
    }
    return Status::OK();
  }

  Status PlanChainPart(const PatternPart& part) {
    // Anchor preference: an already-bound node; else the best scannable
    // node (index seek preferred over label scan).
    int anchor = -1;
    for (size_t i = 0; i < part.nodes.size(); ++i) {
      if (bound_.count(part.nodes[i].variable) != 0) {
        anchor = static_cast<int>(i);
        break;
      }
    }
    if (anchor < 0) {
      int best_score = -1;
      for (size_t i = 0; i < part.nodes.size(); ++i) {
        const NodePattern& node = part.nodes[i];
        MBQ_ASSIGN_OR_RETURN(int seek, SeekablePropertyIndex(node));
        int score = seek >= 0                ? 3
                    : !node.properties.empty() && !node.label.empty() ? 2
                    : !node.label.empty()    ? 1
                                             : 0;
        if (score > best_score) {
          best_score = score;
          anchor = static_cast<int>(i);
        }
      }
      const NodePattern& node = part.nodes[anchor];
      MBQ_RETURN_IF_ERROR(PlanAnchor(node).status());
      bound_.insert(node.variable);
      // Label was enforced by the scan; enforce nothing else here (the
      // anchor planner added residual property filters already).
    }
    // Expand right then left from the anchor.
    for (size_t r = anchor; r < part.rels.size(); ++r) {
      MBQ_RETURN_IF_ERROR(PlanExpandStep(part, r, /*reversed=*/false));
    }
    for (size_t r = anchor; r-- > 0;) {
      MBQ_RETURN_IF_ERROR(PlanExpandStep(part, r, /*reversed=*/true));
    }
    return Status::OK();
  }

  Status PlanShortestPathPart(const PatternPart& part) {
    if (part.nodes.size() != 2 || part.rels.size() != 1) {
      return Status::NotImplemented(
          "shortestPath expects a single-relationship pattern");
    }
    // Bind endpoints that aren't bound yet.
    for (size_t e = 0; e < 2; ++e) {
      const NodePattern& node = part.nodes[e];
      if (bound_.count(node.variable) != 0) continue;
      MBQ_RETURN_IF_ERROR(PlanAnchor(node).status());
      bound_.insert(node.variable);
    }
    const RelPattern& rel = part.rels[0];
    uint32_t src_slot = plan_->slots[part.nodes[0].variable];
    uint32_t dst_slot = plan_->slots[part.nodes[1].variable];
    uint32_t path_slot = SlotFor(part.path_variable);
    nodestore::Direction dir = ToDirection(rel.dir, /*reversed=*/false);
    // A kIn pattern is the reverse search.
    if (dir == nodestore::Direction::kIncoming) {
      std::swap(src_slot, dst_slot);
      dir = nodestore::Direction::kOutgoing;
    }
    current_ = std::make_unique<ShortestPathOp>(
        std::move(current_), src_slot, dst_slot, path_slot, rel.type, dir,
        rel.max_hops);
    return Status::OK();
  }

  Status PlanMatch() {
    // Plan chain parts first (shortest paths need bound endpoints).
    std::vector<const PatternPart*> chains;
    std::vector<const PatternPart*> shortest;
    for (const PatternPart& part : ast().patterns) {
      (part.shortest_path ? shortest : chains).push_back(&part);
    }
    // Order chains so that parts sharing variables with bound ones come
    // right after them (connected components stay together).
    std::vector<const PatternPart*> pending = chains;
    while (!pending.empty()) {
      size_t pick = 0;
      if (current_ != nullptr) {
        for (size_t i = 0; i < pending.size(); ++i) {
          bool shares = false;
          for (const NodePattern& n : pending[i]->nodes) {
            if (bound_.count(n.variable) != 0) {
              shares = true;
              break;
            }
          }
          if (shares) {
            pick = i;
            break;
          }
        }
      }
      MBQ_RETURN_IF_ERROR(PlanChainPart(*pending[pick]));
      pending.erase(pending.begin() + pick);
    }
    for (const PatternPart* part : shortest) {
      MBQ_RETURN_IF_ERROR(PlanShortestPathPart(*part));
    }
    if (current_ == nullptr) {
      return Status::InvalidArgument("empty MATCH");
    }
    return Status::OK();
  }

  Status PlanWhere() {
    std::vector<const Expr*> conjuncts;
    SplitConjuncts(ast().where.get(), &conjuncts);
    for (const Expr* conjunct : conjuncts) {
      current_ = std::make_unique<Filter>(std::move(current_), conjunct,
                                          &plan_->slots);
    }
    return Status::OK();
  }

  /// Roots the plan with the WriteClause operator: the reading side (or a
  /// SingleRow for bare CREATE) feeds it rows, it lowers the mutating
  /// clauses to WriteBatch ops and emits one summary row.
  Status PlanWrite() {
    plan_->is_write = true;
    if (current_ == nullptr) {
      current_ = std::make_unique<SingleRow>(plan_->width);
    }
    current_ = std::make_unique<WriteClause>(std::move(current_), &ast(),
                                             &plan_->slots);
    plan_->columns = {"nodes_created", "rels_created", "props_set",
                      "nodes_deleted", "rels_deleted"};
    plan_->root = std::move(current_);
    return Status::OK();
  }

  Status PlanReturn() {
    auto& items = ast().return_items;
    bool has_aggregates = false;
    for (const ReturnItem& item : items) {
      if (item.expr->ContainsAggregate()) has_aggregates = true;
    }

    // Output column layout: position per return item, plus hidden columns
    // for ORDER BY expressions not in the RETURN list.
    std::vector<const Expr*> column_exprs;  // pre-projection expressions
    std::vector<uint32_t> item_columns(items.size());

    if (has_aggregates) {
      std::vector<const Expr*> group_exprs;
      std::vector<Aggregate::AggItem> aggs;
      std::vector<bool> item_is_agg(items.size());
      std::vector<uint32_t> item_pos(items.size());
      for (size_t i = 0; i < items.size(); ++i) {
        const Expr& e = *items[i].expr;
        if (e.kind == ExprKind::kAggCall) {
          item_is_agg[i] = true;
          item_pos[i] = static_cast<uint32_t>(aggs.size());
          Aggregate::AggItem agg;
          agg.arg = e.children.empty() ? nullptr : e.children[0].get();
          agg.func = e.agg_func;
          agg.distinct = e.distinct;
          aggs.push_back(std::move(agg));
        } else if (e.ContainsAggregate()) {
          return Status::NotImplemented(
              "aggregates must be top-level return items");
        } else {
          item_is_agg[i] = false;
          item_pos[i] = static_cast<uint32_t>(group_exprs.size());
          group_exprs.push_back(&e);
        }
      }
      uint32_t num_keys = static_cast<uint32_t>(group_exprs.size());
      current_ = std::make_unique<Aggregate>(std::move(current_),
                                             std::move(group_exprs),
                                             std::move(aggs), &plan_->slots);
      // Aggregate output columns: [keys..., counts...]. Map each return
      // item to its column via a synthetic column variable.
      for (size_t i = 0; i < items.size(); ++i) {
        uint32_t col = item_is_agg[i] ? num_keys + item_pos[i] : item_pos[i];
        item_columns[i] = col;
      }
      // Build the post-aggregation slot map (#c<N> -> N).
      uint32_t total = num_keys;
      for (const ReturnItem& item : items) {
        if (item.expr->kind == ExprKind::kAggCall) ++total;
      }
      for (uint32_t c = 0; c < total; ++c) {
        plan_->output_slots.emplace("#c" + std::to_string(c), c);
      }
      // Projection pulling the aggregate output into return order.
      std::vector<const Expr*> proj;
      for (size_t i = 0; i < items.size(); ++i) {
        ExprPtr var = MakeVariable("#c" + std::to_string(item_columns[i]));
        proj.push_back(var.get());
        plan_->synthesized.push_back(std::move(var));
      }
      // ORDER BY columns must reference return items (aliases or repeated
      // expressions) when aggregating.
      MBQ_RETURN_IF_ERROR(ResolveOrderColumns(items, &column_exprs));
      // Hidden ORDER BY expressions are not supported with aggregation.
      if (!column_exprs.empty()) {
        return Status::NotImplemented(
            "ORDER BY must reference returned columns when aggregating");
      }
      current_ = std::make_unique<Projection>(std::move(current_),
                                              std::move(proj),
                                              &plan_->output_slots);
    } else {
      std::vector<const Expr*> proj;
      for (size_t i = 0; i < items.size(); ++i) {
        item_columns[i] = static_cast<uint32_t>(i);
        proj.push_back(items[i].expr.get());
      }
      MBQ_RETURN_IF_ERROR(ResolveOrderColumns(items, &column_exprs));
      for (const Expr* hidden : column_exprs) proj.push_back(hidden);
      current_ = std::make_unique<Projection>(std::move(current_),
                                              std::move(proj), &plan_->slots);
    }

    if (ast().return_distinct) {
      if (!column_exprs.empty()) {
        return Status::NotImplemented(
            "DISTINCT with non-returned ORDER BY expressions");
      }
      current_ = std::make_unique<Distinct>(std::move(current_));
    }

    if (!order_columns_.empty()) {
      current_ = std::make_unique<Sort>(std::move(current_), order_columns_);
    }
    if (ast().limit != nullptr) {
      current_ = std::make_unique<Limit>(std::move(current_),
                                         ast().limit.get(), &plan_->slots);
    }
    // Trim hidden ORDER BY columns.
    if (!column_exprs.empty()) {
      std::vector<const Expr*> trim;
      for (size_t i = 0; i < items.size(); ++i) {
        ExprPtr var = MakeVariable("#c" + std::to_string(i));
        trim.push_back(var.get());
        plan_->synthesized.push_back(std::move(var));
      }
      for (uint32_t c = 0;
           c < items.size() + column_exprs.size(); ++c) {
        plan_->output_slots.emplace("#c" + std::to_string(c), c);
      }
      current_ = std::make_unique<Projection>(std::move(current_),
                                              std::move(trim),
                                              &plan_->output_slots);
    }

    for (const ReturnItem& item : items) {
      plan_->columns.push_back(item.alias.empty() ? ExprText(*item.expr)
                                                  : item.alias);
    }
    plan_->root = std::move(current_);
    return Status::OK();
  }

  /// Maps ORDER BY expressions to output columns; expressions not among
  /// the return items become hidden columns appended to `hidden`.
  Status ResolveOrderColumns(const std::vector<ReturnItem>& items,
                             std::vector<const Expr*>* hidden) {
    for (const OrderItem& order : ast().order_by) {
      int column = -1;
      // Alias reference?
      if (order.expr->kind == ExprKind::kVariable) {
        for (size_t i = 0; i < items.size(); ++i) {
          if (items[i].alias == order.expr->variable) {
            column = static_cast<int>(i);
            break;
          }
        }
      }
      // Structural match against a return item?
      if (column < 0) {
        for (size_t i = 0; i < items.size(); ++i) {
          if (ExprEquals(*items[i].expr, *order.expr)) {
            column = static_cast<int>(i);
            break;
          }
        }
      }
      if (column < 0) {
        column = static_cast<int>(items.size() + hidden->size());
        hidden->push_back(order.expr.get());
      }
      order_columns_.push_back(
          {static_cast<uint32_t>(column), order.ascending});
    }
    return Status::OK();
  }

  std::unique_ptr<PlannedQuery> plan_;
  GraphDb* db_;
  std::unique_ptr<Operator> current_;
  std::unordered_set<std::string> bound_;
  std::vector<Sort::Key> order_columns_;
  int anon_counter_ = 0;
};

/// Accumulates the rel-type domains of pattern predicates nested in an
/// expression tree.
void CollectExprDomains(const Expr& expr, GraphDb* db,
                        std::vector<uint32_t>* domains, bool* use_global) {
  if (expr.kind == ExprKind::kPatternPred) {
    if (expr.pattern_rel_type.empty()) {
      *use_global = true;
    } else if (auto type = db->FindRelType(expr.pattern_rel_type);
               type.ok()) {
      domains->push_back(cache::RelTypeDomain(*type));
    } else {
      *use_global = true;
    }
  }
  for (const ExprPtr& child : expr.children) {
    CollectExprDomains(*child, db, domains, use_global);
  }
}

/// Resolves the query's epoch footprint against the current schema. An
/// unlabelled node can be of any label (so any node write may change the
/// result), an untyped relationship likewise; a name the schema does not
/// know yet could be registered by a later write — all three degrade to
/// the global epoch rather than risk a stale cached result.
void ComputeEpochFootprint(const Query& ast, GraphDb* db, PlannedQuery* plan) {
  // Write queries never enter the result cache; the conservative global
  // footprint is only a backstop.
  bool use_global = ast.IsWrite();
  std::vector<uint32_t> domains;
  for (const PatternPart& part : ast.patterns) {
    for (const NodePattern& node : part.nodes) {
      if (node.label.empty()) {
        use_global = true;
      } else if (auto label = db->FindLabel(node.label); label.ok()) {
        domains.push_back(cache::LabelDomain(*label));
      } else {
        use_global = true;
      }
    }
    for (const RelPattern& rel : part.rels) {
      if (rel.type.empty()) {
        use_global = true;
      } else if (auto type = db->FindRelType(rel.type); type.ok()) {
        domains.push_back(cache::RelTypeDomain(*type));
      } else {
        use_global = true;
      }
    }
  }
  if (ast.where != nullptr) {
    CollectExprDomains(*ast.where, db, &domains, &use_global);
  }
  for (const ReturnItem& item : ast.return_items) {
    CollectExprDomains(*item.expr, db, &domains, &use_global);
  }
  for (const OrderItem& item : ast.order_by) {
    CollectExprDomains(*item.expr, db, &domains, &use_global);
  }
  std::sort(domains.begin(), domains.end());
  domains.erase(std::unique(domains.begin(), domains.end()), domains.end());
  plan->epoch_domains = std::move(domains);
  plan->epoch_use_global = use_global;
}

}  // namespace

std::string PlannedQuery::Explain() const {
  return root != nullptr ? DescribePlanTree(*root) : "<unplanned>";
}

Result<std::unique_ptr<PlannedQuery>> PlanQuery(Query query, GraphDb* db) {
  PlanBuilder builder(std::move(query), db);
  MBQ_ASSIGN_OR_RETURN(std::unique_ptr<PlannedQuery> plan, builder.Build());
  ComputeEpochFootprint(plan->ast, db, plan.get());
  return plan;
}

}  // namespace mbq::cypher
