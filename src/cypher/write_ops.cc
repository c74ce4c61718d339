#include "cypher/write_ops.h"

#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "store/delta/write_batch.h"

namespace mbq::cypher {

namespace {

using common::ValueType;
using store::WriteOp;
using store::WriteOpKind;

/// The node kinds a write op names, with the twitter schema's label and
/// key property for each (twitter/schema.h).
enum class NodeKind : uint8_t { kUser, kTweet, kHashtag };

std::optional<NodeKind> KindOfLabel(const std::string& label) {
  if (label == "user") return NodeKind::kUser;
  if (label == "tweet") return NodeKind::kTweet;
  if (label == "hashtag") return NodeKind::kHashtag;
  return std::nullopt;
}

const char* KeyProperty(NodeKind kind) {
  switch (kind) {
    case NodeKind::kUser: return "uid";
    case NodeKind::kTweet: return "tid";
    case NodeKind::kHashtag: return "tag";
  }
  return "";
}

/// A node as an op names it: by the uid, tid or tag the store holds.
struct Endpoint {
  NodeKind kind = NodeKind::kUser;
  /// uid or tid; store::kUnassignedTid for a new tweet the query gave no
  /// tid, which the commit path replaces.
  int64_t id = 0;
  std::string tag;      ///< a hashtag's tag
  std::string text;     ///< a new tweet's text
};

/// "(var:label)": how the query spells a node, for messages. The planner
/// names anonymous nodes with a leading space, which no query can spell.
std::string NodeText(const NodePattern& node) {
  std::string out = "(";
  if (node.variable.rfind(' ', 0) != 0) out += node.variable;
  if (!node.label.empty()) out += ":" + node.label;
  return out + ")";
}

/// NotImplemented naming the clause: no write op expresses `what`.
Status Refuse(const std::string& clause, const std::string& what) {
  return Status::NotImplemented(
      clause + ": " + what +
      "; Cypher writes commit as WriteBatch ops (docs/WRITES.md)");
}

/// Indexes of the (source, target) nodes of the r-th relationship of a
/// pattern; an undirected relationship is read left to right.
std::pair<size_t, size_t> RelEnds(const RelPattern& rel, size_t r) {
  if (rel.dir == RelPattern::Dir::kIn) return {r + 1, r};
  return {r, r + 1};
}

/// Lowers one write query's input rows to WriteOps.
class Lowering {
 public:
  Lowering(const Query& query, const SlotMap& slots, ExecContext* ctx)
      : query_(query), slots_(slots), ctx_(ctx) {
    // A create-pattern node is new unless MATCH or an earlier create
    // pattern bound its variable.
    std::unordered_set<std::string> bound;
    for (const PatternPart& part : query_.patterns) {
      for (const NodePattern& node : part.nodes) bound.insert(node.variable);
    }
    for (const PatternPart& part : query_.create_patterns) {
      std::vector<bool>& fresh = fresh_.emplace_back();
      for (const NodePattern& node : part.nodes) {
        fresh.push_back(node.variable.empty() ||
                        bound.insert(node.variable).second);
      }
    }
  }

  /// Refuses, from the query text alone, every write no op expresses.
  Status CheckQuery() const {
    if (!query_.set_items.empty()) {
      const SetItem& item = query_.set_items.front();
      return Refuse("SET " + item.variable + "." + item.property,
                    "no write op sets a property");
    }
    std::unordered_map<std::string, std::string> matched_rels;
    for (const PatternPart& part : query_.patterns) {
      for (const RelPattern& rel : part.rels) {
        if (!rel.variable.empty()) matched_rels[rel.variable] = rel.type;
      }
    }
    for (const DeleteItem& item : query_.delete_items) {
      const std::string clause =
          (item.detach ? "DETACH DELETE " : "DELETE ") + item.variable;
      auto rel = matched_rels.find(item.variable);
      if (item.detach || rel == matched_rels.end()) {
        return Refuse(clause, "only a matched :follows relationship can be "
                              "deleted (it lowers to an unfollow)");
      }
      if (!rel->second.empty() && rel->second != "follows") {
        return Refuse(clause, "a :" + rel->second +
                                  " relationship cannot be deleted");
      }
    }
    for (size_t p = 0; p < query_.create_patterns.size(); ++p) {
      MBQ_RETURN_IF_ERROR(CheckCreate(p));
    }
    return Status::OK();
  }

  Status LowerRow(const Row& row) {
    // Nodes an earlier create pattern of this row made, by variable.
    std::unordered_map<std::string, Endpoint> created;
    for (size_t p = 0; p < query_.create_patterns.size(); ++p) {
      MBQ_RETURN_IF_ERROR(LowerCreate(p, row, &created));
    }
    for (const DeleteItem& item : query_.delete_items) {
      MBQ_RETURN_IF_ERROR(LowerDelete(item, row));
    }
    return Status::OK();
  }

 private:
  Status CheckCreate(size_t p) const {
    const PatternPart& part = query_.create_patterns[p];
    std::vector<int> posts_into(part.nodes.size(), 0);
    std::vector<int> tags_into(part.nodes.size(), 0);
    for (size_t r = 0; r < part.rels.size(); ++r) {
      const RelPattern& rel = part.rels[r];
      const std::string& type = rel.type;
      if (type != "follows" && type != "posts" && type != "mentions" &&
          type != "tags" && type != "retweets") {
        return Refuse("CREATE [:" + type + "]",
                      "only :follows, :posts, :mentions, :tags and "
                      ":retweets relationships can be created");
      }
      size_t dst = RelEnds(rel, r).second;
      if (type == "posts") {
        if (!fresh_[p][dst] || part.nodes[dst].label != "tweet") {
          return Refuse("CREATE [:posts]",
                        "a :posts creates its tweet, so it must point at a "
                        "new :tweet");
        }
        ++posts_into[dst];
      }
      if (type == "tags") ++tags_into[dst];
    }
    for (size_t i = 0; i < part.nodes.size(); ++i) {
      if (!fresh_[p][i]) continue;
      const NodePattern& node = part.nodes[i];
      const std::string clause = "CREATE " + NodeText(node);
      std::optional<NodeKind> kind = KindOfLabel(node.label);
      if (!kind.has_value()) {
        return Refuse(clause,
                      "only :user, :tweet and :hashtag nodes can be created");
      }
      bool has_key = false;
      for (const auto& [key, value] : node.properties) {
        bool text = *kind == NodeKind::kTweet && key == "text";
        if (key != KeyProperty(*kind) && !text) {
          return Refuse(clause, "a new :" + node.label + " takes only " +
                                    (*kind == NodeKind::kTweet
                                         ? "tid and text"
                                         : KeyProperty(*kind)) +
                                    ", not " + key);
        }
        has_key = has_key || !text;
      }
      if (*kind == NodeKind::kTweet && posts_into[i] != 1) {
        return Refuse(clause,
                      "a new :tweet needs exactly one :posts from its user");
      }
      if (*kind == NodeKind::kHashtag && tags_into[i] == 0) {
        return Refuse(clause,
                      "a new :hashtag is made by a :tags from a tweet");
      }
      if (*kind != NodeKind::kTweet && !has_key) {
        return Refuse(clause, std::string("a new :") + node.label +
                                  " needs its " + KeyProperty(*kind));
      }
    }
    return Status::OK();
  }

  Status LowerCreate(size_t p, const Row& row,
                     std::unordered_map<std::string, Endpoint>* created) {
    const PatternPart& part = query_.create_patterns[p];
    std::vector<Endpoint> ends;
    for (size_t i = 0; i < part.nodes.size(); ++i) {
      const NodePattern& node = part.nodes[i];
      if (fresh_[p][i]) {
        MBQ_ASSIGN_OR_RETURN(Endpoint made, NewEndpoint(node, row));
        if (made.kind == NodeKind::kUser) {
          Emit({WriteOpKind::kNewUser, made.id, 0, {}});
        }
        if (!node.variable.empty()) (*created)[node.variable] = made;
        ends.push_back(std::move(made));
        continue;
      }
      auto made = created->find(node.variable);
      if (made != created->end()) {
        ends.push_back(made->second);
        continue;
      }
      const RtValue& bound = row[slots_.at(node.variable)];
      if (bound.kind != RtValue::Kind::kNode) {
        return Status::InvalidArgument("CREATE " + NodeText(node) + ": '" +
                                       node.variable + "' is not a node");
      }
      MBQ_ASSIGN_OR_RETURN(Endpoint stored,
                           StoredEndpoint(bound.node, "CREATE " +
                                                          NodeText(node)));
      ends.push_back(std::move(stored));
    }
    // A new tweet exists before any op names it, so posts lower first.
    for (size_t r = 0; r < part.rels.size(); ++r) {
      if (part.rels[r].type != "posts") continue;
      auto [src, dst] = RelEnds(part.rels[r], r);
      if (ends[src].kind != NodeKind::kUser) {
        return Refuse("CREATE [:posts]", "only a :user posts a tweet");
      }
      Emit({WriteOpKind::kPostTweet, ends[src].id, ends[dst].id,
            ends[dst].text});
    }
    for (size_t r = 0; r < part.rels.size(); ++r) {
      const RelPattern& rel = part.rels[r];
      if (rel.type == "posts") continue;
      auto [src, dst] = RelEnds(rel, r);
      MBQ_ASSIGN_OR_RETURN(WriteOp op, LowerRel(rel.type, ends[src], ends[dst]));
      Emit(std::move(op));
    }
    return Status::OK();
  }

  /// The op a CREATE relationship other than `posts` lowers to.
  static Result<WriteOp> LowerRel(const std::string& type,
                                  const Endpoint& src, const Endpoint& dst) {
    const std::string clause = "CREATE [:" + type + "]";
    if (src.id == store::kUnassignedTid || dst.id == store::kUnassignedTid) {
      return Status::InvalidArgument(
          clause + ": a tweet this query creates needs a tid for a later op "
                   "to name it");
    }
    auto links = [&](NodeKind from, NodeKind to) {
      return src.kind == from && dst.kind == to;
    };
    if (type == "follows" && links(NodeKind::kUser, NodeKind::kUser)) {
      return WriteOp{WriteOpKind::kFollow, src.id, dst.id, {}};
    }
    if (type == "mentions" && links(NodeKind::kTweet, NodeKind::kUser)) {
      return WriteOp{WriteOpKind::kAddMention, src.id, dst.id, {}};
    }
    if (type == "tags" && links(NodeKind::kTweet, NodeKind::kHashtag)) {
      return WriteOp{WriteOpKind::kTagTweet, src.id, 0, dst.tag};
    }
    if (type == "retweets" && links(NodeKind::kTweet, NodeKind::kTweet)) {
      return WriteOp{WriteOpKind::kRetweetOf, src.id, dst.id, {}};
    }
    return Refuse(clause, "no write op makes this relationship between "
                          "these endpoints");
  }

  Status LowerDelete(const DeleteItem& item, const Row& row) {
    const std::string clause = "DELETE " + item.variable;
    const RtValue& target = row[slots_.at(item.variable)];
    if (target.kind == RtValue::Kind::kNull) return Status::OK();
    if (target.kind != RtValue::Kind::kRel) {
      return Refuse(clause, "only a :follows relationship can be deleted");
    }
    // MATCH can bind the same relationship in several rows.
    if (!unfollowed_.insert(target.rel).second) return Status::OK();
    GraphDb* db = ctx_->db;
    MBQ_ASSIGN_OR_RETURN(GraphDb::RelInfo rel,
                         db->GetRelationship(target.rel));
    const std::string& type = db->RelTypeName(rel.type);
    if (type != "follows") {
      return Refuse(clause, "a :" + type + " relationship cannot be deleted");
    }
    MBQ_ASSIGN_OR_RETURN(Endpoint src, StoredEndpoint(rel.src, clause));
    MBQ_ASSIGN_OR_RETURN(Endpoint dst, StoredEndpoint(rel.dst, clause));
    Emit({WriteOpKind::kUnfollow, src.id, dst.id, {}});
    return Status::OK();
  }

  /// A node this CREATE makes, from its label and evaluated properties
  /// (CheckQuery vetted both).
  Result<Endpoint> NewEndpoint(const NodePattern& node, const Row& row) {
    Endpoint made;
    made.kind = *KindOfLabel(node.label);
    if (made.kind == NodeKind::kTweet) made.id = store::kUnassignedTid;
    for (const auto& [key, expr] : node.properties) {
      MBQ_ASSIGN_OR_RETURN(RtValue v, EvalExpr(*expr, row, slots_, ctx_));
      const bool is_string = key == "tag" || key == "text";
      if (v.kind != RtValue::Kind::kValue ||
          v.value.type() != (is_string ? ValueType::kString
                                       : ValueType::kInt)) {
        return Status::InvalidArgument(
            "CREATE " + NodeText(node) + ": " + key + " must be " +
            (is_string ? "a string" : "an integer"));
      }
      if (key == "tag") {
        made.tag = v.value.AsString();
      } else if (key == "text") {
        made.text = v.value.AsString();
      } else if (v.value.AsInt() < 0) {
        // No node has a negative id, and -1 is store::kUnassignedTid.
        return Status::InvalidArgument("CREATE " + NodeText(node) + ": " +
                                       key + " must not be negative");
      } else {
        made.id = v.value.AsInt();
      }
    }
    return made;
  }

  /// A node the store holds, named by its key property.
  Result<Endpoint> StoredEndpoint(NodeId node, const std::string& clause) {
    GraphDb* db = ctx_->db;
    MBQ_ASSIGN_OR_RETURN(nodestore::LabelId label, db->NodeLabel(node));
    const std::string& name = db->LabelName(label);
    std::optional<NodeKind> kind = KindOfLabel(name);
    if (!kind.has_value()) {
      return Refuse(clause, "no write op names a :" + name + " node");
    }
    Endpoint stored;
    stored.kind = *kind;
    MBQ_ASSIGN_OR_RETURN(nodestore::PropKeyId key,
                         db->FindPropKey(KeyProperty(*kind)));
    MBQ_ASSIGN_OR_RETURN(Value value, db->GetNodeProperty(node, key));
    const ValueType want =
        *kind == NodeKind::kHashtag ? ValueType::kString : ValueType::kInt;
    if (value.type() != want) {
      return Status::InvalidArgument(clause + ": a :" + name +
                                     " node without its " +
                                     KeyProperty(*kind));
    }
    if (*kind == NodeKind::kHashtag) {
      stored.tag = value.AsString();
    } else {
      stored.id = value.AsInt();
    }
    return stored;
  }

  void Emit(WriteOp op) { ctx_->writes->Append(std::move(op)); }

  const Query& query_;
  const SlotMap& slots_;
  ExecContext* ctx_;
  /// Per create pattern, per node: true when the node is new.
  std::vector<std::vector<bool>> fresh_;
  /// Matched relationships already lowered to an unfollow.
  std::unordered_set<RelId> unfollowed_;
};

/// The summary row, counted from the lowered ops: a new user is one node
/// and one property (its uid), a posted tweet one node, one relationship
/// and two properties (tid and text), every other create kind one
/// relationship, and an unfollow one deleted relationship.
Row SummaryRow(const std::vector<WriteOp>& ops) {
  uint64_t nodes = 0, rels = 0, props = 0, rels_deleted = 0;
  for (const WriteOp& op : ops) {
    switch (op.kind) {
      case WriteOpKind::kNewUser:
        ++nodes;
        ++props;
        break;
      case WriteOpKind::kPostTweet:
        ++nodes;
        ++rels;
        props += 2;
        break;
      case WriteOpKind::kUnfollow:
        ++rels_deleted;
        break;
      case WriteOpKind::kFollow:
      case WriteOpKind::kAddMention:
      case WriteOpKind::kTagTweet:
      case WriteOpKind::kRetweetOf:
        ++rels;
        break;
    }
  }
  Row row;
  for (uint64_t v : {nodes, rels, props, uint64_t{0}, rels_deleted}) {
    row.push_back(RtValue::FromValue(Value::Int(static_cast<int64_t>(v))));
  }
  return row;
}

}  // namespace

Status WriteClause::Open(ExecContext* ctx) {
  ctx_ = ctx;
  done_ = false;
  if (ctx->writes == nullptr) {
    return Status::NotImplemented("write query run without a writer");
  }
  MBQ_RETURN_IF_ERROR(Lowering(*query_, *slots_, ctx).CheckQuery());
  return child_->Open(ctx);
}

Result<bool> WriteClause::Next(Row* out) {
  if (done_) return false;
  done_ = true;
  Lowering lowering(*query_, *slots_, ctx_);
  // The reading side runs to completion before the first row lowers.
  std::vector<Row> input;
  Row row;
  for (;;) {
    MBQ_ASSIGN_OR_RETURN(bool more, ChildNext(&row));
    if (!more) break;
    input.push_back(row);
  }
  for (const Row& r : input) {
    MBQ_RETURN_IF_ERROR(lowering.LowerRow(r));
  }
  *out = SummaryRow(ctx_->writes->ops());
  return true;
}

std::string WriteClause::Describe() const {
  return "Write(" + std::to_string(query_->create_patterns.size()) +
         " create, " + std::to_string(query_->set_items.size()) + " set, " +
         std::to_string(query_->delete_items.size()) + " delete)";
}

std::unique_ptr<Operator> WriteClause::CloneWithChild(
    std::unique_ptr<Operator> child) const {
  return std::make_unique<WriteClause>(std::move(child), query_, slots_);
}

}  // namespace mbq::cypher
