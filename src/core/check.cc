#include "core/check.h"

#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "obs/metrics.h"
#include "store/delta/delta_store.h"
#include "store/delta/wal.h"
#include "store/delta/write_batch.h"

namespace mbq::core {

namespace {

using bitmapstore::AttrId;
using bitmapstore::AttributeKind;
using bitmapstore::EdgesDirection;
using bitmapstore::Graph;
using bitmapstore::ObjectKind;
using bitmapstore::Objects;
using bitmapstore::Oid;
using bitmapstore::TypeId;
using common::Value;
using nodestore::Direction;
using nodestore::GraphDb;
using nodestore::kNullRecord;
using nodestore::LabelId;
using nodestore::NodeId;
using nodestore::NodeRecord;
using nodestore::PropKeyId;
using nodestore::RecordId;
using nodestore::RelId;
using nodestore::RelRecord;

/// `check.*` metrics, shared process-wide.
struct CheckMetrics {
  obs::Counter* runs;
  obs::Counter* issues;

  static CheckMetrics& Get() {
    static CheckMetrics m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
      CheckMetrics m;
      m.runs = r.GetCounter("check.runs", "runs", "storage checker passes");
      m.issues = r.GetCounter("check.issues", "issues",
                              "invariant violations found by the checker");
      return m;
    }();
    return m;
  }
};

/// Issue collector honoring CheckOptions::max_issues.
class Collector {
 public:
  Collector(CheckReport* report, const CheckOptions& options)
      : report_(report), options_(options) {}

  void Add(const char* component, std::string message) {
    if (report_->issues.size() >= options_.max_issues) {
      ++report_->suppressed;
      return;
    }
    report_->issues.push_back({component, std::move(message)});
  }

  void Finish() {
    CheckMetrics::Get().runs->Inc();
    CheckMetrics::Get().issues->Inc(report_->issues.size() +
                                    report_->suppressed);
  }

 private:
  CheckReport* report_;
  const CheckOptions& options_;
};

std::string IdStr(uint64_t id) { return std::to_string(id); }

// Partitioned rel ids carry partition+1 in the top 16 bits (see
// nodestore/graph_db.cc); the checker validates bounds per store.
constexpr uint64_t kRelLocalMask = (uint64_t{1} << 48) - 1;

bool RelIdInBounds(RelId id, bool partitioned,
                   const std::vector<RecordId>& rel_high) {
  if (!partitioned) return id < rel_high[0];
  uint64_t partition = id >> 48;
  return partition > 0 && partition - 1 < rel_high.size() &&
         (id & kRelLocalMask) < rel_high[partition - 1];
}

}  // namespace

std::string CheckReport::ToText() const {
  std::string out;
  for (const CheckIssue& issue : issues) {
    out += "[" + issue.component + "] " + issue.message + "\n";
  }
  if (suppressed > 0) {
    out += "... " + std::to_string(suppressed) + " further issue(s) " +
           "suppressed\n";
  }
  out += (ok() ? "OK" : "CORRUPT") + std::string(": ") +
         std::to_string(issues.size() + suppressed) + " issue(s); checked " +
         std::to_string(nodes_checked) + " nodes, " +
         std::to_string(rels_checked) + " rels, " +
         std::to_string(labels_checked) + " labels, " +
         std::to_string(indexes_checked) + " indexes, " +
         std::to_string(objects_checked) + " objects, " +
         std::to_string(attrs_checked) + " attrs";
  if (delta_ops_checked > 0 || wal_records_checked > 0) {
    out += ", " + std::to_string(delta_ops_checked) + " delta ops, " +
           std::to_string(wal_records_checked) + " wal records";
  }
  out += "\n";
  return out;
}

Result<CheckReport> CheckNodestore(GraphDb* db, const CheckOptions& options) {
  CheckReport report;
  Collector issues(&report, options);
  const bool partitioned = db->options().semantic_partitioning;
  const NodeId node_high = db->NodeHighId();
  const std::vector<RecordId> rel_high = db->RelHighIds();
  const size_t num_labels = db->LabelNames().size();
  const size_t num_rel_types = db->RelTypeNames().size();

  // Pass 1 — node records: bounds of the label and (unpartitioned) the
  // chain head. Remembers liveness for the relationship passes.
  std::vector<bool> node_in_use(node_high, false);
  for (NodeId id = 0; id < node_high; ++id) {
    MBQ_ASSIGN_OR_RETURN(NodeRecord rec, db->RawNodeRecord(id));
    if (!rec.in_use) continue;
    ++report.nodes_checked;
    node_in_use[id] = true;
    if (rec.label != nodestore::kInvalidLabel && rec.label >= num_labels) {
      issues.Add("node-record", "node " + IdStr(id) + " has label id " +
                                    IdStr(rec.label) +
                                    " beyond the label registry");
    }
    if (!partitioned && rec.first_rel != kNullRecord &&
        !RelIdInBounds(rec.first_rel, partitioned, rel_high)) {
      issues.Add("node-record", "node " + IdStr(id) +
                                    " chain head points past the "
                                    "relationship store (rel " +
                                    IdStr(rec.first_rel) + ")");
    }
  }

  // Pass 2 — raw relationship records: endpoint and chain-pointer
  // bounds, then (unpartitioned) doubly-linked mutual consistency.
  struct RelState {
    RelRecord rec;
    bool src_seen = false;  // reached from src's chain walk
    bool dst_seen = false;
    bool dup_reported = false;
  };
  std::unordered_map<RelId, RelState> live;
  MBQ_RETURN_IF_ERROR(db->ForEachRawRel([&](RelId id, const RelRecord& rec) {
    if (!rec.in_use) return true;
    ++report.rels_checked;
    live.emplace(id, RelState{rec});
    if (rec.type >= num_rel_types) {
      issues.Add("rel-record", "rel " + IdStr(id) + " has type id " +
                                   IdStr(rec.type) +
                                   " beyond the type registry");
    }
    for (auto [endpoint, name] : {std::pair{rec.src, "src"},
                                  std::pair{rec.dst, "dst"}}) {
      if (endpoint >= node_high) {
        issues.Add("rel-record", "rel " + IdStr(id) + " " + name +
                                     " node " + IdStr(endpoint) +
                                     " is out of bounds");
      } else if (!node_in_use[endpoint]) {
        issues.Add("rel-record", "rel " + IdStr(id) + " " + name +
                                     " node " + IdStr(endpoint) +
                                     " is not in use");
      }
    }
    for (auto [ptr, name] :
         {std::pair{rec.src_prev, "src_prev"},
          std::pair{rec.src_next, "src_next"},
          std::pair{rec.dst_prev, "dst_prev"},
          std::pair{rec.dst_next, "dst_next"}}) {
      if (ptr != kNullRecord && !RelIdInBounds(ptr, partitioned, rel_high)) {
        issues.Add("rel-record", "rel " + IdStr(id) + " " + name +
                                     " points past the relationship store "
                                     "(rel " +
                                     IdStr(ptr) + ")");
      }
    }
    return true;
  }));

  if (!partitioned) {
    // Doubly-linked consistency: a null prev means the node record heads
    // the chain here; a non-null prev/next must be an in-use record that
    // links straight back. Self-loops share one chain for both sides, so
    // their pointer pairing is ambiguous and skipped.
    auto side_next = [](const RelRecord& rec, NodeId node) {
      return rec.src == node ? rec.src_next : rec.dst_next;
    };
    auto side_prev = [](const RelRecord& rec, NodeId node) {
      return rec.src == node ? rec.src_prev : rec.dst_prev;
    };
    for (const auto& [id, state] : live) {
      const RelRecord& rec = state.rec;
      if (rec.src == rec.dst) continue;
      for (auto [node, prev, next] :
           {std::tuple{rec.src, rec.src_prev, rec.src_next},
            std::tuple{rec.dst, rec.dst_prev, rec.dst_next}}) {
        if (node >= node_high || !node_in_use[node]) continue;
        if (prev == kNullRecord) {
          MBQ_ASSIGN_OR_RETURN(NodeRecord owner, db->RawNodeRecord(node));
          if (owner.first_rel != id) {
            issues.Add("rel-chain",
                       "rel " + IdStr(id) + " claims to head node " +
                           IdStr(node) + "'s chain but the node points at " +
                           (owner.first_rel == kNullRecord
                                ? std::string("nothing")
                                : "rel " + IdStr(owner.first_rel)));
          }
        } else {
          auto it = live.find(prev);
          if (it == live.end()) {
            issues.Add("rel-chain", "rel " + IdStr(id) +
                                        " prev pointer names freed rel " +
                                        IdStr(prev));
          } else if (it->second.rec.src != it->second.rec.dst &&
                     side_next(it->second.rec, node) != id) {
            issues.Add("rel-chain", "rel " + IdStr(prev) +
                                        " does not link forward to rel " +
                                        IdStr(id) + " on node " +
                                        IdStr(node) + "'s chain");
          }
        }
        if (next != kNullRecord) {
          auto it = live.find(next);
          if (it == live.end()) {
            issues.Add("rel-chain", "rel " + IdStr(id) +
                                        " next pointer names freed rel " +
                                        IdStr(next));
          } else if (it->second.rec.src != it->second.rec.dst &&
                     side_prev(it->second.rec, node) != id) {
            issues.Add("rel-chain", "rel " + IdStr(next) +
                                        " does not link back to rel " +
                                        IdStr(id) + " on node " +
                                        IdStr(node) + "'s chain");
          }
        }
      }
    }
  }

  // Pass 3 — chain reachability via the public walk (works in both
  // layouts): every in-use relationship must be reached exactly once
  // from each endpoint's chain. A cycle-guard caps the walk.
  const uint64_t walk_cap = report.rels_checked * 2 + 16;
  for (NodeId node = 0; node < node_high; ++node) {
    if (!node_in_use[node]) continue;
    uint64_t visited = 0;
    bool truncated = false;
    Status walk = db->ForEachRelationship(
        node, Direction::kBoth, std::nullopt,
        [&](const GraphDb::RelInfo& info) {
          if (++visited > walk_cap) {
            truncated = true;
            return false;
          }
          auto it = live.find(info.id);
          if (it == live.end()) {
            issues.Add("rel-chain", "node " + IdStr(node) +
                                        "'s chain yields freed rel " +
                                        IdStr(info.id));
            return true;
          }
          if (info.src != node && info.dst != node) {
            issues.Add("rel-chain", "node " + IdStr(node) +
                                        "'s chain contains rel " +
                                        IdStr(info.id) +
                                        " which is not incident to it");
            return true;
          }
          if (info.src == node) {
            if (it->second.src_seen && !it->second.dup_reported) {
              it->second.dup_reported = true;
              issues.Add("rel-chain", "rel " + IdStr(info.id) +
                                          " reached twice from node " +
                                          IdStr(node) + "'s chain");
            }
            it->second.src_seen = true;
          }
          if (info.dst == node) it->second.dst_seen = true;
          return true;
        });
    if (!walk.ok()) {
      issues.Add("rel-chain", "walking node " + IdStr(node) +
                                  "'s chain failed: " + walk.ToString());
    }
    if (truncated) {
      issues.Add("rel-chain", "node " + IdStr(node) +
                                  "'s chain exceeds the record count "
                                  "(pointer cycle?)");
    }
  }
  for (const auto& [id, state] : live) {
    if (!state.src_seen) {
      issues.Add("rel-chain", "rel " + IdStr(id) +
                                  " unreachable from its src node " +
                                  IdStr(state.rec.src) + "'s chain");
    }
    if (!state.dst_seen) {
      issues.Add("rel-chain", "rel " + IdStr(id) +
                                  " unreachable from its dst node " +
                                  IdStr(state.rec.dst) + "'s chain");
    }
  }

  // Pass 4 — label scan store completeness vs. a full node scan.
  for (LabelId label = 0; label < num_labels; ++label) {
    ++report.labels_checked;
    std::unordered_set<NodeId> scanned;
    MBQ_RETURN_IF_ERROR(db->ForEachNodeWithLabel(label, [&](NodeId id) {
      scanned.insert(id);
      return true;
    }));
    for (NodeId scanned_id : scanned) {
      if (scanned_id >= node_high || !node_in_use[scanned_id]) {
        issues.Add("label-scan", "label scan of '" + db->LabelName(label) +
                                     "' returned dead node " +
                                     IdStr(scanned_id));
      }
    }
    for (NodeId id = 0; id < node_high; ++id) {
      if (!node_in_use[id]) continue;
      MBQ_ASSIGN_OR_RETURN(NodeRecord rec, db->RawNodeRecord(id));
      if (rec.label == label && scanned.count(id) == 0) {
        issues.Add("label-scan", "node " + IdStr(id) + " has label '" +
                                     db->LabelName(label) +
                                     "' but the label scan misses it");
      }
    }
  }

  // Pass 5 — property-index completeness: every entry matches the stored
  // property, every stored property of an indexed (label, key) pair has
  // an entry.
  for (const GraphDb::IndexInfo& index : db->IndexCatalog()) {
    ++report.indexes_checked;
    std::unordered_map<NodeId, Value> entries;
    MBQ_RETURN_IF_ERROR(db->ForEachIndexEntry(
        index.label, index.key, [&](const Value& value, NodeId id) {
          auto [it, inserted] = entries.emplace(id, value);
          if (!inserted) {
            issues.Add("prop-index", "index :" + db->LabelName(index.label) +
                                         "(" + db->PropKeyName(index.key) +
                                         ") lists node " + IdStr(id) +
                                         " under two values");
          }
          return true;
        }));
    for (const auto& [id, value] : entries) {
      if (id >= node_high || !node_in_use[id]) {
        issues.Add("prop-index", "index :" + db->LabelName(index.label) +
                                     "(" + db->PropKeyName(index.key) +
                                     ") lists dead node " + IdStr(id));
        continue;
      }
      MBQ_ASSIGN_OR_RETURN(Value stored,
                           db->GetNodeProperty(id, index.key));
      if (!(stored == value)) {
        issues.Add("prop-index",
                   "index :" + db->LabelName(index.label) + "(" +
                       db->PropKeyName(index.key) + ") maps node " +
                       IdStr(id) + " to " + value.ToString() +
                       " but the store holds " + stored.ToString());
      }
    }
    for (NodeId id = 0; id < node_high; ++id) {
      if (!node_in_use[id]) continue;
      MBQ_ASSIGN_OR_RETURN(NodeRecord rec, db->RawNodeRecord(id));
      if (rec.label != index.label) continue;
      MBQ_ASSIGN_OR_RETURN(Value stored,
                           db->GetNodeProperty(id, index.key));
      if (stored.is_null()) continue;
      auto it = entries.find(id);
      if (it == entries.end()) {
        issues.Add("prop-index", "node " + IdStr(id) + " holds :" +
                                     db->LabelName(index.label) + "(" +
                                     db->PropKeyName(index.key) + ") = " +
                                     stored.ToString() +
                                     " but the index misses it");
      }
    }
  }

  issues.Finish();
  return report;
}

Result<CheckReport> CheckBitmapstore(Graph* graph,
                                     const CheckOptions& options) {
  CheckReport report;
  Collector issues(&report, options);

  // Pass 1 — per-type bitmap cardinality vs. the cached count, and
  // object-table agreement for every member.
  for (TypeId type = 0;
       type < static_cast<TypeId>(graph->NumTypes()); ++type) {
    MBQ_ASSIGN_OR_RETURN(Objects members, graph->Select(type));
    uint64_t cardinality = members.Count();
    uint64_t counted = graph->CountObjects(type);
    if (cardinality != counted) {
      issues.Add("type-count", "type '" + graph->TypeName(type) +
                                   "' bitmap holds " + IdStr(cardinality) +
                                   " objects but the count says " +
                                   IdStr(counted));
    }
    members.ForEach([&](Oid oid) {
      ++report.objects_checked;
      TypeId actual = graph->RawObjectType(oid);
      if (actual != type) {
        issues.Add("type-count", "oid " + IdStr(oid) + " sits in type '" +
                                     graph->TypeName(type) +
                                     "' bitmap but the object table says " +
                                     (actual == bitmapstore::kInvalidType
                                          ? std::string("freed")
                                          : "'" + graph->TypeName(actual) +
                                                "'"));
      }
    });
  }

  // Pass 2 — mutual src/dst adjacency agreement: walk every node's
  // per-edge-type bitmaps and tally which edges were seen from their
  // tail (outgoing) and head (ingoing); then require both for every
  // edge. Phantom oids and wrong-endpoint entries are caught inline.
  std::vector<TypeId> node_types = graph->NodeTypes();
  std::vector<TypeId> edge_types = graph->EdgeTypes();
  std::unordered_map<Oid, std::pair<bool, bool>> edge_seen;  // out, in
  for (TypeId etype : edge_types) {
    MBQ_ASSIGN_OR_RETURN(Objects edges, graph->Select(etype));
    edges.ForEach([&](Oid edge) { edge_seen.emplace(edge, std::pair{false,
                                                                    false}); });
    for (TypeId ntype : node_types) {
      MBQ_ASSIGN_OR_RETURN(Objects nodes, graph->Select(ntype));
      for (Oid node : nodes.ToVector()) {
        for (bool outgoing : {true, false}) {
          MBQ_ASSIGN_OR_RETURN(
              Objects incident,
              graph->Explode(node, etype,
                             outgoing ? EdgesDirection::kOutgoing
                                      : EdgesDirection::kIngoing));
          incident.ForEach([&](Oid edge) {
            if (graph->RawObjectType(edge) != etype) {
              issues.Add("adjacency",
                         "node " + IdStr(node) + " adjacency of '" +
                             graph->TypeName(etype) +
                             "' holds phantom oid " + IdStr(edge));
              return;
            }
            Oid tail = bitmapstore::kInvalidOid;
            Oid head = bitmapstore::kInvalidOid;
            graph->RawEdgeEndpoints(edge, &tail, &head);
            Oid expected = outgoing ? tail : head;
            if (expected != node) {
              issues.Add("adjacency",
                         "edge " + IdStr(edge) + " sits in node " +
                             IdStr(node) + "'s " +
                             (outgoing ? "outgoing" : "ingoing") +
                             " adjacency but its " +
                             (outgoing ? "tail" : "head") + " is node " +
                             IdStr(expected));
              return;
            }
            auto it = edge_seen.find(edge);
            if (it != edge_seen.end()) {
              (outgoing ? it->second.first : it->second.second) = true;
            }
          });
        }
      }
    }
    for (const auto& [edge, seen] : edge_seen) {
      if (graph->RawObjectType(edge) != etype) continue;
      if (!seen.first) {
        issues.Add("adjacency", "edge " + IdStr(edge) +
                                    " missing from its tail's outgoing "
                                    "adjacency");
      }
      if (!seen.second) {
        issues.Add("adjacency", "edge " + IdStr(edge) +
                                    " missing from its head's ingoing "
                                    "adjacency");
      }
    }
    edge_seen.clear();
  }

  // Pass 3 — indexed attributes: the value->objects bitmaps must agree
  // with the stored value set, and unique attributes must be unique.
  for (AttrId attr = 0;
       attr < static_cast<AttrId>(graph->NumAttributes()); ++attr) {
    AttributeKind kind = graph->GetAttributeKind(attr);
    if (kind == AttributeKind::kBasic) continue;
    ++report.attrs_checked;
    std::unordered_map<std::string, uint64_t> value_counts;
    std::vector<std::pair<Oid, Value>> stored;
    graph->ForEachAttributeValue(attr, [&](Oid oid, const Value& value) {
      stored.emplace_back(oid, value);
      ++value_counts[value.ToString()];
    });
    for (const auto& [oid, value] : stored) {
      MBQ_ASSIGN_OR_RETURN(
          Objects match,
          graph->Select(attr, bitmapstore::Condition::kEqual, value));
      if (!match.Contains(oid)) {
        issues.Add("attr-index", "attribute '" + graph->AttributeName(attr) +
                                     "' index misses oid " + IdStr(oid) +
                                     " for value " + value.ToString());
      }
      uint64_t count = value_counts[value.ToString()];
      if (match.Count() != count) {
        issues.Add("attr-index",
                   "attribute '" + graph->AttributeName(attr) +
                       "' value " + value.ToString() + " indexes " +
                       IdStr(match.Count()) + " objects but " +
                       IdStr(count) + " hold it");
      }
      if (kind == AttributeKind::kUnique && count > 1) {
        issues.Add("attr-index", "unique attribute '" +
                                     graph->AttributeName(attr) +
                                     "' holds value " + value.ToString() +
                                     " " + IdStr(count) + " times");
      }
    }
  }

  issues.Finish();
  return report;
}

namespace {

// WAL record framing, kept in sync with store/delta/wal.cc — the checker
// decodes the file independently so a Wal bug cannot vouch for itself.
constexpr uint32_t kWalMagic = 0x4C57424Du;  // "MBWL" little-endian
constexpr size_t kWalHeaderBytes = 4 + 8 + 4 + 4;

uint32_t ReadLeU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t ReadLeU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

Result<CheckReport> CheckWritePath(MicroblogEngine& engine,
                                   const twitter::Dataset& base,
                                   const CheckOptions& options) {
  WritableEngine* writer = engine.AsWritable();
  if (writer == nullptr) {
    return Status::InvalidArgument("engine " + engine.name() +
                                   " is read-only: no write path to check");
  }
  if (writer->wal() == nullptr) {
    return Status::InvalidArgument("engine " + engine.name() +
                                   " runs without a WAL: no record of its "
                                   "writes to check");
  }
  CheckReport report;
  Collector issues(&report, options);

  // Pass 1 — decode the log independently (never truncating — a torn
  // tail is evidence here, not something to repair) into the committed
  // ops, in sequence order.
  const std::string& wal_path = writer->wal()->path();
  std::vector<store::WriteOp> ops;
  uint64_t last_seq = 0;
  std::ifstream in(wal_path, std::ios::binary);
  if (!in) {
    issues.Add("wal-record", "cannot read WAL at " + wal_path);
  } else {
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    size_t off = 0;
    while (data.size() - off >= kWalHeaderBytes) {
      const char* p = data.data() + off;
      if (ReadLeU32(p) != kWalMagic) break;
      const uint64_t seq = ReadLeU64(p + 4);
      const uint32_t len = ReadLeU32(p + 12);
      const uint32_t crc = ReadLeU32(p + 16);
      if (data.size() - off - kWalHeaderBytes < len) break;  // torn
      std::string_view payload(p + kWalHeaderBytes, len);
      if (store::WalCrc32(payload) != crc) {
        issues.Add("wal-record", "record at offset " + IdStr(off) + " (seq " +
                                     IdStr(seq) + ") fails its CRC");
        break;
      }
      if (seq != last_seq + 1) {
        issues.Add("wal-record", "sequence jumps from " + IdStr(last_seq) +
                                     " to " + IdStr(seq) + " at offset " +
                                     IdStr(off));
        break;
      }
      Result<store::WriteBatch> batch = store::DecodeWriteBatch(payload);
      if (!batch.ok()) {
        issues.Add("wal-record", "record seq " + IdStr(seq) +
                                     " does not decode: " +
                                     batch.status().message());
        break;
      }
      for (const store::WriteOp& op : batch->ops()) ops.push_back(op);
      ++report.wal_records_checked;
      last_seq = seq;
      off += kWalHeaderBytes + len;
    }
    if (off < data.size()) {
      issues.Add("wal-tail",
                 IdStr(data.size() - off) +
                     " byte(s) of torn or garbage tail at offset " +
                     IdStr(off) + " (replay-on-open would truncate them)");
    }
  }

  // Pass 2 — replay the logged ops over the base crawl's follows set to
  // predict which pairs should be visible.
  const int64_t tid_floor = static_cast<int64_t>(base.tweets.size());
  std::set<std::pair<int64_t, int64_t>> live(base.follows.begin(),
                                             base.follows.end());
  std::map<int64_t, std::set<int64_t>> touched;  // src -> dsts written
  std::set<int64_t> fresh_tids;
  uint64_t unfollows = 0;
  for (const store::WriteOp& op : ops) {
    ++report.delta_ops_checked;
    switch (op.kind) {
      case store::WriteOpKind::kPostTweet:
        if (op.b < tid_floor) {
          issues.Add("delta-tid",
                     "post_tweet assigned tid " + std::to_string(op.b) +
                         " inside the bulk-loaded id space [0, " +
                         std::to_string(tid_floor) + ")");
        }
        if (!fresh_tids.insert(op.b).second) {
          issues.Add("delta-tid", "tid " + std::to_string(op.b) +
                                      " assigned to two post_tweet ops");
        }
        break;
      case store::WriteOpKind::kFollow:
        live.insert({op.a, op.b});
        touched[op.a].insert(op.b);
        break;
      case store::WriteOpKind::kUnfollow:
        // Deletes are idempotent (an unfollow of a never-followed pair
        // is a legal no-op); only the tombstone bookkeeping is checked.
        ++unfollows;
        live.erase({op.a, op.b});
        touched[op.a].insert(op.b);
        break;
      case store::WriteOpKind::kAddMention:
      case store::WriteOpKind::kNewUser:
      case store::WriteOpKind::kTagTweet:
      case store::WriteOpKind::kRetweetOf:
        break;
    }
  }

  // The writer's commit counters must summarize exactly the logged prefix.
  const store::DeltaStore& delta = writer->delta();
  auto expect = [&issues](const char* counter, uint64_t counted,
                          uint64_t logged) {
    if (counted == logged) return;
    issues.Add("delta-counters", std::string(counter) + ": the writer counts " +
                                     IdStr(counted) + " but the WAL holds " +
                                     IdStr(logged));
  };
  expect("batches", delta.batches(), report.wal_records_checked);
  expect("ops", delta.ops(), ops.size());
  expect("tombstones", delta.tombstones(), unfollows);
  expect("last_seq", delta.last_seq(), last_seq);

  // Pass 3 — delta-over-base visibility: every written follows pair must
  // read back exactly as the replay predicts.
  for (const auto& [src, dsts] : touched) {
    MBQ_ASSIGN_OR_RETURN(ValueRows rows, engine.FolloweesOf(src));
    std::set<int64_t> followees;
    for (const ValueRow& row : rows) {
      if (!row.empty()) followees.insert(row[0].AsInt());
    }
    for (int64_t dst : dsts) {
      ++report.rels_checked;
      const bool want = live.count({src, dst}) > 0;
      const bool got = followees.count(dst) > 0;
      if (want != got) {
        issues.Add("delta-visibility",
                   "follows " + std::to_string(src) + " -> " +
                       std::to_string(dst) + " should be " +
                       (want ? "visible" : "tombstoned") + " but the engine " +
                       (got ? "returns" : "omits") + " it");
      }
    }
  }

  issues.Finish();
  return report;
}

}  // namespace mbq::core
