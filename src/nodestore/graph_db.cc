#include "nodestore/graph_db.h"

#include <algorithm>

#include "util/logging.h"

namespace mbq::nodestore {

using common::ValueType;

GraphDb::GraphDb(GraphDbOptions options) : options_(options) {
  MBQ_CHECK_MSG(!options_.wal_enabled,
                "GraphDbOptions::wal_enabled: the record store has no "
                "redo log; open a writable engine with a WAL directory");
  io_clock_ = std::make_unique<VirtualClock>();
  disk_ = std::make_unique<storage::SimulatedDisk>(options_.disk_profile,
                                                   io_clock_.get());
  storage::BufferCacheOptions cache_options;
  cache_options.capacity_pages =
      std::max<size_t>(16, options_.cache_bytes / storage::kPageSize);
  cache_options.write_policy = options_.write_through
                                   ? storage::WritePolicy::kWriteThrough
                                   : storage::WritePolicy::kWriteBack;
  cache_options.flush_all_when_full = false;  // evict-one, Neo4j style
  cache_ = std::make_unique<storage::BufferCache>(disk_.get(), cache_options);
  extents_ = std::make_unique<storage::ExtentAllocator>(disk_.get(), 8);
  accountant_ =
      std::make_unique<storage::StorageAccountant>(cache_.get(), extents_.get());

  node_store_ = std::make_unique<RecordFile>("nodestore", cache_.get(),
                                             NodeRecord::kSize, &db_hits_);
  rel_store_ = std::make_unique<RecordFile>("relstore", cache_.get(),
                                            RelRecord::kSize, &db_hits_);
  prop_store_ = std::make_unique<RecordFile>("propstore", cache_.get(),
                                             PropRecord::kSize, &db_hits_);
  string_store_ = std::make_unique<RecordFile>("stringstore", cache_.get(),
                                               StringRecord::kSize, &db_hits_);
  group_store_ = std::make_unique<RecordFile>("groupstore", cache_.get(),
                                              GroupRecord::kSize, &db_hits_);

  obs::MetricsRegistry* registry = options_.metrics != nullptr
                                       ? options_.metrics
                                       : &obs::MetricsRegistry::Default();
  metrics_provider_ =
      obs::ScopedProvider(registry, [this](obs::MetricsSink* sink) {
        const storage::BufferCacheStats cache = cache_->stats();
        sink->Gauge("nodestore.page_cache.hits",
                    static_cast<double>(cache.hits), "pages");
        sink->Gauge("nodestore.page_cache.misses",
                    static_cast<double>(cache.misses), "pages");
        sink->Gauge("nodestore.page_cache.evictions",
                    static_cast<double>(cache.evictions), "pages");
        sink->Gauge("nodestore.page_cache.pages_flushed",
                    static_cast<double>(cache.pages_flushed), "pages");
        sink->Gauge("nodestore.page_cache.flush_stalls",
                    static_cast<double>(cache.flush_stalls), "events");
        sink->Gauge("nodestore.page_cache.resident_bytes",
                    static_cast<double>(cache_->resident_bytes()), "bytes");
        const storage::DiskStats disk = disk_->stats();
        sink->Gauge("nodestore.disk.page_reads",
                    static_cast<double>(disk.page_reads), "pages");
        sink->Gauge("nodestore.disk.page_writes",
                    static_cast<double>(disk.page_writes), "pages");
        sink->Gauge("nodestore.disk.seeks", static_cast<double>(disk.seeks),
                    "seeks");
        sink->Gauge("nodestore.disk.busy_nanos",
                    static_cast<double>(disk.busy_nanos), "ns");
        sink->Gauge("nodestore.disk.resident_bytes",
                    static_cast<double>(disk_->ResidentBytes()), "bytes");
        sink->Gauge("nodestore.record_reads",
                    static_cast<double>(db_hits_.total()), "records");
        sink->Gauge("nodestore.nodes", static_cast<double>(num_nodes_),
                    "nodes");
        sink->Gauge("nodestore.rels", static_cast<double>(num_rels_), "rels");
      });
}

GraphDb::~GraphDb() = default;

// -------------------------------------------------------------- Registries

Result<LabelId> GraphDb::Label(const std::string& name) {
  auto it = label_ids_.find(name);
  if (it != label_ids_.end()) return it->second;
  if (label_names_.size() >= kInvalidLabel) {
    return Status::OutOfRange("too many labels");
  }
  LabelId id = static_cast<LabelId>(label_names_.size());
  label_names_.push_back(name);
  label_ids_[name] = id;
  label_scan_.emplace_back();
  label_counts_.push_back(0);
  return id;
}

Result<LabelId> GraphDb::FindLabel(const std::string& name) const {
  auto it = label_ids_.find(name);
  if (it == label_ids_.end()) return Status::NotFound("no label: " + name);
  return it->second;
}

const std::string& GraphDb::LabelName(LabelId label) const {
  MBQ_CHECK(label < label_names_.size());
  return label_names_[label];
}

Result<RelTypeId> GraphDb::RelType(const std::string& name) {
  auto it = rel_type_ids_.find(name);
  if (it != rel_type_ids_.end()) return it->second;
  if (rel_type_names_.size() >= kInvalidRelType) {
    return Status::OutOfRange("too many relationship types");
  }
  RelTypeId id = static_cast<RelTypeId>(rel_type_names_.size());
  rel_type_names_.push_back(name);
  rel_type_ids_[name] = id;
  return id;
}

Result<RelTypeId> GraphDb::FindRelType(const std::string& name) const {
  auto it = rel_type_ids_.find(name);
  if (it == rel_type_ids_.end()) {
    return Status::NotFound("no relationship type: " + name);
  }
  return it->second;
}

const std::string& GraphDb::RelTypeName(RelTypeId type) const {
  MBQ_CHECK(type < rel_type_names_.size());
  return rel_type_names_[type];
}

PropKeyId GraphDb::PropKey(const std::string& name) {
  auto it = prop_key_ids_.find(name);
  if (it != prop_key_ids_.end()) return it->second;
  PropKeyId id = static_cast<PropKeyId>(prop_key_names_.size());
  prop_key_names_.push_back(name);
  prop_key_ids_[name] = id;
  return id;
}

Result<PropKeyId> GraphDb::FindPropKey(const std::string& name) const {
  auto it = prop_key_ids_.find(name);
  if (it == prop_key_ids_.end()) {
    return Status::NotFound("no property key: " + name);
  }
  return it->second;
}

const std::string& GraphDb::PropKeyName(PropKeyId key) const {
  MBQ_CHECK(key < prop_key_names_.size());
  return prop_key_names_[key];
}

// --------------------------------------------------- Relationship stores

RecordFile* GraphDb::RelStoreForType(RelTypeId type) {
  if (!options_.semantic_partitioning) return rel_store_.get();
  while (typed_rel_stores_.size() <= type) {
    size_t index = typed_rel_stores_.size();
    std::string name = index < rel_type_names_.size()
                           ? "relstore." + rel_type_names_[index]
                           : "relstore.#" + std::to_string(index);
    typed_rel_stores_.push_back(std::make_unique<RecordFile>(
        std::move(name), cache_.get(), RelRecord::kSize, &db_hits_));
  }
  return typed_rel_stores_[type].get();
}

namespace {
// Partitioned rel ids: partition+1 in the top 16 bits, local id below.
constexpr uint64_t kRelLocalMask = (uint64_t{1} << 48) - 1;
}  // namespace

RecordFile* GraphDb::RelStoreFor(RelId id) {
  if (!options_.semantic_partitioning) return rel_store_.get();
  uint64_t partition = (id >> 48) - 1;
  MBQ_CHECK(partition < typed_rel_stores_.size());
  return typed_rel_stores_[partition].get();
}

Result<RelId> GraphDb::AllocateRel(RelTypeId type) {
  if (!options_.semantic_partitioning) return rel_store_->Allocate();
  MBQ_ASSIGN_OR_RETURN(RecordId local, RelStoreForType(type)->Allocate());
  return ((static_cast<uint64_t>(type) + 1) << 48) | local;
}

Result<RelRecord> GraphDb::GetRel(RelId id) {
  if (!options_.semantic_partitioning) {
    return rel_store_->Get<RelRecord>(id);
  }
  return RelStoreFor(id)->Get<RelRecord>(id & kRelLocalMask);
}

Status GraphDb::PutRel(RelId id, const RelRecord& rec) {
  if (!options_.semantic_partitioning) {
    return rel_store_->Put(id, rec);
  }
  return RelStoreFor(id)->Put(id & kRelLocalMask, rec);
}

Status GraphDb::FreeRel(RelId id) {
  if (!options_.semantic_partitioning) return rel_store_->Free(id);
  return RelStoreFor(id)->Free(id & kRelLocalMask);
}

// ------------------------------------------------------------------ Undo

void GraphDb::PushUndo(std::function<Status()> undo) {
  if (in_tx_) undo_log_.push_back(std::move(undo));
}

// ------------------------------------------------------------------ Writes

Result<NodeId> GraphDb::CreateNode(LabelId label) {
  if (label >= label_names_.size()) {
    return Status::InvalidArgument("unknown label id");
  }
  epochs_.Bump(cache::LabelDomain(label));
  MBQ_ASSIGN_OR_RETURN(NodeId id, node_store_->Allocate());
  NodeRecord rec;
  rec.in_use = true;
  rec.label = label;
  MBQ_RETURN_IF_ERROR(node_store_->Put(id, rec));
  label_scan_[label].push_back(id);
  ++label_counts_[label];
  ++num_nodes_;
  PushUndo([this, id]() { return DeleteNode(id); });
  return id;
}

// ------------------------------------------------------------ Chain heads

Result<RecordId> GraphDb::FindGroup(NodeId node, RelTypeId type, bool create) {
  MBQ_ASSIGN_OR_RETURN(NodeRecord nrec, node_store_->Get<NodeRecord>(node));
  RecordId cur = nrec.first_rel;  // heads the group list when partitioned
  while (cur != kNullRecord) {
    MBQ_ASSIGN_OR_RETURN(GroupRecord group,
                         group_store_->Get<GroupRecord>(cur));
    if (group.type == type) return cur;
    cur = group.next_group;
  }
  if (!create) return kNullRecord;
  MBQ_ASSIGN_OR_RETURN(RecordId id, group_store_->Allocate());
  GroupRecord group;
  group.in_use = true;
  group.type = type;
  group.next_group = nrec.first_rel;
  MBQ_RETURN_IF_ERROR(group_store_->Put(id, group));
  nrec.first_rel = id;
  MBQ_RETURN_IF_ERROR(node_store_->Put(node, nrec));
  return id;
}

Result<RecordId> GraphDb::GetChainHead(NodeId node, RelTypeId type) {
  if (!options_.semantic_partitioning) {
    MBQ_ASSIGN_OR_RETURN(NodeRecord nrec, node_store_->Get<NodeRecord>(node));
    return nrec.first_rel;
  }
  MBQ_ASSIGN_OR_RETURN(RecordId group_id, FindGroup(node, type, false));
  if (group_id == kNullRecord) return kNullRecord;
  MBQ_ASSIGN_OR_RETURN(GroupRecord group,
                       group_store_->Get<GroupRecord>(group_id));
  return group.first_rel;
}

Status GraphDb::SetChainHead(NodeId node, RelTypeId type, RecordId head) {
  if (!options_.semantic_partitioning) {
    MBQ_ASSIGN_OR_RETURN(NodeRecord nrec, node_store_->Get<NodeRecord>(node));
    nrec.first_rel = head;
    return node_store_->Put(node, nrec);
  }
  MBQ_ASSIGN_OR_RETURN(RecordId group_id, FindGroup(node, type, true));
  MBQ_ASSIGN_OR_RETURN(GroupRecord group,
                       group_store_->Get<GroupRecord>(group_id));
  group.first_rel = head;
  return group_store_->Put(group_id, group);
}

Result<RelId> GraphDb::CreateRelationship(RelTypeId type, NodeId src,
                                          NodeId dst) {
  if (type >= rel_type_names_.size()) {
    return Status::InvalidArgument("unknown relationship type id");
  }
  epochs_.Bump(cache::RelTypeDomain(type));
  MBQ_ASSIGN_OR_RETURN(NodeRecord src_rec, node_store_->Get<NodeRecord>(src));
  if (!src_rec.in_use) return Status::NotFound("source node not in use");
  MBQ_ASSIGN_OR_RETURN(NodeRecord dst_rec, node_store_->Get<NodeRecord>(dst));
  if (!dst_rec.in_use) return Status::NotFound("target node not in use");

  MBQ_ASSIGN_OR_RETURN(RecordId src_head, GetChainHead(src, type));
  RecordId dst_head = src_head;
  if (src != dst) {
    MBQ_ASSIGN_OR_RETURN(dst_head, GetChainHead(dst, type));
  }

  MBQ_ASSIGN_OR_RETURN(RelId id, AllocateRel(type));
  RelRecord rel;
  rel.in_use = true;
  rel.type = type;
  rel.src = src;
  rel.dst = dst;
  rel.src_next = src_head;
  rel.dst_next = dst_head;

  // Fix the previous chain heads' back-pointers.
  auto fix_prev = [&](NodeId node, RecordId old_head) -> Status {
    if (old_head == kNullRecord) return Status::OK();
    MBQ_ASSIGN_OR_RETURN(RelRecord old_rec, GetRel(old_head));
    if (old_rec.src == node) old_rec.src_prev = id;
    if (old_rec.dst == node) old_rec.dst_prev = id;
    return PutRel(old_head, old_rec);
  };
  MBQ_RETURN_IF_ERROR(fix_prev(src, src_head));
  if (src != dst) {
    MBQ_RETURN_IF_ERROR(fix_prev(dst, dst_head));
  }

  MBQ_RETURN_IF_ERROR(PutRel(id, rel));
  MBQ_RETURN_IF_ERROR(SetChainHead(src, type, id));
  if (src != dst) {
    MBQ_RETURN_IF_ERROR(SetChainHead(dst, type, id));
  }
  ++num_rels_;
  PushUndo([this, id]() { return DeleteRelationship(id); });
  return id;
}

Status GraphDb::UnlinkRelationship(const RelRecord& rel, RelId rel_id) {
  // Unlink from one endpoint's chain; for self-loops both chain pointers
  // live in the same record, handled by the src side alone.
  auto unlink_side = [&](NodeId node, RecordId prev, RecordId next) -> Status {
    if (prev == kNullRecord) {
      MBQ_ASSIGN_OR_RETURN(RecordId head, GetChainHead(node, rel.type));
      if (head == rel_id) {
        MBQ_RETURN_IF_ERROR(SetChainHead(node, rel.type, next));
      }
    } else {
      MBQ_ASSIGN_OR_RETURN(RelRecord prec, GetRel(prev));
      if (prec.src == node && prec.src_next == rel_id) prec.src_next = next;
      if (prec.dst == node && prec.dst_next == rel_id) prec.dst_next = next;
      MBQ_RETURN_IF_ERROR(PutRel(prev, prec));
    }
    if (next != kNullRecord) {
      MBQ_ASSIGN_OR_RETURN(RelRecord nrec, GetRel(next));
      if (nrec.src == node && nrec.src_prev == rel_id) nrec.src_prev = prev;
      if (nrec.dst == node && nrec.dst_prev == rel_id) nrec.dst_prev = prev;
      MBQ_RETURN_IF_ERROR(PutRel(next, nrec));
    }
    return Status::OK();
  };
  MBQ_RETURN_IF_ERROR(unlink_side(rel.src, rel.src_prev, rel.src_next));
  if (rel.src != rel.dst) {
    MBQ_RETURN_IF_ERROR(unlink_side(rel.dst, rel.dst_prev, rel.dst_next));
  }
  return Status::OK();
}

Status GraphDb::DeleteRelationship(RelId rel_id) {
  MBQ_ASSIGN_OR_RETURN(RelRecord rel, GetRel(rel_id));
  if (!rel.in_use) return Status::NotFound("relationship not in use");
  epochs_.Bump(cache::RelTypeDomain(rel.type));
  MBQ_RETURN_IF_ERROR(UnlinkRelationship(rel, rel_id));
  MBQ_RETURN_IF_ERROR(FreePropertyChain(rel.first_prop));
  RelRecord cleared;
  cleared.in_use = false;
  MBQ_RETURN_IF_ERROR(PutRel(rel_id, cleared));
  MBQ_RETURN_IF_ERROR(FreeRel(rel_id));
  --num_rels_;
  RelTypeId type = rel.type;
  NodeId src = rel.src;
  NodeId dst = rel.dst;
  PushUndo([this, type, src, dst]() {
    return CreateRelationship(type, src, dst).status();
  });
  return Status::OK();
}

Status GraphDb::DeleteNode(NodeId node) {
  MBQ_ASSIGN_OR_RETURN(NodeRecord rec, node_store_->Get<NodeRecord>(node));
  if (!rec.in_use) return Status::NotFound("node not in use");
  epochs_.Bump(cache::LabelDomain(rec.label));
  if (options_.semantic_partitioning) {
    // first_rel heads the group list; groups must all be empty, and the
    // empty group records are freed with the node.
    RecordId group_id = rec.first_rel;
    while (group_id != kNullRecord) {
      MBQ_ASSIGN_OR_RETURN(GroupRecord group,
                           group_store_->Get<GroupRecord>(group_id));
      if (group.first_rel != kNullRecord) {
        return Status::FailedPrecondition(
            "node still has relationships; use DetachDeleteNode");
      }
      group_id = group.next_group;
    }
    group_id = rec.first_rel;
    while (group_id != kNullRecord) {
      MBQ_ASSIGN_OR_RETURN(GroupRecord group,
                           group_store_->Get<GroupRecord>(group_id));
      RecordId next = group.next_group;
      GroupRecord cleared_group;
      MBQ_RETURN_IF_ERROR(group_store_->Put(group_id, cleared_group));
      MBQ_RETURN_IF_ERROR(group_store_->Free(group_id));
      group_id = next;
    }
    rec.first_rel = kNullRecord;
  } else if (rec.first_rel != kNullRecord) {
    return Status::FailedPrecondition(
        "node still has relationships; use DetachDeleteNode");
  }
  // Remove index entries for this node.
  for (IndexDef& index : indexes_) {
    if (index.label != rec.label) continue;
    bool found = false;
    MBQ_ASSIGN_OR_RETURN(Value v,
                         ReadPropertyChain(rec.first_prop, index.key, &found));
    if (found) IndexRemove(index, v, node);
  }
  MBQ_RETURN_IF_ERROR(FreePropertyChain(rec.first_prop));
  NodeRecord cleared;
  cleared.in_use = false;
  MBQ_RETURN_IF_ERROR(node_store_->Put(node, cleared));
  MBQ_RETURN_IF_ERROR(node_store_->Free(node));
  --label_counts_[rec.label];
  --num_nodes_;
  LabelId label = rec.label;
  PushUndo([this, label]() { return CreateNode(label).status(); });
  return Status::OK();
}

Status GraphDb::DetachDeleteNode(NodeId node) {
  MBQ_ASSIGN_OR_RETURN(NodeRecord rec, node_store_->Get<NodeRecord>(node));
  if (!rec.in_use) return Status::NotFound("node not in use");
  for (;;) {
    RelId victim = kInvalidRel;
    MBQ_RETURN_IF_ERROR(ForEachRelationship(node, Direction::kBoth,
                                            std::nullopt,
                                            [&](const RelInfo& rel) {
                                              victim = rel.id;
                                              return false;
                                            }));
    if (victim == kInvalidRel) break;
    MBQ_RETURN_IF_ERROR(DeleteRelationship(victim));
  }
  return DeleteNode(node);
}

// --------------------------------------------------------- Property codec

Result<Value> GraphDb::DecodeProp(const PropRecord& rec) {
  switch (rec.tag) {
    case PropValueTag::kBool:
      return Value::Bool(rec.payload[0] != 0);
    case PropValueTag::kInt: {
      int64_t v;
      std::memcpy(&v, rec.payload, sizeof(v));
      return Value::Int(v);
    }
    case PropValueTag::kDouble: {
      double v;
      std::memcpy(&v, rec.payload, sizeof(v));
      return Value::Double(v);
    }
    case PropValueTag::kInlineString: {
      uint8_t len = rec.payload[0];
      return Value::String(std::string(
          reinterpret_cast<const char*>(rec.payload + 1), len));
    }
    case PropValueTag::kLongString: {
      RecordId block;
      uint32_t length;
      std::memcpy(&block, rec.payload, sizeof(block));
      std::memcpy(&length, rec.payload + sizeof(block), sizeof(length));
      std::string out;
      out.reserve(length);
      while (block != kNullRecord && out.size() < length) {
        MBQ_ASSIGN_OR_RETURN(StringRecord srec,
                             string_store_->Get<StringRecord>(block));
        out.append(reinterpret_cast<const char*>(srec.payload),
                   srec.used_bytes);
        block = srec.next;
      }
      if (out.size() != length) {
        return Status::Corruption("string chain shorter than declared");
      }
      return Value::String(std::move(out));
    }
  }
  return Status::Corruption("bad property tag");
}

namespace {

Status EncodeShortProp(const Value& value, PropRecord* rec) {
  switch (value.type()) {
    case ValueType::kBool:
      rec->tag = PropValueTag::kBool;
      rec->payload[0] = value.AsBool() ? 1 : 0;
      return Status::OK();
    case ValueType::kInt: {
      rec->tag = PropValueTag::kInt;
      int64_t v = value.AsInt();
      std::memcpy(rec->payload, &v, sizeof(v));
      return Status::OK();
    }
    case ValueType::kDouble: {
      rec->tag = PropValueTag::kDouble;
      double v = value.AsDouble();
      std::memcpy(rec->payload, &v, sizeof(v));
      return Status::OK();
    }
    case ValueType::kString: {
      const std::string& s = value.AsString();
      if (s.size() <= PropRecord::kMaxInlineString) {
        rec->tag = PropValueTag::kInlineString;
        rec->payload[0] = static_cast<uint8_t>(s.size());
        std::memcpy(rec->payload + 1, s.data(), s.size());
        return Status::OK();
      }
      return Status::OutOfRange("long string");  // caller handles
    }
    case ValueType::kNull:
      break;
  }
  return Status::InvalidArgument("cannot store null property");
}

}  // namespace

Status GraphDb::FreePropertyChain(RecordId first_prop) {
  RecordId cur = first_prop;
  while (cur != kNullRecord) {
    MBQ_ASSIGN_OR_RETURN(PropRecord rec, prop_store_->Get<PropRecord>(cur));
    if (rec.tag == PropValueTag::kLongString) {
      RecordId block;
      std::memcpy(&block, rec.payload, sizeof(block));
      while (block != kNullRecord) {
        MBQ_ASSIGN_OR_RETURN(StringRecord srec,
                             string_store_->Get<StringRecord>(block));
        RecordId next = srec.next;
        StringRecord cleared;
        MBQ_RETURN_IF_ERROR(string_store_->Put(block, cleared));
        MBQ_RETURN_IF_ERROR(string_store_->Free(block));
        block = next;
      }
    }
    RecordId next = rec.next;
    PropRecord cleared;
    MBQ_RETURN_IF_ERROR(prop_store_->Put(cur, cleared));
    MBQ_RETURN_IF_ERROR(prop_store_->Free(cur));
    cur = next;
  }
  return Status::OK();
}

Result<Value> GraphDb::ReadPropertyChain(RecordId first_prop, PropKeyId key,
                                         bool* found) {
  *found = false;
  RecordId cur = first_prop;
  while (cur != kNullRecord) {
    MBQ_ASSIGN_OR_RETURN(PropRecord rec, prop_store_->Get<PropRecord>(cur));
    if (rec.in_use && rec.key == key) {
      *found = true;
      return DecodeProp(rec);
    }
    cur = rec.next;
  }
  return Value::Null();
}

Status GraphDb::WritePropertyChain(RecordId* first_prop, PropKeyId key,
                                   const Value& value) {
  // Find existing record for the key (tracking the predecessor for
  // removal).
  RecordId prev = kNullRecord;
  RecordId cur = *first_prop;
  while (cur != kNullRecord) {
    MBQ_ASSIGN_OR_RETURN(PropRecord rec, prop_store_->Get<PropRecord>(cur));
    if (rec.in_use && rec.key == key) break;
    prev = cur;
    cur = rec.next;
  }

  if (value.is_null()) {
    if (cur == kNullRecord) return Status::OK();  // nothing to remove
    MBQ_ASSIGN_OR_RETURN(PropRecord rec, prop_store_->Get<PropRecord>(cur));
    RecordId next = rec.next;
    // Detach the record before freeing it, so FreePropertyChain (which
    // re-reads the store) frees only this one-element chain.
    rec.next = kNullRecord;
    MBQ_RETURN_IF_ERROR(prop_store_->Put(cur, rec));
    MBQ_RETURN_IF_ERROR(FreePropertyChain(cur));
    if (prev == kNullRecord) {
      *first_prop = next;
    } else {
      MBQ_ASSIGN_OR_RETURN(PropRecord prec, prop_store_->Get<PropRecord>(prev));
      prec.next = next;
      MBQ_RETURN_IF_ERROR(prop_store_->Put(prev, prec));
    }
    return Status::OK();
  }

  PropRecord rec;
  RecordId old_next = kNullRecord;
  if (cur != kNullRecord) {
    MBQ_ASSIGN_OR_RETURN(PropRecord old_rec, prop_store_->Get<PropRecord>(cur));
    old_next = old_rec.next;
    if (old_rec.tag == PropValueTag::kLongString) {
      // Free the old string chain before overwriting.
      RecordId block;
      std::memcpy(&block, old_rec.payload, sizeof(block));
      while (block != kNullRecord) {
        MBQ_ASSIGN_OR_RETURN(StringRecord srec,
                             string_store_->Get<StringRecord>(block));
        RecordId nb = srec.next;
        StringRecord cleared;
        MBQ_RETURN_IF_ERROR(string_store_->Put(block, cleared));
        MBQ_RETURN_IF_ERROR(string_store_->Free(block));
        block = nb;
      }
    }
  }
  rec.in_use = true;
  rec.key = key;
  rec.next = cur != kNullRecord ? old_next : *first_prop;

  Status short_status = EncodeShortProp(value, &rec);
  if (short_status.IsOutOfRange()) {
    // Long string: spill into the dynamic string store.
    const std::string& s = value.AsString();
    RecordId first_block = kNullRecord;
    RecordId prev_block = kNullRecord;
    for (size_t off = 0; off < s.size(); off += StringRecord::kPayloadSize) {
      MBQ_ASSIGN_OR_RETURN(RecordId block, string_store_->Allocate());
      StringRecord srec;
      srec.in_use = true;
      size_t n = std::min<size_t>(StringRecord::kPayloadSize, s.size() - off);
      srec.used_bytes = static_cast<uint8_t>(n);
      std::memcpy(srec.payload, s.data() + off, n);
      MBQ_RETURN_IF_ERROR(string_store_->Put(block, srec));
      if (prev_block == kNullRecord) {
        first_block = block;
      } else {
        MBQ_ASSIGN_OR_RETURN(StringRecord prec,
                             string_store_->Get<StringRecord>(prev_block));
        prec.next = block;
        MBQ_RETURN_IF_ERROR(string_store_->Put(prev_block, prec));
      }
      prev_block = block;
    }
    rec.tag = PropValueTag::kLongString;
    uint32_t length = static_cast<uint32_t>(s.size());
    std::memcpy(rec.payload, &first_block, sizeof(first_block));
    std::memcpy(rec.payload + sizeof(first_block), &length, sizeof(length));
  } else if (!short_status.ok()) {
    return short_status;
  }

  if (cur != kNullRecord) {
    return prop_store_->Put(cur, rec);
  }
  MBQ_ASSIGN_OR_RETURN(RecordId id, prop_store_->Allocate());
  MBQ_RETURN_IF_ERROR(prop_store_->Put(id, rec));
  *first_prop = id;
  return Status::OK();
}

Status GraphDb::SetNodeProperty(NodeId node, PropKeyId key,
                                const Value& value) {
  MBQ_ASSIGN_OR_RETURN(NodeRecord rec, node_store_->Get<NodeRecord>(node));
  if (!rec.in_use) return Status::NotFound("node not in use");
  epochs_.Bump(cache::LabelDomain(rec.label));
  bool had_old = false;
  MBQ_ASSIGN_OR_RETURN(Value old_value,
                       ReadPropertyChain(rec.first_prop, key, &had_old));
  RecordId first = rec.first_prop;
  MBQ_RETURN_IF_ERROR(WritePropertyChain(&first, key, value));
  if (first != rec.first_prop) {
    rec.first_prop = first;
    MBQ_RETURN_IF_ERROR(node_store_->Put(node, rec));
  }
  MBQ_RETURN_IF_ERROR(
      UpdateIndexesOnPropertyChange(node, key, old_value, value));
  if (had_old) {
    PushUndo([this, node, key, old_value]() {
      return SetNodeProperty(node, key, old_value);
    });
  } else {
    PushUndo([this, node, key]() {
      return SetNodeProperty(node, key, Value::Null());
    });
  }
  return Status::OK();
}

// ------------------------------------------------------------------- Reads

bool GraphDb::NodeExists(NodeId node) {
  if (node >= node_store_->high_id()) return false;
  auto rec = node_store_->Get<NodeRecord>(node);
  return rec.ok() && rec->in_use;
}

Result<LabelId> GraphDb::NodeLabel(NodeId node) {
  MBQ_ASSIGN_OR_RETURN(NodeRecord rec, node_store_->Get<NodeRecord>(node));
  if (!rec.in_use) return Status::NotFound("node not in use");
  return rec.label;
}

Result<Value> GraphDb::GetNodeProperty(NodeId node, PropKeyId key) {
  MBQ_ASSIGN_OR_RETURN(NodeRecord rec, node_store_->Get<NodeRecord>(node));
  if (!rec.in_use) return Status::NotFound("node not in use");
  bool found = false;
  return ReadPropertyChain(rec.first_prop, key, &found);
}

Result<Value> GraphDb::GetRelProperty(RelId rel, PropKeyId key) {
  MBQ_ASSIGN_OR_RETURN(RelRecord rec, GetRel(rel));
  if (!rec.in_use) return Status::NotFound("relationship not in use");
  bool found = false;
  return ReadPropertyChain(rec.first_prop, key, &found);
}

Status GraphDb::WalkChain(NodeId node, RecordId head, Direction dir,
                          std::optional<RelTypeId> type,
                          const std::function<bool(const RelInfo&)>& fn,
                          bool* stopped) {
  *stopped = false;
  RecordId cur = head;
  while (cur != kNullRecord) {
    MBQ_ASSIGN_OR_RETURN(RelRecord rel, GetRel(cur));
    if (!rel.in_use) return Status::Corruption("chain hits freed record");
    bool is_src = rel.src == node;
    bool is_dst = rel.dst == node;
    bool dir_match = dir == Direction::kBoth ||
                     (dir == Direction::kOutgoing && is_src) ||
                     (dir == Direction::kIncoming && is_dst);
    if (dir_match && (!type.has_value() || rel.type == *type)) {
      RelInfo info;
      info.id = cur;
      info.type = rel.type;
      info.src = rel.src;
      info.dst = rel.dst;
      info.other = is_src ? rel.dst : rel.src;
      if (!fn(info)) {
        *stopped = true;
        return Status::OK();
      }
    }
    cur = is_src ? rel.src_next : rel.dst_next;
  }
  return Status::OK();
}

Status GraphDb::ForEachRelationship(
    NodeId node, Direction dir, std::optional<RelTypeId> type,
    const std::function<bool(const RelInfo&)>& fn) {
  MBQ_ASSIGN_OR_RETURN(NodeRecord nrec, node_store_->Get<NodeRecord>(node));
  if (!nrec.in_use) return Status::NotFound("node not in use");
  bool stopped = false;
  if (!options_.semantic_partitioning) {
    return WalkChain(node, nrec.first_rel, dir, type, fn, &stopped);
  }
  // Partitioned: one chain per relationship type, headed by the node's
  // group list. A typed walk touches only that type's group and store.
  RecordId group_id = nrec.first_rel;
  while (group_id != kNullRecord) {
    MBQ_ASSIGN_OR_RETURN(GroupRecord group,
                         group_store_->Get<GroupRecord>(group_id));
    if (!type.has_value() || group.type == *type) {
      MBQ_RETURN_IF_ERROR(
          WalkChain(node, group.first_rel, dir, type, fn, &stopped));
      if (stopped) return Status::OK();
      if (type.has_value()) return Status::OK();  // only one group matches
    }
    group_id = group.next_group;
  }
  return Status::OK();
}

Result<uint64_t> GraphDb::Degree(NodeId node, Direction dir,
                                 std::optional<RelTypeId> type) {
  uint64_t count = 0;
  MBQ_RETURN_IF_ERROR(ForEachRelationship(node, dir, type,
                                          [&count](const RelInfo&) {
                                            ++count;
                                            return true;
                                          }));
  return count;
}

Result<GraphDb::RelInfo> GraphDb::GetRelationship(RelId rel_id) {
  MBQ_ASSIGN_OR_RETURN(RelRecord rel, GetRel(rel_id));
  if (!rel.in_use) return Status::NotFound("relationship not in use");
  RelInfo info;
  info.id = rel_id;
  info.type = rel.type;
  info.src = rel.src;
  info.dst = rel.dst;
  info.other = kInvalidNode;
  return info;
}

// -------------------------------------------------------------- Label scan

Status GraphDb::ForEachNodeWithLabel(LabelId label,
                                     const std::function<bool(NodeId)>& fn) {
  if (label >= label_scan_.size()) {
    return Status::InvalidArgument("unknown label id");
  }
  for (NodeId id : label_scan_[label]) {
    MBQ_ASSIGN_OR_RETURN(NodeRecord rec, node_store_->Get<NodeRecord>(id));
    if (!rec.in_use || rec.label != label) continue;  // stale entry
    if (!fn(id)) return Status::OK();
  }
  return Status::OK();
}

uint64_t GraphDb::CountNodesWithLabel(LabelId label) const {
  MBQ_CHECK(label < label_counts_.size());
  return label_counts_[label];
}

// ------------------------------------------------------------------- Index

GraphDb::IndexDef* GraphDb::FindIndexDef(LabelId label, PropKeyId key) {
  for (IndexDef& index : indexes_) {
    if (index.label == label && index.key == key) return &index;
  }
  return nullptr;
}

bool GraphDb::HasIndex(LabelId label, PropKeyId key) const {
  for (const IndexDef& index : indexes_) {
    if (index.label == label && index.key == key) return true;
  }
  return false;
}

Status GraphDb::TouchIndex(const IndexDef& index, const Value& value) {
  uint64_t bytes = accountant_->StreamBytes(index.stream);
  if (bytes == 0) return Status::OK();
  // B-tree descent: touch a value-determined page plus the root region.
  uint64_t offset = value.Hash() % bytes;
  MBQ_RETURN_IF_ERROR(accountant_->TouchRead(index.stream, 0, 1));
  return accountant_->TouchRead(index.stream, offset, 16);
}

Status GraphDb::IndexInsert(IndexDef& index, const Value& value, NodeId node) {
  if (value.is_null()) return Status::OK();
  std::vector<NodeId>& bucket = index.entries[value];
  if (index.unique && !bucket.empty() &&
      !(bucket.size() == 1 && bucket[0] == node)) {
    return Status::AlreadyExists(
        "unique index (" + LabelName(index.label) + "," +
        PropKeyName(index.key) + ") already maps " + value.ToString());
  }
  if (std::find(bucket.begin(), bucket.end(), node) == bucket.end()) {
    bucket.push_back(node);
    MBQ_RETURN_IF_ERROR(
        accountant_->AppendBytes(index.stream, 16 + value.StorageBytes())
            .status());
  }
  return Status::OK();
}

void GraphDb::IndexRemove(IndexDef& index, const Value& value, NodeId node) {
  if (value.is_null()) return;
  auto it = index.entries.find(value);
  if (it == index.entries.end()) return;
  auto& bucket = it->second;
  bucket.erase(std::remove(bucket.begin(), bucket.end(), node), bucket.end());
  if (bucket.empty()) index.entries.erase(it);
}

Status GraphDb::UpdateIndexesOnPropertyChange(NodeId node, PropKeyId key,
                                              const Value& old_value,
                                              const Value& new_value) {
  if (indexes_.empty()) return Status::OK();
  MBQ_ASSIGN_OR_RETURN(LabelId label, NodeLabel(node));
  for (IndexDef& index : indexes_) {
    if (index.label != label || index.key != key) continue;
    if (!old_value.is_null()) IndexRemove(index, old_value, node);
    MBQ_RETURN_IF_ERROR(IndexInsert(index, new_value, node));
  }
  return Status::OK();
}

Status GraphDb::CreateIndex(LabelId label, PropKeyId key, bool unique) {
  if (HasIndex(label, key)) {
    return Status::AlreadyExists("index already exists");
  }
  IndexDef index;
  index.label = label;
  index.key = key;
  index.unique = unique;
  index.stream = accountant_->NewStream();
  // Population scan: read every labelled node and its property chain.
  Status status = Status::OK();
  MBQ_RETURN_IF_ERROR(ForEachNodeWithLabel(label, [&](NodeId id) {
    auto value = GetNodeProperty(id, key);
    if (!value.ok()) {
      status = value.status();
      return false;
    }
    if (!value->is_null()) {
      Status st = IndexInsert(index, *value, id);
      if (!st.ok()) {
        status = st;
        return false;
      }
    }
    return true;
  }));
  MBQ_RETURN_IF_ERROR(status);
  indexes_.push_back(std::move(index));
  return Status::OK();
}

Result<NodeId> GraphDb::IndexSeek(LabelId label, PropKeyId key,
                                  const Value& value) {
  IndexDef* index = FindIndexDef(label, key);
  if (index == nullptr) return Status::NotFound("no such index");
  MBQ_RETURN_IF_ERROR(TouchIndex(*index, value));
  db_hits_.Inc();  // index lookups count as hits in the profiler
  auto it = index->entries.find(value);
  if (it == index->entries.end() || it->second.empty()) {
    return kInvalidNode;
  }
  return it->second.front();
}

Result<std::vector<NodeId>> GraphDb::IndexLookup(LabelId label, PropKeyId key,
                                                 const Value& value) {
  IndexDef* index = FindIndexDef(label, key);
  if (index == nullptr) return Status::NotFound("no such index");
  MBQ_RETURN_IF_ERROR(TouchIndex(*index, value));
  db_hits_.Inc();
  auto it = index->entries.find(value);
  if (it == index->entries.end()) return std::vector<NodeId>{};
  return it->second;
}

std::vector<GraphDb::IndexInfo> GraphDb::IndexCatalog() const {
  std::vector<IndexInfo> out;
  out.reserve(indexes_.size());
  for (const IndexDef& index : indexes_) {
    out.push_back({index.label, index.key, index.unique,
                   static_cast<uint64_t>(index.entries.size())});
  }
  return out;
}

Status GraphDb::ForEachIndexEntry(
    LabelId label, PropKeyId key,
    const std::function<bool(const Value&, NodeId)>& fn) const {
  const IndexDef* def = nullptr;
  for (const IndexDef& index : indexes_) {
    if (index.label == label && index.key == key) {
      def = &index;
      break;
    }
  }
  if (def == nullptr) return Status::NotFound("no such index");
  for (const auto& [value, nodes] : def->entries) {
    for (NodeId node : nodes) {
      if (!fn(value, node)) return Status::OK();
    }
  }
  return Status::OK();
}

// --------------------------------------------------------------- Integrity

NodeId GraphDb::NodeHighId() const { return node_store_->high_id(); }

std::vector<RecordId> GraphDb::RelHighIds() const {
  std::vector<RecordId> out;
  if (!options_.semantic_partitioning) {
    out.push_back(rel_store_->high_id());
    return out;
  }
  out.reserve(typed_rel_stores_.size());
  for (const auto& store : typed_rel_stores_) {
    out.push_back(store->high_id());
  }
  return out;
}

Result<NodeRecord> GraphDb::RawNodeRecord(NodeId id) {
  if (id >= node_store_->high_id()) {
    return Status::OutOfRange("node id beyond store high id");
  }
  return node_store_->Get<NodeRecord>(id);
}

Status GraphDb::RawPutRelRecord(RelId id, const RelRecord& rec) {
  return PutRel(id, rec);
}

Status GraphDb::ForEachRawRel(
    const std::function<bool(RelId, const RelRecord&)>& fn) {
  if (!options_.semantic_partitioning) {
    for (RecordId id = 0; id < rel_store_->high_id(); ++id) {
      MBQ_ASSIGN_OR_RETURN(RelRecord rec, rel_store_->Get<RelRecord>(id));
      if (!fn(id, rec)) return Status::OK();
    }
    return Status::OK();
  }
  for (size_t partition = 0; partition < typed_rel_stores_.size();
       ++partition) {
    RecordFile* store = typed_rel_stores_[partition].get();
    for (RecordId local = 0; local < store->high_id(); ++local) {
      MBQ_ASSIGN_OR_RETURN(RelRecord rec, store->Get<RelRecord>(local));
      RelId id = ((partition + 1) << 48) | local;
      if (!fn(id, rec)) return Status::OK();
    }
  }
  return Status::OK();
}

// ------------------------------------------------------------ Transactions

GraphDb::Transaction::Transaction(GraphDb* db) : db_(db), active_(true) {
  MBQ_CHECK(!db_->in_tx_);  // no nested transactions
  db_->in_tx_ = true;
  db_->undo_log_.clear();
}

GraphDb::Transaction::~Transaction() {
  if (active_) {
    Status st = Rollback();
    if (!st.ok()) {
      MBQ_ERROR() << "rollback failed: " << st.ToString();
    }
  }
}

Status GraphDb::Transaction::Commit() {
  if (!active_) return Status::FailedPrecondition("transaction closed");
  active_ = false;
  db_->in_tx_ = false;
  db_->undo_log_.clear();
  return Status::OK();
}

Status GraphDb::Transaction::Rollback() {
  if (!active_) return Status::FailedPrecondition("transaction closed");
  active_ = false;
  db_->in_tx_ = false;
  std::vector<std::function<Status()>> undos;
  undos.swap(db_->undo_log_);
  // Apply inverse operations newest-first.
  for (auto it = undos.rbegin(); it != undos.rend(); ++it) {
    MBQ_RETURN_IF_ERROR((*it)());
  }
  return Status::OK();
}

// ----------------------------------------------------------------- Control

Status GraphDb::Flush() { return cache_->FlushAll(); }

Status GraphDb::DropCaches() { return cache_->EvictAll(); }

storage::BufferCacheStats GraphDb::cache_stats() const {
  return cache_->stats();
}

storage::DiskStats GraphDb::disk_stats() const { return disk_->stats(); }

uint64_t GraphDb::DiskSizeBytes() const { return disk_->SizeBytes(); }

uint64_t GraphDb::SimulatedIoNanos() const { return io_clock_->NowNanos(); }

Result<uint64_t> GraphDb::ComputeDenseNodes() {
  uint64_t dense = 0;
  for (NodeId id = 0; id < node_store_->high_id(); ++id) {
    MBQ_ASSIGN_OR_RETURN(NodeRecord rec, node_store_->Get<NodeRecord>(id));
    if (!rec.in_use) continue;
    // Walk the chains only as far as the threshold.
    uint64_t degree = 0;
    MBQ_RETURN_IF_ERROR(ForEachRelationship(
        id, Direction::kBoth, std::nullopt, [&](const RelInfo&) {
          return ++degree < options_.dense_node_threshold;
        }));
    bool is_dense = degree >= options_.dense_node_threshold;
    if (is_dense != rec.dense) {
      rec.dense = is_dense;
      MBQ_RETURN_IF_ERROR(node_store_->Put(id, rec));
    }
    if (is_dense) ++dense;
  }
  return dense;
}

}  // namespace mbq::nodestore
