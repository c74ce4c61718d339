#include "bitmapstore/graph.h"

#include "util/logging.h"

namespace mbq::bitmapstore {

namespace {
/// Approximate bytes one adjacency entry occupies on disk. Far larger
/// than a packed edge id: the bitmap store keeps several index structures
/// per link (out/in link arrays, per-type bitmaps, positional maps) —
/// the overhead behind the paper's 15.1 GB Sparksee database versus the
/// 2.8 GB record store for the same data.
constexpr uint64_t kAdjacencyEntryBytes = 96;
/// Bytes per row of the object table (type, endpoints, oid maps).
constexpr uint64_t kObjectTableRowBytes = 24;
}  // namespace

Graph::Graph(GraphOptions options) : options_(options) {
  io_clock_ = std::make_unique<VirtualClock>();
  disk_ = std::make_unique<storage::SimulatedDisk>(options_.disk_profile,
                                                   io_clock_.get());
  storage::BufferCacheOptions cache_options;
  cache_options.capacity_pages =
      std::max<size_t>(16, options_.cache_bytes / storage::kPageSize);
  cache_options.write_policy = storage::WritePolicy::kWriteBack;
  cache_options.flush_all_when_full = true;  // Sparksee-style stall
  cache_ = std::make_unique<storage::BufferCache>(disk_.get(), cache_options);
  extents_ = std::make_unique<storage::ExtentAllocator>(disk_.get(),
                                                        options_.extent_pages);
  accountant_ =
      std::make_unique<storage::StorageAccountant>(cache_.get(), extents_.get());
  object_table_stream_ = accountant_->NewStream();

  obs::MetricsRegistry* registry = options_.metrics != nullptr
                                       ? options_.metrics
                                       : &obs::MetricsRegistry::Default();
  metrics_provider_ =
      obs::ScopedProvider(registry, [this](obs::MetricsSink* sink) {
        sink->Gauge("bitmapstore.neighbors_calls",
                    static_cast<double>(stats_.neighbors_calls), "calls");
        sink->Gauge("bitmapstore.explode_calls",
                    static_cast<double>(stats_.explode_calls), "calls");
        sink->Gauge("bitmapstore.select_calls",
                    static_cast<double>(stats_.select_calls), "calls");
        sink->Gauge("bitmapstore.attribute_reads",
                    static_cast<double>(stats_.attribute_reads), "reads");
        sink->Gauge("bitmapstore.attribute_writes",
                    static_cast<double>(stats_.attribute_writes), "writes");
        const storage::BufferCacheStats& cache = cache_->stats();
        sink->Gauge("bitmapstore.page_cache.hits",
                    static_cast<double>(cache.hits), "pages");
        sink->Gauge("bitmapstore.page_cache.misses",
                    static_cast<double>(cache.misses), "pages");
        sink->Gauge("bitmapstore.page_cache.evictions",
                    static_cast<double>(cache.evictions), "pages");
        sink->Gauge("bitmapstore.page_cache.pages_flushed",
                    static_cast<double>(cache.pages_flushed), "pages");
        sink->Gauge("bitmapstore.page_cache.flush_stalls",
                    static_cast<double>(cache.flush_stalls), "events");
        sink->Gauge("bitmapstore.page_cache.resident_bytes",
                    static_cast<double>(cache_->resident_bytes()), "bytes");
        const storage::DiskStats& disk = disk_->stats();
        sink->Gauge("bitmapstore.disk.page_reads",
                    static_cast<double>(disk.page_reads), "pages");
        sink->Gauge("bitmapstore.disk.page_writes",
                    static_cast<double>(disk.page_writes), "pages");
        sink->Gauge("bitmapstore.disk.seeks", static_cast<double>(disk.seeks),
                    "seeks");
        sink->Gauge("bitmapstore.disk.busy_nanos",
                    static_cast<double>(disk.busy_nanos), "ns");
        sink->Gauge("bitmapstore.disk.resident_bytes",
                    static_cast<double>(disk_->ResidentBytes()), "bytes");
        sink->Gauge("bitmapstore.nodes", static_cast<double>(num_nodes_),
                    "nodes");
        sink->Gauge("bitmapstore.edges", static_cast<double>(num_edges_),
                    "edges");
      });
}

Graph::~Graph() = default;

// ----------------------------------------------------------------- Schema

Result<TypeId> Graph::NewNodeType(const std::string& name) {
  if (type_by_name_.count(name) != 0) {
    return Status::AlreadyExists("type exists: " + name);
  }
  TypeInfo t;
  t.name = name;
  t.kind = ObjectKind::kNode;
  types_.push_back(std::move(t));
  TypeId id = static_cast<TypeId>(types_.size() - 1);
  type_by_name_[name] = id;
  return id;
}

Result<TypeId> Graph::NewEdgeType(const std::string& name) {
  if (type_by_name_.count(name) != 0) {
    return Status::AlreadyExists("type exists: " + name);
  }
  TypeInfo t;
  t.name = name;
  t.kind = ObjectKind::kEdge;
  t.out.stream = accountant_->NewStream();
  t.in.stream = accountant_->NewStream();
  types_.push_back(std::move(t));
  TypeId id = static_cast<TypeId>(types_.size() - 1);
  type_by_name_[name] = id;
  return id;
}

Result<TypeId> Graph::FindType(const std::string& name) const {
  auto it = type_by_name_.find(name);
  if (it == type_by_name_.end()) {
    return Status::NotFound("no such type: " + name);
  }
  return it->second;
}

Result<AttrId> Graph::NewAttribute(TypeId type, const std::string& name,
                                   ValueType dtype, AttributeKind kind) {
  if (type < 0 || static_cast<size_t>(type) >= types_.size()) {
    return Status::InvalidArgument("bad type id");
  }
  for (AttrId a : types_[type].attributes) {
    if (attributes_[a].name == name) {
      return Status::AlreadyExists("attribute exists: " + name);
    }
  }
  AttributeInfo info;
  info.type = type;
  info.name = name;
  info.dtype = dtype;
  info.kind = kind;
  info.stream = accountant_->NewStream();
  attributes_.push_back(std::move(info));
  AttrId id = static_cast<AttrId>(attributes_.size() - 1);
  types_[type].attributes.push_back(id);
  return id;
}

Result<AttrId> Graph::FindAttribute(TypeId type, const std::string& name) const {
  if (type < 0 || static_cast<size_t>(type) >= types_.size()) {
    return Status::InvalidArgument("bad type id");
  }
  for (AttrId a : types_[type].attributes) {
    if (attributes_[a].name == name) return a;
  }
  return Status::NotFound("no such attribute: " + name);
}

ValueType Graph::AttributeType(AttrId attr) const {
  MBQ_CHECK(attr >= 0 && static_cast<size_t>(attr) < attributes_.size());
  return attributes_[attr].dtype;
}

AttributeKind Graph::GetAttributeKind(AttrId attr) const {
  MBQ_CHECK(attr >= 0 && static_cast<size_t>(attr) < attributes_.size());
  return attributes_[attr].kind;
}

const std::string& Graph::AttributeName(AttrId attr) const {
  MBQ_CHECK(attr >= 0 && static_cast<size_t>(attr) < attributes_.size());
  return attributes_[attr].name;
}

const std::string& Graph::TypeName(TypeId type) const {
  MBQ_CHECK(type >= 0 && static_cast<size_t>(type) < types_.size());
  return types_[type].name;
}

ObjectKind Graph::TypeKind(TypeId type) const {
  MBQ_CHECK(type >= 0 && static_cast<size_t>(type) < types_.size());
  return types_[type].kind;
}

std::vector<TypeId> Graph::NodeTypes() const {
  std::vector<TypeId> out;
  for (size_t i = 0; i < types_.size(); ++i) {
    if (types_[i].kind == ObjectKind::kNode) out.push_back(static_cast<TypeId>(i));
  }
  return out;
}

std::vector<TypeId> Graph::EdgeTypes() const {
  std::vector<TypeId> out;
  for (size_t i = 0; i < types_.size(); ++i) {
    if (types_[i].kind == ObjectKind::kEdge) out.push_back(static_cast<TypeId>(i));
  }
  return out;
}

// ---------------------------------------------------------------- Objects

Status Graph::CheckOid(Oid oid) const {
  if (oid >= type_of_.size() || type_of_[oid] == kInvalidType) {
    return Status::NotFound("no such object: " + std::to_string(oid));
  }
  return Status::OK();
}

Status Graph::CheckNodeOid(Oid oid) const {
  MBQ_RETURN_IF_ERROR(CheckOid(oid));
  if (types_[type_of_[oid]].kind != ObjectKind::kNode) {
    return Status::InvalidArgument("object is not a node: " +
                                   std::to_string(oid));
  }
  return Status::OK();
}

Result<Oid> Graph::NewNode(TypeId type) {
  if (type < 0 || static_cast<size_t>(type) >= types_.size() ||
      types_[type].kind != ObjectKind::kNode) {
    return Status::InvalidArgument("bad node type");
  }
  epochs_.Bump(cache::TypeDomain(type));
  Oid oid = static_cast<Oid>(type_of_.size());
  type_of_.push_back(type);
  edge_tail_.push_back(kInvalidOid);
  edge_head_.push_back(kInvalidOid);
  types_[type].objects.Add(oid);
  ++types_[type].count;
  ++num_nodes_;
  MBQ_RETURN_IF_ERROR(
      accountant_->AppendBytes(object_table_stream_, kObjectTableRowBytes)
          .status());
  return oid;
}

Result<Oid> Graph::NewEdge(TypeId type, Oid tail, Oid head) {
  if (type < 0 || static_cast<size_t>(type) >= types_.size() ||
      types_[type].kind != ObjectKind::kEdge) {
    return Status::InvalidArgument("bad edge type");
  }
  MBQ_RETURN_IF_ERROR(CheckNodeOid(tail));
  MBQ_RETURN_IF_ERROR(CheckNodeOid(head));
  epochs_.Bump(cache::TypeDomain(type));
  Oid oid = static_cast<Oid>(type_of_.size());
  type_of_.push_back(type);
  edge_tail_.push_back(tail);
  edge_head_.push_back(head);
  TypeInfo& t = types_[type];
  t.objects.Add(oid);
  ++t.count;
  ++num_edges_;

  t.out.edges[tail].Add(oid);
  t.in.edges[head].Add(oid);
  MBQ_RETURN_IF_ERROR(
      accountant_->AppendBytes(object_table_stream_, kObjectTableRowBytes)
          .status());
  MBQ_ASSIGN_OR_RETURN(uint64_t out_off,
                       accountant_->AppendBytes(t.out.stream,
                                                kAdjacencyEntryBytes));
  t.out.first_offset.emplace(tail, out_off);
  MBQ_ASSIGN_OR_RETURN(uint64_t in_off,
                       accountant_->AppendBytes(t.in.stream,
                                                kAdjacencyEntryBytes));
  t.in.first_offset.emplace(head, in_off);

  if (options_.materialize_neighbors) {
    // Maintaining node->node bitmaps costs a read-modify-write of the
    // node's whole neighbor structure on every insertion — O(degree) I/O
    // per edge, quadratic over a hub's lifetime. This is the cost that
    // made the paper abort the materialized import after 8 hours.
    t.out.nbrs[tail].Add(head);
    t.in.nbrs[head].Add(tail);
    MBQ_RETURN_IF_ERROR(
        accountant_->AppendBytes(t.out.stream, kAdjacencyEntryBytes).status());
    MBQ_RETURN_IF_ERROR(
        accountant_->AppendBytes(t.in.stream, kAdjacencyEntryBytes).status());
    auto rewrite = [&](const AdjacencyIndex& adj, Oid node,
                       uint64_t degree) -> Status {
      auto it = adj.first_offset.find(node);
      if (it == adj.first_offset.end()) return Status::OK();
      return accountant_->TouchWrite(adj.stream, it->second,
                                     std::max<uint64_t>(1, degree) *
                                         kAdjacencyEntryBytes);
    };
    MBQ_RETURN_IF_ERROR(rewrite(t.out, tail, t.out.nbrs[tail].Cardinality()));
    MBQ_RETURN_IF_ERROR(rewrite(t.in, head, t.in.nbrs[head].Cardinality()));
  }
  return oid;
}

Status Graph::Drop(Oid oid) {
  MBQ_RETURN_IF_ERROR(CheckOid(oid));
  TypeId type = type_of_[oid];
  TypeInfo& t = types_[type];
  // Incident edges of a dropped node bump their own types through the
  // recursive Drop calls below.
  epochs_.Bump(cache::TypeDomain(type));
  if (t.kind == ObjectKind::kNode) {
    // Remove incident edges of every edge type first.
    for (size_t ti = 0; ti < types_.size(); ++ti) {
      TypeInfo& et = types_[ti];
      if (et.kind != ObjectKind::kEdge) continue;
      for (bool outgoing : {true, false}) {
        auto& index = outgoing ? et.out : et.in;
        auto it = index.edges.find(oid);
        if (it == index.edges.end()) continue;
        std::vector<Oid> incident = it->second.ToVector();
        for (Oid e : incident) {
          if (type_of_[e] != kInvalidType) MBQ_RETURN_IF_ERROR(Drop(e));
        }
      }
    }
    --num_nodes_;
  } else {
    Oid tail = edge_tail_[oid];
    Oid head = edge_head_[oid];
    auto erase_from = [&](AdjacencyIndex& adj, Oid node) {
      auto it = adj.edges.find(node);
      if (it != adj.edges.end()) {
        it->second.Remove(oid);
        if (it->second.Empty()) adj.edges.erase(it);
      }
    };
    erase_from(t.out, tail);
    erase_from(t.in, head);
    if (options_.materialize_neighbors) {
      // Rebuilding the neighbor bitmaps precisely would need edge
      // multiplicity; recompute from remaining edges.
      auto rebuild = [&](AdjacencyIndex& adj, Oid node, bool outgoing) {
        auto it = adj.edges.find(node);
        Bitmap fresh;
        if (it != adj.edges.end()) {
          it->second.ForEach([&](uint32_t e) {
            fresh.Add(outgoing ? edge_head_[e] : edge_tail_[e]);
          });
        }
        if (fresh.Empty()) {
          adj.nbrs.erase(node);
        } else {
          adj.nbrs[node] = std::move(fresh);
        }
      };
      rebuild(t.out, tail, /*outgoing=*/true);
      rebuild(t.in, head, /*outgoing=*/false);
    }
    --num_edges_;
  }
  // Remove attribute values and index postings.
  for (AttrId a : t.attributes) {
    AttributeInfo& info = attributes_[a];
    auto it = info.values.find(oid);
    if (it != info.values.end()) {
      auto idx = info.index.find(it->second);
      if (idx != info.index.end()) {
        idx->second.Remove(oid);
        if (idx->second.Empty()) info.index.erase(idx);
      }
      info.values.erase(it);
    }
    info.locations.erase(oid);
  }
  t.objects.Remove(oid);
  --t.count;
  type_of_[oid] = kInvalidType;
  edge_tail_[oid] = kInvalidOid;
  edge_head_[oid] = kInvalidOid;
  return Status::OK();
}

Result<TypeId> Graph::GetObjectType(Oid oid) const {
  MBQ_RETURN_IF_ERROR(CheckOid(oid));
  return type_of_[oid];
}

uint64_t Graph::CountObjects(TypeId type) const {
  MBQ_CHECK(type >= 0 && static_cast<size_t>(type) < types_.size());
  return types_[type].count;
}

Result<Objects> Graph::Select(TypeId type) const {
  if (type < 0 || static_cast<size_t>(type) >= types_.size()) {
    return Status::InvalidArgument("bad type id");
  }
  stats_.select_calls.fetch_add(1, std::memory_order_relaxed);
  return Objects(types_[type].objects);
}

Result<Graph::EdgeData> Graph::GetEdgeData(Oid edge) const {
  MBQ_RETURN_IF_ERROR(CheckOid(edge));
  TypeId type = type_of_[edge];
  if (types_[type].kind != ObjectKind::kEdge) {
    return Status::InvalidArgument("object is not an edge");
  }
  MBQ_RETURN_IF_ERROR(accountant_->TouchRead(
      object_table_stream_, uint64_t{edge} * kObjectTableRowBytes,
      kObjectTableRowBytes));
  EdgeData data;
  data.edge = edge;
  data.tail = edge_tail_[edge];
  data.head = edge_head_[edge];
  data.type = type;
  return data;
}

Result<Oid> Graph::GetEdgePeer(Oid edge, Oid node) const {
  MBQ_ASSIGN_OR_RETURN(EdgeData data, GetEdgeData(edge));
  if (data.tail == node) return data.head;
  if (data.head == node) return data.tail;
  return Status::InvalidArgument("node is not an endpoint of edge");
}

// ------------------------------------------------------------- Attributes

Result<const Graph::AttributeInfo*> Graph::CheckAttr(AttrId attr) const {
  if (attr < 0 || static_cast<size_t>(attr) >= attributes_.size()) {
    return Status::InvalidArgument("bad attribute id");
  }
  return &attributes_[attr];
}

Status Graph::SetAttribute(Oid oid, AttrId attr, const Value& value) {
  MBQ_RETURN_IF_ERROR(CheckOid(oid));
  MBQ_RETURN_IF_ERROR(CheckAttr(attr).status());
  AttributeInfo& info = attributes_[attr];
  if (type_of_[oid] != info.type) {
    return Status::InvalidArgument("attribute " + info.name +
                                   " not defined on object's type");
  }
  if (!value.is_null() && value.type() != info.dtype) {
    return Status::InvalidArgument(
        "type mismatch for attribute " + info.name + ": expected " +
        common::ValueTypeName(info.dtype) + ", got " +
        common::ValueTypeName(value.type()));
  }
  epochs_.Bump(cache::TypeDomain(info.type));
  bool indexed = info.kind != AttributeKind::kBasic;
  if (indexed && info.kind == AttributeKind::kUnique && !value.is_null()) {
    auto idx = info.index.find(value);
    if (idx != info.index.end() && !idx->second.Empty() &&
        !(idx->second.Cardinality() == 1 && idx->second.Contains(oid))) {
      return Status::AlreadyExists("unique attribute " + info.name +
                                   " already has value " + value.ToString());
    }
  }
  // Clear any previous value.
  auto prev = info.values.find(oid);
  if (prev != info.values.end()) {
    if (indexed) {
      auto idx = info.index.find(prev->second);
      if (idx != info.index.end()) {
        idx->second.Remove(oid);
        if (idx->second.Empty()) info.index.erase(idx);
      }
    }
    info.values.erase(prev);
  }
  stats_.attribute_writes.fetch_add(1, std::memory_order_relaxed);
  if (value.is_null()) return Status::OK();
  info.values.emplace(oid, value);
  if (indexed) info.index[value].Add(oid);
  uint32_t width = static_cast<uint32_t>(value.StorageBytes());
  MBQ_ASSIGN_OR_RETURN(uint64_t off,
                       accountant_->AppendBytes(info.stream, width));
  info.locations[oid] = {off, width};
  return Status::OK();
}

Result<Value> Graph::GetAttribute(Oid oid, AttrId attr) const {
  MBQ_RETURN_IF_ERROR(CheckOid(oid));
  MBQ_ASSIGN_OR_RETURN(const AttributeInfo* info, CheckAttr(attr));
  stats_.attribute_reads.fetch_add(1, std::memory_order_relaxed);
  auto it = info->values.find(oid);
  if (it == info->values.end()) return Value::Null();
  auto loc = info->locations.find(oid);
  if (loc != info->locations.end()) {
    MBQ_RETURN_IF_ERROR(accountant_->TouchRead(info->stream, loc->second.first,
                                               loc->second.second));
  }
  return it->second;
}

Result<Oid> Graph::FindObject(AttrId attr, const Value& value) const {
  MBQ_ASSIGN_OR_RETURN(const AttributeInfo* info, CheckAttr(attr));
  if (info->kind != AttributeKind::kUnique) {
    return Status::FailedPrecondition("FindObject requires a unique attribute");
  }
  auto idx = info->index.find(value);
  if (idx == info->index.end() || idx->second.Empty()) return kInvalidOid;
  return *idx->second.Min();
}

Result<Objects> Graph::Select(AttrId attr, Condition cond,
                              const Value& value) const {
  MBQ_ASSIGN_OR_RETURN(const AttributeInfo* info, CheckAttr(attr));
  stats_.select_calls.fetch_add(1, std::memory_order_relaxed);
  Objects out;
  if (info->kind == AttributeKind::kBasic) {
    // Unindexed: scan every stored value (and pay its pages).
    MBQ_RETURN_IF_ERROR(
        accountant_->TouchRead(info->stream, 0,
                               accountant_->StreamBytes(info->stream)));
    for (const auto& [oid, v] : info->values) {
      int c = v.Compare(value);
      bool keep = false;
      switch (cond) {
        case Condition::kEqual:
          keep = c == 0;
          break;
        case Condition::kNotEqual:
          keep = c != 0;
          break;
        case Condition::kLess:
          keep = c < 0;
          break;
        case Condition::kLessEqual:
          keep = c <= 0;
          break;
        case Condition::kGreater:
          keep = c > 0;
          break;
        case Condition::kGreaterEqual:
          keep = c >= 0;
          break;
      }
      if (keep) out.Add(oid);
    }
    return out;
  }
  // Indexed: walk the ordered value index.
  const auto& index = info->index;
  auto add_range = [&out](auto begin, auto end) {
    for (auto it = begin; it != end; ++it) {
      out.bitmap().InplaceOr(it->second);
    }
  };
  switch (cond) {
    case Condition::kEqual: {
      auto it = index.find(value);
      if (it != index.end()) out = Objects(it->second);
      break;
    }
    case Condition::kNotEqual: {
      for (auto it = index.begin(); it != index.end(); ++it) {
        if (it->first.Compare(value) != 0) out.bitmap().InplaceOr(it->second);
      }
      break;
    }
    case Condition::kLess:
      add_range(index.begin(), index.lower_bound(value));
      break;
    case Condition::kLessEqual:
      add_range(index.begin(), index.upper_bound(value));
      break;
    case Condition::kGreater:
      add_range(index.upper_bound(value), index.end());
      break;
    case Condition::kGreaterEqual:
      add_range(index.lower_bound(value), index.end());
      break;
  }
  return out;
}

// ------------------------------------------------------------- Navigation

Status Graph::TouchAdjacency(const AdjacencyIndex& adj, Oid node,
                             uint64_t degree) const {
  auto it = adj.first_offset.find(node);
  if (it == adj.first_offset.end()) return Status::OK();
  return accountant_->TouchRead(adj.stream, it->second,
                                std::max<uint64_t>(1, degree) *
                                    kAdjacencyEntryBytes);
}

Result<Objects> Graph::NeighborsOneDirection(Oid node, const TypeInfo& et,
                                             bool outgoing) const {
  const AdjacencyIndex& adj = outgoing ? et.out : et.in;
  Objects out;
  if (options_.materialize_neighbors) {
    auto it = adj.nbrs.find(node);
    if (it != adj.nbrs.end()) {
      MBQ_RETURN_IF_ERROR(TouchAdjacency(adj, node, it->second.Cardinality()));
      out = Objects(it->second);
    }
    return out;
  }
  auto it = adj.edges.find(node);
  if (it == adj.edges.end()) return out;
  MBQ_RETURN_IF_ERROR(TouchAdjacency(adj, node, it->second.Cardinality()));
  // Without a neighbor index every incident edge must be resolved to its
  // far endpoint through the object table — the per-edge cost the paper's
  // recommendation queries suffer from.
  Status touch_status = Status::OK();
  it->second.ForEach([&](uint32_t e) {
    Status st = accountant_->TouchRead(object_table_stream_,
                                       uint64_t{e} * kObjectTableRowBytes,
                                       kObjectTableRowBytes);
    if (!st.ok()) touch_status = st;
    out.Add(outgoing ? edge_head_[e] : edge_tail_[e]);
  });
  MBQ_RETURN_IF_ERROR(touch_status);
  return out;
}

Result<Objects> Graph::Neighbors(Oid node, TypeId etype,
                                 EdgesDirection dir) const {
  MBQ_RETURN_IF_ERROR(CheckNodeOid(node));
  if (etype < 0 || static_cast<size_t>(etype) >= types_.size() ||
      types_[etype].kind != ObjectKind::kEdge) {
    return Status::InvalidArgument("bad edge type");
  }
  stats_.neighbors_calls.fetch_add(1, std::memory_order_relaxed);
  const TypeInfo& et = types_[etype];
  if (dir == EdgesDirection::kOutgoing) {
    return NeighborsOneDirection(node, et, true);
  }
  if (dir == EdgesDirection::kIngoing) {
    return NeighborsOneDirection(node, et, false);
  }
  MBQ_ASSIGN_OR_RETURN(Objects out, NeighborsOneDirection(node, et, true));
  MBQ_ASSIGN_OR_RETURN(Objects in, NeighborsOneDirection(node, et, false));
  return Objects::CombineUnion(out, in);
}

Result<Objects> Graph::Neighbors(const Objects& nodes, TypeId etype,
                                 EdgesDirection dir) const {
  Objects result;
  Status status = Status::OK();
  nodes.ForEach([&](uint32_t node) -> bool {
    auto r = Neighbors(node, etype, dir);
    if (!r.ok()) {
      status = r.status();
      return false;
    }
    result.UnionInPlace(*r);
    return true;
  });
  MBQ_RETURN_IF_ERROR(status);
  return result;
}

Result<Objects> Graph::Explode(Oid node, TypeId etype,
                               EdgesDirection dir) const {
  MBQ_RETURN_IF_ERROR(CheckNodeOid(node));
  if (etype < 0 || static_cast<size_t>(etype) >= types_.size() ||
      types_[etype].kind != ObjectKind::kEdge) {
    return Status::InvalidArgument("bad edge type");
  }
  stats_.explode_calls.fetch_add(1, std::memory_order_relaxed);
  const TypeInfo& et = types_[etype];
  Objects out;
  auto collect = [&](const AdjacencyIndex& adj) -> Status {
    auto it = adj.edges.find(node);
    if (it == adj.edges.end()) return Status::OK();
    MBQ_RETURN_IF_ERROR(TouchAdjacency(adj, node, it->second.Cardinality()));
    out.bitmap().InplaceOr(it->second);
    return Status::OK();
  };
  if (dir != EdgesDirection::kIngoing) MBQ_RETURN_IF_ERROR(collect(et.out));
  if (dir != EdgesDirection::kOutgoing) MBQ_RETURN_IF_ERROR(collect(et.in));
  return out;
}

Result<uint64_t> Graph::Degree(Oid node, TypeId etype,
                               EdgesDirection dir) const {
  MBQ_RETURN_IF_ERROR(CheckNodeOid(node));
  if (etype < 0 || static_cast<size_t>(etype) >= types_.size() ||
      types_[etype].kind != ObjectKind::kEdge) {
    return Status::InvalidArgument("bad edge type");
  }
  const TypeInfo& et = types_[etype];
  uint64_t degree = 0;
  auto count = [&](const AdjacencyIndex& adj) {
    auto it = adj.edges.find(node);
    if (it != adj.edges.end()) degree += it->second.Cardinality();
  };
  if (dir != EdgesDirection::kIngoing) count(et.out);
  if (dir != EdgesDirection::kOutgoing) count(et.in);
  return degree;
}

// ---------------------------------------------------------------- Control

Status Graph::Flush() { return accountant_->Finalize(); }

Status Graph::DropCaches() { return cache_->EvictAll(); }

storage::BufferCacheStats Graph::cache_stats() const { return cache_->stats(); }

storage::DiskStats Graph::disk_stats() const { return disk_->stats(); }

uint64_t Graph::DiskSizeBytes() const { return disk_->SizeBytes(); }

uint64_t Graph::SimulatedIoNanos() const { return io_clock_->NowNanos(); }

}  // namespace mbq::bitmapstore

namespace mbq::bitmapstore {

void Graph::ForEachAttributeValue(
    AttrId attr, const std::function<void(Oid, const Value&)>& fn) const {
  MBQ_CHECK(attr >= 0 && static_cast<size_t>(attr) < attributes_.size());
  for (const auto& [oid, value] : attributes_[attr].values) fn(oid, value);
}

TypeId Graph::RawObjectType(Oid oid) const {
  return oid < type_of_.size() ? type_of_[oid] : kInvalidType;
}

void Graph::RawEdgeEndpoints(Oid edge, Oid* tail, Oid* head) const {
  MBQ_CHECK(edge < edge_tail_.size());
  *tail = edge_tail_[edge];
  *head = edge_head_[edge];
}

void Graph::CorruptAdjacencyForTest(TypeId etype, Oid node, Oid edge) {
  MBQ_CHECK(etype >= 0 && static_cast<size_t>(etype) < types_.size());
  MBQ_CHECK(types_[etype].kind == ObjectKind::kEdge);
  types_[etype].out.edges[node].Add(edge);
}

void Graph::CorruptTypeCountForTest(TypeId type, int64_t delta) {
  MBQ_CHECK(type >= 0 && static_cast<size_t>(type) < types_.size());
  types_[type].count += delta;
}

}  // namespace mbq::bitmapstore
