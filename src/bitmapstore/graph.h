#ifndef MBQ_BITMAPSTORE_GRAPH_H_
#define MBQ_BITMAPSTORE_GRAPH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bitmapstore/objects.h"
#include "cache/epoch.h"
#include "storage/storage_accountant.h"
#include "common/value.h"
#include "storage/buffer_cache.h"
#include "storage/extent_allocator.h"
#include "storage/simulated_disk.h"
#include "util/clock.h"
#include "util/result.h"

namespace mbq::bitmapstore {

using common::Value;
using common::ValueType;

/// Node or edge type identifier.
using TypeId = int32_t;
inline constexpr TypeId kInvalidType = -1;

/// Attribute identifier (scoped to the graph, bound to one type).
using AttrId = int32_t;
inline constexpr AttrId kInvalidAttr = -1;

enum class ObjectKind : uint8_t { kNode, kEdge };

/// How an attribute is stored/queried, after Sparksee's Basic / Indexed /
/// Unique attribute kinds.
enum class AttributeKind : uint8_t {
  kBasic,    // value retrievable by oid; Select() scans
  kIndexed,  // value -> objects index maintained; Select() seeks
  kUnique,   // indexed + at most one object per value; FindObject() seeks
};

enum class EdgesDirection : uint8_t { kOutgoing, kIngoing, kAny };

/// Comparison operator for Select(). Only one predicate per call —
/// combining predicates is the caller's job via Objects algebra, matching
/// the limitation the paper reports ("Sparksee does not directly support
/// filtering on multiple predicates").
enum class Condition : uint8_t {
  kEqual,
  kNotEqual,
  kLess,
  kLessEqual,
  kGreater,
  kGreaterEqual,
};

/// Engine configuration, mirroring the knobs the paper tuned (§3.2.2).
struct GraphOptions {
  /// Buffer cache size in bytes (the paper used 5 GB; scale to taste).
  uint64_t cache_bytes = 64ull << 20;
  /// Extent size in pages (8 pages * 8 KiB = 64 KiB, the paper's value).
  uint32_t extent_pages = 8;
  /// Maintain node->neighbor-node bitmaps in addition to node->edge
  /// bitmaps. Speeds Neighbors() but makes loading far slower — the paper
  /// aborted a materialized import after 8 hours.
  bool materialize_neighbors = false;
  /// Recovery/rollback logging; the paper disabled it for faster loads.
  bool recovery_enabled = false;
  /// Latency model of the backing device.
  storage::DiskProfile disk_profile;
  /// Registry this graph reports its `bitmapstore.*` metrics to;
  /// null means the process-wide obs::MetricsRegistry::Default().
  obs::MetricsRegistry* metrics = nullptr;
};

/// I/O and operation counters surfaced by the engine. Fields are relaxed
/// atomics so concurrent reader threads can bump them without a data race;
/// they read as plain integers (atomic<uint64_t> converts implicitly).
struct GraphStats {
  std::atomic<uint64_t> neighbors_calls{0};
  std::atomic<uint64_t> explode_calls{0};
  std::atomic<uint64_t> select_calls{0};
  std::atomic<uint64_t> attribute_reads{0};
  std::atomic<uint64_t> attribute_writes{0};

  void Reset() {
    neighbors_calls = 0;
    explode_calls = 0;
    select_calls = 0;
    attribute_reads = 0;
    attribute_writes = 0;
  }
};

/// A directed labelled multigraph with typed attributes, stored over
/// bitmap indices — the Sparksee/DEX architecture (Martinez-Bazan et al.,
/// IDEAS'12): each type is a bitmap of its objects, each indexed attribute
/// value maps to a bitmap, and adjacency is kept as per-node bitmaps of
/// edge oids. All navigation returns Objects (unordered unique oid sets).
class Graph {
 public:
  explicit Graph(GraphOptions options = GraphOptions());
  ~Graph();

  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  // ------------------------------------------------------------- Schema
  /// Creates a node type. Fails if the name exists.
  Result<TypeId> NewNodeType(const std::string& name);
  /// Creates a directed edge type.
  Result<TypeId> NewEdgeType(const std::string& name);
  /// Finds a type by name.
  Result<TypeId> FindType(const std::string& name) const;
  /// Declares attribute `name` on `type`.
  Result<AttrId> NewAttribute(TypeId type, const std::string& name,
                              ValueType dtype, AttributeKind kind);
  Result<AttrId> FindAttribute(TypeId type, const std::string& name) const;

  /// Declared data type of an attribute.
  ValueType AttributeType(AttrId attr) const;
  /// Declared kind (basic/indexed/unique) of an attribute.
  AttributeKind GetAttributeKind(AttrId attr) const;
  /// Name of an attribute.
  const std::string& AttributeName(AttrId attr) const;

  const std::string& TypeName(TypeId type) const;
  ObjectKind TypeKind(TypeId type) const;
  std::vector<TypeId> NodeTypes() const;
  std::vector<TypeId> EdgeTypes() const;
  /// Number of declared types, in declaration order [0, NumTypes()).
  uint32_t NumTypes() const { return static_cast<uint32_t>(types_.size()); }
  /// Number of declared attributes, in declaration order.
  uint32_t NumAttributes() const {
    return static_cast<uint32_t>(attributes_.size());
  }
  /// Iterates every stored (oid, value) pair of an attribute, in no
  /// particular order. Raw accessor for the checker (no I/O charge).
  void ForEachAttributeValue(
      AttrId attr, const std::function<void(Oid, const Value&)>& fn) const;
  /// The type of object `oid`, or kInvalidType for freed slots; spans
  /// [0, ObjectSpan()). Raw accessor for the checker (no I/O charge).
  TypeId RawObjectType(Oid oid) const;
  uint64_t ObjectSpan() const { return type_of_.size(); }
  /// Raw edge endpoints without I/O accounting (the checker).
  void RawEdgeEndpoints(Oid edge, Oid* tail, Oid* head) const;

  // ------------------------------------------------------------ Objects
  /// Creates a node of `type` and returns its oid.
  Result<Oid> NewNode(TypeId type);
  /// Creates a `type` edge from `tail` to `head`.
  Result<Oid> NewEdge(TypeId type, Oid tail, Oid head);
  /// Removes an object (edges of a removed node are removed too).
  Status Drop(Oid oid);

  /// The type of an existing object.
  Result<TypeId> GetObjectType(Oid oid) const;
  /// Number of objects of `type`.
  uint64_t CountObjects(TypeId type) const;
  /// All objects of `type`.
  Result<Objects> Select(TypeId type) const;

  struct EdgeData {
    Oid edge = kInvalidOid;
    Oid tail = kInvalidOid;
    Oid head = kInvalidOid;
    TypeId type = kInvalidType;
  };
  /// Endpoints of an edge.
  Result<EdgeData> GetEdgeData(Oid edge) const;
  /// Given an edge and one endpoint, the other endpoint.
  Result<Oid> GetEdgePeer(Oid edge, Oid node) const;

  // --------------------------------------------------------- Attributes
  Status SetAttribute(Oid oid, AttrId attr, const Value& value);
  /// Null if the object has no value for `attr`.
  Result<Value> GetAttribute(Oid oid, AttrId attr) const;
  /// Unique-attribute point lookup; kInvalidOid if absent.
  Result<Oid> FindObject(AttrId attr, const Value& value) const;
  /// Single-predicate selection over one attribute.
  Result<Objects> Select(AttrId attr, Condition cond, const Value& value) const;

  // --------------------------------------------------------- Navigation
  /// Nodes adjacent to `node` through `etype` edges in `dir`. The result
  /// is a set: parallel edges collapse (Sparksee semantics).
  Result<Objects> Neighbors(Oid node, TypeId etype, EdgesDirection dir) const;
  /// Union of Neighbors over a set of source nodes.
  Result<Objects> Neighbors(const Objects& nodes, TypeId etype,
                            EdgesDirection dir) const;
  /// Edge oids incident to `node` of `etype` in `dir`.
  Result<Objects> Explode(Oid node, TypeId etype, EdgesDirection dir) const;
  /// Degree (number of incident edges) — cheaper than Explode().Count().
  Result<uint64_t> Degree(Oid node, TypeId etype, EdgesDirection dir) const;

  // ------------------------------------------------------------ Control
  /// Flushes dirty cached pages to the simulated disk.
  Status Flush();
  /// Drops the page cache (cold-start simulation).
  Status DropCaches();

  const GraphStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }
  /// Write epochs for read caches: every mutation bumps the epoch of the
  /// object type it touches (cache::TypeDomain over the unified node/edge
  /// TypeId space); dropping a node bumps each incident edge type too.
  const cache::EpochRegistry& epochs() const { return epochs_; }
  storage::BufferCacheStats cache_stats() const;
  storage::DiskStats disk_stats() const;
  /// Simulated on-disk footprint in bytes.
  uint64_t DiskSizeBytes() const;
  /// Simulated device time consumed so far (nanoseconds).
  uint64_t SimulatedIoNanos() const;
  uint64_t NumNodes() const { return num_nodes_; }
  uint64_t NumEdges() const { return num_edges_; }
  const GraphOptions& options() const { return options_; }

  // ---------------------------------------------------------- Integrity
  // Fault injection for the storage checker's tests (core/check.cc) —
  // deliberately break internal invariants without going through the
  // write paths. Never call these outside tests.
  /// Adds `edge` to `node`'s outgoing adjacency bitmap of edge type
  /// `etype` without creating an edge record.
  void CorruptAdjacencyForTest(TypeId etype, Oid node, Oid edge);
  /// Skews the cached object count of `type` by `delta` without touching
  /// its membership bitmap.
  void CorruptTypeCountForTest(TypeId type, int64_t delta);

 private:
  struct AttributeInfo {
    TypeId type = kInvalidType;
    std::string name;
    ValueType dtype = ValueType::kNull;
    AttributeKind kind = AttributeKind::kBasic;
    std::unordered_map<Oid, Value> values;
    /// value -> objects, ordered for range conditions (indexed kinds only).
    std::map<Value, Bitmap> index;
    uint32_t stream = 0;
    std::unordered_map<Oid, std::pair<uint64_t, uint32_t>> locations;
  };

  struct AdjacencyIndex {
    /// node -> incident edge oids.
    std::unordered_map<Oid, Bitmap> edges;
    /// node -> neighbor node oids (only when materialize_neighbors).
    std::unordered_map<Oid, Bitmap> nbrs;
    /// node -> first byte of its adjacency region (I/O accounting).
    std::unordered_map<Oid, uint64_t> first_offset;
    uint32_t stream = 0;
  };

  struct TypeInfo {
    std::string name;
    ObjectKind kind = ObjectKind::kNode;
    Bitmap objects;
    uint64_t count = 0;
    AdjacencyIndex out;  // edge types only
    AdjacencyIndex in;   // edge types only
    std::vector<AttrId> attributes;
  };

  Status CheckOid(Oid oid) const;
  Status CheckNodeOid(Oid oid) const;
  Result<const AttributeInfo*> CheckAttr(AttrId attr) const;
  const AdjacencyIndex& Adjacency(const TypeInfo& t, bool outgoing) const {
    return outgoing ? t.out : t.in;
  }
  // Charges reads for one node's adjacency region.
  Status TouchAdjacency(const AdjacencyIndex& adj, Oid node,
                        uint64_t degree) const;
  Result<Objects> NeighborsOneDirection(Oid node, const TypeInfo& et,
                                        bool outgoing) const;

  GraphOptions options_;
  std::unique_ptr<VirtualClock> io_clock_;
  std::unique_ptr<storage::SimulatedDisk> disk_;
  std::unique_ptr<storage::BufferCache> cache_;
  std::unique_ptr<storage::ExtentAllocator> extents_;
  std::unique_ptr<storage::StorageAccountant> accountant_;

  std::vector<TypeInfo> types_;
  std::unordered_map<std::string, TypeId> type_by_name_;
  std::vector<AttributeInfo> attributes_;

  std::vector<TypeId> type_of_;  // oid -> type
  std::vector<Oid> edge_tail_;   // oid -> tail (edges only)
  std::vector<Oid> edge_head_;   // oid -> head (edges only)
  uint64_t num_nodes_ = 0;
  uint64_t num_edges_ = 0;
  uint32_t object_table_stream_ = 0;

  mutable GraphStats stats_;
  cache::EpochRegistry epochs_;

  /// Reports this instance's `bitmapstore.*` gauges at snapshot time;
  /// unregisters automatically on destruction.
  obs::ScopedProvider metrics_provider_;
};

}  // namespace mbq::bitmapstore

#endif  // MBQ_BITMAPSTORE_GRAPH_H_
