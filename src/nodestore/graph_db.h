#ifndef MBQ_NODESTORE_GRAPH_DB_H_
#define MBQ_NODESTORE_GRAPH_DB_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/epoch.h"
#include "common/value.h"
#include "nodestore/record_file.h"
#include "nodestore/records.h"
#include "obs/metrics.h"
#include "storage/buffer_cache.h"
#include "storage/simulated_disk.h"
#include "storage/storage_accountant.h"
#include "util/clock.h"
#include "util/result.h"

namespace mbq::nodestore {

using common::Value;

using NodeId = RecordId;
using RelId = RecordId;
inline constexpr NodeId kInvalidNode = kNullRecord;
inline constexpr RelId kInvalidRel = kNullRecord;

enum class Direction : uint8_t { kOutgoing, kIncoming, kBoth };

/// Engine configuration.
struct GraphDbOptions {
  /// Page cache size in bytes.
  uint64_t cache_bytes = 64ull << 20;
  /// The record store has no redo log of its own. This field is kept so
  /// code that sets it to false still compiles; true aborts in the
  /// constructor, naming the field. A writable engine logs its committed
  /// batches to its group-commit WAL (docs/WRITES.md).
  bool wal_enabled = false;
  /// Write dirty pages straight through to disk (the import tool "writes
  /// continuously and concurrently to disk") instead of write-back.
  bool write_through = false;
  /// Latency model of the backing device.
  storage::DiskProfile disk_profile;
  /// Degree at or above which the dense-node pass marks a node dense.
  uint64_t dense_node_threshold = 50;
  /// Semantic-aware storage (the paper's §5 future work: "to represent
  /// the posts relationship different from a follows ... how semantically
  /// related nodes can be stored/partitioned when the queries are
  /// known"): keep one relationship store file per relationship type, so
  /// a chain walk over one type stays within that type's pages instead of
  /// interleaving with every other type's records.
  bool semantic_partitioning = false;
  /// Registry this database reports its `nodestore.*` metrics to;
  /// null means the process-wide obs::MetricsRegistry::Default().
  obs::MetricsRegistry* metrics = nullptr;
};

/// A transactional property-graph engine with Neo4j's storage
/// architecture: fixed-width record stores (nodes, relationships,
/// properties, dynamic strings) over a page cache, per-node doubly-linked
/// relationship chains, a label scan store, and optional unique property
/// indexes. Drive it directly (the "core API"), through the traversal
/// framework (traversal.h), or declaratively through mini-Cypher
/// (src/cypher).
class GraphDb {
 public:
  explicit GraphDb(GraphDbOptions options = GraphDbOptions());
  ~GraphDb();

  GraphDb(const GraphDb&) = delete;
  GraphDb& operator=(const GraphDb&) = delete;

  // ---------------------------------------------------------- Registries
  /// Gets or creates the label named `name`.
  Result<LabelId> Label(const std::string& name);
  /// Looks up an existing label.
  Result<LabelId> FindLabel(const std::string& name) const;
  const std::string& LabelName(LabelId label) const;

  /// Gets or creates the relationship type named `name`.
  Result<RelTypeId> RelType(const std::string& name);
  Result<RelTypeId> FindRelType(const std::string& name) const;
  const std::string& RelTypeName(RelTypeId type) const;

  /// Gets or creates the property key named `name`.
  PropKeyId PropKey(const std::string& name);
  Result<PropKeyId> FindPropKey(const std::string& name) const;
  const std::string& PropKeyName(PropKeyId key) const;

  // -------------------------------------------------------------- Writes
  /// Creates a node with `label`.
  Result<NodeId> CreateNode(LabelId label);
  /// Creates a relationship of `type` from `src` to `dst`.
  Result<RelId> CreateRelationship(RelTypeId type, NodeId src, NodeId dst);
  /// Sets (or clears, when `value` is null) a node property.
  Status SetNodeProperty(NodeId node, PropKeyId key, const Value& value);
  /// Deletes a relationship, unlinking both chains.
  Status DeleteRelationship(RelId rel);
  /// Deletes a node; fails (FailedPrecondition) if relationships remain,
  /// matching Neo4j's DELETE semantics.
  Status DeleteNode(NodeId node);
  /// Deletes a node after deleting all its relationships (DETACH DELETE).
  Status DetachDeleteNode(NodeId node);

  // --------------------------------------------------------------- Reads
  /// True if `node` is allocated and in use.
  bool NodeExists(NodeId node);
  Result<LabelId> NodeLabel(NodeId node);
  Result<Value> GetNodeProperty(NodeId node, PropKeyId key);
  Result<Value> GetRelProperty(RelId rel, PropKeyId key);

  struct RelInfo {
    RelId id = kInvalidRel;
    RelTypeId type = kInvalidRelType;
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    /// The chain endpoint opposite to the node being expanded.
    NodeId other = kInvalidNode;
  };
  /// Walks `node`'s relationship chain, invoking `fn` for each match;
  /// `fn` returning false stops the walk.
  Status ForEachRelationship(NodeId node, Direction dir,
                             std::optional<RelTypeId> type,
                             const std::function<bool(const RelInfo&)>& fn);
  /// Number of matching relationships (walks the chain).
  Result<uint64_t> Degree(NodeId node, Direction dir,
                          std::optional<RelTypeId> type);
  Result<RelInfo> GetRelationship(RelId rel);

  // ---------------------------------------------------------- Label scan
  /// Iterates all nodes with `label` in id order.
  Status ForEachNodeWithLabel(LabelId label,
                              const std::function<bool(NodeId)>& fn);
  uint64_t CountNodesWithLabel(LabelId label) const;

  // ---------------------------------------------------- Schema catalogue
  /// All registered names, indexed by id — the linter's schema catalogue
  /// (unknown-label / unknown-rel-type suggestions) and checkdb's walk.
  const std::vector<std::string>& LabelNames() const { return label_names_; }
  const std::vector<std::string>& RelTypeNames() const {
    return rel_type_names_;
  }
  const std::vector<std::string>& PropKeyNames() const {
    return prop_key_names_;
  }

  // --------------------------------------------------------------- Index
  /// Builds an index on (label, key) by scanning the label's nodes.
  /// `unique` rejects duplicate values during build and later inserts.
  Status CreateIndex(LabelId label, PropKeyId key, bool unique);
  bool HasIndex(LabelId label, PropKeyId key) const;
  /// Index descriptors without entries, for the linter and checkdb.
  struct IndexInfo {
    LabelId label;
    PropKeyId key;
    bool unique;
    uint64_t entries;  // distinct indexed values
  };
  std::vector<IndexInfo> IndexCatalog() const;
  /// Iterates every (value, node) pair of the (label, key) index in value
  /// order; `fn` returning false stops. NotFound without such an index.
  Status ForEachIndexEntry(
      LabelId label, PropKeyId key,
      const std::function<bool(const Value&, NodeId)>& fn) const;
  /// Point lookup in a unique index.
  Result<NodeId> IndexSeek(LabelId label, PropKeyId key, const Value& value);
  /// All nodes with the given value (non-unique indexes).
  Result<std::vector<NodeId>> IndexLookup(LabelId label, PropKeyId key,
                                          const Value& value);

  // -------------------------------------------------------- Transactions
  /// RAII transaction scope. Mutations made while a transaction is open
  /// record their inverse in an in-memory undo log; Commit() keeps them,
  /// and destruction without commit rolls them back by applying the
  /// inverses newest-first.
  class Transaction {
   public:
    explicit Transaction(GraphDb* db);
    ~Transaction();

    Transaction(const Transaction&) = delete;
    Transaction& operator=(const Transaction&) = delete;

    Status Commit();
    Status Rollback();
    bool active() const { return active_; }

   private:
    GraphDb* db_;
    bool active_;
  };

  Transaction BeginTx() { return Transaction(this); }

  // --------------------------------------------------------------- Stats
  /// Total record accesses (the Cypher profiler's "db hits"), across all
  /// threads. Per-thread deltas come from DbHitCounter::ThreadHits().
  uint64_t db_hits() const { return db_hits_.total(); }
  void ResetDbHits() { db_hits_.Reset(); }

  Status Flush();
  /// Evicts the page cache (cold-start simulation).
  Status DropCaches();

  /// Write epochs for read caches: every mutation bumps the epoch of the
  /// label/relationship-type domains it touches (cache::LabelDomain /
  /// cache::RelTypeDomain); result and adjacency caches stamp entries
  /// against this registry and drop them lazily on mismatch.
  const cache::EpochRegistry& epochs() const { return epochs_; }

  storage::BufferCacheStats cache_stats() const;
  storage::DiskStats disk_stats() const;
  uint64_t DiskSizeBytes() const;
  /// Simulated device time consumed so far (nanoseconds).
  uint64_t SimulatedIoNanos() const;
  uint64_t NumNodes() const { return num_nodes_; }
  uint64_t NumRels() const { return num_rels_; }
  const GraphDbOptions& options() const { return options_; }

  /// Marks nodes with degree >= dense_node_threshold as dense — the
  /// post-import "computing the dense nodes" step from the paper's
  /// Figure 2 narrative. Returns the number of dense nodes.
  Result<uint64_t> ComputeDenseNodes();

  // ---------------------------------------------------------- Integrity
  // Raw record access for the storage checker (src/core/check.cc). These
  // read/write records verbatim — no chain maintenance, no undo —
  // so writes exist solely for fault injection in checkdb tests.
  /// One past the highest node id ever allocated.
  NodeId NodeHighId() const;
  /// Local high ids per relationship store: one entry (partition 0) when
  /// unpartitioned, one per typed store under semantic partitioning.
  std::vector<RecordId> RelHighIds() const;
  Result<NodeRecord> RawNodeRecord(NodeId id);
  /// Overwrites a relationship record verbatim (fault injection).
  Status RawPutRelRecord(RelId id, const RelRecord& rec);
  /// Iterates every allocated relationship slot (in-use or freed) across
  /// all stores, passing full (partition-carrying) ids; `fn` returning
  /// false stops.
  Status ForEachRawRel(
      const std::function<bool(RelId, const RelRecord&)>& fn);

 private:
  friend class Transaction;

  struct IndexDef {
    LabelId label;
    PropKeyId key;
    bool unique;
    std::map<Value, std::vector<NodeId>> entries;
    uint32_t stream = 0;
  };

  void PushUndo(std::function<Status()> undo);

  Status UnlinkRelationship(const RelRecord& rel, RelId rel_id);
  Result<Value> ReadPropertyChain(RecordId first_prop, PropKeyId key,
                                  bool* found);
  // Writes `value` under `key` into the chain headed at *first_prop,
  // updating *first_prop if a record is prepended. Null value removes.
  Status WritePropertyChain(RecordId* first_prop, PropKeyId key,
                            const Value& value);
  Result<Value> DecodeProp(const PropRecord& rec);
  Status FreePropertyChain(RecordId first_prop);
  IndexDef* FindIndexDef(LabelId label, PropKeyId key);
  Status IndexInsert(IndexDef& index, const Value& value, NodeId node);
  void IndexRemove(IndexDef& index, const Value& value, NodeId node);
  Status TouchIndex(const IndexDef& index, const Value& value);
  // Maintains indexes when a node property changes.
  Status UpdateIndexesOnPropertyChange(NodeId node, PropKeyId key,
                                       const Value& old_value,
                                       const Value& new_value);

  GraphDbOptions options_;
  std::unique_ptr<VirtualClock> io_clock_;
  std::unique_ptr<storage::SimulatedDisk> disk_;
  std::unique_ptr<storage::BufferCache> cache_;
  std::unique_ptr<storage::ExtentAllocator> extents_;
  // Property-index streams: byteless pages beside the record files' byte
  // pages in the same cache and on the same disk.
  std::unique_ptr<storage::StorageAccountant> accountant_;

  // Relationship-store access, indirected so records can live either in
  // one shared file or in per-type files (semantic partitioning). Ids
  // carry the partition in their high 16 bits when partitioned.
  RecordFile* RelStoreFor(RelId id);
  RecordFile* RelStoreForType(RelTypeId type);
  Result<RelId> AllocateRel(RelTypeId type);
  Result<RelRecord> GetRel(RelId id);
  Status PutRel(RelId id, const RelRecord& rec);
  Status FreeRel(RelId id);

  // Chain heads. Without partitioning the head of a node's single chain
  // lives in its node record; with partitioning each (node, type) pair
  // has its own chain headed in a relationship-group record.
  Result<RecordId> GetChainHead(NodeId node, RelTypeId type);
  Status SetChainHead(NodeId node, RelTypeId type, RecordId head);
  /// Group record id for (node, type), creating it if asked.
  Result<RecordId> FindGroup(NodeId node, RelTypeId type, bool create);
  /// Walks one relationship chain starting at `head`.
  Status WalkChain(NodeId node, RecordId head, Direction dir,
                   std::optional<RelTypeId> type,
                   const std::function<bool(const RelInfo&)>& fn,
                   bool* stopped);

  DbHitCounter db_hits_;
  std::unique_ptr<RecordFile> node_store_;
  std::unique_ptr<RecordFile> rel_store_;
  /// Per-type stores, lazily created (semantic partitioning only).
  std::vector<std::unique_ptr<RecordFile>> typed_rel_stores_;
  /// Relationship-group store (semantic partitioning only).
  std::unique_ptr<RecordFile> group_store_;
  std::unique_ptr<RecordFile> prop_store_;
  std::unique_ptr<RecordFile> string_store_;

  std::vector<std::string> label_names_;
  std::unordered_map<std::string, LabelId> label_ids_;
  std::vector<std::string> rel_type_names_;
  std::unordered_map<std::string, RelTypeId> rel_type_ids_;
  std::vector<std::string> prop_key_names_;
  std::unordered_map<std::string, PropKeyId> prop_key_ids_;

  /// Label scan store: node ids per label, append-ordered. Stale entries
  /// (deleted/relabelled nodes) are filtered against the node record
  /// during scans.
  std::vector<std::vector<NodeId>> label_scan_;
  std::vector<uint64_t> label_counts_;

  std::vector<IndexDef> indexes_;

  uint64_t num_nodes_ = 0;
  uint64_t num_rels_ = 0;

  cache::EpochRegistry epochs_;

  bool in_tx_ = false;
  std::vector<std::function<Status()>> undo_log_;

  /// Reports this instance's `nodestore.*` gauges at snapshot time;
  /// unregisters automatically on destruction.
  obs::ScopedProvider metrics_provider_;
};

}  // namespace mbq::nodestore

#endif  // MBQ_NODESTORE_GRAPH_DB_H_
