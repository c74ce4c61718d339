#include "nodestore/batch_importer.h"

#include <chrono>

#include "common/csv.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "util/string_util.h"

namespace mbq::nodestore {

using common::Value;

namespace {

double NowWallMillis() {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::microseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count()) /
         1000.0;
}

std::string ResolvePath(const std::string& base_dir, const std::string& path) {
  if (path.empty() || path[0] == '/' || base_dir.empty()) return path;
  return base_dir + "/" + path;
}

/// CSV fields become ints when they parse as ints, otherwise strings —
/// the untyped-header behaviour of the import tool at its simplest.
Value CoerceField(const std::string& field) {
  if (field.empty()) return Value::Null();
  auto as_int = mbq::ParseInt64(field);
  if (as_int.ok()) return Value::Int(*as_int);
  return Value::String(field);
}

}  // namespace

BatchImporter::BatchImporter(GraphDb* db) : db_(db) {}

void BatchImporter::SetProgressCallback(ProgressFn fn, uint64_t interval) {
  progress_ = std::move(fn);
  progress_interval_ = interval == 0 ? 1 : interval;
}

void BatchImporter::Report(const std::string& phase, uint64_t phase_objects,
                           bool force) {
  if (!progress_) return;
  if (!force && total_objects_ - last_report_ < progress_interval_) return;
  last_report_ = total_objects_;
  ImportProgress p;
  p.phase = phase;
  p.phase_objects = phase_objects;
  p.total_objects = total_objects_;
  p.wall_millis = NowWallMillis() - wall_start_millis_;
  p.io_millis =
      static_cast<double>(db_->SimulatedIoNanos() - io_start_nanos_) / 1e6;
  p.elapsed_millis = p.wall_millis + p.io_millis;
  progress_(p);
}

Status BatchImporter::ImportNodeFile(const ImportSpec::NodeFile& file,
                                     const std::string& base_dir) {
  MBQ_ASSIGN_OR_RETURN(LabelId label, db_->Label(file.label));
  MBQ_ASSIGN_OR_RETURN(common::CsvReader reader,
                       common::CsvReader::Open(
                           ResolvePath(base_dir, file.path)));
  if (file.properties.empty()) {
    return Status::InvalidArgument("node file needs at least a key column");
  }
  struct Bound {
    size_t csv_index;
    PropKeyId key;
  };
  std::vector<Bound> bound;
  for (const std::string& prop : file.properties) {
    MBQ_ASSIGN_OR_RETURN(size_t idx, reader.ColumnIndex(prop));
    bound.push_back({idx, db_->PropKey(prop)});
  }
  auto& mapper = id_mapper_[file.label];
  const std::string phase = "nodes:" + file.label;
  obs::TraceSpan span(phase);
  std::vector<std::string> row;
  uint64_t phase_objects = 0;
  while (reader.NextRow(&row)) {
    MBQ_ASSIGN_OR_RETURN(NodeId node, db_->CreateNode(label));
    for (const Bound& b : bound) {
      Value v = CoerceField(row[b.csv_index]);
      if (!v.is_null()) {
        MBQ_RETURN_IF_ERROR(db_->SetNodeProperty(node, b.key, v));
      }
    }
    mapper.emplace(row[bound[0].csv_index], node);
    ++nodes_imported_;
    ++total_objects_;
    ++phase_objects;
    Report(phase, phase_objects, false);
  }
  MBQ_RETURN_IF_ERROR(reader.status());
  obs::MetricsRegistry::Default()
      .GetCounter("nodestore.import.nodes", "nodes",
                  "nodes ingested by the batch importer")
      ->Inc(phase_objects);
  Report(phase, phase_objects, true);
  return Status::OK();
}

Status BatchImporter::ImportRelFile(const ImportSpec::RelFile& file,
                                    const std::string& base_dir) {
  MBQ_ASSIGN_OR_RETURN(RelTypeId type, db_->RelType(file.type));
  MBQ_ASSIGN_OR_RETURN(common::CsvReader reader,
                       common::CsvReader::Open(
                           ResolvePath(base_dir, file.path)));
  if (reader.header().size() < 2) {
    return Status::InvalidArgument("relationship CSV needs two columns");
  }
  auto src_mapper = id_mapper_.find(file.src_label);
  auto dst_mapper = id_mapper_.find(file.dst_label);
  if (src_mapper == id_mapper_.end() || dst_mapper == id_mapper_.end()) {
    return Status::FailedPrecondition(
        "relationship file references labels not yet imported");
  }
  const std::string phase = "rels:" + file.type;
  obs::TraceSpan span(phase);
  std::vector<std::string> row;
  uint64_t phase_objects = 0;
  while (reader.NextRow(&row)) {
    auto src = src_mapper->second.find(row[0]);
    auto dst = dst_mapper->second.find(row[1]);
    if (src == src_mapper->second.end() || dst == dst_mapper->second.end()) {
      return Status::NotFound("relationship endpoint not found: " + row[0] +
                              " -> " + row[1]);
    }
    MBQ_RETURN_IF_ERROR(
        db_->CreateRelationship(type, src->second, dst->second).status());
    ++rels_imported_;
    ++total_objects_;
    ++phase_objects;
    Report(phase, phase_objects, false);
  }
  MBQ_RETURN_IF_ERROR(reader.status());
  obs::MetricsRegistry::Default()
      .GetCounter("nodestore.import.rels", "rels",
                  "relationships ingested by the batch importer")
      ->Inc(phase_objects);
  Report(phase, phase_objects, true);
  return Status::OK();
}

Status BatchImporter::Run(const ImportSpec& spec, const std::string& base_dir) {
  wall_start_millis_ = NowWallMillis();
  io_start_nanos_ = db_->SimulatedIoNanos();
  // The import is an ingress: its spans share one trace and nest under
  // the import span by parent id in /trace.json.
  obs::ScopedTraceContext trace(obs::ChildOrRootContext());
  obs::TraceSpan import_span("import:nodestore");

  for (const auto& file : spec.nodes) {
    MBQ_RETURN_IF_ERROR(ImportNodeFile(file, base_dir));
  }
  // "After the node import is complete, Neo4j performs additional steps,
  // for example, computing the dense nodes, before it proceeds with
  // importing the edges." We run the pass after relationships exist
  // (degree is defined then), and report it as its own phase either way.
  for (const auto& file : spec.rels) {
    MBQ_RETURN_IF_ERROR(ImportRelFile(file, base_dir));
  }

  {
    obs::TraceSpan dense_span("dense-nodes");
    MBQ_ASSIGN_OR_RETURN(dense_nodes_, db_->ComputeDenseNodes());
  }
  obs::MetricsRegistry::Default()
      .GetCounter("nodestore.import.dense_nodes", "nodes",
                  "nodes flagged dense after import")
      ->Inc(dense_nodes_);
  Report("dense-nodes", dense_nodes_, true);

  // Index build happens strictly after import (the tool "cannot create
  // indexes while importing takes place").
  for (const auto& index : spec.indexes) {
    MBQ_ASSIGN_OR_RETURN(LabelId label, db_->FindLabel(index.label));
    PropKeyId key = db_->PropKey(index.property);
    obs::TraceSpan index_span("index:" + index.label + "." + index.property);
    MBQ_RETURN_IF_ERROR(db_->CreateIndex(label, key, index.unique));
    Report("index:" + index.label + "." + index.property,
           db_->CountNodesWithLabel(label), true);
  }

  MBQ_RETURN_IF_ERROR(db_->Flush());
  if (post_import_check_) {
    obs::TraceSpan check_span("post-import-check");
    MBQ_RETURN_IF_ERROR(post_import_check_());
  }
  Report("done", 0, true);
  return Status::OK();
}

}  // namespace mbq::nodestore
