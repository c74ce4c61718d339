#include "bitmapstore/script_loader.h"

#include <chrono>

#include "common/csv.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "util/string_util.h"

namespace mbq::bitmapstore {

namespace {

double NowWallMillis() {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::microseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count()) /
         1000.0;
}

/// Splits a statement into tokens: whitespace-separated words, commas
/// detached, double-quoted strings kept whole (without the quotes).
std::vector<std::string> Tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < line.size()) {
    char c = line[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '#') break;
    if (c == ',') {
      tokens.emplace_back(",");
      ++i;
      continue;
    }
    if (c == '"') {
      size_t end = line.find('"', i + 1);
      if (end == std::string_view::npos) end = line.size();
      tokens.emplace_back(line.substr(i + 1, end - i - 1));
      i = end + 1;
      continue;
    }
    size_t start = i;
    while (i < line.size() && !std::isspace(static_cast<unsigned char>(line[i])) &&
           line[i] != ',' && line[i] != '#') {
      ++i;
    }
    tokens.emplace_back(line.substr(start, i - start));
  }
  return tokens;
}

Result<ValueType> ParseValueType(const std::string& word) {
  std::string up = ToLowerAscii(word);
  if (up == "int") return ValueType::kInt;
  if (up == "string") return ValueType::kString;
  if (up == "double") return ValueType::kDouble;
  if (up == "bool") return ValueType::kBool;
  return Status::InvalidArgument("unknown attribute type: " + word);
}

Result<AttributeKind> ParseAttributeKind(const std::string& word) {
  std::string up = ToLowerAscii(word);
  if (up == "basic") return AttributeKind::kBasic;
  if (up == "indexed") return AttributeKind::kIndexed;
  if (up == "unique") return AttributeKind::kUnique;
  return Status::InvalidArgument("unknown attribute kind: " + word);
}

std::string ResolvePath(const std::string& base_dir, const std::string& path) {
  if (path.empty() || path[0] == '/' || base_dir.empty()) return path;
  return base_dir + "/" + path;
}

}  // namespace

ScriptLoader::ScriptLoader(Graph* graph) : graph_(graph) {}

void ScriptLoader::SetProgressCallback(ProgressFn fn, uint64_t interval) {
  progress_ = std::move(fn);
  progress_interval_ = interval == 0 ? 1 : interval;
}

void ScriptLoader::ReportProgress(const std::string& phase,
                                  uint64_t phase_objects, bool force) {
  if (!progress_) return;
  if (!force && total_objects_ - last_report_ < progress_interval_) return;
  last_report_ = total_objects_;
  ImportProgress p;
  p.phase = phase;
  p.phase_objects = phase_objects;
  p.total_objects = total_objects_;
  p.wall_millis = NowWallMillis() - wall_start_millis_;
  p.io_millis =
      static_cast<double>(graph_->SimulatedIoNanos() - io_start_nanos_) / 1e6;
  p.elapsed_millis = p.wall_millis + p.io_millis;
  progress_(p);
}

Result<Value> ScriptLoader::ParseTypedValue(const std::string& text,
                                            ValueType dtype) const {
  if (text.empty()) return Value::Null();
  switch (dtype) {
    case ValueType::kInt: {
      MBQ_ASSIGN_OR_RETURN(int64_t v, ParseInt64(text));
      return Value::Int(v);
    }
    case ValueType::kDouble: {
      MBQ_ASSIGN_OR_RETURN(double v, ParseDouble(text));
      return Value::Double(v);
    }
    case ValueType::kBool:
      return Value::Bool(text == "true" || text == "1");
    case ValueType::kString:
      return Value::String(text);
    case ValueType::kNull:
      return Value::Null();
  }
  return Value::Null();
}

Result<std::pair<TypeId, AttrId>> ScriptLoader::ResolveTypedAttribute(
    const std::string& dotted) const {
  auto parts = SplitString(dotted, '.');
  if (parts.size() != 2) {
    return Status::InvalidArgument("expected <type>.<attribute>: " + dotted);
  }
  MBQ_ASSIGN_OR_RETURN(TypeId type, graph_->FindType(std::string(parts[0])));
  MBQ_ASSIGN_OR_RETURN(AttrId attr,
                       graph_->FindAttribute(type, std::string(parts[1])));
  return std::make_pair(type, attr);
}

Status ScriptLoader::Execute(const std::string& script_text,
                             const std::string& base_dir) {
  wall_start_millis_ = NowWallMillis();
  io_start_nanos_ = graph_->SimulatedIoNanos();
  // The load is an ingress: its spans share one trace and nest under the
  // import span by parent id in /trace.json.
  obs::ScopedTraceContext trace(obs::ChildOrRootContext());
  obs::TraceSpan import_span("import:bitmapstore");
  for (std::string_view line : SplitString(script_text, '\n')) {
    std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty()) continue;
    MBQ_RETURN_IF_ERROR(ExecuteStatement(tokens, base_dir));
  }
  MBQ_RETURN_IF_ERROR(graph_->Flush());
  if (post_import_check_) {
    obs::TraceSpan check_span("post-import-check");
    MBQ_RETURN_IF_ERROR(post_import_check_());
  }
  return Status::OK();
}

Status ScriptLoader::ExecuteStatement(const std::vector<std::string>& tokens,
                                      const std::string& base_dir) {
  const std::string op = ToLowerAscii(tokens[0]);
  if (op == "create") {
    if (tokens.size() != 3) {
      return Status::InvalidArgument("CREATE NODE|EDGE <type>");
    }
    const std::string kind = ToLowerAscii(tokens[1]);
    if (kind == "node") return graph_->NewNodeType(tokens[2]).status();
    if (kind == "edge") return graph_->NewEdgeType(tokens[2]).status();
    return Status::InvalidArgument("CREATE expects NODE or EDGE");
  }
  if (op == "attribute") {
    if (tokens.size() != 4) {
      return Status::InvalidArgument(
          "ATTRIBUTE <type>.<name> <dtype> <kind>");
    }
    auto parts = SplitString(tokens[1], '.');
    if (parts.size() != 2) {
      return Status::InvalidArgument("expected <type>.<name>: " + tokens[1]);
    }
    MBQ_ASSIGN_OR_RETURN(TypeId type, graph_->FindType(std::string(parts[0])));
    MBQ_ASSIGN_OR_RETURN(ValueType dtype, ParseValueType(tokens[2]));
    MBQ_ASSIGN_OR_RETURN(AttributeKind kind, ParseAttributeKind(tokens[3]));
    return graph_
        ->NewAttribute(type, std::string(parts[1]), dtype, kind)
        .status();
  }
  if (op == "load") {
    if (tokens.size() < 2) return Status::InvalidArgument("LOAD NODES|EDGES");
    const std::string kind = ToLowerAscii(tokens[1]);
    if (kind == "nodes") return LoadNodes(tokens, base_dir);
    if (kind == "edges") return LoadEdges(tokens, base_dir);
    return Status::InvalidArgument("LOAD expects NODES or EDGES");
  }
  return Status::InvalidArgument("unknown statement: " + tokens[0]);
}

Status ScriptLoader::LoadNodes(const std::vector<std::string>& tokens,
                               const std::string& base_dir) {
  // LOAD NODES "<csv>" INTO <type> COLUMNS a , b , c
  if (tokens.size() < 7 || ToLowerAscii(tokens[3]) != "into" ||
      ToLowerAscii(tokens[5]) != "columns") {
    return Status::InvalidArgument(
        "LOAD NODES \"<csv>\" INTO <type> COLUMNS <cols>");
  }
  MBQ_ASSIGN_OR_RETURN(TypeId type, graph_->FindType(tokens[4]));
  std::vector<std::string> columns;
  for (size_t i = 6; i < tokens.size(); ++i) {
    if (tokens[i] == ",") continue;
    columns.push_back(tokens[i]);
  }
  MBQ_ASSIGN_OR_RETURN(
      common::CsvReader reader,
      common::CsvReader::Open(ResolvePath(base_dir, tokens[2])));
  struct BoundColumn {
    size_t csv_index;
    AttrId attr;
    ValueType dtype;
  };
  std::vector<BoundColumn> bound;
  for (const std::string& col : columns) {
    MBQ_ASSIGN_OR_RETURN(size_t idx, reader.ColumnIndex(col));
    MBQ_ASSIGN_OR_RETURN(AttrId attr, graph_->FindAttribute(type, col));
    // Recover the dtype via a round-trip set: store it from schema info.
    bound.push_back({idx, attr, ValueType::kNull});
  }
  const std::string phase = "nodes:" + graph_->TypeName(type);
  obs::TraceSpan span(phase);
  std::vector<std::string> row;
  uint64_t phase_objects = 0;
  while (reader.NextRow(&row)) {
    MBQ_ASSIGN_OR_RETURN(Oid node, graph_->NewNode(type));
    for (const BoundColumn& b : bound) {
      MBQ_ASSIGN_OR_RETURN(
          Value value,
          ParseTypedValue(row[b.csv_index], graph_->AttributeType(b.attr)));
      if (!value.is_null()) {
        MBQ_RETURN_IF_ERROR(graph_->SetAttribute(node, b.attr, value));
      }
    }
    ++nodes_loaded_;
    ++total_objects_;
    ++phase_objects;
    ReportProgress(phase, phase_objects, false);
  }
  MBQ_RETURN_IF_ERROR(reader.status());
  obs::MetricsRegistry::Default()
      .GetCounter("bitmapstore.import.nodes", "nodes",
                  "nodes ingested by the script loader")
      ->Inc(phase_objects);
  ReportProgress(phase, phase_objects, true);
  return Status::OK();
}

Status ScriptLoader::LoadEdges(const std::vector<std::string>& tokens,
                               const std::string& base_dir) {
  // LOAD EDGES "<csv>" INTO <type> FROM <ntype>.<attr> TO <ntype>.<attr>
  if (tokens.size() != 9 || ToLowerAscii(tokens[3]) != "into" ||
      ToLowerAscii(tokens[5]) != "from" || ToLowerAscii(tokens[7]) != "to") {
    return Status::InvalidArgument(
        "LOAD EDGES \"<csv>\" INTO <type> FROM <t>.<a> TO <t>.<a>");
  }
  MBQ_ASSIGN_OR_RETURN(TypeId etype, graph_->FindType(tokens[4]));
  MBQ_ASSIGN_OR_RETURN(auto from_bind, ResolveTypedAttribute(tokens[6]));
  MBQ_ASSIGN_OR_RETURN(auto to_bind, ResolveTypedAttribute(tokens[8]));
  MBQ_ASSIGN_OR_RETURN(
      common::CsvReader reader,
      common::CsvReader::Open(ResolvePath(base_dir, tokens[2])));
  if (reader.header().size() < 2) {
    return Status::InvalidArgument("edge CSV needs at least two columns");
  }
  const std::string phase = "edges:" + graph_->TypeName(etype);
  obs::TraceSpan span(phase);
  std::vector<std::string> row;
  uint64_t phase_objects = 0;
  while (reader.NextRow(&row)) {
    MBQ_ASSIGN_OR_RETURN(
        Value src_key,
        ParseTypedValue(row[0], graph_->AttributeType(from_bind.second)));
    MBQ_ASSIGN_OR_RETURN(
        Value dst_key,
        ParseTypedValue(row[1], graph_->AttributeType(to_bind.second)));
    MBQ_ASSIGN_OR_RETURN(Oid src, graph_->FindObject(from_bind.second, src_key));
    MBQ_ASSIGN_OR_RETURN(Oid dst, graph_->FindObject(to_bind.second, dst_key));
    if (src == kInvalidOid || dst == kInvalidOid) {
      return Status::NotFound("edge endpoint not found: " + row[0] + " -> " +
                              row[1]);
    }
    MBQ_RETURN_IF_ERROR(graph_->NewEdge(etype, src, dst).status());
    ++edges_loaded_;
    ++total_objects_;
    ++phase_objects;
    ReportProgress(phase, phase_objects, false);
  }
  MBQ_RETURN_IF_ERROR(reader.status());
  obs::MetricsRegistry::Default()
      .GetCounter("bitmapstore.import.edges", "edges",
                  "edges ingested by the script loader")
      ->Inc(phase_objects);
  ReportProgress(phase, phase_objects, true);
  return Status::OK();
}

}  // namespace mbq::bitmapstore
