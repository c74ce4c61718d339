// mbqtrace — the cross-process trace stitcher (docs/OBSERVABILITY.md).
//
//   ./mbqtrace --from=H:P [--from=H:P ...] [--trace=HEX32] [--out=FILE]
//              [--require-processes=N]
//
// Fetches /trace.json from every named stats server (the aggregator and
// each shard daemon), picks one trace id — the one whose spans appear
// in the most distinct processes, or the id given with --trace= — and
// emits a single merged Chrome trace_event JSON on stdout (or --out).
// Spans keep their real pids, get process_name metadata from each
// daemon's role, and sit on the shared unix-microsecond timeline (the
// recorders pin wall-clock starts at record time), so an RPC client
// span visually encloses its server-side child even though the two
// halves were captured in different processes. Every event carries
// trace_id / span_id / parent_span_id in its args for exact parent
// matching in the Perfetto UI.
//
// --require-processes=N exits non-zero unless the chosen trace has
// spans from at least N distinct processes — the cluster-smoke gate.
//
// Exit status: 0 success, 1 stitch assertion failed, 2 usage/fetch
// error.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/http_client.h"

namespace {

struct Options {
  std::vector<std::string> from;  // host:port stats endpoints
  std::string trace_id;           // 32-hex filter; empty = auto-pick
  std::string out_path;           // empty = stdout
  int require_processes = 0;
};

struct Span {
  std::string process;  // role of the process that recorded it
  uint64_t pid = 0;
  std::string name;
  std::string cat;
  uint32_t tid = 0;
  std::string trace_id;
  std::string span_id;
  std::string parent_span_id;
  uint64_t start_unix_us = 0;
  double dur_us = 0;
};

// ------------------------------------------------ line-level JSON reads
// Same dialect as mbqtop: every object the stats server emits stays on
// one line, so a scanner with per-line field extraction is enough.

double NumberField(const std::string& line, const std::string& key) {
  std::string needle = "\"" + key + "\": ";
  size_t at = line.find(needle);
  if (at == std::string::npos) return NAN;
  return std::strtod(line.c_str() + at + needle.size(), nullptr);
}

std::string StringField(const std::string& line, const std::string& key) {
  std::string needle = "\"" + key + "\": \"";
  size_t start = line.find(needle);
  if (start == std::string::npos) return "";
  start += needle.size();
  size_t end = start;
  while (end < line.size()) {
    if (line[end] == '"' && line[end - 1] != '\\') break;
    ++end;
  }
  return mbq::obs::JsonUnescape(line.substr(start, end - start));
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    out.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return out;
}

/// Parses one /trace.json payload into spans tagged with the process
/// role and pid from its header lines.
void ParseTraceJson(const std::string& json, std::vector<Span>* spans) {
  std::string process = "?";
  uint64_t pid = 0;
  for (const std::string& line : Lines(json)) {
    std::string role = StringField(line, "process");
    if (!role.empty()) process = role;
    double p = NumberField(line, "pid");
    if (p == p && pid == 0) pid = static_cast<uint64_t>(p);
    std::string span_id = StringField(line, "span_id");
    if (span_id.empty()) continue;
    Span s;
    s.process = process;
    s.pid = pid;
    s.name = StringField(line, "name");
    s.cat = StringField(line, "cat");
    s.tid = static_cast<uint32_t>(NumberField(line, "tid"));
    s.trace_id = StringField(line, "trace_id");
    s.span_id = span_id;
    s.parent_span_id = StringField(line, "parent_span_id");
    s.start_unix_us = static_cast<uint64_t>(NumberField(line, "start_unix_us"));
    s.dur_us = NumberField(line, "dur_us");
    spans->push_back(std::move(s));
  }
}

/// The trace id worth stitching: the one spanning the most distinct
/// processes, span count as the tie-break. Ignores untraced spans (all
/// zero ids).
std::string PickTraceId(const std::vector<Span>& spans) {
  std::map<std::string, std::set<std::string>> processes;
  std::map<std::string, size_t> counts;
  for (const Span& s : spans) {
    if (s.trace_id.empty() ||
        s.trace_id == "00000000000000000000000000000000") {
      continue;
    }
    processes[s.trace_id].insert(s.process);
    ++counts[s.trace_id];
  }
  std::string best;
  size_t best_procs = 0;
  size_t best_count = 0;
  for (const auto& [id, procs] : processes) {
    size_t count = counts[id];
    if (procs.size() > best_procs ||
        (procs.size() == best_procs && count > best_count)) {
      best = id;
      best_procs = procs.size();
      best_count = count;
    }
  }
  return best;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> const char* {
      size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value_of("--from=")) {
      options->from.emplace_back(v);
    } else if (const char* v = value_of("--trace=")) {
      options->trace_id = v;
    } else if (const char* v = value_of("--out=")) {
      options->out_path = v;
    } else if (const char* v = value_of("--require-processes=")) {
      options->require_processes = std::atoi(v);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  if (options->from.empty()) {
    std::fprintf(
        stderr,
        "usage: mbqtrace --from=HOST:PORT [--from=...] [--trace=HEX32]\n"
        "                [--out=FILE] [--require-processes=N]\n"
        "(each --from is a stats-server address; the aggregator plus every\n"
        " shard daemon gives the full cross-process picture)\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) return 2;

  std::vector<Span> spans;
  for (const std::string& endpoint : options.from) {
    size_t colon = endpoint.rfind(':');
    std::string host =
        colon == std::string::npos ? "127.0.0.1" : endpoint.substr(0, colon);
    unsigned long port = std::strtoul(
        endpoint.c_str() + (colon == std::string::npos ? 0 : colon + 1),
        nullptr, 10);
    if (port == 0 || port > 65535) {
      std::fprintf(stderr, "mbqtrace: bad --from address: %s\n",
                   endpoint.c_str());
      return 2;
    }
    std::string body;
    if (!mbq::obs::HttpGet(host, static_cast<uint16_t>(port), "/trace.json",
                           &body)) {
      std::fprintf(stderr, "mbqtrace: GET /trace.json from %s failed\n",
                   endpoint.c_str());
      return 2;
    }
    ParseTraceJson(body, &spans);
  }

  std::string trace_id =
      options.trace_id.empty() ? PickTraceId(spans) : options.trace_id;
  if (trace_id.empty()) {
    std::fprintf(stderr, "mbqtrace: no traced spans in any process\n");
    return 1;
  }

  std::vector<Span> picked;
  for (const Span& s : spans) {
    if (s.trace_id == trace_id) picked.push_back(s);
  }
  if (picked.empty()) {
    std::fprintf(stderr, "mbqtrace: no spans for trace %s\n",
                 trace_id.c_str());
    return 1;
  }
  std::sort(picked.begin(), picked.end(), [](const Span& a, const Span& b) {
    return a.start_unix_us < b.start_unix_us;
  });

  std::set<std::string> stitched_processes;
  for (const Span& s : picked) stitched_processes.insert(s.process);
  std::fprintf(stderr, "mbqtrace: trace %s: %zu spans from %zu processes\n",
               trace_id.c_str(), picked.size(), stitched_processes.size());
  for (const std::string& p : stitched_processes) {
    std::fprintf(stderr, "mbqtrace:   %s\n", p.c_str());
  }
  if (options.require_processes > 0 &&
      stitched_processes.size() <
          static_cast<size_t>(options.require_processes)) {
    std::fprintf(stderr,
                 "mbqtrace: FAILED: trace spans %zu processes, need %d\n",
                 stitched_processes.size(), options.require_processes);
    return 1;
  }

  // Chrome trace_event JSON: per-process metadata names the track after
  // the daemon's role; span starts shift to a zero origin at the
  // earliest span so the UI opens at t=0.
  uint64_t origin_us = picked.front().start_unix_us;
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  std::map<uint64_t, std::string> roles;
  for (const Span& s : picked) roles.emplace(s.pid, s.process);
  bool first = true;
  for (const auto& [pid, role] : roles) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " +
           std::to_string(pid) + ", \"args\": {\"name\": \"" +
           mbq::obs::JsonEscape(role) + "\"}}";
  }
  for (const Span& s : picked) {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\": \"X\", \"ts\": %llu, \"dur\": %.3f, "
                  "\"pid\": %llu, \"tid\": %u",
                  static_cast<unsigned long long>(s.start_unix_us - origin_us),
                  s.dur_us, static_cast<unsigned long long>(s.pid), s.tid);
    out += ",\n{\"name\": \"" + mbq::obs::JsonEscape(s.name) +
           "\", \"cat\": \"" + mbq::obs::JsonEscape(s.cat) + "\", " + buf +
           ", \"args\": {\"trace_id\": \"" + s.trace_id +
           "\", \"span_id\": \"" + s.span_id + "\", \"parent_span_id\": \"" +
           s.parent_span_id + "\"}}";
  }
  out += "\n]}\n";

  if (options.out_path.empty()) {
    std::fwrite(out.data(), 1, out.size(), stdout);
  } else {
    std::FILE* f = std::fopen(options.out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "mbqtrace: cannot write %s\n",
                   options.out_path.c_str());
      return 2;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "mbqtrace: wrote %s\n", options.out_path.c_str());
  }
  return 0;
}
