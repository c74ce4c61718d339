"""Metric derivation and comparison for the end-to-end benchmark.

`end_to_end()` and `per_layer()` turn one workload run (the runner's JSON
plus what run.py measured around it) into the metrics BENCHMARK.json
names; `compare()` applies BENCHMARK.json's bounds to two sets of result
files. Kept apart from run.py so compare_test.py can import it without
building anything.
"""

import json
import math
import pathlib
import statistics

HERE = pathlib.Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parent.parent / "BENCHMARK.json"


def load_spec():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def _num(value):
    """The runner writes an infinite percentile (failed requests ranked
    above every success) as null."""
    return math.inf if value is None else float(value)


class Delta:
    """Counter, gauge and histogram differences between two registry
    snapshots (obs::MetricsSnapshot::ToJson) of one process."""

    def __init__(self, snapshots=None):
        self.scalars = {}
        self.hist_sums = {}
        if snapshots is None:
            return
        before, after = snapshots["before"], snapshots["after"]
        for kind in ("counters", "gauges"):
            old = {m["name"]: m["value"] for m in before[kind]}
            for m in after[kind]:
                self.scalars[m["name"]] = m["value"] - old.get(m["name"], 0)
        old = {h["name"]: h["sum"] for h in before["histograms"]}
        for h in after["histograms"]:
            self.hist_sums[h["name"]] = h["sum"] - old.get(h["name"], 0)

    def value(self, name):
        return self.scalars.get(name, 0)

    def hist_sum(self, prefix, suffix):
        return sum(v for k, v in self.hist_sums.items()
                   if k.startswith(prefix) and k.endswith(suffix))


def _ratio(num, den):
    return num / den if den else 0.0


def end_to_end(run, setup_s, peak_rss_mb):
    """The user-visible metrics of one untraced run. `setup_s` and
    `peak_rss_mb` come from run.py: for a cluster they are the daemons'."""
    lat, cap = run["latency"], run["capacity"]
    return {
        "setup_s": setup_s,
        "p50_ms": _num(lat["p50_ms"]),
        "capacity_qps": _ratio(cap["requests"] - cap["errors"],
                               cap["wall_s"]),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(run, setup_load_s):
    """Per-layer metrics of one traced run. Counter-based metrics are
    deltas over the latency phase, summed over the runner and (for a
    cluster) the daemons; daemon_metrics lists the aggregator first,
    then the shards. Span-based metrics cover the traced half of the
    latency phase's engine calls, which run interleaved with the other
    half. Layer times are shares of the mean engine call, so a layer off
    a workload's path reads 0 rather than a time; template times are
    shares of the latency phase's total request latency."""
    lat, spans = run["latency"], run["spans"]
    n = lat["requests"]
    runner = Delta(run["metrics"])
    daemons = [Delta(d) for d in run["daemon_metrics"]]
    aggregator = daemons[0] if daemons else Delta()
    shards = daemons[1:]
    everyone = [runner] + daemons

    def total(*names, procs=everyone):
        return sum(p.value(name) for p in procs for name in names)

    def per_req(x):
        return _ratio(x, n)

    call_ms = spans["call_ms_mean"]

    def share(ms_per_request):
        return _ratio(ms_per_request, call_ms)

    page_hits = total("nodestore.page_cache.hits", "bitmapstore.page_cache.hits")
    page_misses = total("nodestore.page_cache.misses",
                        "bitmapstore.page_cache.misses")
    plan_hits = total("cypher.plan_cache.hits")
    plan_misses = total("cypher.plan_cache.misses")
    routed = aggregator.value("rpc.aggregator.routed_calls")
    fanout = aggregator.value("rpc.aggregator.fanout_calls")
    cypher_ns = sum(p.hist_sum("cypher.query_latency", "") for p in everyone)
    shard_us = aggregator.hist_sum("rpc.shard.", ".latency")
    shard_exec_us = sum(s.hist_sum("rpc.call.", ".latency") for s in shards)

    m = {
        "bench.p99_ms": _num(lat["p99_ms"]),
        "bench.send_lag_p99_ms": lat["send_lag_p99_ms"],
        "bench.late_frac": per_req(lat["late"]),
        "bench.samples": n,
        "bench.trace_overhead_frac":
            _ratio(call_ms, spans["plain_ms_mean"]) - 1,
        "core.call_ms": call_ms,
        "core.call_p99_ms": spans["call_p99_ms"],
        "cypher.run_frac": share(per_req(cypher_ns / 1e6)),
        "cypher.plan_cache.miss_ratio":
            _ratio(plan_misses, plan_hits + plan_misses),
        "cypher.db_hits_per_query":
            _ratio(total("cypher.db_hits"), total("cypher.queries")),
        "nodestore.record_reads_per_req":
            per_req(total("nodestore.record_reads")),
        "storage.page_cache.miss_ratio":
            _ratio(page_misses, page_hits + page_misses),
        "storage.page_cache.evictions_per_req":
            per_req(total("nodestore.page_cache.evictions",
                          "bitmapstore.page_cache.evictions")),
        "storage.disk_reads_per_req":
            per_req(total("nodestore.disk.page_reads",
                          "bitmapstore.disk.page_reads")),
        "storage.disk_seeks_per_req":
            per_req(total("nodestore.disk.seeks", "bitmapstore.disk.seeks")),
        "cache.result.hit_ratio": _ratio(
            total("cache.result.hits"),
            total("cache.result.hits", "cache.result.misses")),
        "cache.adjacency.hit_ratio": _ratio(
            total("cache.adjacency.hits"),
            total("cache.adjacency.hits", "cache.adjacency.misses")),
        "cache.result.invalidations_per_write": _ratio(
            total("cache.result.invalidations"), total("write.commits")),
        "bitmapstore.neighbors_per_req":
            per_req(total("bitmapstore.neighbors_calls")),
        "bitmapstore.set_ops_per_req": per_req(total(
            "bitmapstore.objects.intersections", "bitmapstore.objects.unions",
            "bitmapstore.objects.differences")),
        "store.commit_frac":
            _ratio(spans["commit_ms_total"], spans["call_ms_total"]),
        "store.wal.records_per_fsync":
            _ratio(total("wal.records"), total("wal.fsyncs")),
        "store.wal.bytes_per_op":
            _ratio(total("wal.bytes"), total("write.ops")),
        "store.commit_errors": total("write.commit_errors"),
        "rpc.shard_frac": share(per_req(shard_us / 1e3)),
        "rpc.shard_exec_frac": share(per_req(shard_exec_us / 1e3)),
        "rpc.fanout_frac": _ratio(fanout, routed + fanout),
        "rpc.merged_rows_per_req":
            per_req(aggregator.value("rpc.aggregator.merged_rows")),
        "rpc.bytes_per_req": per_req(total(
            "rpc.client.bytes_in", "rpc.client.bytes_out",
            procs=[runner, aggregator])),
        "rpc.errors": total("rpc.client.errors", "rpc.server.errors"),
        "obs.spans_per_req": per_req(total("obs.spans.recorded")),
        "setup.generate_s": statistics.median(run["setup"]["generate_s"]),
        "setup.load_s": setup_load_s,
    }
    templates = lat["template_ms_total"]
    for name, ms in templates.items():
        m[f"core.{name}.time_frac"] = _ratio(ms, sum(templates.values()))
    return m


def with_units(values, declared):
    """{name: value} -> {name: {"value", "unit"}} in BENCHMARK.json order."""
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
            for d in declared}


# ------------------------------------------------------------- compare

def spread(values):
    """Interquartile range as a share of the median; None below 2 runs."""
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return _ratio(q3 - q1, abs(med))


def verdict(metric, base, new):
    """One row of `compare`: how `new` runs of a metric stand against
    `base` runs under the metric's bound.

    regressed   the new median is worse by more than the bound;
    unresolved  either side's own spread exceeds the bound, so "within
                the bound" would not mean unchanged — unless every new
                run beats every base run;
    better      the new median is better by more than the bound;
    ok          within the bound.
    """
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    b, n = statistics.median(base), statistics.median(new)
    change = _ratio(n - b, abs(b)) if b else (0.0 if n == b else math.inf)
    worse = change if lower else -change
    if worse > bound:
        return "regressed", change
    spreads = [s for s in (spread(base), spread(new)) if s is not None]
    all_better = (max(new) < min(base)) if lower else (min(new) > max(base))
    if any(s > bound for s in spreads) and not all_better:
        return "unresolved", change
    return ("better" if -worse > bound else "ok"), change


def load_results(paths):
    """{workload: {metric: [value per file]}} over result files."""
    out = {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        for workload, result in doc["workloads"].items():
            for name, m in result["metrics"].items():
                out.setdefault(workload, {}).setdefault(name, []).append(
                    m["value"])
    return out


def compare(base, new, spec):
    """Rows (workload, metric, base median, new median, change, verdict)
    for every end-to-end metric both sides recorded."""
    rows = []
    for workload in sorted(set(base) & set(new)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in base[workload] or name not in new[workload]:
                continue
            b, n = base[workload][name], new[workload][name]
            v, change = verdict(metric, b, n)
            rows.append((workload, name, statistics.median(b),
                         statistics.median(n), change, v))
    return rows


def format_rows(rows):
    lines = [f"{'workload':<17} {'metric':<13} {'base':>12} {'new':>12} "
             f"{'change':>8}  verdict"]
    for workload, name, b, n, change, v in rows:
        lines.append(f"{workload:<17} {name:<13} {b:>12.4f} {n:>12.4f} "
                     f"{change:>+8.1%}  {v}")
    return "\n".join(lines)
