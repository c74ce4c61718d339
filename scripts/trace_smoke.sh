#!/usr/bin/env bash
# Boots a 2-shard + aggregator loopback cluster with stats servers and
# forced slow-query capture, drives traced navigation calls through the
# aggregator (`mbqbench --verify` with scripts/verify.mix), then asserts
# the distributed-tracing plane end to end:
#
#   - mbqtrace stitches /trace.json from all three daemons into one
#     merged Chrome trace whose spans share a single trace id and come
#     from at least three distinct processes (aggregator + both shards);
#   - the aggregator's /slow flight recorder carries a per-shard timing
#     breakdown (queue/execute/serialize/network) for remote queries;
#   - the /healthz liveness probe answers on a stats port (exercised via
#     `mbqd --probe` against the aggregator's stats server).
#
# This is the `trace-smoke` CMake target and part of the sanitizer gate.
#
# Usage:
#   scripts/trace_smoke.sh <mbqd-binary> <mbqbench-binary> <mbqtrace-binary> <mbqtop-binary>
set -eu

if [ "$#" -lt 4 ]; then
  echo "usage: $0 <mbqd-binary> <mbqbench-binary> <mbqtrace-binary> <mbqtop-binary>" >&2
  exit 2
fi

mbqd="$1"
mbqbench="$2"
mbqtrace="$3"
mbqtop="$4"
shards=2
users=400
seed=42

for bin in "$mbqd" "$mbqbench" "$mbqtrace" "$mbqtop"; do
  if [ ! -x "$bin" ]; then
    echo "trace-smoke: $bin is not an executable" >&2
    exit 2
  fi
done

logdir="$(mktemp -d /tmp/mbq_trace.XXXXXX)"
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  done
  for pid in "${pids[@]:-}"; do
    [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
  done
  rm -rf "$logdir"
}
trap cleanup EXIT

dump_logs() {
  for f in "$logdir"/*.log; do
    echo "---- $f" >&2
    cat "$f" >&2
  done
}

# Every daemon: always-sample tracing, capture every remote query in the
# flight recorder, stats server on an ephemeral port.
export MBQ_TRACE_SAMPLE=1
export MBQ_SLOW_QUERY_MILLIS=0

rpc_port_of() {
  sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$1" | head -n 1
}
stats_port_of() {
  sed -n 's|.*stats server listening on http://127\.0\.0\.1:\([0-9]*\)/.*|\1|p' \
    "$1" | head -n 1
}
await_port() {  # await_port <log> <pid> <extractor> <what>
  local port=""
  for _ in $(seq 1 300); do
    port="$("$3" "$1")"
    [ -n "$port" ] && break
    if ! kill -0 "$2" 2>/dev/null; then
      echo "trace-smoke: $4 exited early" >&2
      dump_logs
      exit 1
    fi
    sleep 0.2
  done
  if [ -z "$port" ]; then
    echo "trace-smoke: $4 did not come up" >&2
    dump_logs
    exit 1
  fi
  printf '%s' "$port"
}

shard_args=()
stats_args=()
for i in $(seq 0 $((shards - 1))); do
  log="$logdir/shard$i.log"
  : >"$log"  # exists before await_port reads it
  MBQ_STATS_PORT= "$mbqd" --port=0 --shards="$shards" --shard-id="$i" \
    --users="$users" --seed="$seed" --serve 2>"$log" &
  pids+=($!)
done
for i in $(seq 0 $((shards - 1))); do
  log="$logdir/shard$i.log"
  port="$(await_port "$log" "${pids[$i]}" rpc_port_of "shard $i")"
  stats="$(await_port "$log" "${pids[$i]}" stats_port_of "shard $i stats")"
  shard_args+=("--shard=127.0.0.1:$port")
  stats_args+=("--from=127.0.0.1:$stats")
done

agg_log="$logdir/aggregator.log"
: >"$agg_log"
MBQ_STATS_PORT= "$mbqd" --aggregate --port=0 "${shard_args[@]}" \
  --serve 2>"$agg_log" &
pids+=($!)
agg_port="$(await_port "$agg_log" "${pids[$shards]}" rpc_port_of aggregator)"
agg_stats="$(await_port "$agg_log" "${pids[$shards]}" stats_port_of \
  "aggregator stats")"

# /healthz: the probe against a stats port must answer from the liveness
# endpoint and name the role.
health="$("$mbqd" --probe="127.0.0.1:$agg_stats")"
case "$health" in
  *'"status": "ok"'*'"role": "aggregator"'*) ;;
  *)
    echo "trace-smoke: /healthz probe returned: $health" >&2
    dump_logs
    exit 1
    ;;
esac

# Drive 22 traced calls of the verify mix through the aggregator; every
# one mints a sampled root context client-side and fans out across both
# shards.
if ! MBQ_STATS_PORT= "$mbqbench" --mix="$(dirname "$0")/verify.mix" \
    --verify=22 --requests=1 --users="$users" --seed="$seed" \
    --shard="127.0.0.1:$agg_port" >"$logdir/verify.log" 2>&1; then
  echo "trace-smoke: traced verify drive FAILED" >&2
  dump_logs
  exit 1
fi

# Stitch: one merged Chrome trace with spans from aggregator + both
# shards under a single trace id.
merged="$logdir/merged_trace.json"
if ! "$mbqtrace" "${stats_args[@]}" --from="127.0.0.1:$agg_stats" \
    --require-processes=3 --out="$merged"; then
  echo "trace-smoke: mbqtrace stitch FAILED" >&2
  dump_logs
  exit 1
fi
ids="$(grep -o '"trace_id": "[0-9a-f]*"' "$merged" | sort -u | wc -l)"
if [ "$ids" -ne 1 ]; then
  echo "trace-smoke: merged trace has $ids distinct trace ids, want 1" >&2
  head -n 20 "$merged" >&2
  exit 1
fi
for role in aggregator shard-0 shard-1; do
  if ! grep -q "\"name\": \"$role\"" "$merged"; then
    echo "trace-smoke: merged trace is missing process \"$role\"" >&2
    exit 1
  fi
done

# Per-shard latency attribution: the aggregator's flight recorder must
# show a per-shard breakdown for its (forced-slow) remote queries, and
# the rpc.shard.* histograms must have samples.
slow="$("$mbqtop" --get=/slow --port="$agg_stats")"
case "$slow" in
  *'shard 0:'*queue=*execute=*) ;;
  *)
    echo "trace-smoke: aggregator /slow lacks a per-shard breakdown" >&2
    printf '%s\n' "$slow" | head -n 10 >&2
    dump_logs
    exit 1
    ;;
esac
metrics="$("$mbqtop" --json --port="$agg_stats")"
case "$metrics" in
  *'"shards": [{"shard": 0'*) ;;
  *)
    echo "trace-smoke: mbqtop --json shows no per-shard latency rows" >&2
    printf '%s\n' "$metrics" >&2
    exit 1
    ;;
esac

echo "trace-smoke: one stitched trace across aggregator + $shards shards;" \
  "/slow shows per-shard timing; /healthz and mbqtop --json answer"
