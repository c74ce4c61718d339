#!/usr/bin/env bash
# Boots a local mbqd cluster on loopback — N shard daemons plus one
# aggregator, all on ephemeral ports, each with its stats server — then
# checks the serving plane end to end:
#
#   - `mbqbench --verify` with scripts/verify.mix: calls of all 11
#     Table 2 read kinds must match a single-process engine on the same
#     dataset bit-for-bit (after canonical row sorting), through the
#     aggregator and against the shards directly;
#   - a 2-client, 2-second drive through the aggregator whose
#     driver.latency_micros histogram must land in the exported metrics;
#   - the /healthz liveness probe answers on the aggregator's stats port
#     (`mbqd --probe`) and names its role;
#   - mbqtrace stitches /trace.json from every daemon into one merged
#     Chrome trace with spans from all N + 1 processes under one trace
#     id;
#   - the aggregator's /slow flight recorder carries a per-shard timing
#     breakdown (queue/execute/serialize/network), and `mbqtop --json`
#     shows per-shard latency rows.
#
# Every daemon samples every trace (MBQ_TRACE_SAMPLE=1) and captures every
# query in its flight recorder (MBQ_SLOW_QUERY_MILLIS=0). This is the
# `cluster-smoke` CMake target and part of the sanitizer gate.
#
# Usage:
#   scripts/cluster_local.sh <mbqd> <mbqbench> <mbqtrace> <mbqtop> [shards] [users] [partition]
#
#   shards     shard daemon count (default 2)
#   users      dataset size (default 800; seed is fixed at 42)
#   partition  hash | range (default hash)
#
# Every process's stderr is kept in a temp log and dumped on failure.
# Daemons and mbqbench get MBQ_STATS_PORT= cleared, so parallel runs
# never fight over a stats port: each daemon serves its stats on an
# ephemeral port, read back from its log.
set -eu

if [ "$#" -lt 4 ]; then
  echo "usage: $0 <mbqd> <mbqbench> <mbqtrace> <mbqtop> [shards] [users] [partition]" >&2
  exit 2
fi

mbqd="$1"
mbqbench="$2"
mbqtrace="$3"
mbqtop="$4"
shards="${5:-2}"
users="${6:-800}"
partition="${7:-hash}"
seed=42
mix="$(dirname "$0")/verify.mix"

for bin in "$mbqd" "$mbqbench" "$mbqtrace" "$mbqtop"; do
  if [ ! -x "$bin" ]; then
    echo "cluster-local: $bin is not an executable" >&2
    exit 2
  fi
done
if [ "$shards" -lt 1 ]; then
  echo "cluster-local: need at least 1 shard" >&2
  exit 2
fi

logdir="$(mktemp -d /tmp/mbq_cluster.XXXXXX)"
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

fail() {
  echo "cluster-local: $1" >&2
  dump_logs
  exit 1
}

export MBQ_TRACE_SAMPLE=1
export MBQ_SLOW_QUERY_MILLIS=0

# Each daemon prints "mbqd: ... listening on 127.0.0.1:PORT" for its RPC
# port and "mbqd: stats server listening on http://127.0.0.1:PORT/" for
# its stats port.
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
    kill -0 "$2" 2>/dev/null || fail "$4 exited early"
    sleep 0.2
  done
  [ -n "$port" ] || fail "$4 did not come up"
  printf '%s' "$port"
}

# Each log exists before its daemon starts, so await_port never reads a
# file the backgrounded redirection has not created yet.
shard_args=()
stats_args=()
for i in $(seq 0 $((shards - 1))); do
  log="$logdir/shard$i.log"
  : >"$log"
  MBQ_STATS_PORT= "$mbqd" --port=0 --shards="$shards" --shard-id="$i" \
    --users="$users" --seed="$seed" --partition="$partition" \
    --serve 2>"$log" &
  pids+=($!)
done
for i in $(seq 0 $((shards - 1))); do
  log="$logdir/shard$i.log"
  port="$(await_port "$log" "${pids[$i]}" rpc_port_of "shard $i")"
  stats="$(await_port "$log" "${pids[$i]}" stats_port_of "shard $i stats")"
  shard_args+=("--shard=127.0.0.1:$port")
  stats_args+=("--from=127.0.0.1:$stats")
done

# Aggregator in front of the shards, also on ephemeral ports.
agg_log="$logdir/aggregator.log"
: >"$agg_log"
MBQ_STATS_PORT= "$mbqd" --aggregate --port=0 "${shard_args[@]}" \
  --serve 2>"$agg_log" &
pids+=($!)
agg_port="$(await_port "$agg_log" "${pids[$shards]}" rpc_port_of aggregator)"
agg_stats="$(await_port "$agg_log" "${pids[$shards]}" stats_port_of \
  "aggregator stats")"

# Probe, then the differential verify and a 2-client drive through the
# aggregator.
"$mbqd" --probe="127.0.0.1:$agg_port" || fail "probe failed"
metrics="$logdir/aggregator.json"
MBQ_STATS_PORT= "$mbqbench" --mix="$mix" --verify=220 --rate=200 \
  --duration=2 --clients=2 --users="$users" --seed="$seed" \
  --shard="127.0.0.1:$agg_port" --metrics-out="$metrics" \
  >"$logdir/via-aggregator.log" 2>&1 ||
  fail "verify through the aggregator FAILED"
grep '^verify ' "$logdir/via-aggregator.log"
# Exported lines look like:
#   {"name": "driver.latency_micros", ..., "count": N, ...}
count="$(grep '"driver.latency_micros"' "$metrics" |
  sed -n 's/.*"count": \([0-9][0-9]*\).*/\1/p')"
if [ -z "$count" ] || [ "$count" -eq 0 ]; then
  fail "driver.latency_micros is missing or empty"
fi

# Also verify against the shards directly — exercises the client-side
# fan-out path without the extra hop.
MBQ_STATS_PORT= "$mbqbench" --mix="$mix" --verify=110 --requests=1 \
  --users="$users" --seed="$seed" "${shard_args[@]}" \
  >"$logdir/direct.log" 2>&1 ||
  fail "verify against the shards directly FAILED"

# /healthz: the probe against a stats port must answer from the liveness
# endpoint and name the role.
health="$("$mbqd" --probe="127.0.0.1:$agg_stats")"
case "$health" in
  *'"status": "ok"'*'"role": "aggregator"'*) ;;
  *) fail "/healthz probe returned: $health" ;;
esac

# Stitch: one merged Chrome trace with spans from the aggregator and
# every shard under a single trace id.
merged="$logdir/merged_trace.json"
"$mbqtrace" "${stats_args[@]}" --from="127.0.0.1:$agg_stats" \
  --require-processes=$((shards + 1)) --out="$merged" ||
  fail "mbqtrace stitch FAILED"
ids="$(grep -o '"trace_id": "[0-9a-f]*"' "$merged" | sort -u | wc -l)"
[ "$ids" -eq 1 ] || fail "merged trace has $ids distinct trace ids, want 1"
for role in aggregator $(seq -f 'shard-%g' 0 $((shards - 1))); do
  grep -q "\"name\": \"$role\"" "$merged" ||
    fail "merged trace is missing process \"$role\""
done

# Per-shard latency attribution: the aggregator's flight recorder must
# show a per-shard breakdown for its remote queries, and the rpc.shard.*
# histograms must have samples.
slow="$("$mbqtop" --get=/slow --port="$agg_stats")"
case "$slow" in
  *'shard 0:'*queue=*execute=*) ;;
  *) fail "aggregator /slow lacks a per-shard breakdown: $(printf '%s' "$slow" | head -n 10)" ;;
esac
top="$("$mbqtop" --json --port="$agg_stats")"
case "$top" in
  *'"shards": [{"shard": 0'*) ;;
  *) fail "mbqtop --json shows no per-shard latency rows: $top" ;;
esac

echo "cluster-local: $shards shards + aggregator agree with the single-process engine (users=$users, $partition partition; $count driven requests)"
echo "cluster-local: one stitched trace across aggregator + $shards shards; /slow shows per-shard timing; /healthz and mbqtop --json answer"
