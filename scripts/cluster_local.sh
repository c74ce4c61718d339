#!/usr/bin/env bash
# Boots a local mbqd cluster on loopback — N shard daemons plus one
# aggregator, all on ephemeral ports — then runs `mbqbench --verify`
# with scripts/verify.mix: calls of all 11 Table 2 read kinds must match
# a single-process engine on the same dataset bit-for-bit (after
# canonical row sorting). Through the aggregator the verify is followed
# by a 2-client, 2-second drive whose driver.latency_micros histogram
# must land in the exported metrics; a second verify goes to the shards
# directly. This is the `cluster-smoke` CMake target and part of the
# sanitizer gate.
#
# Usage:
#   scripts/cluster_local.sh <mbqd-binary> <mbqbench-binary> [shards] [users] [partition]
#
#   shards     shard daemon count (default 2)
#   users      dataset size (default 800; seed is fixed at 42)
#   partition  hash | range (default hash)
#
# Every process's stderr is kept in a temp log and dumped on failure.
# Daemons and mbqbench get MBQ_STATS_PORT= cleared so parallel runs
# never fight over a stats port; pass MBQ_CLUSTER_STATS=1 to give each
# daemon --serve on an ephemeral port instead (ports are printed in the
# logs).
set -eu

if [ "$#" -lt 2 ]; then
  echo "usage: $0 <mbqd-binary> <mbqbench-binary> [shards] [users] [partition]" >&2
  exit 2
fi

mbqd="$1"
mbqbench="$2"
shards="${3:-2}"
users="${4:-800}"
partition="${5:-hash}"
seed=42
mix="$(dirname "$0")/verify.mix"

for bin in "$mbqd" "$mbqbench"; do
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

serve_flag=""
if [ "${MBQ_CLUSTER_STATS:-0}" = "1" ]; then
  serve_flag="--serve"
fi

# Start the shards on ephemeral ports; grep each one's resolved port out
# of its startup line ("mbqd: shard I listening on 127.0.0.1:PORT"). Each
# log exists before its daemon starts, so the wait loops never read a
# file the backgrounded redirection has not created yet.
shard_args=()
for i in $(seq 0 $((shards - 1))); do
  log="$logdir/shard$i.log"
  : >"$log"
  # shellcheck disable=SC2086
  MBQ_STATS_PORT= "$mbqd" --port=0 --shards="$shards" --shard-id="$i" \
    --users="$users" --seed="$seed" --partition="$partition" \
    $serve_flag 2>"$log" &
  pids+=($!)
done

for i in $(seq 0 $((shards - 1))); do
  log="$logdir/shard$i.log"
  port=""
  for _ in $(seq 1 300); do
    port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$log" | head -n 1)"
    [ -n "$port" ] && break
    if ! kill -0 "${pids[$i]}" 2>/dev/null; then
      echo "cluster-local: shard $i exited early" >&2
      dump_logs
      exit 1
    fi
    sleep 0.2
  done
  if [ -z "$port" ]; then
    echo "cluster-local: shard $i did not come up" >&2
    dump_logs
    exit 1
  fi
  shard_args+=("--shard=127.0.0.1:$port")
done

# Aggregator in front of the shards, also on an ephemeral port.
agg_log="$logdir/aggregator.log"
: >"$agg_log"
MBQ_STATS_PORT= "$mbqd" --aggregate --port=0 "${shard_args[@]}" \
  $serve_flag 2>"$agg_log" &
pids+=($!)

agg_port=""
for _ in $(seq 1 300); do
  agg_port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$agg_log" | head -n 1)"
  [ -n "$agg_port" ] && break
  if ! kill -0 "${pids[$shards]}" 2>/dev/null; then
    echo "cluster-local: aggregator exited early" >&2
    dump_logs
    exit 1
  fi
  sleep 0.2
done
if [ -z "$agg_port" ]; then
  echo "cluster-local: aggregator did not come up" >&2
  dump_logs
  exit 1
fi

# Probe, then the differential verify and a 2-client drive through the
# aggregator.
if ! "$mbqd" --probe="127.0.0.1:$agg_port"; then
  echo "cluster-local: probe failed" >&2
  dump_logs
  exit 1
fi
metrics="$logdir/aggregator.json"
if ! MBQ_STATS_PORT= "$mbqbench" --mix="$mix" --verify=220 --rate=200 \
    --duration=2 --clients=2 --users="$users" --seed="$seed" \
    --shard="127.0.0.1:$agg_port" --metrics-out="$metrics" \
    >"$logdir/via-aggregator.log" 2>&1; then
  echo "cluster-local: verify through the aggregator FAILED" >&2
  dump_logs
  exit 1
fi
grep '^verify ' "$logdir/via-aggregator.log"
# Exported lines look like:
#   {"name": "driver.latency_micros", ..., "count": N, ...}
count="$(grep '"driver.latency_micros"' "$metrics" |
  sed -n 's/.*"count": \([0-9][0-9]*\).*/\1/p')"
if [ -z "$count" ] || [ "$count" -eq 0 ]; then
  echo "cluster-local: driver.latency_micros is missing or empty" >&2
  dump_logs
  exit 1
fi

# Also verify against the shards directly — exercises the client-side
# fan-out path without the extra hop.
if ! MBQ_STATS_PORT= "$mbqbench" --mix="$mix" --verify=110 --requests=1 \
    --users="$users" --seed="$seed" "${shard_args[@]}" \
    >"$logdir/direct.log" 2>&1; then
  echo "cluster-local: verify against the shards directly FAILED" >&2
  dump_logs
  exit 1
fi

echo "cluster-local: $shards shards + aggregator agree with the single-process engine (users=$users, $partition partition; $count driven requests)"
