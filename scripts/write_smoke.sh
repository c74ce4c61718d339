#!/usr/bin/env bash
# Smoke-runs the live write path end to end: a 2-second drive of the
# built-in `churn` suite (90% reads / 10% writes) with --verify and a
# real WAL, asserting
#   - the differential check agrees on every interleaved read AND write
#     (the churn agreement property, docs/WRITES.md),
#   - the exported metrics JSON carries non-zero write.* and wal.*
#     counters — proof the commits actually flowed through the commit
#     path and group-commit log rather than short-circuiting,
#   - checkdb's write-path section passes on a clean store and catches
#     an injected wal-tail fault.
# This is the `write-smoke` CMake target.
#
# Usage:
#   scripts/write_smoke.sh <mbqbench-binary> <checkdb-binary>
set -eu

if [ "$#" -lt 2 ]; then
  echo "usage: $0 <mbqbench-binary> <checkdb-binary>" >&2
  exit 2
fi

mbqbench="$1"
checkdb="$2"
users=600
seed=42

for bin in "$mbqbench" "$checkdb"; do
  if [ ! -x "$bin" ]; then
    echo "write-smoke: $bin is not an executable" >&2
    exit 2
  fi
done

logdir="$(mktemp -d /tmp/mbq_write_smoke.XXXXXX)"
cleanup() { rm -rf "$logdir"; }
trap cleanup EXIT

# Asserts a counter line in the metrics JSON has a non-zero value.
# Exported lines look like:
#   {"name": "write.commits", "unit": "batches", "value": N}
check_counter() {
  out="$1"
  metric="$2"
  line="$(grep "\"$metric\"" "$out" || true)"
  if [ -z "$line" ]; then
    echo "write-smoke: counter $metric missing from $out" >&2
    return 1
  fi
  value="$(printf '%s' "$line" | sed -n 's/.*"value": \([0-9][0-9]*\).*/\1/p')"
  if [ -z "$value" ] || [ "$value" -eq 0 ]; then
    echo "write-smoke: counter $metric is zero: $line" >&2
    return 1
  fi
  echo "write-smoke: $metric = $value"
}

out="$logdir/churn.json"
for engine in nodestore bitmap; do
  if ! "$mbqbench" --suite=churn --engine="$engine" --rate=400 --duration=2 \
      --clients=2 --users="$users" --seed="$seed" --verify=150 \
      --wal-dir="$logdir/wal-$engine" --metrics-out="$out" \
      >"$logdir/churn-$engine.out" 2>"$logdir/churn-$engine.err"; then
    echo "write-smoke: churn drive/verify on $engine FAILED" >&2
    cat "$logdir/churn-$engine.err" >&2
    exit 1
  fi
  echo "write-smoke: churn verify OK on $engine"
done

fail=0
for metric in write.commits write.ops write.ops.post_tweet write.ops.follow \
              write.ops.unfollow write.ops.add_mention wal.records \
              wal.fsyncs; do
  check_counter "$out" "$metric" || fail=1
done
if [ "$fail" -ne 0 ]; then
  echo "write-smoke: FAILED" >&2
  exit 1
fi

if ! "$checkdb" --users=200 >"$logdir/checkdb.out" 2>&1; then
  echo "write-smoke: checkdb on a clean store FAILED" >&2
  cat "$logdir/checkdb.out" >&2
  exit 1
fi
if "$checkdb" --users=200 --corrupt=wal-tail >"$logdir/checkdb-tail.out" 2>&1
then
  echo "write-smoke: checkdb missed the injected wal-tail fault" >&2
  cat "$logdir/checkdb-tail.out" >&2
  exit 1
fi
echo "write-smoke: checkdb write-path section OK (clean passes, wal-tail caught)"
echo "write-smoke: OK"
