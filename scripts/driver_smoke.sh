#!/usr/bin/env bash
# Smoke-runs the open-loop load driver: a 2-second drive of each
# built-in suite (tao, ldbc) on a tiny dataset, asserting the exported
# metrics JSON carries non-empty driver.* histograms — the fast
# end-to-end check that the driver plane is wired through (mix parsing
# -> param generation -> open-loop clients -> histogram merge ->
# metrics export). This is the `driver-smoke` CMake target and part of
# the sanitizer gate. scripts/cluster_local.sh drives the same plane
# through a 2-shard cluster.
#
# Usage:
#   scripts/driver_smoke.sh <mbqbench-binary>
set -eu

if [ "$#" -lt 1 ]; then
  echo "usage: $0 <mbqbench-binary>" >&2
  exit 2
fi

mbqbench="$1"
users=600
seed=42

if [ ! -x "$mbqbench" ]; then
  echo "driver-smoke: $mbqbench is not an executable" >&2
  exit 2
fi

logdir="$(mktemp -d /tmp/mbq_driver_smoke.XXXXXX)"
cleanup() { rm -rf "$logdir"; }
trap cleanup EXIT

# Asserts the metrics JSON has a driver histogram with a non-zero count.
# Exported lines look like:
#   {"name": "driver.latency_micros", ..., "count": N, ...}
check_histogram() {
  out="$1"
  metric="$2"
  line="$(grep "\"$metric\"" "$out" || true)"
  if [ -z "$line" ]; then
    echo "driver-smoke: histogram $metric missing from $out" >&2
    return 1
  fi
  count="$(printf '%s' "$line" | sed -n 's/.*"count": \([0-9][0-9]*\).*/\1/p')"
  if [ -z "$count" ] || [ "$count" -eq 0 ]; then
    echo "driver-smoke: histogram $metric is empty: $line" >&2
    return 1
  fi
  echo "driver-smoke: $metric count = $count"
}

fail=0
for suite in tao ldbc; do
  out="$logdir/$suite.json"
  if ! "$mbqbench" --suite="$suite" --rate=400 --duration=2 --clients=2 \
      --users="$users" --seed="$seed" --metrics-out="$out" \
      >"$logdir/$suite.out" 2>"$logdir/$suite.err"; then
    echo "driver-smoke: suite $suite run failed" >&2
    cat "$logdir/$suite.err" >&2
    exit 1
  fi
  check_histogram "$out" "driver.latency_micros" || fail=1
  # One per-template histogram per suite proves the breakdown is wired.
  case "$suite" in
    tao)  check_histogram "$out" "driver.assoc_range.latency_micros" || fail=1 ;;
    ldbc) check_histogram "$out" "driver.followees.latency_micros" || fail=1 ;;
  esac
done
if [ "$fail" -ne 0 ]; then
  echo "driver-smoke: FAILED" >&2
  exit 1
fi

echo "driver-smoke: OK"
