#!/usr/bin/env bash
# Builds and runs the test suite under ThreadSanitizer and (optionally)
# AddressSanitizer / UndefinedBehaviorSanitizer. The TSan pass is the
# acceptance gate for the parallel execution work: the concurrency
# harness must come back clean. The UBSan pass runs the full suite with
# recovery disabled, gating the static-analysis work
# (docs/STATIC_ANALYSIS.md).
#
# Usage:
#   scripts/run_sanitized_tests.sh               # TSan, concurrency-focused tests
#   scripts/run_sanitized_tests.sh --all         # TSan, full suite
#   scripts/run_sanitized_tests.sh --asan        # also run an ASan pass
#   scripts/run_sanitized_tests.sh --ubsan       # also run a UBSan pass
#
# The focused TSan pass runs the tests that exercise shared state
# (ThreadPool, concurrency harness, agreement sweep, cypher runtime, the
# query registry / flight recorder, the stats server, the RPC / cluster
# plane with its concurrent clients, and the storage layer: disk, buffer
# cache, accountant, fault injection and the pinned modelled I/O) with
# CYPHER_THREADS=4 so the morsel-parallel paths engage. A full-suite
# TSan run works too but is several times slower. The TSan pass
# finishes with the cluster and driver smokes, all running under the
# sanitizer: real mbqd shard + aggregator processes on loopback,
# verified, driven by two concurrent mbqbench clients and traced
# (scripts/cluster_local.sh), and the local open-loop driver
# (scripts/driver_smoke.sh).
set -eu

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

run_all=0
run_asan=0
run_ubsan=0
for arg in "$@"; do
  case "$arg" in
    --all) run_all=1 ;;
    --asan) run_asan=1 ;;
    --ubsan) run_ubsan=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

jobs="$(nproc 2>/dev/null || echo 2)"
focused='Exec|Concurrency|Agreement|Cypher|Cache|Introspect|Httpd|SlowQuery|Rpc|Framing|Messages|Cluster|Partitioner|Write|Wal|LockRank|Trace|SimulatedDisk|StorageAccountant|StorageModel|FaultInjection'

echo "== ThreadSanitizer build (build-tsan/) =="
cmake -B build-tsan -S . -DSANITIZE=thread >/dev/null
cmake --build build-tsan -j "$jobs"

echo "== ThreadSanitizer tests (CYPHER_THREADS=4) =="
if [ "$run_all" -eq 1 ]; then
  (cd build-tsan && CYPHER_THREADS=4 TSAN_OPTIONS="halt_on_error=1" \
    ctest --output-on-failure)
else
  (cd build-tsan && CYPHER_THREADS=4 TSAN_OPTIONS="halt_on_error=1" \
    ctest --output-on-failure -R "$focused")
fi

echo "== bench smoke (read caches on, TSan binary) =="
TSAN_OPTIONS="halt_on_error=1" \
  scripts/bench_smoke.sh build-tsan/bench/bench_fig4_recommendation

echo "== cluster smoke (2 shards + aggregator, TSan binaries) =="
TSAN_OPTIONS="halt_on_error=1" \
  scripts/cluster_local.sh build-tsan/tools/mbqd build-tsan/tools/mbqbench \
  build-tsan/tools/mbqtrace build-tsan/tools/mbqtop 2 400

echo "== driver smoke (open-loop load driver, TSan binary) =="
TSAN_OPTIONS="halt_on_error=1" \
  scripts/driver_smoke.sh build-tsan/tools/mbqbench

if [ "$run_asan" -eq 1 ]; then
  echo "== AddressSanitizer build (build-asan/) =="
  cmake -B build-asan -S . -DSANITIZE=address >/dev/null
  cmake --build build-asan -j "$jobs"
  echo "== AddressSanitizer tests =="
  (cd build-asan && CYPHER_THREADS=4 ctest --output-on-failure -R "$focused")
fi

if [ "$run_ubsan" -eq 1 ]; then
  echo "== UndefinedBehaviorSanitizer build (build-ubsan/) =="
  cmake -B build-ubsan -S . -DSANITIZE=undefined >/dev/null
  cmake --build build-ubsan -j "$jobs"
  echo "== UndefinedBehaviorSanitizer tests (full suite) =="
  (cd build-ubsan && UBSAN_OPTIONS="print_stacktrace=1" \
    ctest --output-on-failure -j "$jobs")
fi

echo "sanitized tests passed"
