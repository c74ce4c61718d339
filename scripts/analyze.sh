#!/usr/bin/env bash
# The static-analysis umbrella: everything that gates a change without
# running it (docs/STATIC_ANALYSIS.md). Also available as the `analyze`
# CMake target. Runs, in order:
#
#   1. check_concurrency.py  — raw-mutex lint, wire-value manifest,
#                              lock hierarchy table vs. the lock sites
#   2. check_docs_links.sh   — doc links, metric catalogue, RPC spec
#   3. run_clang_tidy.sh     — clang-tidy over the gated directories
#   4. a -Wthread-safety build of the annotated tree (Clang only)
#
# Steps 3 and 4 degrade to a notice when LLVM is not installed (the
# same policy as the `lint` / `format-check` targets), so the script is
# runnable on any box; a clean exit means every check that COULD run
# passed. Exits non-zero on the first failing check.
#
# Usage: scripts/analyze.sh [build-dir]   (build-dir defaults to ./build)
set -eu

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"
BUILD_DIR="${1:-build}"

echo "== concurrency lint (raw mutexes, wire-value manifest, lock table) =="
python3 scripts/check_concurrency.py

echo "== doc hygiene (links, metric catalogue, RPC spec) =="
scripts/check_docs_links.sh

echo "== clang-tidy =="
scripts/run_clang_tidy.sh "$BUILD_DIR"

echo "== thread-safety analysis (Clang) =="
if command -v clang++ >/dev/null 2>&1; then
  # A separate build tree: the default one is usually GCC, and the
  # annotations only analyze under Clang. -Werror=thread-safety-analysis
  # is added by CMakeLists.txt for Clang, so a clean build IS the check.
  cmake -B build-analyze -S . -DCMAKE_CXX_COMPILER=clang++ >/dev/null
  cmake --build build-analyze -j "$(nproc 2>/dev/null || echo 2)"
else
  echo "thread-safety analysis skipped: clang++ not found" \
       "(install LLVM to enable)"
fi

echo "analyze: all available checks passed"
