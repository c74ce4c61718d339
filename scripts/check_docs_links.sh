#!/usr/bin/env bash
# Doc hygiene checks:
#   1. Every relative markdown link in the top-level *.md files and
#      docs/*.md resolves to an existing file.
#   2. Every metric name literal registered in src/ appears in
#      docs/OBSERVABILITY.md (the catalogue must stay complete), and
#      every metric the catalogue's tables name is registered in src/
#      (no stale rows).
#   3. Every RPC message type in src/rpc/messages.h appears in
#      docs/CLUSTER.md (the wire-protocol spec must stay complete).
#
# Exits non-zero listing every violation. Run from anywhere:
#   scripts/check_docs_links.sh
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

failures=0

# ---- 1. markdown link targets exist -------------------------------------
# Matches [text](target) where target is a relative path (skip http(s),
# mailto and pure #anchors); strips any #fragment before the existence
# check.
for doc in *.md docs/*.md; do
  [ -f "$doc" ] || continue
  doc_dir="$(dirname "$doc")"
  # shellcheck disable=SC2013
  for target in $(grep -oE '\]\(([^)]+)\)' "$doc" | sed -E 's/^\]\(//; s/\)$//'); do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"
    [ -n "$path" ] || continue
    if [ ! -e "$doc_dir/$path" ]; then
      echo "BROKEN LINK: $doc -> $target"
      failures=$((failures + 1))
    fi
  done
done

# ---- 2. every registered metric name is documented ----------------------
catalogue="docs/OBSERVABILITY.md"
if [ ! -f "$catalogue" ]; then
  echo "MISSING: $catalogue"
  failures=$((failures + 1))
else
  # Metric names are always written as full string literals at the
  # registration site (GetCounter / GetHistogram / sink->Gauge), so a
  # grep over src/ finds the complete set. Ranked-mutex site names
  # ("obs.registry", ...) share the dotted shape but always appear on
  # the same line as their LockRank, so those lines are excluded.
  # Dynamic families ("rpc.shard." + i + ".latency") leave a literal
  # ending in a dot; the catalogue must spell the family out starting
  # with that prefix (e.g. `rpc.shard.<i>.latency`).
  prefixes='(nodestore|bitmapstore|cypher|cache|check|obs|exec|rpc|trace|driver|write|wal|lockrank)'
  registered=$(grep -rhE "\"$prefixes\.[a-z0-9_.]*\"" src/ |
               grep -v 'LockRank::' |
               grep -oE "\"$prefixes\.[a-z0-9_.]*\"" |
               tr -d '"' | sort -u)
  for name in $registered; do
    case "$name" in
      *.) pattern="\`$name" ;;
      *) pattern="\`$name\`" ;;
    esac
    if ! grep -q -F "$pattern" "$catalogue"; then
      echo "UNDOCUMENTED METRIC: $name (add it to $catalogue)"
      failures=$((failures + 1))
    fi
  done

  # The reverse: every row of a metric table (a table whose first header
  # cell is "Name") whose first cell is one backticked name with a
  # registered prefix must name a registered metric. A family row
  # (`rpc.shard.<i>.latency`, `driver.<template>.qps`) needs the literal
  # before its placeholder ("rpc.shard.", "driver."); any other row needs
  # its own literal, or a prefix literal it extends by a dot, as
  # cache.result.hits extends "cache.result". Other tables, such as the
  # trace-context fields, are not checked.
  rows=$(awk '
    /^\|/ {
      split($0, cells, "|")
      first = cells[2]
      gsub(/^[ \t]+|[ \t]+$/, "", first)
      if (!in_table) { in_table = 1; header = 1; metric_table = (first == "Name"); next }
      if (header) { header = 0; next }
      if (metric_table && first ~ /^`[^`]+`$/) { gsub(/`/, "", first); print first }
      next
    }
    { in_table = 0 }
  ' "$catalogue" | grep -E "^$prefixes\." | sort -u)
  for name in $rows; do
    case "$name" in
      *"<"*) wanted="${name%%<*}" ;;
      *) wanted="$name" ;;
    esac
    found=0
    for literal in $registered; do
      case "$wanted" in
        "$literal") found=1 ;;
        "$literal".*) case "$literal" in *.) ;; *) found=1 ;; esac ;;
      esac
      [ "$found" -eq 1 ] && break
    done
    if [ "$found" -eq 0 ]; then
      echo "STALE METRIC ROW: $name (no source in src/ registers it; remove it from $catalogue)"
      failures=$((failures + 1))
    fi
  done
fi

# ---- 3. every RPC message type is documented ----------------------------
spec="docs/CLUSTER.md"
messages="src/rpc/messages.h"
if [ -f "$messages" ]; then
  if [ ! -f "$spec" ]; then
    echo "MISSING: $spec"
    failures=$((failures + 1))
  else
    # Enum entries are declared one per line as `kName = N,`; the spec
    # must name each message type verbatim.
    for name in $(grep -oE '^  k[A-Za-z]+ = [0-9]+,' "$messages" |
                  sed -E 's/^  (k[A-Za-z]+) = .*/\1/' | sort -u); do
      if ! grep -q -F "\`$name\`" "$spec"; then
        echo "UNDOCUMENTED RPC MESSAGE: $name (add it to $spec)"
        failures=$((failures + 1))
      fi
    done
  fi
fi

if [ "$failures" -ne 0 ]; then
  echo "check_docs_links: $failures problem(s) found"
  exit 1
fi
echo "check_docs_links: OK"
