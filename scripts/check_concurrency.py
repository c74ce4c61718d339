#!/usr/bin/env python3
"""Repo-local concurrency lint, run by the `analyze` CMake target.

Four checks, all textual (no compiler needed, so they run on any box):

1. Raw mutex members. Every lock in the tree must be a util::RankedMutex /
   util::RankedSharedMutex so it carries a rank for the runtime deadlock
   checker and a capability for the Clang thread-safety analysis. A
   `std::mutex` / `std::shared_mutex` member (or local) outside src/util
   silently opts out of both gates.

2. Raw lock guards and condition variables. `std::lock_guard` /
   `std::scoped_lock`, and plain `std::condition_variable` (which only
   accepts std::unique_lock<std::mutex>) outside src/util bypass the
   rank bookkeeping; the wrappers are util::ScopedLock / util::RankedLock
   and std::condition_variable_any.

3. Wire stability. Enum values that persist outside the process are
   frozen in scripts/rpc_wire.lock, one `[Enum]` section per
   (header, enum) pair in PINNED_ENUMS: rpc::MsgType (a change that is
   not a pure append breaks mixed-version deployments, docs/CLUSTER.md)
   and store::WriteOpKind (WAL records and the kWriteBatch frame carry
   it; renumbering silently changes what replay applies).

4. Lock hierarchy table. Every `LockRank::kX, "site"` literal in src/
   (the site name may sit on the next line) must be listed in kX's row
   of the table in docs/STATIC_ANALYSIS.md, where `exec.pool.*`-style
   wildcards cover a family of sites; every rank in the table must exist
   in util::LockRank with the same value.

Exit status 0 when clean, 1 with one line per finding otherwise.
"""

import fnmatch
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"
WIRE_LOCK = REPO / "scripts" / "rpc_wire.lock"
# (header, enum) pairs pinned append-only in WIRE_LOCK's `[enum]` sections.
PINNED_ENUMS = [
    (SRC / "rpc" / "messages.h", "MsgType"),
    (SRC / "store" / "delta" / "write_batch.h", "WriteOpKind"),
]
LOCK_RANK_H = SRC / "util" / "lock_rank.h"
STATIC_ANALYSIS_MD = REPO / "docs" / "STATIC_ANALYSIS.md"

# src/util owns the wrappers; the std primitives may appear only there.
EXEMPT_PREFIX = SRC / "util"

RAW_PATTERNS = [
    # (regex, explanation)
    (re.compile(r"\bstd::mutex\b"),
     "raw std::mutex (use util::RankedMutex with a LockRank)"),
    (re.compile(r"\bstd::shared_mutex\b"),
     "raw std::shared_mutex (use util::RankedSharedMutex with a LockRank)"),
    (re.compile(r"\bstd::recursive_mutex\b"),
     "std::recursive_mutex (recursion is a rank violation by definition)"),
    (re.compile(r"\bstd::lock_guard\b"),
     "raw std::lock_guard (use util::ScopedLock)"),
    (re.compile(r"\bstd::scoped_lock\b"),
     "raw std::scoped_lock (use util::ScopedLock)"),
    (re.compile(r"\bstd::condition_variable\b(?!_any)"),
     "plain std::condition_variable (use std::condition_variable_any over "
     "util::RankedLock)"),
]

STRIP_LINE_COMMENT = re.compile(r"//.*$")


def iter_source_files(include_util=False):
    for path in sorted(SRC.rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        if not include_util and EXEMPT_PREFIX in path.parents:
            continue
        yield path


def code_lines(path):
    """The file's lines with comments blanked, line numbering kept.

    Cheap comment stripping: enough for this tree's style (no raw strings
    containing comment tokens)."""
    in_block_comment = False
    for line in path.read_text().splitlines():
        if in_block_comment:
            if "*/" not in line:
                yield ""
                continue
            line = line.split("*/", 1)[1]
            in_block_comment = False
        line = STRIP_LINE_COMMENT.sub("", line)
        if "/*" in line:
            head, _, tail = line.partition("/*")
            if "*/" in tail:
                line = head + tail.split("*/", 1)[1]
            else:
                line = head
                in_block_comment = True
        yield line


def check_raw_primitives(findings):
    for path in iter_source_files():
        for lineno, line in enumerate(code_lines(path), start=1):
            for pattern, why in RAW_PATTERNS:
                if pattern.search(line):
                    rel = path.relative_to(REPO)
                    findings.append(f"{rel}:{lineno}: {why}")


ENUM_ENTRY = re.compile(r"^\s*(k[A-Za-z0-9]+)\s*=\s*(\d+)\s*,")


def parse_enum_values(header, enum_name):
    """(name, value) pairs of `enum class enum_name`, in declaration
    order."""
    values = []
    in_enum = False
    for line in header.read_text().splitlines():
        if f"enum class {enum_name}" in line:
            in_enum = True
            continue
        if in_enum:
            if line.strip().startswith("}"):
                break
            m = ENUM_ENTRY.match(STRIP_LINE_COMMENT.sub("", line))
            if m:
                values.append((m.group(1), int(m.group(2))))
    return values


def parse_wire_lock(findings):
    """{enum: [(name, value)]} from WIRE_LOCK's `[enum]` sections."""
    sections = {}
    values = None
    for line in WIRE_LOCK.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            values = sections.setdefault(line[1:-1].strip(), [])
            continue
        if values is None:
            findings.append(f"{WIRE_LOCK.relative_to(REPO)}: `{line}` is "
                            f"outside any [enum] section")
            continue
        name, _, value = line.partition("=")
        values.append((name.strip(), int(value.strip())))
    return sections


def check_pinned_enum(findings, header, enum_name, lock):
    """The locked prefix must match `enum_name` exactly; the enum may
    only append, and never reuse a value."""
    rel = header.relative_to(REPO)
    lock_rel = WIRE_LOCK.relative_to(REPO)
    enum = parse_enum_values(header, enum_name)
    if not enum:
        findings.append(f"{rel}: could not parse {enum_name} enum")
        return
    if not lock:
        findings.append(f"{lock_rel}: no [{enum_name}] section pins {rel}")
        return
    for i, (name, value) in enumerate(lock):
        if i >= len(enum):
            findings.append(
                f"{rel}: {enum_name}::{name} = {value} was removed; wire "
                f"values are append-only ({lock_rel})")
            continue
        got_name, got_value = enum[i]
        if (got_name, got_value) != (name, value):
            findings.append(
                f"{rel}: {enum_name} entry {i} is {got_name} = {got_value}, "
                f"but the wire manifest pins {name} = {value}; renumbering "
                f"changes what peers and logs mean by it ({lock_rel})")
    for name, value in enum[len(lock):]:
        findings.append(
            f"{rel}: {enum_name}::{name} = {value} is not in {lock_rel}; "
            f"append it to the [{enum_name}] section in the same change")
    seen = {}
    for name, value in enum:
        if value in seen:
            findings.append(
                f"{rel}: {enum_name}::{name} reuses wire value {value} "
                f"(already {seen[value]})")
        seen[value] = name


def check_wire_stability(findings):
    if not WIRE_LOCK.exists():
        findings.append(f"{WIRE_LOCK.relative_to(REPO)}: manifest missing")
        return
    sections = parse_wire_lock(findings)
    for header, enum_name in PINNED_ENUMS:
        check_pinned_enum(findings, header, enum_name,
                          sections.get(enum_name, []))


# `LockRank::kX, "site"`, the site literal on the same or the next line.
RANK_SITE = re.compile(r'LockRank::(k[A-Za-z0-9]+)\s*,[ \t]*\n?[ \t]*"([^"]*)"')
# | `kX` | value | `site`, `site.*` | why |
RANK_ROW = re.compile(r"^\|\s*`(k[A-Za-z0-9]+)`\s*\|\s*(\d+)\s*\|([^|]*)\|")


def parse_rank_table():
    """{rank: (value, [site patterns])} from the hierarchy table."""
    rows = {}
    for line in STATIC_ANALYSIS_MD.read_text().splitlines():
        m = RANK_ROW.match(line)
        if m:
            rows[m.group(1)] = (int(m.group(2)),
                                re.findall(r"`([^`]+)`", m.group(3)))
    return rows


def check_rank_table(findings):
    doc = STATIC_ANALYSIS_MD.relative_to(REPO)
    table = parse_rank_table()
    if not table:
        findings.append(f"{doc}: could not parse the lock hierarchy table")
        return
    enum = dict(parse_enum_values(LOCK_RANK_H, "LockRank"))
    for rank, (value, _) in table.items():
        if rank not in enum:
            findings.append(f"{doc}: rank {rank} is not in util::LockRank")
        elif enum[rank] != value:
            findings.append(f"{doc}: rank {rank} is {value} in the table "
                            f"but {enum[rank]} in util::LockRank")
    for path in iter_source_files(include_util=True):
        text = "\n".join(code_lines(path))
        for m in RANK_SITE.finditer(text):
            rank, site = m.groups()
            patterns = table.get(rank, (None, []))[1]
            if not any(fnmatch.fnmatchcase(site, p) for p in patterns):
                lineno = text.count("\n", 0, m.start()) + 1
                findings.append(
                    f"{path.relative_to(REPO)}:{lineno}: lock site "
                    f"\"{site}\" ({rank}) is missing from the {rank} row "
                    f"of {doc}")


def main():
    findings = []
    check_raw_primitives(findings)
    check_wire_stability(findings)
    check_rank_table(findings)
    if findings:
        for f in findings:
            print(f)
        print(f"check_concurrency.py: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    print("check_concurrency.py: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
