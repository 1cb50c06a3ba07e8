#!/usr/bin/env python3
"""Repo-specific determinism lint for the wormhole codebase.

The paper's techniques (FRPLA/RTLA shift statistics, DPR/BRPR revelation)
only mean anything if a campaign is bit-exact run to run, across thread
counts and across machines. Generic static analyzers cannot know which
invariants guarantee that here, so this checker enforces the repo's own
rules:

  wall-clock          No wall-clock or OS-time source anywhere. Simulated
                      time is the only clock; real time would leak into
                      RTTs and reports.
  raw-rng             No std::random_device / rand() / srand() / direct
                      mt19937 construction outside src/netbase/rng.h.
                      Every stochastic draw must flow through the seeded
                      netbase::Rng so campaigns replay exactly.
  unordered-iteration Report/trace-producing code (src/analysis, src/io,
                      src/fingerprint, tools) must not iterate unordered
                      containers: hash-order would reorder output lines
                      between runs and libstdc++ versions.
  raw-threading       No raw std::thread / std::mutex / condition
                      variables — nor the C++20 sync vocabulary (latch,
                      barrier, semaphores, futures, call_once, stop
                      tokens, this_thread) — outside src/exec;
                      concurrency is centralized there so determinism
                      (sharded merge order) is auditable in one place.
                      tests/ are exempt (they exercise the exec
                      primitives directly).
  fastpath-heap       The sealed fast-path files (inline label stacks,
                      packet model) must not use heap-allocating std
                      containers; the steady-state swap path is
                      allocation-free by contract.
  label-range         Integer literals at label-assignment sites must be
                      0 (unset / explicit-null sentinel) or within
                      [16, 2^20 - 1]. Reserved labels 1..15 must be
                      spelled via netbase::ReservedLabel, and anything
                      past 20 bits cannot be encoded in a shim header.

Suppressions (each finding names the rule to use):

  ... code ...  // lint:allow(rule-id): reason
  // lint:allow-next-line(rule-id): reason
  // lint:allow-file(rule-id): reason        (anywhere in the file)

Exit status: 0 = clean, 1 = findings, 2 = usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

SOURCE_EXTENSIONS = {".cpp", ".cc", ".cxx", ".h", ".hpp"}
SCAN_DIRS = ("src", "tools", "bench", "tests", "examples")
EXCLUDED_PARTS = {"fixtures", "build", "build-tsan"}

# Files whose steady-state path must stay allocation-free (PR 2's sealed
# fast path). Paths are repo-relative, forward-slash.
FASTPATH_FILES = {
    "src/netbase/inline_vec.h",
    "src/netbase/label.h",
    "src/netbase/packet.h",
}

# Directories whose iteration order feeds report/trace output.
OUTPUT_DIRS = ("src/analysis", "src/io", "src/fingerprint", "tools")

RNG_HOME = "src/netbase/rng.h"
EXEC_DIR = "src/exec"

ALLOW_LINE = re.compile(r"//\s*lint:allow\(([\w,\s-]+)\)")
ALLOW_NEXT = re.compile(r"//\s*lint:allow-next-line\(([\w,\s-]+)\)")
ALLOW_FILE = re.compile(r"//\s*lint:allow-file\(([\w,\s-]+)\)")

WALL_CLOCK = re.compile(
    r"std::chrono::(system_clock|steady_clock|high_resolution_clock)"
    r"|\b(gettimeofday|clock_gettime|localtime|gmtime|timespec_get)\s*\("
    r"|\bstd::time\s*\(|[^:\w]time\s*\(\s*(nullptr|NULL|0)?\s*\)"
)
RAW_RNG = re.compile(
    r"std::random_device|\bstd::mt19937(_64)?\b"
    r"|[^:.\w](rand|srand|random|srandom|drand48)\s*\("
)
RAW_THREADING = re.compile(
    r"std::(thread|jthread|mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(_any)?|async|latch|barrier|future|shared_future|"
    r"promise|packaged_task|counting_semaphore|binary_semaphore|"
    r"call_once|once_flag|stop_token|stop_source|this_thread)\b"
)
HEAP_CONTAINER = re.compile(
    r"std::(vector|string|deque|list|map|set|unordered_map|unordered_set|"
    r"multimap|multiset|function|shared_ptr|unique_ptr)\b"
    r"|\bnew\b|\bmalloc\s*\(|\bcalloc\s*\("
)
UNORDERED_DECL = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s+(\w+)\s*[;={(]"
)
RANGE_FOR = re.compile(r"\bfor\s*\(.*?:\s*([^)]+)\)")
# Label-assignment sites: `label = 42`, `.label = 42`, `label{42}`,
# `label(42)`, `out_label = 42`, `lse.label = 42`, `PushLabel(42)`.
LABEL_LITERAL = re.compile(
    r"(?:\b\w*label\w*\s*(?:=|\{|\()\s*|PushLabel\s*\(\s*)(\d+)\b"
)

LABEL_MIN = 16
LABEL_MAX = (1 << 20) - 1

RULES = (
    "wall-clock",
    "raw-rng",
    "unordered-iteration",
    "raw-threading",
    "fastpath-heap",
    "label-range",
)


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def parse_rule_list(text: str) -> set[str]:
    return {part.strip() for part in text.split(",") if part.strip()}


def strip_code(line: str, in_block_comment: bool) -> tuple[str, bool]:
    """Removes comments and string/char literal contents from one line.

    Returns the scannable remainder and the block-comment state after the
    line. Suppression markers must be read from the RAW line, not this.
    """
    out: list[str] = []
    i = 0
    n = len(line)
    while i < n:
        if in_block_comment:
            end = line.find("*/", i)
            if end == -1:
                return "".join(out), True
            i = end + 2
            in_block_comment = False
            continue
        ch = line[i]
        nxt = line[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            break
        if ch == "/" and nxt == "*":
            in_block_comment = True
            i += 2
            continue
        if ch in "\"'":
            quote = ch
            out.append(quote)
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    break
                i += 1
            out.append(quote)
            i += 1
            continue
        out.append(ch)
        i += 1
    return "".join(out), in_block_comment


def collect_unordered_names(files: list[tuple[str, Path]]) -> set[str]:
    """Names declared anywhere in the tree as unordered containers.

    File-local type knowledge is enough in practice: the repo's unordered
    members keep their names (`tables_`, `host_index_`, ...) at use sites.
    """
    names: set[str] = set()
    for _, path in files:
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            continue
        for match in UNORDERED_DECL.finditer(text):
            names.add(match.group(1))
    return names


def in_dirs(rel: str, dirs: tuple[str, ...]) -> bool:
    return any(rel == d or rel.startswith(d + "/") for d in dirs)


def check_file(
    rel: str, path: Path, unordered_names: set[str]
) -> list[Finding]:
    try:
        raw_lines = path.read_text(
            encoding="utf-8", errors="replace"
        ).splitlines()
    except OSError as error:
        return [Finding(rel, 0, "io", f"unreadable: {error}")]

    file_allowed: set[str] = set()
    for line in raw_lines:
        for match in ALLOW_FILE.finditer(line):
            file_allowed |= parse_rule_list(match.group(1))

    findings: list[Finding] = []
    next_line_allowed: set[str] = set()
    in_block = False

    is_fastpath = rel in FASTPATH_FILES
    is_output_dir = in_dirs(rel, OUTPUT_DIRS)
    is_test = in_dirs(rel, ("tests",))
    in_exec = in_dirs(rel, (EXEC_DIR,))
    is_rng_home = rel == RNG_HOME

    def report(lineno: int, rule: str, message: str, allowed: set[str]):
        if rule in allowed:
            return
        findings.append(Finding(rel, lineno, rule, message))

    for lineno, raw in enumerate(raw_lines, start=1):
        allowed = file_allowed | next_line_allowed
        next_line_allowed = set()
        for match in ALLOW_NEXT.finditer(raw):
            next_line_allowed |= parse_rule_list(match.group(1))
        for match in ALLOW_LINE.finditer(raw):
            allowed |= parse_rule_list(match.group(1))

        code, in_block = strip_code(raw, in_block)
        if not code.strip():
            continue

        if WALL_CLOCK.search(code):
            report(
                lineno,
                "wall-clock",
                "wall-clock/OS time source; simulated time is the only "
                "clock (delays come from the topology)",
                allowed,
            )
        if not is_rng_home and RAW_RNG.search(code):
            report(
                lineno,
                "raw-rng",
                "raw randomness source; draw through the seeded "
                "netbase::Rng (src/netbase/rng.h) instead",
                allowed,
            )
        if not is_test and not in_exec and RAW_THREADING.search(code):
            report(
                lineno,
                "raw-threading",
                "raw threading primitive outside src/exec; use the "
                "exec:: facilities (ThreadPool, ParallelFor, "
                "StripedMutex)",
                allowed,
            )
        if is_fastpath and HEAP_CONTAINER.search(code):
            report(
                lineno,
                "fastpath-heap",
                "heap-allocating construct in a sealed fast-path file; "
                "the steady-state swap path is allocation-free by "
                "contract",
                allowed,
            )
        if is_output_dir:
            for match in RANGE_FOR.finditer(code):
                expr = match.group(1).strip()
                tail = re.split(r"[.\->\s]+", expr)[-1]
                if "unordered" in expr or tail in unordered_names:
                    report(
                        lineno,
                        "unordered-iteration",
                        f"iterating '{expr}' (unordered container) in "
                        "report/trace-producing code; copy into a sorted "
                        "sequence first",
                        allowed,
                    )
        for match in LABEL_LITERAL.finditer(code):
            value = int(match.group(1))
            if value != 0 and not (LABEL_MIN <= value <= LABEL_MAX):
                report(
                    lineno,
                    "label-range",
                    f"label literal {value} outside [16, 2^20-1]; "
                    "reserved labels must use netbase::ReservedLabel",
                    allowed,
                )
    return findings


def gather_files(root: Path, paths: list[str]) -> list[tuple[str, Path]]:
    files: list[tuple[str, Path]] = []

    def add(path: Path):
        rel = path.relative_to(root).as_posix()
        if any(part in EXCLUDED_PARTS for part in rel.split("/")):
            return
        if path.suffix in SOURCE_EXTENSIONS:
            files.append((rel, path))

    if paths:
        for entry in paths:
            p = Path(entry)
            if not p.is_absolute():
                p = root / p
            if p.is_dir():
                for child in sorted(p.rglob("*")):
                    if child.is_file():
                        add(child)
            elif p.is_file():
                add(p)
            else:
                print(f"error: no such path: {entry}", file=sys.stderr)
                sys.exit(2)
    else:
        for d in SCAN_DIRS:
            base = root / d
            if not base.is_dir():
                continue
            for child in sorted(base.rglob("*")):
                if child.is_file():
                    add(child)
    return files


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=".",
        help="repository root (scopes like src/exec are resolved "
        "against this)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print rule ids and exit"
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the standard scan "
        "set under --root)",
    )
    args = parser.parse_args()

    if args.list_rules:
        for rule in RULES:
            print(rule)
        return 0

    root = Path(args.root).resolve()
    if not root.is_dir():
        print(f"error: bad --root: {args.root}", file=sys.stderr)
        return 2

    files = gather_files(root, args.paths)
    unordered_names = collect_unordered_names(files)

    findings: list[Finding] = []
    for rel, path in files:
        findings.extend(check_file(rel, path, unordered_names))

    for finding in findings:
        print(finding)
    if findings:
        count = len(findings)
        print(
            f"determinism-lint: {count} finding(s) in "
            f"{len({f.path for f in findings})} file(s)",
            file=sys.stderr,
        )
        return 1
    print(f"determinism-lint: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
