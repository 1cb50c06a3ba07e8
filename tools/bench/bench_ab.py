#!/usr/bin/env python3
"""Interleaved A/B runs of two perf_micro binaries on one machine.

CI's bench-smoke job builds perf_micro at the merge base and at the
change, then runs the rows named in BENCH_seed.json from both binaries
in alternation (base first, then change first, and so on), so both
sides see the same runner in the same minutes. Each side's result is
written as one google-benchmark JSON holding, per row, the median of
every numeric field over the runs; bench_diff.py then compares the two:

    python3 tools/bench/bench_ab.py BASE_PERF_MICRO CHANGE_PERF_MICRO \\
        --rows BENCH_seed.json \\
        --out-base BENCH_base.json --out-change BENCH_change.json
    python3 tools/bench/bench_diff.py --threshold 0.25 \\
        BENCH_base.json BENCH_change.json

Each side runs RUNS times with --benchmark_min_time=MIN_TIME_S. Only
the row names are read from --rows; its numbers are not used.
Exit status: 0 = both sides ran, 1 = a run failed, 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# Short runs per side, sides alternating; bench_diff.py compares the
# per-row medians against a 25% gate.
RUNS = 5
MIN_TIME_S = 0.05


def row_names(path: Path) -> list[str]:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: cannot read {path}: {error}", file=sys.stderr)
        sys.exit(2)
    names = [b["name"] for b in data.get("benchmarks", [])
             if b.get("run_type", "iteration") != "aggregate"]
    if not names:
        print(f"error: {path} names no benchmark rows", file=sys.stderr)
        sys.exit(2)
    return names


def run_once(binary: Path, names: list[str], min_time: float,
             out: Path) -> tuple[dict, list[dict]]:
    pattern = "^(" + "|".join(re.escape(n) for n in names) + ")$"
    result = subprocess.run(
        [str(binary), f"--benchmark_filter={pattern}",
         f"--benchmark_min_time={min_time}",
         "--benchmark_out_format=json", f"--benchmark_out={out}"],
        stdout=subprocess.DEVNULL, check=False)
    if result.returncode != 0:
        print(f"error: {binary} exited {result.returncode}",
              file=sys.stderr)
        sys.exit(1)
    data = json.loads(out.read_text(encoding="utf-8"))
    return data.get("context", {}), [
        b for b in data.get("benchmarks", [])
        if b.get("run_type", "iteration") != "aggregate"]


def medians(runs: list[list[dict]]) -> list[dict]:
    """Per row (in first-run order): the first run's entry with every
    numeric field replaced by its median over the runs that have it."""
    by_name: dict[str, list[dict]] = {}
    for rows in runs:
        for row in rows:
            by_name.setdefault(row["name"], []).append(row)
    out = []
    for rows in by_name.values():
        merged = dict(rows[0])
        for key, value in rows[0].items():
            if isinstance(value, (int, float)) and not isinstance(value,
                                                                  bool):
                merged[key] = statistics.median(
                    r[key] for r in rows if key in r)
        out.append(merged)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="merge-base perf_micro")
    parser.add_argument("change", type=Path, help="the change's perf_micro")
    parser.add_argument("--rows", type=Path, default=Path("BENCH_seed.json"),
                        help="benchmark JSON whose row names are run")
    parser.add_argument("--out-base", type=Path, required=True)
    parser.add_argument("--out-change", type=Path, required=True)
    args = parser.parse_args()
    for binary in (args.base, args.change):
        if not binary.is_file():
            print(f"error: no such binary: {binary}", file=sys.stderr)
            return 2

    names = row_names(args.rows)
    sides = {"base": args.base, "change": args.change}
    runs: dict[str, list[list[dict]]] = {"base": [], "change": []}
    contexts: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(RUNS):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                out = Path(tmp) / f"{side}-{i}.json"
                context, rows = run_once(sides[side], names, MIN_TIME_S,
                                         out)
                contexts.setdefault(side, context)
                runs[side].append(rows)
                print(f"run {i + 1}/{RUNS} {side}: {len(rows)} rows",
                      file=sys.stderr)

    for side, path in (("base", args.out_base),
                       ("change", args.out_change)):
        path.write_text(json.dumps(
            {"context": contexts[side], "benchmarks": medians(runs[side])},
            indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
