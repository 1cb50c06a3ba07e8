#!/usr/bin/env python3
"""Compare two google-benchmark JSON snapshots and fail on regressions.

Used by CI's bench-smoke job: the merge base's per-row medians
(bench_ab.py, same runner, interleaved runs) are diffed against the
change's; any benchmark whose throughput counter (`probes/s`,
`packets/s`, ...) drops — or, for counter-less benchmarks, whose
per-iteration real_time rises — by more than the threshold fails the
job. The job's peak-RSS steps use the --ceiling checks alone. Benchmarks present on only one side are reported but never
fatal, so adding or retiring a benchmark does not need a baseline dance
in the same PR.

Exit status: 0 = within threshold, 1 = regression, 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Counters whose value is a rate (bigger is better). Everything else on a
# benchmark entry is metadata (routes, batch size, ...), not a metric.
RATE_COUNTERS = ("probes/s", "packets/s", "traces/s", "lookups/s")

# Counters whose value is a footprint (smaller is better). Diffed
# alongside the speed metric when both sides report them, and the targets
# of --ceiling checks. peak_rss_mb is monotone over the process lifetime,
# so ceilings should run against a --benchmark_filter'ed single-row
# snapshot (the CI bench-smoke job does).
SIZE_COUNTERS = ("peak_rss_mb",)


def parse_ceiling(spec: str) -> tuple[str, float]:
    name, sep, value = spec.partition("=")
    if not sep or not name:
        print(f"error: --ceiling wants NAME=VALUE, got {spec!r}",
              file=sys.stderr)
        sys.exit(2)
    try:
        return name, float(value)
    except ValueError:
        print(f"error: --ceiling value {value!r} is not a number",
              file=sys.stderr)
        sys.exit(2)


def load_benchmarks(path: Path) -> dict[str, dict]:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: cannot read {path}: {error}", file=sys.stderr)
        sys.exit(2)
    out: dict[str, dict] = {}
    for bench in data.get("benchmarks", []):
        # Keep only primary results (aggregates like _mean would double
        # count; the smoke run uses repetitions=1 anyway).
        if bench.get("run_type", "iteration") == "aggregate":
            continue
        out[bench["name"]] = bench
    return out


def metric_of(bench: dict) -> tuple[str, float, bool]:
    """Returns (metric name, value, bigger_is_better)."""
    for counter in RATE_COUNTERS:
        if counter in bench:
            return counter, float(bench[counter]), True
    return "real_time", float(bench["real_time"]), False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("candidate", type=Path)
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="fractional regression that fails (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--ceiling",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="fail if any candidate benchmark's NAME counter exceeds "
             "VALUE (repeatable; e.g. --ceiling peak_rss_mb=512). "
             "Checked against the candidate alone, so new benchmarks "
             "without a baseline are still gated.",
    )
    args = parser.parse_args()
    if not 0 < args.threshold < 1:
        print("error: --threshold must be in (0, 1)", file=sys.stderr)
        return 2

    base = load_benchmarks(args.baseline)
    cand = load_benchmarks(args.candidate)

    regressions: list[str] = []
    for name in sorted(base):
        if name not in cand:
            print(f"  (only in baseline: {name})")
            continue
        base_metric, base_value, bigger_better = metric_of(base[name])
        cand_metric, cand_value, _ = metric_of(cand[name])
        if base_metric != cand_metric or base_value <= 0:
            print(f"  (metric changed for {name}: {base_metric} -> "
                  f"{cand_metric}; skipping)")
            continue
        if bigger_better:
            change = cand_value / base_value - 1.0
        else:
            change = base_value / cand_value - 1.0
        marker = "ok"
        if change < -args.threshold:
            marker = "REGRESSION"
            regressions.append(name)
        print(f"  {name}: {base_metric} {base_value:.4g} -> "
              f"{cand_value:.4g} ({change:+.1%}) {marker}")
        # Footprint counters ride along as a second metric: growth past
        # the threshold is as much a regression as lost throughput.
        for counter in SIZE_COUNTERS:
            if counter not in base[name] or counter not in cand[name]:
                continue
            base_size = float(base[name][counter])
            cand_size = float(cand[name][counter])
            if base_size <= 0:
                continue
            growth = cand_size / base_size - 1.0
            marker = "ok"
            if growth > args.threshold:
                marker = "REGRESSION"
                regressions.append(f"{name}[{counter}]")
            print(f"  {name}: {counter} {base_size:.4g} -> "
                  f"{cand_size:.4g} ({growth:+.1%}) {marker}")
    for name in sorted(set(cand) - set(base)):
        print(f"  (new benchmark, no baseline: {name})")

    ceilings = [parse_ceiling(spec) for spec in args.ceiling]
    for counter, limit in ceilings:
        checked = 0
        for name in sorted(cand):
            if counter not in cand[name]:
                continue
            checked += 1
            value = float(cand[name][counter])
            marker = "ok"
            if value > limit:
                marker = "OVER CEILING"
                regressions.append(f"{name}[{counter}>{limit:g}]")
            print(f"  {name}: {counter} {value:.4g} "
                  f"(ceiling {limit:g}) {marker}")
        if checked == 0:
            print(f"  (ceiling {counter}={limit:g}: no candidate "
                  f"benchmark reports that counter)", file=sys.stderr)
            regressions.append(f"[{counter} missing]")

    if regressions:
        print(
            f"bench-diff: {len(regressions)} benchmark(s) regressed more "
            f"than {args.threshold:.0%}: {', '.join(regressions)}",
            file=sys.stderr,
        )
        return 1
    print(f"bench-diff: {len(base)} baseline benchmark(s) within "
          f"{args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
