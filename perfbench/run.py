#!/usr/bin/env python3
"""The repository benchmark: builds perfbench (Release) from this checkout,
runs one workload in its own process, checks its outputs and prints the
metrics. See README.md in this directory.

    python3 perfbench/run.py --workload cold-stream --seed 1 --seconds 30 \
        --trace 0
    python3 perfbench/run.py --workload flap-delta --seeds 1-10 --seconds 30
    python3 perfbench/run.py --selftest

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The line before it is
the run record (host, build, seed, worker counts, steal ticks, the
determinism digests and every report's deterministic counts).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Reports per second of --seconds. The report count is fixed by the
# workload and --seconds, never by the clock, so every run of a seed does
# exactly the same work; at these rates a run's timed loop lasts about
# --seconds on the reference host (README.md).
REPORT_RATE = {"cold-stream": 3.2, "flap-delta": 10.0}
TIMEOUT_S = 170

# The calibration's median time on the reference host (calibration.h;
# README.md, "Host speed"). Every end-to-end timing is the wall time
# scaled by CALIB_REF_S over the calibration measured right after it on
# the same CPU: the time the work would have taken at the host speed
# the calibration had when this constant was measured.
CALIB_REF_S = 0.012


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, as
    statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values):
    """The highest percentile that still leaves at least ten samples
    beyond it: (value, percentile, samples). With fewer than eleven
    samples no percentile qualifies and the maximum is returned."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def scaled(wall_s, calib_s):
    """A wall time at the reference host speed."""
    return wall_s * CALIB_REF_S / calib_s


def span_tree(lines):
    """Parses span lines ("id parent report name start_ns end_ns") into a
    list of dicts with duration, self time and root name. Self time is the
    span's duration minus the time its child spans cover (children never
    overlap: the benchmark is single-threaded)."""
    spans = []
    for line in lines:
        sid, parent, report, name, start, end = line.split()
        spans.append({"id": int(sid), "parent": int(parent),
                      "report": int(report), "name": name,
                      "dur": (int(end) - int(start)) / 1e9})
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["dur"]
            s["root"] = spans[s["parent"]]["root"]
        else:
            s["root"] = s["name"]
    for s in spans:
        s["self"] = s["dur"] - child_time[s["id"]]
    return spans


def durations(spans, name, root=None):
    return [s["dur"] for s in spans
            if s["name"] == name and (root is None or s["root"] == root)]


def span_summary(spans):
    summary = {}
    for s in spans:
        row = summary.setdefault(s["name"], {"count": 0, "total_s": 0.0,
                                             "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s["dur"]
        row["self_s"] += s["self"]
    return summary


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures and builds perfbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no wormhole sources beside "
                 f"{os.path.basename(HERE)}/ (expected src/)")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def steal_ticks():
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" else None
    except (OSError, IndexError, ValueError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_binary(binary, args):
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"perfbench exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def timings(reports, setups, time):
    """setup_s, report_p50_ms, report_tail_ms and probes_per_s, each wall
    time taken through time(wall_s, calib_s) first, and the tail's
    percentile and report count."""
    totals = [time(r["total_s"], r["calib_s"]) for r in reports]
    tail_s, percentile, n = tail(totals)
    values = {
        "setup_s": median([time(build + warm, calib)
                           for build, warm, calib in setups]),
        "report_p50_ms": 1e3 * median(totals),
        "report_tail_ms": 1e3 * tail_s,
        "probes_per_s": sum(r["probes"] for r in reports) /
        sum(time(r["run_s"], r["calib_s"]) for r in reports),
    }
    return values, {"percentile": percentile, "reports": n}


TIMING_UNITS = {"setup_s": "s", "report_p50_ms": "ms",
                "report_tail_ms": "ms", "probes_per_s": "1/s"}


def end_to_end(out, record):
    """The end-to-end metrics, every timing at the reference host speed.
    The run record gets the tail's percentile and report count, the same
    timings in plain wall time and the calibration's times."""
    ok = [r for r in out["reports"] if r["ok"]]
    if not ok:
        return {}
    values, record["report_tail"] = timings(ok, out["setup"], scaled)
    record["wall"], _ = timings(ok, out["setup"], lambda wall, calib: wall)
    calib = [r["calib_s"] for r in ok]
    record["calib_ms"] = {"p50": 1e3 * median(calib),
                          "min": 1e3 * min(calib), "max": 1e3 * max(calib)}
    metrics = {name: metric(value, TIMING_UNITS[name])
               for name, value in values.items()}
    metrics["peak_rss_mb"] = metric(out["peak_rss_mb"], "MB")
    return metrics


def per_layer(workload, out, spans):
    """The per-layer metrics of a traced run (README.md, "Per-layer
    metrics"); each name's prefix is the module it measures."""
    reports = out["reports"]
    flap = workload == "flap-delta"
    rows = out["reenacted"]

    def p50(name, root=None, scale=1e3):
        values = durations(spans, name, root)
        return scale * median(values) if values else float("nan")

    m = {}
    m["gen.world_build_s"] = metric(p50("gen.SyntheticInternet", "setup",
                                        1.0), "s")
    run_j1 = p50("exec.run_j1")
    m["exec.run_speedup_j2"] = metric(run_j1 / p50("exec.run_j2"), "ratio")
    m["exec.run_speedup_j4"] = metric(run_j1 / p50("exec.run_j4"), "ratio")
    m["exec.build_speedup_j4"] = metric(
        p50("exec.build_j1") / p50("exec.build_j4"), "ratio")

    reconverge = [1e3 * d for d in
                  durations(spans, "routing.Network.OnLinkStateChange")]
    m["routing.reconverge_ms_p50"] = metric(median(reconverge), "ms")
    m["routing.reconverge_ms_tail"] = metric(tail(reconverge)[0], "ms")
    m["routing.oracle_ms_p50"] = metric(p50("routing.AsPathOracle"), "ms")

    # From flap-delta's report loop, or from cold-stream's side flaps.
    m["campaign.cache_invalidate_ms_p50"] = metric(
        p50("campaign.TraceCache.Invalidate"), "ms")
    m["campaign.reprobe_frac"] = metric(
        out["pairs_reprobed"] / out["pairs_total"], "ratio")
    fill, final = out["cache_fill_bytes"], out["cache_final_bytes"]
    m["campaign.cache_mb"] = metric(final / 2**20, "MB")
    m["campaign.cache_mb_per_flap"] = metric(
        (final - fill) / 2**20 / out["flaps"], "MB")

    run_name = ("campaign.Campaign.RunDelta" if flap
                else "campaign.Campaign.Run")
    m["campaign.run_ms_p50"] = metric(p50(run_name, "report"), "ms")
    m["campaign.discovery_ms"] = metric(
        p50("campaign.Campaign.RunDiscovery", "reenact"), "ms")
    m["campaign.dataset_ms"] = metric(
        p50("campaign.BuildDataset", "reenact"), "ms")
    # Re-enacted phases against the cold Run of the same report.
    phase_names = {"campaign.Campaign.RunDiscovery", "campaign.BuildDataset",
                   "campaign.SelectTargets", "probe.targeted",
                   "reveal.phase", "fingerprint.phase"}
    reenacted = {r["report"] for r in out["reenacted"]}
    phases = {}
    cold = {}
    for s in spans:
        if s["report"] not in reenacted:
            continue
        if s["root"] == "reenact" and s["name"] in phase_names:
            phases[s["report"]] = phases.get(s["report"], 0.0) + s["dur"]
        elif s["name"] == "campaign.Campaign.Run" and s["root"] in (
                "report", "reenact"):
            cold[s["report"]] = s["dur"]
    m["campaign.unattributed_frac"] = metric(
        1.0 - median(phases.values()) / median(cold.values()), "ratio")

    m["probe.targeted_ms"] = metric(p50("probe.targeted", "reenact"), "ms")
    m["probe.trace_us_p50"] = metric(
        p50("probe.Prober.Traceroute", "reenact", 1e6), "us")
    m["probe.probes_per_trace"] = metric(
        sum(r["targeted_probes"] for r in rows) /
        sum(r["targeted_traces"] for r in rows), "count")
    m["sim.packets_per_report"] = metric(
        median([r["packets"] for r in reports if r["ok"]]), "count")
    m["sim.hops_per_report"] = metric(
        median([r["hops"] for r in reports if r["ok"]]), "count")
    probing = sum(s["dur"] for s in spans if s["root"] == "reenact" and
                  s["name"] in ("campaign.Campaign.RunDiscovery",
                                "probe.targeted", "reveal.phase",
                                "fingerprint.phase"))
    m["sim.ns_per_hop"] = metric(
        1e9 * probing / sum(r["probing_hops"] for r in rows), "ns")

    m["fingerprint.pings_per_report"] = metric(
        sum(r["pings"] for r in rows) / len(rows), "count")
    m["fingerprint.ping_us_p50"] = metric(
        p50("probe.Prober.Ping", "reenact", 1e6), "us")

    reveal_pairs = sum(r["reveal_pairs"] for r in rows)
    m["reveal.ms_per_pair"] = metric(
        1e3 * sum(durations(spans, "reveal.Revelator.Reveal", "reenact")) /
        reveal_pairs, "ms")
    m["reveal.traces_per_pair"] = metric(
        sum(r["reveal_traces"] for r in rows) / reveal_pairs, "count")
    m["reveal.success_ratio"] = metric(
        sum(r["revealed"] for r in rows) / reveal_pairs, "ratio")

    m["analysis.render_ms_p50"] = metric(
        p50("analysis.WriteCampaignReport", "report"), "ms")

    io_bytes = [r["io_bytes"] for r in rows]
    read_s = p50("io.ReadTraces", "reenact", 1.0)
    m["io.write_ms_p50"] = metric(p50("io.WriteTraces", "reenact"), "ms")
    m["io.read_ms_p50"] = metric(1e3 * read_s, "ms")
    m["io.read_mb_per_s"] = metric(median(io_bytes) / 2**20 / read_s, "MB/s")
    m["io.bytes_per_report"] = metric(median(io_bytes), "bytes")

    traced = [r["run_s"] for r in reports if r["traced"] and r["ok"]]
    untraced = [r["run_s"] for r in reports if not r["traced"] and r["ok"]]
    m["bench.trace_overhead_frac"] = metric(
        median(traced) / median(untraced) - 1.0, "ratio")
    return m


def run(args):
    binary = build()
    reports = max(20, round(args.seconds * REPORT_RATE[args.workload]))
    cmd = ["--workload", args.workload, "--seed", str(args.seed % 2**64),
           "--reports", str(reports), "--trace", str(args.trace)]
    spans_path = None
    if args.trace:
        spans_path = os.path.join(build_dir(), "spans",
                                  f"{args.workload}-seed{args.seed}.spans")
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        cmd += ["--spans", spans_path]
    steal_before = steal_ticks()
    out = run_binary(binary, cmd)
    steal_after = steal_ticks()

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cpu_model": cpu_model(), "nproc": os.cpu_count(),
        "compiler": out["compiler"], "cmake_build_type": out["build_type"],
        "campaign_jobs": out["campaign_jobs"],
        "convergence_jobs": out["convergence_jobs"],
        "cpus_rotated": out["cpus_rotated"],
        "steal_ticks": (None if steal_before is None or steal_after is None
                        else steal_after - steal_before),
        "reports": len(out["reports"]), "setups": len(out["setup"]),
        "schedule_digest": out["schedule_digest"],
        "counts_digest": out["counts_digest"],
        "counts": [[r["probes"], r["packets"]] for r in out["reports"]],
        "failures": out["failures"],
    }
    if args.workload == "flap-delta":
        record["down_reports_checked"] = out["down_checked"]
        record["down_reports_differing_from_reference"] = (
            out["down_differs_from_reference"])
    if args.trace:
        with open(spans_path) as f:
            spans = span_tree(f)
        metrics = per_layer(args.workload, out, spans)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
        record["span_summary"] = span_summary(spans)
    else:
        metrics = end_to_end(out, record)

    os.makedirs(os.path.join(build_dir(), "records"), exist_ok=True)
    with open(os.path.join(build_dir(), "records",
                           f"{args.workload}-seed{args.seed}-trace"
                           f"{args.trace}.json"), "w") as f:
        json.dump({"record": record, "metrics": metrics,
                   "report_ms": [1e3 * r["total_s"] for r in out["reports"]],
                   "calib_ms": [1e3 * r["calib_s"] for r in out["reports"]],
                   "setup_s": out["setup"]}, f, indent=1)
    record.pop("span_summary", None)
    print("run-record " + json.dumps(record, separators=(",", ":")))
    failed = out["failed"]
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": out["attempted"], "failed": failed,
                      "metrics": metrics}))


def steadiness(args):
    """Runs the workload once per seed, each in its own process, and prints
    every end-to-end metric's median, quartiles and spread (the distance
    between the quartiles as a share of the median) beside its bound, and
    the same for the timings in plain wall time."""
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    bounds = {}
    spec = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec):
        with open(spec) as f:
            bounds = {m["name"]: m["bound"]
                      for m in json.load(f)["end_to_end"]}
    values = {}
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        record = json.loads(lines[-2].split(" ", 1)[1])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              f"steal={record['steal_ticks']} "
              f"digests={record['schedule_digest']}/"
              f"{record['counts_digest']} " +
              " ".join(f"{k}={v['value']:.6g}"
                       for k, v in result["metrics"].items()), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        # The unscaled timings, for comparison (no bound applies).
        for name, value in record.get("wall", {}).items():
            values.setdefault("wall." + name, []).append(value)
    for name, v in values.items():
        if len(v) < 2:
            continue
        q1, q2, q3 = quartiles(v)
        print(f"{args.workload} {name}: median {q2:.6g} quartiles "
              f"{q1:.6g} {q3:.6g} spread {(q3 - q1) / q2:.4f} "
              f"bound {bounds.get(name)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(REPORT_RATE))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seeds", help="A-B: one untraced run per seed, "
                        "then each metric's quartiles and spread")
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own tests")
    args = parser.parse_args()
    if args.selftest:
        sys.path.insert(0, HERE)
        suite = unittest.defaultTestLoader.loadTestsFromName("test_perfbench")
        result = unittest.TextTestRunner(verbosity=2).run(suite)
        sys.exit(0 if result.wasSuccessful() else 1)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload and args.seeds:
        steadiness(args)
        return
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    run(args)


if __name__ == "__main__":
    main()
