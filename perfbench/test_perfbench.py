"""Self-tests for the benchmark's own code: python3 perfbench/run.py --selftest
(or python3 -m unittest from this directory). The last two tests build and
run the perfbench binary."""

import json
import statistics
import subprocess
import unittest

import run


class TailTest(unittest.TestCase):
    def test_hundred_reports_give_p90_with_ten_beyond(self):
        values = list(range(100, 0, -1))
        value, percentile, n = run.tail(values)
        self.assertEqual((value, percentile, n), (90, 90.0, 100))
        self.assertEqual(sum(v > value for v in values), 10)

    def test_always_leaves_ten_beyond(self):
        for n in (11, 20, 37, 215, 430):
            values = [float(i) for i in range(n)]
            value, percentile, _ = run.tail(values)
            self.assertEqual(sum(v > value for v in values), 10, n)
            self.assertAlmostEqual(percentile, 100.0 * (n - 10) / n)

    def test_too_few_reports_fall_back_to_the_maximum(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))


class MedianQuartilesTest(unittest.TestCase):
    def test_odd_and_even_medians(self):
        self.assertEqual(run.median([5, 1, 3]), 3)
        self.assertEqual(run.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9]
        self.assertEqual(run.quartiles(values), (2.5, 5.0, 7.5))
        values = [0.81, 0.79, 0.93, 0.84, 0.80, 0.88, 0.77, 0.90, 0.85, 0.82]
        self.assertEqual(run.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))


class ScaledTimingTest(unittest.TestCase):
    def test_the_same_work_on_a_slower_host_scales_to_the_same_time(self):
        ref = run.CALIB_REF_S
        self.assertAlmostEqual(run.scaled(0.300, ref), 0.300)
        self.assertAlmostEqual(run.scaled(0.480, 1.6 * ref), 0.300)

    def test_every_timing_is_scaled_by_its_own_calibration(self):
        ref = run.CALIB_REF_S
        # Twenty reports at reference speed, then twenty of the same work
        # on a host twice as slow; set-ups alike.
        reports = [{"total_s": 0.2 * k, "run_s": 0.1 * k,
                    "calib_s": ref * k, "probes": 1000}
                   for k in [1] * 20 + [2] * 20]
        setups = [[0.3 * k, 0.1 * k, ref * k] for k in (1, 2, 2)]
        values, tail = run.timings(reports, setups, run.scaled)
        self.assertAlmostEqual(values["setup_s"], 0.4)
        self.assertAlmostEqual(values["report_p50_ms"], 200.0)
        self.assertAlmostEqual(values["report_tail_ms"], 200.0)
        self.assertAlmostEqual(values["probes_per_s"], 10000.0)
        self.assertEqual(tail, {"percentile": 75.0, "reports": 40})
        wall, _ = run.timings(reports, setups, lambda wall, calib: wall)
        self.assertAlmostEqual(wall["setup_s"], 0.8)
        self.assertAlmostEqual(wall["report_p50_ms"], 300.0)


class SpanSelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        # report [0,100] > run [10,30], render [40,70] > inner [45,50];
        # a second root [200,260] with no children.
        lines = ["0 -1 7 report 0 100",
                 "1 0 7 run 10 30",
                 "2 0 7 render 40 70",
                 "3 2 7 inner 45 50",
                 "4 -1 -1 setup 200 260"]
        spans = run.span_tree(lines)
        selfs = {s["name"]: round(s["self"] * 1e9) for s in spans}
        self.assertEqual(selfs, {"report": 50, "run": 20, "render": 25,
                                 "inner": 5, "setup": 60})
        self.assertEqual([s["root"] for s in spans],
                         ["report", "report", "report", "report", "setup"])
        self.assertEqual(run.durations(spans, "inner", "report"), [5e-9])
        self.assertEqual(run.durations(spans, "inner", "setup"), [])


class BinaryTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def perfbench(self, *args):
        proc = subprocess.run([self.binary, *args], stdout=subprocess.PIPE,
                              text=True, check=True, timeout=170)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_flap_schedule_is_determined_by_the_seed(self):
        schedule = ["--workload", "flap-delta", "--schedule-only", "--seed"]
        first = self.perfbench(*schedule, "1")
        self.assertEqual(first, self.perfbench(*schedule, "1"))
        self.assertEqual(len(set(first)), len(first))
        self.assertNotEqual(first, self.perfbench(*schedule, "2"))
        widest = self.perfbench(*schedule, str(2**64 - 1))
        self.assertEqual(len(widest), len(first))

    def test_a_corrupted_report_byte_is_a_failed_report(self):
        common = ["--workload", "cold-stream", "--seed", "3",
                  "--reports", "3"]
        clean = self.perfbench(*common)
        setups = len(clean["setup"])
        self.assertEqual((clean["attempted"], clean["failed"]),
                         (3 + setups, 0))
        corrupted = self.perfbench(*common, "--corrupt-report", "1")
        self.assertEqual((corrupted["attempted"], corrupted["failed"]),
                         (3 + setups, 1))
        self.assertEqual([r["ok"] for r in corrupted["reports"]],
                         [True, False, True])
        self.assertEqual(clean["counts_digest"], corrupted["counts_digest"])
        # Every report and set-up carries the calibration timed after it.
        self.assertTrue(all(r["calib_s"] > 0 for r in clean["reports"]))
        self.assertTrue(all(s[2] > 0 for s in clean["setup"]))


if __name__ == "__main__":
    unittest.main()
