"""Tests of run.py's helpers: the percentile rule, the digest check,
and that every metric it can emit is declared in BENCHMARK.json.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def fake_result(mode):
    """A driver result with one span of every kind the driver emits."""
    names = [
        ("perfbench.run", -1, 0, 0),
        ("perfbench.capture", 0, 0, 0),
        ("sim.tracecache.captureTracesShared", 1, 0, 0),
        ("tpcc.captureBenchmark", 2, 12, 1),
        ("tpcc.load", 3, 0, 0),
        ("tpcc.txn", 3, 0, 0),
        ("sim.traceio.write", 2, 1000, 0),
        ("core.traceindex.build", 2, 0, 0),
        ("core.traceindex.write", 2, 100, 0),
        ("sim.experiment.figure5", 0, 0, 0),
        ("core.machine.run", 10, 5000, 1),
        ("core.machine.run", 10, 4000, 0),
        ("sim.report.print", 0, 0, 0),
    ]
    spans = [[n, 10 * i, 10 * i + 5, p, a, b]
             for i, (n, p, a, b) in enumerate(names)]
    spans[0][2] = spans[1][2] = 1000
    return {
        "mode": mode, "wall_s": 2.0, "cpu_s": 1.9, "peak_rss_mb": 100.0,
        "replay_records": 9000, "replay_s": 1.0, "capture_records": 500,
        "stages": dict.fromkeys(run.STAGES, 0.25), "jobs": 1,
        "aslr_off": 1, "counters": {"tracecache.capture": 1},
        "sim": dict.fromkeys(run.SIM_COUNTS, 1.0),
        "ops": [["capture/NEW_ORDER", "00000000000000aa", 1]],
        "artifact": "00000000000000bb", "spans": spans,
        "spans_overflowed": 0,
    }


class PercentileTest(unittest.TestCase):
    def test_interpolates(self):
        xs = [4.0, 1.0, 3.0, 2.0, 5.0]
        self.assertEqual(run.percentile(xs, 50), 3.0)
        self.assertEqual(run.percentile(xs, 0), 1.0)
        self.assertEqual(run.percentile(xs, 100), 5.0)
        self.assertAlmostEqual(run.percentile(xs, 90), 4.6)
        self.assertEqual(run.percentile([7.0], 90), 7.0)
        with self.assertRaises(ValueError):
            run.percentile([], 50)

    def test_tail_level_keeps_ten_samples_beyond(self):
        self.assertIsNone(run.tail_level(0))
        self.assertIsNone(run.tail_level(14))
        self.assertIsNone(run.tail_level(99))
        self.assertEqual(run.tail_level(100), 90.0)
        self.assertEqual(run.tail_level(999), 90.0)
        self.assertEqual(run.tail_level(1000), 99.0)
        self.assertEqual(run.tail_level(10000), 99.9)

    def test_summary(self):
        s = run.timing_summary("x_ms", [i / 1000 for i in range(1, 201)],
                               1e3)
        self.assertAlmostEqual(s["x_ms_p50"], 100.5)
        self.assertAlmostEqual(s["x_ms_ptail"], 180.1)
        self.assertEqual(s["x_ms_ptail_level"], 90.0)
        few = run.timing_summary("y_s", [0.5, 0.7], 1.0)
        self.assertEqual(few, {"y_s_p50": 0.6, "y_s_ptail": 0.0,
                               "y_s_ptail_level": 0.0})


class DigestCheckTest(unittest.TestCase):
    def test_identical_digests_pass(self):
        c = run.DigestCheck()
        for _ in range(3):
            self.assertTrue(c.check("figure5/X/BASELINE", "ab"))
        self.assertEqual((c.attempted, c.failed), (3, 0))

    def test_perturbed_digest_fails(self):
        c = run.DigestCheck()
        c.check("capture/X", "0123456789abcdef")
        self.assertFalse(c.check("capture/X", "0123456789abcdee"))
        self.assertEqual((c.attempted, c.failed), (2, 1))
        self.assertEqual(c.mismatches, ["capture/X"])

    def test_driver_verdict_counts(self):
        c = run.DigestCheck()
        self.assertFalse(c.check("capture/X", "aa", ok=False))
        self.assertEqual(c.failed, 1)

    def test_reference_from_earlier_run(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "refs", "ref.json")
            first = run.DigestCheck(path)
            first.check("capture/X", "aa")
            first.save()
            second = run.DigestCheck(path)
            self.assertFalse(second.check("capture/X", "ab"))
            self.assertEqual(second.failed, 1)
            second.save()  # a failing run does not overwrite the ref
            self.assertTrue(run.DigestCheck(path).check("capture/X", "aa"))

    def test_iteration_checks(self):
        res = fake_result("regen")
        c = run.DigestCheck()
        self.assertTrue(run.check_iteration((res, []), "cold_regen", c))
        self.assertEqual((c.attempted, c.failed), (2, 0))
        res["ops"][0][1] = "00000000000000ab"
        run.check_iteration((res, []), "cold_regen", c)
        self.assertEqual(c.failed, 1)
        # Warm: a capture must hash as set-up captured it.
        w = run.DigestCheck()
        run.check_iteration((fake_result("regen"), []), "warm_regen", w,
                            fill={"capture/NEW_ORDER": "ffff"})
        self.assertEqual(w.failed, 1)

    def test_cache_files_must_match_first_iteration(self):
        c = run.DigestCheck()
        first = [("X.orig.trace", "aa"), ("X.orig.idx", "bb")]
        run.check_iteration((fake_result("capture"), first),
                            "long_capture", c)
        self.assertEqual((c.attempted, c.failed), (4, 0))
        later = [("X.orig.trace", "aa"), ("X.orig.idx", "bc")]
        run.check_iteration((fake_result("capture"), later),
                            "long_capture", c)
        self.assertEqual((c.attempted, c.failed), (8, 1))
        self.assertEqual(c.mismatches, ["file/X.orig.idx"])

    def test_file_digests(self):
        with tempfile.TemporaryDirectory() as d:
            for name, body in (("b.idx", b"x"), ("a.trace", b"")):
                with open(os.path.join(d, name), "wb") as f:
                    f.write(body)
            self.assertEqual(run.file_digests(d),
                             [("a.trace", "e3b0c44298fc1c14"),
                              ("b.idx", "2d711642b726b044")])

    def test_crash_and_conditions_fail_every_op(self):
        c = run.DigestCheck()
        self.assertFalse(run.check_iteration((None, []), "cold_regen", c))
        n = run.expected_ops("cold_regen")
        self.assertEqual((c.attempted, c.failed), (n, n))
        res = fake_result("capture")
        res["aslr_off"] = 0
        d = run.DigestCheck()
        self.assertFalse(run.check_iteration((res, []), "long_capture", d))
        self.assertEqual(d.failed, run.expected_ops("long_capture"))


class MetricNamesTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(BENCHMARK) as f:
            cls.bench = json.load(f)

    def declared(self, key):
        return {m["name"]: m["unit"] for m in self.bench[key]}

    def test_workloads_declared(self):
        self.assertEqual({w["name"] for w in self.bench["workloads"]},
                         set(run.WORKLOADS))

    def test_end_to_end_names(self):
        c = run.DigestCheck()
        c.check("capture/X", "aa")
        for workload in run.WORKLOADS:
            mode = run.WORKLOADS[workload]["mode"]
            got = run.end_to_end(workload, 1.0, [fake_result(mode)] * 2, c)
            self.assertEqual({k: u for k, (_, u) in got.items()},
                             self.declared("end_to_end"))

    def test_per_layer_names(self):
        for workload in run.WORKLOADS:
            mode = run.WORKLOADS[workload]["mode"]
            got = run.layer_metrics(workload, fake_result(mode), 1.5, False)
            self.assertEqual({k: u for k, (_, u) in got.items()},
                             self.declared("per_layer"))

    def test_self_time_subtracts_children(self):
        got = run.layer_metrics("cold_regen", fake_result("regen"), 1.5,
                                True)
        # perfbench.run (1000 ns) has children of 990 + 5 + 5 ns, and
        # perfbench.capture (990 ns) one child of 5 ns.
        self.assertAlmostEqual(got["self.perfbench_s"][0], 985e-9)
        self.assertEqual(got["capture.cross_process_equal"][0], 1.0)
        self.assertEqual(got["core.machine.runs"][0], 2.0)
        self.assertAlmostEqual(got["core.machine.ns_per_record.tls"][0],
                               5 / 5000)


if __name__ == "__main__":
    unittest.main()
