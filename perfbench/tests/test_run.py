"""Self-tests of run.py's metric code: name validation, failed-operation
accounting, the determinism gate, and peak RSS taken per process.

    python3 perfbench/run.py --selftest
"""

import os
import stat
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402


def fake_rep(values, fingerprint="0x1", checks=None, attempted=10, failed=0):
    metrics = [{"name": n, "kind": k, "value": v, "unit": "u"}
               for n, (k, v) in values.items()]
    return {"attempted": attempted, "failed": failed, "fingerprint": fingerprint,
            "checks": checks or {"ok": True}, "samples": {}, "exit_code": 0,
            "shards": 1, "ref_s": run.REF_NOMINAL_S,
            "metrics": metrics, "values": {m["name"]: m for m in metrics}}


class NameTest(unittest.TestCase):
    def test_valid(self):
        for n in ("wall_s", "simcore.host_ns_per_event", "a-b.c_d", "9x"):
            self.assertTrue(run.valid_name(n), n)

    def test_invalid(self):
        for n in ("", "a b", "a/b", "aé", "x" * 65, "p99%", None):
            self.assertFalse(run.valid_name(n), n)

    def test_benchmark_json_names(self):
        spec = run.load_spec()
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertTrue(all(run.valid_name(n) for n in names))


class OpsTest(unittest.TestCase):
    def test_refused_counts_as_failed(self):
        # 95 served, 5 refused: refused operations are attempted and failed.
        ok, failed = run.ops_fractions(100, 5)
        self.assertAlmostEqual(failed, 0.05)
        self.assertAlmostEqual(ok, 0.95)

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.ops_fractions(0, 0)

    def test_failed_check_counts_once(self):
        # A gate failing in two reps, each exiting 1, is one failed
        # operation among 10 requests + 2 gates.
        spec = {"end_to_end": [{"name": "ops_ok_frac", "unit": "frac"},
                               {"name": "wall_s", "unit": "s"}],
                "per_layer": []}
        good = fake_rep({"wall_s": ("host", 1.0)})
        bad = [fake_rep({"wall_s": ("host", 1.0)}, checks={"image": False})
               for _ in range(2)]
        for r in bad:
            r["exit_code"] = 1
        problems, att, fail, m = run.evaluate(spec, [good] + bad, [], None,
                                              False)
        self.assertEqual((att, fail), (12, 1))
        self.assertAlmostEqual(m["ops_ok_frac"]["value"], 11 / 12)
        self.assertIn("check failed: image", problems)
        self.assertIn("exit code 1", problems)


class DeterminismTest(unittest.TestCase):
    spec = {"end_to_end": [{"name": "x_s", "unit": "s"},
                           {"name": "ops_ok_frac", "unit": "frac"}],
            "per_layer": []}

    def test_identical_reps_pass(self):
        a = fake_rep({"x_s": ("sim", 2.0), "wall_s": ("host", 1.0)})
        b = fake_rep({"x_s": ("sim", 2.0), "wall_s": ("host", 1.3)})
        problems, _, _, m = run.evaluate(self.spec, [a, b], [], None, False)
        self.assertEqual(problems, [])
        self.assertEqual(m["x_s"]["value"], 2.0)
        self.assertEqual(m["ops_ok_frac"]["value"], 1.0)

    def test_simulated_mismatch_fails(self):
        a = fake_rep({"x_s": ("sim", 2.0)})
        b = fake_rep({"x_s": ("sim", 2.5)})
        problems, _, _, _ = run.evaluate(self.spec, [a, b], [], None, False)
        self.assertTrue(any("x_s" in p for p in problems))

    def test_fingerprint_mismatch_fails(self):
        a = fake_rep({"x_s": ("sim", 2.0)}, fingerprint="0x1")
        b = fake_rep({"x_s": ("sim", 2.0)}, fingerprint="0x2")
        problems, _, _, _ = run.evaluate(self.spec, [a, b], [], None, False)
        self.assertTrue(any("fingerprint" in p for p in problems))


class NormalisedTest(unittest.TestCase):
    def reps(self):
        # The same work on a host running at half speed: the host times
        # and the reference time all double.
        fast = fake_rep({"setup_s": ("host", 0.5), "wall_s": ("host", 2.0)})
        slow = fake_rep({"setup_s": ("host", 1.0), "wall_s": ("host", 4.0)})
        fast["ref_s"], slow["ref_s"] = run.REF_NOMINAL_S, 2 * run.REF_NOMINAL_S
        return [fast, slow, slow]

    def test_host_speed_cancels(self):
        spec = {"end_to_end": [{"name": "setup_s", "unit": "s"},
                               {"name": "wall_s", "unit": "s"}],
                "per_layer": []}
        _, _, _, m = run.evaluate(spec, self.reps(), [], None, False)
        self.assertAlmostEqual(m["setup_s"]["value"], 0.5)
        self.assertAlmostEqual(m["wall_s"]["value"], 2.0)

    def test_raw_host_times_per_layer(self):
        spec = {"end_to_end": [],
                "per_layer": [{"name": n, "unit": "s"} for n in
                              ("host.setup_raw_s", "host.wall_raw_s",
                               "host.ref_s", "obs.trace_overhead_frac")]}
        plain = self.reps()
        _, _, _, m = run.evaluate(spec, plain, plain, None, True)
        self.assertEqual(m["host.setup_raw_s"]["value"], 1.0)
        self.assertEqual(m["host.wall_raw_s"]["value"], 4.0)
        self.assertEqual(m["host.ref_s"]["value"], 2 * run.REF_NOMINAL_S)
        self.assertAlmostEqual(m["obs.trace_overhead_frac"]["value"], 0.0)


FAKE = r'''#!/usr/bin/env python3
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
blob = bytearray(int(args["--seed"]) << 20)
for i in range(0, len(blob), 4096):
    blob[i] = 1
hwm = [l for l in open("/proc/self/status") if l.startswith("VmHWM:")][0]
peak = int(hwm.split()[1]) / 1024.0
print(json.dumps({"attempted": 1, "failed": 0, "fingerprint": "0x0",
                  "checks": {}, "samples": {},
                  "metrics": [{"name": "peak_rss_mib", "kind": "host",
                               "value": peak, "unit": "MiB"}]}))
'''


class RssTest(unittest.TestCase):
    def test_each_rep_reports_its_own_process_peak(self):
        with tempfile.TemporaryDirectory(dir=os.path.dirname(run.build_dir())) as d:
            path = os.path.join(d, "fake_bench")
            with open(path, "w") as f:
                f.write(FAKE)
            os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
            big = run.run_rep(path, "w", 256)
            small = run.run_rep(path, "w", 8)
        big_mib = big["values"]["peak_rss_mib"]["value"]
        small_mib = small["values"]["peak_rss_mib"]["value"]
        self.assertGreater(big_mib, 256)
        self.assertLess(small_mib, big_mib - 200,
                        "a later rep must not inherit an earlier rep's peak")


if __name__ == "__main__":
    unittest.main()
