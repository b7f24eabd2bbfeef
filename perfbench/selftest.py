"""Quick self-test of the benchmark itself: references, self-time arithmetic,
import-time parsing, and one tiny job per workload through the real worker.

    python3 perfbench/selftest.py

It is not part of the repository's test suite (tests/).
"""

from __future__ import annotations

import itertools
import shutil
import statistics
import tempfile
import time
import unittest
from fractions import Fraction as F
from pathlib import Path

import run
import tracing
import workloads


class References(unittest.TestCase):
    def test_octonions(self):
        table, signs = workloads.octonion_facts()
        self.assertEqual(workloads.lie_malcev_facts(table, 7), (True, False, True))
        self.assertEqual(len(signs), 8)
        self.assertEqual(len(workloads.octonion_relabellings()), 240)

    def test_so3_grid_solutions(self):
        for scale, perm, signs in ((F(1), (0, 1, 2), (1, 1, 1)), (F(3, 7), (2, 0, 1), (1, -1, 1))):
            solutions = workloads.so3_grid_solutions(workloads.so3_product(scale, perm, signs))
            self.assertEqual(len(solutions), 25)
            self.assertIn(((1, 0, 0), (0, 1, 0), (0, 0, 1)), solutions)

    def test_two_dim_brute_force(self):
        # A1 is rigid: only the zero map and the identity
        self.assertEqual(workloads.two_dim_grid_count("A1", None, None), 2)

    def test_scaled_copies_share_their_self_morphisms(self):
        grid = (F(0), F(1), F(-1), F(2))
        for kind, lam, sign in (("A2", F(2), None), ("A3", F(-1, 2), -1)):
            one, scaled = (workloads.two_dim_table(kind, k, lam, sign) for k in (F(1), F(5, 3)))
            for a1, a2, b1, b2 in itertools.product(grid, repeat=4):
                cols = [{i: c for i, c in enumerate((a1, a2)) if c}, {i: c for i, c in enumerate((b1, b2)) if c}]
                self.assertEqual(workloads.is_endomorphism(cols, *one, 2), workloads.is_endomorphism(cols, *scaled, 2))

    def test_crosscheck_closed_forms(self):
        expect = workloads.crosscheck_expect
        self.assertEqual(expect("HB_A2", 4, None, None, None), {"exit": 0, "mismatches": 2, "rows": 5})
        self.assertEqual(expect("HB_A3", 0, None, None, None), {"exit": 0, "mismatches": 5, "rows": 10})
        self.assertEqual(expect("HB_A3", 3, F(2), None, F(-1)), {"exit": 0, "mismatches": 3, "rows": 5})
        self.assertEqual(expect("HB_A2", 0, None, None, F(1))["mismatches"], 0)
        self.assertEqual(expect("HB_A2", 2, F(0), None, F(1))["mismatches"], 0)
        self.assertEqual(expect("HB_A2", 2, F(0), None, F(3))["mismatches"], 1)

    def test_pools_hold_distinct_jobs(self):
        for name in workloads.WORKLOADS:
            seen = set()
            for seed in range(workloads.POOL_SIZE[name]):
                for i, job in enumerate(workloads.make_case(name, seed).jobs):
                    inputs = tuple(sorted((k, v if isinstance(v, str) else (seed, v)) for k, v in job.inputs.items()))
                    key = (tuple(job.argv), inputs)
                    self.assertNotIn(key, seen, f"{name} case {seed} job {i} repeats")
                    seen.add(key)

    def test_unfinished_jobs_of_a_started_case_fail(self):
        cases = [workloads.make_case("morphism-grid", seed) for seed in (0, 1)]
        first = {"case": 0, "job": 0, "exit": 0, "stdout": "", "stderr": "", "latency": 0.1, "error": None}
        outcome = {"results": [first], "started": 2, "final": None}
        attempted, failures, finished = run.verify(cases, outcome, {}, use_digests=False)
        self.assertEqual(attempted, 2 * len(cases[0].jobs))
        self.assertEqual(len(failures), attempted)  # job 0 has a wrong output, the rest never ended
        self.assertEqual(finished, [first])

    def test_check_job_flags_wrong_output(self):
        job = workloads.Job(["check"], {}, {"exit": 0, "verdict": "pass"})
        good = {"exit": 0, "stdout": "suite x\n  => pass\n", "stderr": "", "error": None}
        self.assertIsNone(run.check_job(job, good, run.digest(good["stdout"])))
        self.assertIn("digest", run.check_job(job, good, "0" * 16))
        self.assertIn("verdict", run.check_job(job, dict(good, stdout="suite x\n  => FAIL\n"), None))
        self.assertIn("exit code", run.check_job(job, dict(good, exit=1), None))
        self.assertIn("raised", run.check_job(job, dict(good, error="Traceback\nValueError: x"), None))


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_child_spans(self):
        now = [0.0]
        tracer = tracing.Tracer(clock=lambda: now[0], span_depth=10)  # keep every span

        def work(seconds):
            now[0] += seconds

        def leaf():
            work(1.0)

        def inner():
            work(2.0)
            leaf()
            work(0.5)

        def outer():
            work(3.0)
            inner()
            inner()
            leaf()

        leaf = tracer.wrap(leaf, "scalars", "leaf")
        inner = tracer.wrap(inner, "algebra", "inner")
        outer = tracer.wrap(outer, "cli", "outer")
        outer()
        want = {"cli": 3.0, "algebra": 5.0, "scalars": 3.0}
        got = tracer.self_seconds()
        for layer, seconds in want.items():
            self.assertAlmostEqual(got[layer], seconds)
        self.assertEqual(tracing.self_times(tracer.spans), want)
        self.assertEqual(tracer.counts, {"outer": 1, "inner": 2, "leaf": 3})

    def test_wrapper_cost_comes_off_each_call(self):
        # outer cost per child call from the caller, inner cost per call from the callee
        tracer = tracing.Tracer(clock=lambda: 0.0)
        leaf = tracer.wrap(lambda: None, "scalars", "leaf")

        def inner():
            leaf()
            leaf()

        inner = tracer.wrap(inner, "algebra", "inner")
        outer = tracer.wrap(lambda: (inner(), leaf()), "cli", "outer")
        outer()
        tracer.settle((0.25, 0.125))
        outer()
        tracer.settle((0.5, 0.25))  # charged to the second call only
        got = tracer.self_seconds()
        self.assertEqual((got["cli"], got["algebra"], got["scalars"]),
                         (-6 * 0.25 - 3 * 0.125, -6 * 0.25 - 3 * 0.125, -9 * 0.125))

    def test_calibrated_self_time_leaves_out_the_wrapper(self):
        # a loop making many wrapped calls: uncorrected, the layers are charged
        # with the wrappers; corrected, they add up to about the bare loop
        def work(a, b):
            return sum(range(a, b))

        def loop(fn, calls=20_000):
            for _ in range(calls):
                fn(1, 20)

        def trial():
            bare = _timed(loop, work)
            tracer = tracing.Tracer(span_depth=0)
            tracer.wrap(loop, "cli", "loop")(tracer.wrap(work, "scalars", "work"))
            gross = tracer.self_seconds()
            tracer.settle(tracing.calibrate())
            net = tracer.self_seconds()
            return [(got["cli"] + got["scalars"]) / bare for got in (gross, net)]

        gross, net = (statistics.median(r) for r in zip(*(trial() for _ in range(5))))
        self.assertGreater(gross, 2.5)
        self.assertTrue(0.3 < net < 2, net)

    def test_parse_importtime(self):
        text = (
            "import time: self [us] | cumulative | imported package\n"
            "import time:       120 |        120 |   fractions\n"
            "import time:      2500 |       2620 |     hombol.scalars\n"
            "import time:       900 |      31000 | hombol.cli\n"
        )
        self.assertEqual(tracing.parse_importtime(text), {"scalars": 0.0025, "cli": 0.0009})


class TinyJobs(unittest.TestCase):
    def test_first_job_of_each_workload(self):
        run.OUT.mkdir(exist_ok=True)
        for name in workloads.WORKLOADS:
            case = workloads.make_case(name, 0)
            case.jobs = case.jobs[:1]
            rundir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
            try:
                outcome = run.run_worker([case], rundir, "tiny", budget=None, trace=False,
                                         deadline=time.monotonic() + 60)
            finally:
                shutil.rmtree(rundir, ignore_errors=True)
            attempted, failures, _ = run.verify([case], outcome, run.load_digests(name))
            self.assertEqual((attempted, failures), (1, []), name)


if __name__ == "__main__":
    unittest.main()
