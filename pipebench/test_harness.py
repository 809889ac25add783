"""Tests of the benchmark's own code.  Run from the repository root:

    python3 -m unittest discover -s pipebench -p 'test_*.py'
"""

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import harness  # noqa: E402
import run  # noqa: E402


VERIFY_TMR = """\
tmr: fail-safe tolerance (invariant 4 states, span 20 states)
  p refines SPEC from S                                holds
  p[]F refines SSPEC from span                         holds
=> VERDICT: holds

tmr: nonmasking tolerance (invariant 4 states, span 20 states)
  p refines SPEC from S                                holds
  p converges from span to invariant                   fails: deadlock at [faulted=true out=v0 x=0 y=0 z=0]
  p refines SPEC from invariant                        holds
=> VERDICT: FAILS

tmr: masking tolerance (invariant 4 states, span 20 states)
  p refines SPEC from S                                holds
  p[]F refines SSPEC from span                         holds
  liveness of SPEC on p[]F from span                   holds
=> VERDICT: holds

"""

SYNTH_TMR = """\
synthesized masking(tmr)
  detector added to dr1          (wdp(dr1))
  corrector added: recovery from 16 states

masking(tmr): masking tolerance (invariant 4 states, span 20 states)
  p refines SPEC from S                                holds
=> VERDICT: holds
"""

MONITOR = """\
monitoring ring5 with 7 witnesses (packed)
run 0: states=201 faults=1
runs: 2  states: 402  faults: 2
safety violations: 1/2
"""


def load_expected():
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f)


class Statistics(unittest.TestCase):
    def test_median_of_passes(self):
        self.assertEqual(harness.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(harness.median([4.0, 1.0, 3.0, 2.0]), 2.5)
        self.assertEqual(harness.median([7.5]), 7.5)
        with self.assertRaises(ValueError):
            harness.median([])

    def test_geomean(self):
        self.assertAlmostEqual(harness.geomean([1.0, 100.0]), 10.0)
        self.assertAlmostEqual(harness.geomean([2.0, 8.0, 4.0]), 4.0)
        # One slow input cannot dominate it the way it dominates a sum.
        self.assertLess(harness.geomean([1.0, 1.0, 1.0, 1000.0]), 6.0)
        with self.assertRaises(ValueError):
            harness.geomean([1.0, 0.0])

    def test_percentile(self):
        xs = [float(i) for i in range(1, 101)]
        self.assertEqual(harness.percentile(xs, 0), 1.0)
        self.assertEqual(harness.percentile(xs, 100), 100.0)
        self.assertAlmostEqual(harness.percentile(xs, 50), 50.5)
        self.assertAlmostEqual(harness.percentile([1.0, 2.0], 25), 1.25)
        with self.assertRaises(ValueError):
            harness.percentile(xs, 101)


class Parsers(unittest.TestCase):
    def test_reports(self):
        reports = harness.parse_reports(VERIFY_TMR)
        self.assertEqual([r["cls"] for r in reports],
                         ["fail-safe", "nonmasking", "masking"])
        self.assertEqual([r["verdict"] for r in reports],
                         ["holds", "FAILS", "holds"])
        self.assertEqual({(r["invariant"], r["span"]) for r in reports},
                         {(4, 20)})

    def test_synthesis(self):
        s = harness.parse_synthesis(SYNTH_TMR)
        self.assertEqual(s["recovery_states"], 16)
        self.assertEqual(s["report"]["verdict"], "holds")
        self.assertIsNone(harness.parse_synthesis("synthesis failed: x\n"))

    def test_monitor(self):
        self.assertEqual(harness.parse_monitor(MONITOR),
                         {"runs": 2, "states": 402, "faults": 2,
                          "violations": 1})
        self.assertEqual(harness.monitor_summary(MONITOR),
                         ["runs: 2  states: 402  faults: 2",
                          "safety violations: 1/2"])

    def test_count_stream(self):
        text = ("# detcor stream v1\nprogram m\nrun 0\ninit p=0\n"
                "step a p=1\nfault f p=2\nend truncated\nrun 1\ninit p=0\n"
                "end deadlock\n")
        with tempfile.NamedTemporaryFile("w", suffix=".stream",
                                         delete=False) as f:
            f.write(text)
        try:
            self.assertEqual(harness.count_stream(f.name), (2, 4))
        finally:
            os.unlink(f.name)


class Comparator(unittest.TestCase):
    def setUp(self):
        self.expected = load_expected()

    def frac(self, kind, entry, runs):
        ok = sum(harness.judge(kind, entry, code, out, ctx)[1]
                 for code, out, ctx in runs)
        return ok / len(runs)

    def test_right_answer_scores_one(self):
        e = self.expected["verify:tmr"]
        self.assertEqual(self.frac("verify", e, [(1, VERIFY_TMR, None)] * 3),
                         1.0)

    def test_wrong_expected_verdict_drops_ok_frac(self):
        e = dict(self.expected["verify:tmr"])
        e["classes"] = dict(e["classes"], nonmasking="holds")
        self.assertLess(self.frac("verify", e, [(1, VERIFY_TMR, None)]), 1.0)
        reached, ok, reasons = harness.judge("verify", e, 1, VERIFY_TMR)
        self.assertTrue(reached)
        self.assertFalse(ok)
        self.assertIn("verdicts", reasons[0])

    def test_wrong_size_or_exit_is_wrong(self):
        e = dict(self.expected["verify:tmr"], span=21)
        self.assertFalse(harness.judge("verify", e, 1, VERIFY_TMR)[1])
        e = self.expected["verify:tmr"]
        self.assertFalse(harness.judge("verify", e, 0, VERIFY_TMR)[1])

    def test_no_verdict_is_a_failure(self):
        e = self.expected["verify:tmr"]
        for code in (2, 3, 125, -9):
            reached, ok, _ = harness.judge("verify", e, code, VERIFY_TMR)
            self.assertFalse(reached)
            self.assertFalse(ok)
        self.assertEqual(harness.judge("verify", e, 1, "garbage\n")[:2],
                         (False, False))

    def test_synthesis_answer(self):
        e = self.expected["synthesize:tmr:masking"]
        self.assertTrue(harness.judge("synthesize", e, 0, SYNTH_TMR)[1])
        wrong = dict(e, recovery_states=0)
        self.assertFalse(harness.judge("synthesize", wrong, 0, SYNTH_TMR)[1])

    def test_monitor_answer(self):
        e = self.expected["monitor:ring5"]
        ctx = {"runs": 2, "states": 402, "violations": 1}
        self.assertTrue(harness.judge("monitor", e, 1, MONITOR, ctx)[1])
        self.assertFalse(harness.judge(
            "monitor", e, 1, MONITOR, dict(ctx, violations=0))[1])
        self.assertFalse(harness.judge("monitor", e, 0, MONITOR, ctx)[1])
        # memory's answer is a constant: pm never violates safety.
        m = self.expected["monitor:memory"]
        self.assertFalse(harness.judge("monitor", m, 1, MONITOR, ctx)[1])

    def test_every_invocation_has_an_answer(self):
        for w in run.WORKLOADS.values():
            for inv in w.invocations:
                self.assertIn(inv.id, self.expected)


class RssReader(unittest.TestCase):
    def child(self, code):
        with tempfile.TemporaryDirectory() as d:
            return harness.run_child(
                [sys.executable, "-c", code], os.path.join(d, "o"),
                os.path.join(d, "e"), 60.0)

    def test_child_rusage_is_the_childs_own(self):
        big = self.child("b = bytearray(96 << 20)\n"
                         "for i in range(0, len(b), 4096): b[i] = 1")
        small = self.child("pass")
        self.assertEqual(big.code, 0)
        self.assertGreater(big.maxrss_mb, 96)
        # A later, smaller child does not inherit the earlier peak.
        self.assertLess(small.maxrss_mb, 96)

    def test_exit_code_signal_and_time_limit(self):
        self.assertEqual(self.child("raise SystemExit(3)").code, 3)
        self.assertEqual(self.child("import os; os.abort()").code, -6)
        with tempfile.TemporaryDirectory() as d:
            c = harness.run_child([sys.executable, "-c",
                                   "import time; time.sleep(30)"],
                                  os.path.join(d, "o"), os.path.join(d, "e"),
                                  0.5)
        self.assertEqual(c.code, -9)
        self.assertLess(c.wall_s, 10)


class Contract(unittest.TestCase):
    def test_benchmark_json_names_match(self):
        with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
