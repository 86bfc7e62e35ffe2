"""Self-tests of the benchmark: repeatable counts, the tail rule, failure accounting.

Run from the root of a checkout (standard library only):

    python3 -m unittest discover -s perfbench/tests
"""

import dataclasses
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from epsfc import random_fhg  # noqa: E402


def traced_counts(name: str, seed: int, ncells: int):
    workload = wl.WORKLOADS[name](seed)
    tracer = wl.SpanTracer()
    try:
        plain, traced = wl.run_paired(workload, tracer, ncells=ncells)
    finally:
        workload.close()
    for cell in plain + traced:
        assert not cell["problems"], cell["problems"]
    span_counts = [s["counts"] for s in tracer.spans if s["name"] == "cell"]
    return [c["counts"] for c in plain], [c["counts"] for c in traced], span_counts


def audit(workload, out, reference=None, k=0):
    return wl.audit(workload, k, out, reference)


class CountsRepeat(unittest.TestCase):
    def test_same_seed_gives_identical_counts(self):
        for name in wl.WORKLOADS:
            with self.subTest(workload=name):
                first = traced_counts(name, seed=7, ncells=2)
                second = traced_counts(name, seed=7, ncells=2)
                seen = set()
                for a_run, b_run in zip(first, second):
                    self.assertEqual(len(a_run), 2)
                    for a, b in zip(a_run, b_run):
                        for field in wl.COUNT_FIELDS:
                            self.assertEqual(a.get(field), b.get(field), field)
                            if field in a:
                                seen.add(field)
                self.assertTrue(seen, "no count field recorded")
                # Traced and untraced passes of one run agree as well.
                self.assertEqual(first[0], first[1])


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        values = [float(v) for v in range(100, 0, -1)]
        self.assertEqual(wl.tail(values), (90.0, 90.0))
        value, pct = wl.tail([float(v) for v in range(1, 12)])
        self.assertEqual(value, 1.0)
        self.assertAlmostEqual(pct, 100 / 11)
        self.assertEqual(sum(v > value for v in range(1, 12)), 10)

    def test_fewer_than_eleven_values_fall_back_to_the_maximum(self):
        self.assertEqual(wl.tail([3.0, 1.0, 2.0]), (3.0, 100.0))


class FailureAccounting(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.workload = wl.FhgVerify(seed=3)
        outs = [cls.workload.run_cell(k, wl.NullTracer()) for k in range(2)]
        cls.outs = [o for o in outs if o["ref"]["outcome"] == "ok"]
        assert cls.outs, "no learned cell to corrupt"

    def corrupted(self, **changes):
        out = dict(self.outs[0])
        out.update(changes)
        return out

    def test_clean_cells_pass(self):
        reference = [wl.digest(o["ref"]) for o in self.outs]
        for k, out in enumerate(self.outs):
            self.assertEqual(audit(self.workload, out, reference, k), [])

    def test_cross_layer_disagreement_fails(self):
        bad = self.corrupted(blockers=(self.outs[0]["blockers"][0] + 1, self.outs[0]["blockers"][1]))
        self.assertTrue(audit(self.workload, bad))

    def test_wrong_learned_game_fails(self):
        game = self.outs[0]["game"]
        bad = self.corrupted(learned=random_fhg(game.n, 0.5, 0))
        self.assertTrue(audit(self.workload, bad))

    def test_reference_mismatch_fails(self):
        ref = dict(self.outs[0]["ref"])
        ref["stabilized"] = list(ref["stabilized"])
        ref["stabilized"][-1] += 1
        bad = self.corrupted(ref=ref)
        reference = [wl.digest(self.outs[0]["ref"])]
        self.assertTrue(audit(self.workload, bad, reference))

    def test_census_that_miscounts_by_size_fails(self):
        (partition, report), rest = self.outs[0]["censuses"][0], self.outs[0]["censuses"][1:]
        by_size = list(report.blocking_by_size)
        by_size[1], by_size[2] = by_size[1] + 1, by_size[2] - 1  # total unchanged
        bad = self.corrupted(censuses=((partition, dataclasses.replace(report, blocking_by_size=tuple(by_size))), *rest))
        self.assertTrue(audit(self.workload, bad))

    def test_anonymous_census_is_checked_against_the_closed_form(self):
        workload = wl.AnonPipeline(seed=3)
        try:
            outs = [workload.run_cell(0, wl.NullTracer())]
        finally:
            workload.close()
        self.assertEqual(audit(workload, outs[0]), [])
        partition, report = outs[0]["census"]
        by_size = list(report.blocking_by_size)
        by_size[-1] += 1
        bad = dict(outs[0], census=(partition, dataclasses.replace(report, blocking_by_size=tuple(by_size))))
        self.assertTrue(audit(workload, bad))

    def test_crashed_cell_fails(self):
        bad = {"counts": {}, "ref": {}, "error": "ValueError: boom"}
        self.assertEqual(audit(self.workload, bad), ["ValueError: boom"])

    def test_failures_reach_the_result_line(self):
        bad = self.corrupted(blockers=(self.outs[0]["blockers"][0] + 1, self.outs[0]["blockers"][1]))
        failed = sum(1 for out in (self.outs[0], bad) if audit(self.workload, out))
        result = {"attempted": 2, "failed": failed, "metrics": {}}
        line = run.result_line({"fhg_verify": result})
        self.assertEqual((line["correct"], line["attempted"], line["failed"]), (False, 2, 1))


if __name__ == "__main__":
    unittest.main()
