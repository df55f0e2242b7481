"""Checks of the benchmark itself: trace arithmetic, the percentile rule,
the failure drill and the metric names promised in BENCHMARK.json.

    python3 perfbench/selftest.py

It is a plain unittest module so that the package's own pytest suite does
not collect it.
"""

from __future__ import annotations

import json
import os
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(ROOT / "src"))

import hostspeed
import run
import worker
from spans import Tracer, min_samples, nearest_rank, self_times, span_totals, tail_count


def _spans(*rows):
    """rows of (start, end, parent) -> three lists."""
    start, end, parent = zip(*rows)
    return list(start), list(end), list(parent)


class SelfTime(unittest.TestCase):
    def test_leaf_keeps_its_duration(self):
        self.assertEqual(self_times(*_spans((0.0, 2.5, -1))).tolist(), [2.5])

    def test_nested_children(self):
        # root [0,10] > child [1,4] > grandchild [2,3]
        own = self_times(*_spans((0, 10, -1), (1, 4, 0), (2, 3, 1)))
        self.assertEqual(own.tolist(), [7.0, 2.0, 1.0])

    def test_overlapping_children_count_once(self):
        # children [1,5] and [3,7] cover [1,7]; [9,12] is clipped to [9,10]
        own = self_times(*_spans((0, 10, -1), (3, 7, 0), (1, 5, 0), (9, 12, 0)))
        self.assertEqual(own[0], 10 - 6 - 1)
        self.assertEqual(own[1:].tolist(), [4.0, 4.0, 3.0])

    def test_disjoint_and_contained_children(self):
        # [1,2] and [4,6] are disjoint; [4.5,5] lies inside [4,6]
        own = self_times(*_spans((0, 10, -1), (4, 6, 0), (1, 2, 0), (4.5, 5, 0)))
        self.assertEqual(own[0], 10 - 1 - 2)

    def test_child_outside_parent_subtracts_nothing(self):
        own = self_times(*_spans((0, 1, -1), (2, 3, 0)))
        self.assertEqual(own[0], 1.0)

    def test_several_parents(self):
        own = self_times(*_spans((0, 4, -1), (1, 2, 0), (5, 9, -1), (6, 8, 2), (7, 8, 3)))
        self.assertEqual(own.tolist(), [3.0, 1.0, 2.0, 1.0, 1.0])

    def test_tracer_records_parents_ops_and_totals(self):
        t = Tracer()
        t.op_id = 7
        inner = t.wrap("inner", lambda x: x + 1)
        self.assertEqual(t.span("outer", lambda: inner(inner(1))), 3)
        t.op_id = -1
        t.span("setup", lambda: None)
        a = t.arrays()
        self.assertEqual(a["parent"].tolist(), [-1, 0, 0, -1])
        self.assertEqual(a["op"].tolist(), [7, 7, 7, -1])
        tot = span_totals(t.names, a["name"], a["start"], a["end"], a["parent"],
                          mask=a["op"] >= 0)
        self.assertEqual(tot["inner"]["calls"], 2)
        self.assertEqual(tot["setup"]["calls"], 0)
        self.assertAlmostEqual(tot["outer"]["self_s"] + tot["inner"]["s"], tot["outer"]["s"])

    def test_paused_tracer_records_nothing(self):
        t = Tracer()
        f = t.wrap("f", lambda: 1)
        g = t.wrap_by_rows("g", len)
        t.paused = True
        f()
        g([[0.0]])
        self.assertEqual(len(t.start), 0)
        self.assertEqual(t.counts, {})

    def test_rows_split_scalar_and_batch(self):
        t = Tracer()
        g = t.wrap_by_rows("est", len)
        g([[1.0]])
        g([[1.0], [2.0], [3.0]])
        self.assertEqual(t.counts, {"est.scalar": 1, "est.batch": 3})
        self.assertEqual(t.names, ["est.scalar", "est.batch"])


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(nearest_rank(xs, 50), 50)
        self.assertEqual(nearest_rank(xs, 90), 90)
        self.assertEqual(nearest_rank([5.0], 90), 5.0)
        self.assertEqual(nearest_rank([3, 1, 2], 50), 2)

    def test_ten_samples_above_p90_need_a_hundred(self):
        self.assertEqual(min_samples(90), 100)
        self.assertEqual(min_samples(50), 20)
        self.assertEqual(tail_count(list(range(100)), 90), 10)
        self.assertLess(tail_count(list(range(99)), 90), 10)

    def test_ties_are_not_above(self):
        self.assertEqual(tail_count([1.0] * 200, 90), 0)

    def test_runs_stop_only_after_enough_samples(self):
        self.assertGreaterEqual(worker.MIN_OPS, min_samples(90))


class HostSpeed(unittest.TestCase):
    def test_each_op_is_divided_by_the_probes_around_it(self):
        # probes 1.0, 2.0, 3.0; ops 0 and 1 ran between the first two probes
        got = hostspeed.normalize([3.0, 6.0, 10.0], [0, 0, 1], [1.0, 2.0, 3.0])
        self.assertEqual(got, [2.0, 4.0, 4.0])

    def test_set_up_is_divided_by_the_probes_around_it(self):
        rec = {"t_first_op": 13.0, "host_factors": [3.0]}
        self.assertEqual(run.setup_time(10.0, 1.0, rec), 1.5)

    def test_every_workload_has_its_kernel_parts(self):
        from workloads import WORKLOADS
        self.assertEqual(set(hostspeed.WORKLOAD_PARTS), set(WORKLOADS))

    def test_every_op_has_a_probe_after_it(self):
        rec = worker.run("bulk-envelope", 1, 0.0, "measure", min_ops=15)
        self.assertEqual(len(rec["probe_before"]), rec["ops"])
        self.assertLess(max(rec["probe_before"]), len(rec["host_factors"]) - 1)
        self.assertEqual(rec["probe_before"], sorted(rec["probe_before"]))


class FailureDrill(unittest.TestCase):
    """Wrong results must raise failed_ratio and name the verdict. One cycle
    of each workload, with and without the fault."""

    def drill(self, workload, fault):
        from workloads import WORKLOADS
        cycle = len(WORKLOADS[workload].slots)
        clean = worker.run(workload, 5, 0.0, "measure", None, min_ops=cycle)
        broken = worker.run(workload, 5, 0.0, "measure", fault, min_ops=cycle)
        self.assertEqual((clean["ops"], broken["ops"]), (cycle, cycle))
        self.assertEqual(clean["failed"], 0, clean["failures"])
        self.assertGreater(broken["failed"], 0)
        _, lines = run.end_to_end(broken, [1.0])
        ratio = next(ln for ln in lines if ln.startswith("failed_ratio"))
        self.assertIn(f"{broken['failed']} failed of {cycle} attempted", ratio)
        self.assertGreater(float(ratio.split()[1]), 0.0)
        return broken

    def test_shifted_estimator_fails_every_verdict(self):
        rec = self.drill("oracle-verify", "estimator")
        self.assertEqual(rec["failed"], rec["ops"])
        text = "\n".join(rec["failures"])
        self.assertIn("verdict VIOLATED", text)  # overestimators now exceed the bound
        self.assertIn("verdict VALID_UPPER", text)  # underestimators now fall short

    def test_corrupted_lp_reference_fails_lp_checks(self):
        rec = self.drill("lp-integrality", "lp-reference")
        text = "\n".join(rec["failures"])
        self.assertIn("sampled-over", text)
        self.assertIn("z_mon", text)
        self.assertIn("parity-lp", text)
        self.assertNotIn("integrality n=", text)  # no LP reference there


class Contract(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END))
        for m in spec["end_to_end"]:
            self.assertEqual(m["unit"], run.END_TO_END[m["name"]])
        t = Tracer()
        t.span("x", lambda: None)
        t.op_id = 0
        t.span("y", lambda: None)
        emitted = list(worker.layer_metrics(t, 1, 0, 0, 0)) + [
            "trace.untraced_ops_per_s", "trace.traced_ops_per_s", "trace.overhead_pct"]
        self.assertEqual(sorted(m["name"] for m in spec["per_layer"]), sorted(emitted))
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], run.per_layer_unit(m["name"]), m["name"])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
