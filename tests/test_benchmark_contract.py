"""The library as ``perfbench/`` reads it.

The benchmark drives the public API and checks each result outside the timed
span. These tests build every op its workloads build, read the hull the way
they do, and install its traced wrappers, so a library change that would
break a benchmark run fails here first.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from monoenv import SymBox, envelopes, hulls
from monoenv.core import Domain

REPO = Path(__file__).resolve().parents[1]
BENCHMARKED = [w["name"] for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  REPO / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", BENCHMARKED)
def test_every_op_builds(workloads, name):
    # make() builds each op's monomial, polynomial, domain, GridSpec and bound;
    # an input the library rejects raises here, and no op runs
    workload = workloads[name](seed=1)
    workload.setup()
    ops = workload.warmup() + [workload.op(i) for i in range(workload.cycle_len)]
    assert len(ops) == len(workload.warmup_slots) + len(workload.slots)
    assert all(callable(op.call) and callable(op.check) for op in ops)


def _odd_masks(n):
    return [m for m in range(1, 2 ** (n + 1)) if bin(m).count("1") % 2 == 1]


@pytest.mark.parametrize("n", [2, 5, 8])
def test_hull_reads_as_the_workloads_read_it(n):
    fs = hulls.build_symbox_hull(n)
    want = sorted((m, "GE") for m in _odd_masks(n))
    assert sorted((f.mask, f.sense) for f in fs.facets) == want
    back = hulls.parse_facets_text(hulls.export_facets_text(fs))
    assert back.n == n and sorted((f.mask, f.sense) for f in back.facets) == want

    A, b = fs.to_ub()
    assert A.shape == (2 ** n, n + 1) and b.shape == (2 ** n,)
    assert np.all(A @ np.ones(n + 1) <= b)  # the all-ones vertex is feasible

    X = np.random.default_rng(n).uniform(-1.0, 1.0, (16, n))
    lo, hi = fs.envelope_bounds(X)
    assert lo.shape == hi.shape == (16,) and np.all(lo <= hi)
    for env, side in ((fs.envelope_lower, lo), (fs.envelope_upper, hi)):
        assert isinstance(env, envelopes.Envelope) and env.dom == SymBox(n)
        assert np.array_equal(env(X), side)
    assert hulls.hull_membership(fs, X[0], 0.5 * (lo[0] + hi[0])).member
    assert not hulls.hull_membership(fs, X[0], hi[0] + 1e-3).member


def test_traced_wrappers_install():
    # install_spans raises when a name it rebinds is gone from the package;
    # the two LP spans stay empty if a caller binds an LP entry past the
    # module attribute that install_spans rebinds, and a box's point check
    # records no span if it leaves Domain.require_inside
    code = ("import sys; sys.path.insert(0, 'perfbench')\n"
            "from spans import Tracer\n"
            "from worker import install_spans\n"
            "from monoenv import Monomial, UnitBox, envelopes, hulls, oracle\n"
            "tracer = Tracer()\n"
            "install_spans(tracer)\n"
            "hulls.verify_integrality(3, trials=1)\n"
            "oracle.sampled_hull_envelope(Monomial((1, 1)), UnitBox(2), (0.5, 0.25), oracle.UNDER)\n"
            "print(' '.join(sorted({tracer.names[i] for i in tracer.name})))\n"
            "nid = tracer.name_id('core.require_inside')\n"
            "for check in (lambda: envelopes.concave_env_unitbox(Monomial((1, 1)), [0.5, 0.5]),\n"
            "              lambda: envelopes.convex_env_ratiobox(2, 2.0, [1.5, 1.5]),\n"
            "              lambda: envelopes.envelopes_symbox(2, [0.5, -0.5])):\n"
            "    before = list(tracer.name).count(nid)\n"
            "    check()\n"
            "    print('require_inside', list(tracer.name).count(nid) - before)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names, *checks = proc.stdout.splitlines()
    traced = set(names.split())
    assert {"lp.solve_box_lp", "lp.solve_equality_lp"} <= traced, traced
    # one span per checked call on a UnitBox, a RatioBox and a SymBox
    assert checks == ["require_inside 1"] * 3, checks
    # install_spans rebinds require_inside and contains_many on Domain itself;
    # a family that defined its own would bypass the traced wrapper
    families, seen = [Domain], []
    while families:
        cls = families.pop()
        seen.append(cls)
        families += cls.__subclasses__()
    assert len(seen) > 4
    for cls in seen[1:]:
        assert not {"require_inside", "contains_many"} & vars(cls).keys(), cls
