"""One benchmark process: set up a workload, run whole cycles of ops in a
closed loop (one caller, the next call only after the previous one returns),
check every result outside the timed span and print one JSON record.

Modes:
  measure  untraced timed run; gives the end-to-end numbers
  traced   the same run with spans at the module boundaries
  setup    set-up only; reports when the first op would have started

Run it through run.py, which fixes the environment (source path, BLAS
threads) and turns the records into metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Optional

import hostspeed
from spans import Tracer, min_samples, span_totals

HERE = Path(__file__).resolve().parent

MIN_OPS = min_samples(90)  # so that at least ten samples lie above p90
OVERRUN_S = 60.0  # stop mid-cycle if a cycle runs this far past the budget
MAX_FAILURES_SHOWN = 20


def install_spans(tracer: Tracer) -> None:
    """Rebind public functions at the module boundaries to traced wrappers.

    A name the package no longer has raises here, so a renamed function
    fails the traced run instead of reading as a layer that costs nothing.
    """
    from monoenv import core, hulls, lp, oracle

    def lp_error(exc: Exception) -> None:
        if isinstance(exc, (lp.LPInfeasible, lp.LPUnbounded)) or "iteration limit" in str(exc):
            tracer.count("lp.errors")

    plain = [
        (oracle, "monomial_values", "core.monomial_values"),
        (oracle, "grid_maximize", "oracle.grid_maximize"),
        (core.Domain, "require_inside", "core.require_inside"),
        (core.Domain, "contains_many", "core.contains_many"),
        (core.Domain, "line_range", "core.line_range"),
        (lp, "solve_box_lp", "lp.solve_box_lp"),
        (hulls, "hull_membership", "hulls.hull_membership"),
    ]
    for owner, attr, name in plain:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))

    solve = lp.solve_equality_lp

    def counted(c, A, b, *args, **kwargs):
        tracer.count("lp.solve_equality_lp.rows", len(b))
        return solve(c, A, b, *args, **kwargs)

    traced = tracer.wrap("lp.solve_equality_lp", counted, on_error=lp_error)
    lp.solve_equality_lp = oracle.solve_equality_lp = traced


def environment(workload) -> dict:
    import numpy
    import monoenv

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    grid = getattr(workload, "grid", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "monoenv": getattr(monoenv, "__version__", "unknown"),
        "seed": workload.seed,
        "grid": repr(grid) if grid is not None else "not used",
    }


def attempt(op, tracer: Optional[Tracer]) -> tuple[float, Optional[str]]:
    """Time one op's call, then check its result with the tracer paused.
    Returns the call's duration in seconds and what went wrong, if anything."""
    call = op.call
    if tracer is not None and op.span:
        call = lambda: tracer.span(op.span, op.call)
    t0 = time.perf_counter()
    try:
        result, error = call(), None
    except Exception as exc:  # a failing call is a failed op, not a failed run
        result, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if error is not None:
        return seconds, error
    if tracer is not None:
        tracer.paused = True
    try:
        return seconds, op.check(result)
    except Exception as exc:  # so is a check that cannot run
        return seconds, f"check raised {type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.paused = False


def run(workload_name: str, seed: int, seconds: float, mode: str,
        drill: Optional[str] = None, min_ops: int = MIN_OPS) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[workload_name](seed, drill)
    tracer = Tracer() if mode == "traced" else None
    if tracer is not None:
        install_spans(tracer)
        wl.tracer = tracer
    wl.setup()

    failures: list[str] = []
    domains_seen = set()
    for op in wl.warmup():
        _, bad = attempt(op, tracer)
        if bad:
            failures.append(f"warm-up {op.kind}: {bad}")
        if "domain" in op.meta:
            domains_seen.add(op.meta["domain"])
    warm_failed = len(failures)

    t_first = time.monotonic()
    factors = [hostspeed.probe(workload_name)]  # outside set-up and outside every op
    last_probe = time.monotonic()
    record = {"mode": mode, "workload": workload_name, "env": environment(wl),
              "t_first_op": t_first, "host_factors": factors}
    if mode == "setup":
        return record

    durations: list[float] = []
    before: list[int] = []  # index of the last probe taken before each op
    failed = 0
    repeats = verdicts = cells = 0
    cycle = wl.cycle_len
    for i in itertools.count():
        if time.monotonic() - last_probe >= hostspeed.PROBE_EVERY_S:
            factors.append(hostspeed.probe(workload_name))
            last_probe = time.monotonic()
        op = wl.op(i)
        if tracer is not None:
            tracer.op_id = i
            if "rows" in op.meta:  # rows of the timed ops only, not of the warm-up
                tracer.count(f"{op.span}.rows", op.meta["rows"])
        took, bad = attempt(op, tracer)
        durations.append(took)
        before.append(len(factors) - 1)
        if bad:
            failed += 1
            if len(failures) < MAX_FAILURES_SHOWN:
                failures.append(f"op {i} {op.kind}: {bad}")
        if "domain" in op.meta:
            verdicts += 1
            repeats += op.meta["domain"] in domains_seen
            domains_seen.add(op.meta["domain"])
            cells += op.meta["grid_cells"]
        elapsed = time.monotonic() - t_first
        if (i + 1) % cycle == 0 and i + 1 >= min_ops and elapsed >= seconds:
            break
        if elapsed >= seconds + OVERRUN_S:
            break
    factors.append(hostspeed.probe(workload_name))

    record.update({
        "ops": len(durations),
        "cycles": len(durations) / cycle,
        "failed": failed,
        "warmup_failed": warm_failed,
        "failures": failures,
        "durations_ms": [d * 1e3 for d in durations],
        "probe_before": before,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer is not None:
        tracer.paused = True
        record["layers"] = layer_metrics(tracer, len(durations), verdicts, repeats, cells)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.save(out / f"trace-{workload_name}.npz")
    return record


def layer_metrics(tracer: Tracer, ops: int, verdicts: int, repeats: int,
                  cells: int) -> dict[str, float]:
    """Per-layer numbers from the spans of the timed ops: times in ms per op,
    counts per op (or per verdict where named so)."""
    a = tracer.arrays()
    in_ops = span_totals(tracer.names, a["name"], a["start"], a["end"], a["parent"],
                         mask=a["op"] >= 0)
    in_setup = span_totals(tracer.names, a["name"], a["start"], a["end"], a["parent"],
                           mask=a["op"] < 0)
    zero = {"calls": 0.0, "s": 0.0, "self_s": 0.0}

    def per_op(name: str, field: str) -> float:
        v = in_ops.get(name, zero)[field]
        return v * (1e3 if field != "calls" else 1.0) / ops

    counts = tracer.counts
    est_calls = (in_ops.get("envelopes.estimator.scalar", zero)["calls"]
                 + in_ops.get("envelopes.estimator.batch", zero)["calls"])
    grid_rows = counts.get("envelopes.estimator.batch", 0.0)
    m = {
        "oracle.max_gap.self_ms": per_op("oracle.max_gap", "self_s"),
        "oracle.grid_maximize.self_ms": per_op("oracle.grid_maximize", "self_s"),
        "oracle.evals_per_verdict": est_calls / verdicts if verdicts else 0.0,
        "oracle.grid_points": grid_rows / verdicts if verdicts else 0.0,
        "oracle.grid_keep_ratio": grid_rows / cells if cells else 0.0,
        "oracle.repeat_domain_share": repeats / verdicts if verdicts else 0.0,
        "oracle.sampled_hull_envelope.self_ms": per_op("oracle.sampled_hull_envelope", "self_s"),
        "envelopes.estimator.scalar_calls": per_op("envelopes.estimator.scalar", "calls"),
        "envelopes.estimator.scalar_ms": per_op("envelopes.estimator.scalar", "s"),
        "envelopes.estimator.batch_ms": per_op("envelopes.estimator.batch", "s"),
        "core.require_inside.calls": per_op("core.require_inside", "calls"),
        "core.require_inside.ms": per_op("core.require_inside", "s"),
        "core.contains_many.ms": per_op("core.contains_many", "s"),
        "core.line_range.calls": per_op("core.line_range", "calls"),
        "core.line_range.ms": per_op("core.line_range", "s"),
        "core.monomial_values.calls": per_op("core.monomial_values", "calls"),
        "core.monomial_values.ms": per_op("core.monomial_values", "s"),
    }
    for band in ("small", "mid", "large"):
        name = f"envelopes.envelopes_symbox.{band}"
        m[name + ".ms"] = per_op(name, "s")
        rows = counts.get(name + ".rows", 0.0)
        m[name + ".points"] = rows / ops
    m.update({
        "lp.solve_equality_lp.calls": per_op("lp.solve_equality_lp", "calls"),
        "lp.solve_equality_lp.ms": per_op("lp.solve_equality_lp", "s"),
        "lp.solve_equality_lp.rows": counts.get("lp.solve_equality_lp.rows", 0.0) / ops,
        "lp.solve_box_lp.self_ms": per_op("lp.solve_box_lp", "self_s"),
        "lp.errors": counts.get("lp.errors", 0.0),
        "hulls.hull_membership.calls": per_op("hulls.hull_membership", "calls"),
        "hulls.hull_membership.ms": per_op("hulls.hull_membership", "s"),
        "hulls.build_symbox_hull.ms": in_setup.get("hulls.build_symbox_hull", zero)["s"] * 1e3,
        "hulls.envelope_bounds.ms": per_op("hulls.envelope_bounds", "s"),
        "hulls.export_parse.ms": per_op("hulls.export_parse", "s"),
        "hulls.verify_integrality.self_ms": per_op("hulls.verify_integrality", "self_s"),
        "bounds.figure1_sweep.ms": per_op("bounds.figure1_sweep", "s"),
        "polyrelax.certify_gap_small_instance.self_ms":
            per_op("polyrelax.certify_gap_small_instance", "self_s"),
        "trace.spans_per_op": float((a["op"] >= 0).sum()) / ops,
    })
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("measure", "traced", "setup"), required=True)
    args = p.parse_args(argv)
    record = run(args.workload, args.seed, args.seconds, args.mode)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
