"""monoenv benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload oracle-verify --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` and exits with code 2, printing no result, when that is missing.

--trace 0 prints the end-to-end metrics: one untraced measuring process plus
set-up-only processes for the set-up time. --trace 1 prints the per-layer
metrics: an untraced and a traced process on the same seed, each for half
the time, so the tracing overhead is the gap between their ops_per_s.
Every time is divided by the host factor of hostspeed.py measured around it,
so it reads as at the reference host speed; the raw times are printed too.
Human-readable lines come first (metric, value, unit, sample count, run
environment); the last line is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from spans import nearest_rank, tail_count

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("oracle-verify", "lp-integrality", "bulk-envelope")
SETUP_PROCESSES = 7  # set-up time is the median over this many processes
BUDGET_S = 170.0  # every child process must finish inside this
BLAS_THREADS = "1"  # held fixed, and at or below nproc, on every commit

END_TO_END = {  # name -> unit
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "oracle.evals_per_verdict": "count/verdict",
    "oracle.grid_points": "count/verdict",
    "oracle.grid_keep_ratio": "ratio",
    "oracle.repeat_domain_share": "ratio",
    "lp.errors": "count",
    "hulls.build_symbox_hull.ms": "ms",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead_pct": "%",
}


def per_layer_unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    return "ms/op" if name.endswith("ms") else "count/op"


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every run compiles the same way
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, mode: str, deadline: float, seconds: float) -> tuple[float, dict]:
    """Run one worker process to completion; returns its set-up time at the
    reference host speed and its record."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--mode", mode]
    host_factor = hostspeed.probe(args.workload)
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} process ran past the {BUDGET_S:.0f} s budget") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"{mode} process exited with {proc.returncode}:\n{proc.stderr}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    return setup_time(started, host_factor, rec), rec


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def op_times(rec: dict) -> list[float]:
    """The run's op durations in ms, each at the reference host speed."""
    return hostspeed.normalize(rec["durations_ms"], rec["probe_before"], rec["host_factors"])


def op_rate(rec: dict) -> float:
    return rec["ops"] / (sum(op_times(rec)) / 1e3)


def setup_time(started: float, host_factor: float, rec: dict) -> float:
    """Seconds from spawning a worker to its first op, at the reference host
    speed: divided by the mean of the probes just before and just after."""
    return (rec["t_first_op"] - started) * 2.0 / (host_factor + rec["host_factors"][0])


def end_to_end(rec: dict, setups: list[float]) -> tuple[dict, list[str]]:
    d = op_times(rec)
    raw = rec["durations_ms"]
    n = len(d)
    timed_s = sum(raw) / 1e3
    factors = rec["host_factors"]
    values = {
        "ops_per_s": op_rate(rec),
        "op_p50_ms": nearest_rank(d, 50),
        "op_p90_ms": nearest_rank(d, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rec["peak_rss_mb"],
    }
    notes = {
        "ops_per_s": f"{n} ops ({rec['cycles']:.0f} whole cycles); raw {n / timed_s:.4f} "
                     f"over {timed_s:.2f} s timed",
        "op_p50_ms": f"nearest rank of {n} samples; raw {nearest_rank(raw, 50):.4f}",
        "op_p90_ms": f"nearest rank of {n} samples, {tail_count(d, 90)} above; "
                     f"raw {nearest_rank(raw, 90):.4f}",
        "setup_s": f"median of {len(setups)} processes: "
                   + ", ".join(f"{s:.3f}" for s in setups),
        "peak_rss_mb": "measuring process",
    }
    lines = [f"{k:<14} {v:>12.4f} {END_TO_END[k]:<6} {notes[k]}" for k, v in values.items()]
    ratio = rec["failed"] / n
    lines.insert(3, f"{'failed_ratio':<14} {ratio:>12.4f} {'':<6} "
                    f"{rec['failed']} failed of {n} attempted")
    lines.append(f"{'host_factor':<14} {statistics.median(factors):>12.4f} {'':<6} "
                 f"median of {len(factors)} probes, range {min(factors):.3f} to "
                 f"{max(factors):.3f}; each time above is divided by the probes around it")
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "monoenv" / "__init__.py").is_file():
        print(f"no monoenv source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    try:
        if args.trace == 0:
            # Half the set-up processes run before the measuring one and half
            # after, so the median does not rest on one stretch of host state.
            half = (SETUP_PROCESSES - 1) // 2
            setups = [spawn(args, "setup", deadline, 0)[0] for _ in range(half)]
            setup, rec = spawn(args, "measure", deadline, args.seconds)
            setups += [setup] + [spawn(args, "setup", deadline, 0)[0]
                                 for _ in range(SETUP_PROCESSES - 1 - half)]
            metrics, lines = end_to_end(rec, setups)
            recs = [rec]
        else:
            # Both halves of the budget run the same seed from the same first op.
            _, base = spawn(args, "measure", deadline, args.seconds / 2)
            _, rec = spawn(args, "traced", deadline, args.seconds / 2)
            recs = [base, rec]
            rate = [op_rate(r) for r in recs]
            # Span times are scaled by the traced run's median host factor.
            scale = statistics.median(rec["host_factors"])
            layers = {k: v / scale if k.endswith("ms") else v for k, v in rec["layers"].items()}
            layers["trace.untraced_ops_per_s"] = rate[0]
            layers["trace.traced_ops_per_s"] = rate[1]
            layers["trace.overhead_pct"] = 100.0 * (rate[0] - rate[1]) / rate[0]
            metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in layers.items()}
            lines = [f"{k:<46} {v['value']:>14.6g} {v['unit']}" for k, v in metrics.items()]
            lines.append(f"spans written to {HERE.name}/out/trace-{args.workload}.npz; "
                         f"{len(rec['durations_ms'])} traced ops, "
                         f"{len(base['durations_ms'])} untraced ops")
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3

    env = dict(rec["env"], commit=git_commit())
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    failures = [f for r in recs for f in r["failures"]]
    for f in failures:
        print(f"FAILED {f}")
    attempted = sum(r["ops"] for r in recs)
    failed = sum(r["failed"] for r in recs)
    warm_failed = sum(r["warmup_failed"] for r in recs)
    print(json.dumps({"correct": failed == 0 and warm_failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
