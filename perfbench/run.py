"""Benchmark of the matrixweyl CLI: one fresh interpreter per operation.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload suites|gm_tower|spectra \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record      # rewrite perfbench/reference.json

Each operation of a workload runs as ``perfbench/child.py``, which imports
``matrixweyl.cli`` from ``src/`` and calls its ``main``; children run one at
a time with every MATRIXWEYL_* variable unset, so nothing is cached from one
operation to the next.  Each child's output is checked against the sha256
and exit code recorded in reference.json; a child that differs, raises or
overruns its budget counts as failed.

With --trace 0 the run repeats units of the workload (see workloads.unit)
until --seconds have passed and prints the end-to-end metrics.  With
--trace 1 it runs the first pass of a unit, each operation untraced and
then with perfbench/tracer installed in the child, and prints the per-layer
metrics and the tracing overhead.  Stdout ends with a provenance line and then the result line.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

from workloads import NU_POOL, PREDICTED, WORKLOADS, all_inputs, unit

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
# No operation runs past this many seconds into a run, so a run ends
# inside the three minutes it is allowed even when operations overrun.
RUN_LIMIT_S = 170

PER_LAYER_CALLS = {
    "coeff.mul.calls": "coeff.mul",
    "coeff.add.calls": "coeff.add",
    "weyl.compose.calls": "weyl.compose",
    "weyl.commutator.calls": "weyl.commutator",
    "weyl.apply.calls": "weyl.apply",
    "linalg.echelon.builds": "linalg.echelon.build",
    "linalg.echelon.inserts": "linalg.echelon.insert",
    "linalg.echelon.reduces": "linalg.echelon.reduce",
    "linalg.solve.calls": "linalg.solve",
    "linalg.charpoly.calls": "linalg.charpoly",
    "linalg.rational_roots.calls": "linalg.rational_roots",
    "linalg.numeric_roots.calls": "linalg.numeric_roots",
}
PER_LAYER_SELF = {
    "coeff.mul.self_s": "coeff.mul",
    "coeff.add.self_s": "coeff.add",
    "weyl.compose.self_s": "weyl.compose",
    "weyl.apply.self_s": "weyl.apply",
    "linalg.echelon.insert.self_s": "linalg.echelon.insert",
    "linalg.echelon.reduce.self_s": "linalg.echelon.reduce",
    "linalg.charpoly.self_s": "linalg.charpoly",
    "linalg.rational_roots.self_s": "linalg.rational_roots",
    "linalg.numeric_roots.self_s": "linalg.numeric_roots",
    "spaces.orbit_closure.self_s": "spaces.orbit_closure",
    "spaces.matrix_of.self_s": "spaces.matrix_of",
    "identities.self_s": "identities",
    "models.self_s": "models",
    "generators.self_s": "generators",
    "serialize.dumps.self_s": "serialize.dumps",
    "cli.self_s": "cli",
}
PER_LAYER_MAX = {
    "coeff.height_bits": "bits",
    "linalg.charpoly.degree_max": "count",
    "spaces.basis_dim_max": "count",
}


def op_key(argv) -> str:
    return " ".join(argv)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MATRIXWEYL_")}
    env["PYTHONPATH"] = SRC
    return env


def failure(argv, why, wall):
    return {"op": op_key(argv), "ok": False, "why": why, "run_s": wall,
            "cpu_s": wall, "setup_s": None, "maxrss_kb": 0, "trace": None}


def run_op(argv, budget_s, trace, reference):
    """Run one operation in a child; returns its record (ok, times, trace)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, CHILD, "1" if trace else "0", *argv],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=budget_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return failure(argv, "over budget %.3gs" % budget_s, time.perf_counter() - t0)
    wall = time.perf_counter() - t0
    lines = err.decode(errors="replace").strip().splitlines()
    try:
        env = json.loads(lines[-1])
    except (IndexError, ValueError):
        return failure(argv, "raised: %s" % (lines[-1] if lines else "no output"), wall)
    ref = reference.get(op_key(argv))
    digest = hashlib.sha256(out).hexdigest()
    why = None
    if ref is None:
        why = "no reference"
    elif proc.returncode != ref["exit"] or env["rc"] != ref["exit"]:
        why = "exit %d, reference %d" % (proc.returncode, ref["exit"])
    elif digest != ref["sha256"]:
        why = "output sha256 %s differs from reference" % digest[:12]
    return {"op": op_key(argv), "ok": why is None, "why": why, "run_s": env["run_s"],
            "cpu_s": env["cpu_s"], "setup_s": env["setup_s"],
            "maxrss_kb": env["maxrss_kb"], "trace": env["trace"]}


def run_unit(passes, modes, reference, deadline):
    """Run every pass of a unit, each operation once per trace mode in modes,
    back to back so that all modes see the same load; returns one list of
    records per mode.  No operation runs past the deadline."""
    out = [[] for _ in modes]
    for one in passes:
        for argv, budget_s in one:
            for records, trace in zip(out, modes):
                left = deadline - time.perf_counter()
                if left > 0:
                    rec = run_op(argv, min(budget_s, left), trace, reference)
                else:
                    rec = failure(argv, "run limit", 0.0)
                if not rec["ok"]:
                    print("FAILED %s: %s" % (rec["op"], rec["why"]), file=sys.stderr)
                records.append(rec)
    return out


def unit_times(records, npasses):
    """(batch_s, batch_cpu_s, slowest_op_s) of one unit, per pass."""
    return (
        sum(r["run_s"] for r in records) / npasses,
        sum(r["cpu_s"] for r in records) / npasses,
        max(r["run_s"] for r in records),
    )


def end_to_end(units, npasses):
    times = [unit_times(u, npasses) for u in units]
    every = [r for u in units for r in u]
    setups = [r["setup_s"] for r in every if r["setup_s"] is not None] or [0.0]
    return {
        "batch_s": {"value": statistics.median(t[0] for t in times), "unit": "s"},
        "batch_cpu_s": {"value": statistics.median(t[1] for t in times), "unit": "s"},
        "slowest_op_s": {"value": statistics.median(t[2] for t in times), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": max(r["maxrss_kb"] for r in every) / 1024, "unit": "MB"},
    }


def merge_traces(records):
    """Sum spans per (layer, parent) and counters over the children."""
    spans, sums, maxes = {}, {}, {}
    for r in records:
        t = r["trace"]
        if t is None:
            continue
        for layer, parent, calls, total, own in t["spans"]:
            acc = spans.setdefault((layer, parent), [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        for k, v in t["sums"].items():
            sums[k] = sums.get(k, 0) + v
        for k, v in t["maxes"].items():
            maxes[k] = max(maxes.get(k, 0), v)
    return spans, sums, maxes


def per_layer(spans, sums, maxes, overhead):
    calls, own = {}, {}
    for (layer, _parent), (n, _total, s) in spans.items():
        calls[layer] = calls.get(layer, 0) + n
        own[layer] = own.get(layer, 0.0) + s
    m = {}
    for name, layer in PER_LAYER_CALLS.items():
        m[name] = {"value": calls.get(layer, 0), "unit": "count"}
    for name, layer in PER_LAYER_SELF.items():
        m[name] = {"value": own.get(layer, 0.0), "unit": "s"}
    for name, u in PER_LAYER_MAX.items():
        m[name] = {"value": maxes.get(name, 0), "unit": u}
    inserts = calls.get("linalg.echelon.insert", 0)
    m["linalg.echelon.pivot_ratio"] = {
        "value": sums.get("linalg.echelon.pivots", 0) / inserts if inserts else 0.0,
        "unit": "ratio",
    }
    roots = sums.get("linalg.roots.exact", 0) + sums.get("linalg.roots.inexact", 0)
    m["linalg.roots.exact_ratio"] = {
        "value": sums.get("linalg.roots.exact", 0) / roots if roots else 0.0,
        "unit": "ratio",
    }
    m["serialize.dumps.bytes"] = {"value": sums.get("serialize.dumps.bytes", 0), "unit": "B"}
    m["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    return m, calls


def prediction_errors(workload, calls):
    want = PREDICTED[workload]
    errors = ["%s not called" % L for L in want["nonzero"] if not calls.get(L)]
    errors += ["%s called %d times" % (L, calls[L]) for L in want["zero"] if calls.get(L)]
    return errors


def git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
            capture_output=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.decode().strip() if out.returncode == 0 else None


def src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "matrixweyl")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def provenance(args):
    try:
        mpmath = importlib.metadata.version("mpmath")
    except importlib.metadata.PackageNotFoundError:
        mpmath = None
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "mpmath": mpmath,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
    }


def record():
    reference = {}
    for argv in all_inputs():
        proc = subprocess.run(
            [sys.executable, CHILD, "0", *argv], cwd=ROOT, env=child_env(),
            capture_output=True, timeout=600,
        )
        reference[op_key(argv)] = {
            "sha256": hashlib.sha256(proc.stdout).hexdigest(),
            "exit": proc.returncode,
        }
        print("%s -> exit %d" % (op_key(argv), proc.returncode), file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = p.parse_args()
    if not os.path.isfile(os.path.join(SRC, "matrixweyl", "cli.py")):
        print("error: no matrixweyl sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        p.error("--workload is required")
    with open(REFERENCE) as fh:
        reference = json.load(fh)

    prov = provenance(args)
    rng = random.Random(args.seed)
    ops = WORKLOADS[args.workload]
    offsets = [rng.randrange(len(NU_POOL)) for _ in ops]
    first = unit(args.workload, rng, offsets)
    prov["nu"] = {
        op_key(op.argv): [a[-1] for one in first for a, _ in one if a[:-2] == list(op.argv)]
        for op in ops
        if op.takes_nu
    }
    npasses = len(first)
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    errors = []
    if args.trace == 0:
        units = [run_unit(first, (False,), reference, deadline)[0]]
        while time.perf_counter() - start < args.seconds:
            passes = unit(args.workload, rng, offsets)
            units.append(run_unit(passes, (False,), reference, deadline)[0])
        metrics = end_to_end(units, npasses)
        records = [r for u in units for r in u]
    else:
        # one pass keeps a traced spectra run well inside its time limit
        plain, traced = run_unit(first[:1], (False, True), reference, deadline)
        spans, sums, maxes = merge_traces(traced)
        overhead = unit_times(traced, 1)[0] / unit_times(plain, 1)[0]
        metrics, calls = per_layer(spans, sums, maxes, overhead)
        errors = prediction_errors(args.workload, calls)
        for e in errors:
            print("PREDICTION FAILED: %s" % e, file=sys.stderr)
        records = plain + traced
        print(json.dumps({"spans": [[layer, parent, *v] for (layer, parent), v in sorted(spans.items())]}))
    prov["loadavg_end"] = os.getloadavg()
    failed = sum(not r["ok"] for r in records)
    print(json.dumps({"provenance": prov}))
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
