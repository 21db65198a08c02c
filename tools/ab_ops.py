#!/usr/bin/env python3
"""A/B timing of CLI operations between two checkouts, in fresh processes.

    python3 tools/ab_ops.py ROOT_A ROOT_B --reps N -- "ARGV" ["ARGV" ...]
    python3 tools/ab_ops.py ROOT_A ROOT_B --reps N --workload spectra

Each ARGV is one matrixweyl command line in one shell word, such as
"spectrum --model calogero --k 8 --d 2 --nu 1/3"; --workload NAME takes
instead every (operation, nu) pair of that workload from ROOT_A's
perfbench/workloads.py.  Every rep runs each argv once per checkout, A and
B alternating and the side that goes first alternating too, each as
ROOT/perfbench/child.py in a new interpreter, with the environment the
benchmark gives its children (perfbench/run.py's child_env: this process's
environment without MATRIXWEYL_* variables, PYTHONPATH=ROOT/src) and
PYTHONDONTWRITEBYTECODE=1, so no run writes bytecode that a later run
reads; the standard library's installed bytecode is read, as there.  The
output is one line per argv: the median run_s of A and of B in ms, each
with its interquartile range over the reps, B/A, and in how many reps B ran
faster than A; then the median setup_s (import and parser build, before
cli.main) of A and of B in ms, each with its IQR.  The next line is the
same for the sums: the sum of the medians, and the IQR and wins of the
per-rep sums.  The last line takes each rep's slowest run, its largest
run_s over every argv, for A and for B, with its median, IQR and wins:
what the benchmark's slowest_op_s takes of each unit, so a --workload A/B
shows that metric before the benchmark runs.  A gain shows as B winning
nearly every rep, by more than A's IQR.  Every rep also compares the
sha256 of stdout and the exit code of A's and B's run of each argv; at
the first difference the A/B stops, names the argv and exits 1, so it
never times two programs that disagree.  A child that exits without its
timing record (its last stderr line is not the envelope, as when the
operation raises) stops the A/B too: it names the side and the argv with
that child's last stderr line and exits 1.
A checkout with a __pycache__ directory under src/ is refused (exit 2,
naming the directory): PYTHONDONTWRITEBYTECODE stops writes, not reads, so
its children would start from that bytecode and the A/B would compare two
different start-up paths.  Nothing under either checkout is changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import statistics
import subprocess
import sys


def workload_argvs(root, name):
    sys.path.insert(0, os.path.join(root, "perfbench"))
    from workloads import NU_POOL, WORKLOADS

    return [
        list(op.argv) + (["--nu", nu] if nu else [])
        for op in WORKLOADS[name]
        for nu in (NU_POOL if op.takes_nu else (None,))
    ]


class NoRecord(Exception):
    """A child exited without its timing record; the message is its last
    stderr line."""


def envelope(root, argv):
    """(run_s, setup_s, output) of one fresh child of root on argv: the times
    from its last stderr line, output the sha256 of its stdout and its exit
    code.  NoRecord when that line is not the child's envelope."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MATRIXWEYL_")}
    env.update(PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "child.py"), "0", *argv],
        cwd=root,
        env=env,
        capture_output=True,
    )
    last = (proc.stderr.decode().strip().splitlines() or [""])[-1]
    try:
        env = json.loads(last)
        times = env["run_s"], env["setup_s"]
    except (ValueError, TypeError, KeyError):
        raise NoRecord(last) from None
    return (*times, (hashlib.sha256(proc.stdout).hexdigest(), proc.returncode))


def iqr(xs):
    """Interquartile range of xs (0 for a single value)."""
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q3 - q1


def spread(a, b, medians=None):
    """Median and IQR of A and of B in ms."""
    ma, mb = medians or (statistics.median(a), statistics.median(b))
    return "%9.2f %7.2f %9.2f %7.2f" % (1000 * ma, 1000 * iqr(a), 1000 * mb, 1000 * iqr(b))


def row(a, b, medians=None):
    """spread, B/A, and the reps B won, of n."""
    ma, mb = medians or (statistics.median(a), statistics.median(b))
    wins = sum(y < x for x, y in zip(a, b))
    return "%s %6.3f %2d/%-2d" % (spread(a, b, (ma, mb)), mb / ma, wins, len(a))


def sums_row(times, fmt):
    """fmt applied to the per-rep sums over every argv and the sum of the medians."""
    reps = len(times[0][0])
    sums = [[sum(t[side][rep] for t in times) for rep in range(reps)] for side in (0, 1)]
    medians = [sum(statistics.median(t[side]) for t in times) for side in (0, 1)]
    return fmt(*sums, medians)


def slowest_row(times):
    """row of each rep's largest run_s over every argv, for A and for B."""
    reps = len(times[0][0])
    return row(*([max(t[side][rep] for t in times) for rep in range(reps)] for side in (0, 1)))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("root_a")
    p.add_argument("root_b")
    p.add_argument("--reps", type=int, default=7)
    p.add_argument("--workload", help="every argv of this benchmark workload")
    argv = sys.argv[1:] if argv is None else list(argv)
    cut = argv.index("--") if "--" in argv else len(argv)
    args = p.parse_args(argv[:cut])
    roots = [os.path.abspath(args.root_a), os.path.abspath(args.root_b)]
    for root in roots:
        for top, dirs, _ in os.walk(os.path.join(root, "src")):
            if "__pycache__" in dirs:
                p.error("stale bytecode: remove %s" % os.path.join(top, "__pycache__"))
    ops = [shlex.split(a) for a in argv[cut + 1 :]]
    if args.workload:
        ops += workload_argvs(roots[0], args.workload)
    if not ops or args.reps < 1:
        p.error("give at least one argv or --workload, and --reps >= 1")
    times = [[[], []] for _ in ops]
    setups = [[[], []] for _ in ops]
    for rep in range(args.reps):
        for op, pair, setup in zip(ops, times, setups):
            outputs = [None, None]
            for side in (0, 1) if rep % 2 == 0 else (1, 0):
                try:
                    run, start, outputs[side] = envelope(roots[side], op)
                except NoRecord as exc:
                    print("%s (%s) gave no timing record on %s; its last stderr line: %s"
                          % ("AB"[side], roots[side], shlex.join(op), exc), file=sys.stderr)
                    return 1
                pair[side].append(run)
                setup[side].append(start)
            if outputs[0] != outputs[1]:
                print("A and B differ on %s: (stdout sha256, exit code) %s vs %s"
                      % (shlex.join(op), *outputs), file=sys.stderr)
                return 1
    print("%9s %7s %9s %7s %6s %5s  %9s %7s %9s %7s" % (
        "A ms", "IQR", "B ms", "IQR", "B/A", "wins", "A setup", "IQR", "B setup", "IQR"))
    for op, (a, b), (sa, sb) in zip(ops, times, setups):
        print("%s  %s  %s" % (row(a, b), spread(sa, sb), shlex.join(op)))
    print("%s  %s  sum of medians: A %s, B %s" % (
        sums_row(times, row), sums_row(setups, spread), *roots))
    print("%s  %s  slowest argv of each rep" % (slowest_row(times), " " * 35))
    return 0


if __name__ == "__main__":
    sys.exit(main())
