#!/usr/bin/env python3
"""Digest the CLI's output over a fixed grid of inputs, in one process.

Every argv of the grid runs through matrixweyl.cli.main with stdout
captured, and one line is printed per argv:

    <sha256 of stdout> <exit code> <argv>

Save the digests of one checkout and compare another against them to
show that a change keeps every output byte and exit code.  The digests of
the current code are committed as tests/goldens/argv_digests.txt, which
tests/test_cli.py compares against: regenerate that file (first command below)
whenever a change alters output bytes or exit codes on purpose, and review
which rows moved with --compare before overwriting it.  The grid
covers gens, check, casimir and relations for d <= 4 (d = 4 is the first
block whose gl2_irrep entries split a product rationally) and for d = 6
(the second block size with sqrt2 entries, after d = 3), gens with k = 2
bound and as LaTeX and text at d = 2; every space form, with closures for
k <= 3 and d <= 3, the hexagon audits at k = 4, 5 and 6 (d = 2) and the
closures at k = 4 and 8 (d = 3) and k = 5 (d = 4); every model form, and
the matrix form at d = 2 as LaTeX and text and with k = 2 bound; gm for
m <= 4, d <= 3, and m = 2 at d = 4; spectrum for both models, k <= 6,
d <= 3 and four values of nu, again for k <= 4 with --omega or --alpha at 3/2, -2 and 0, again
for k <= 4 at the nu that make a word coefficient vanish (-1/3 for both
models, which cancels the T1- word, and -1/12 for Sutherland, which
cancels its E11 and E22 words), the benchmark's Calogero k = 8 rows, and
the refusal of k < d - 1 for both models;
the usage errors of an option given where its command does not read it
(--output latex or text outside gens and model, --omega with Sutherland,
--alpha with Calogero, space --m with --degree-cap or a --d other than 1);
and the slow rows, the inputs that take the longest.

    python3 tools/argv_digests.py > tests/goldens/argv_digests.txt
    python3 tools/argv_digests.py --compare tests/goldens/argv_digests.txt
    python3 tools/argv_digests.py --slow --timing

--timing adds the wall seconds of each run after the exit code; --slow
runs only the slow rows.  --compare FILE prints, instead of the digests,
each row whose digest or exit code differs from FILE's row for the same
argv (or that FILE lacks), then a count, and exits 1 on any difference;
FILE may be written with or without --timing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from matrixweyl import cli  # noqa: E402

# spelled --nu=VALUE, the form every version of the CLI has parsed
NUS = ("0", "1/3", "2", "-1/2")
# --omega (Calogero) and --alpha (Sutherland) values besides the default 1
# (0 cancels every word that carries the frequency)
FREQS = ("3/2", "-2", "0")
# per model, the nu values at which a word coefficient is 0
CANCELLING_NUS = {"calogero": ("-1/3",), "sutherland": ("-1/3", "-1/12")}
# the nu values of the benchmark's spectrum operations (perfbench/workloads.py)
BENCH_NUS = ("0", "1/3", "2/3")

SLOW = (
    ("gm", "--m", "4"),
    ("gm", "--m", "5"),
    ("gm", "--m", "6"),
    ("gm", "--m", "3", "--d", "2"),
    ("spectrum", "--model", "calogero", "--k", "12", "--d", "3"),
    ("spectrum", "--model", "sutherland", "--k", "10", "--d", "3"),
    ("spectrum", "--model", "sutherland", "--k", "14", "--d", "3"),
    ("spectrum", "--model", "sutherland", "--k", "8", "--d", "2"),
    ("spectrum", "--model", "sutherland", "--k", "5", "--d", "3"),
    ("spectrum", "--model", "sutherland", "--k", "6", "--d", "1",
     "--nu", "3/2", "--alpha", "2"),
    ("spectrum", "--model", "calogero", "--k", "30", "--d", "1"),
    ("spectrum", "--model", "calogero", "--k", "30", "--d", "3"),
    ("spectrum", "--model", "calogero", "--k", "12", "--d", "5"),
    ("spectrum", "--model", "calogero", "--k", "20", "--d", "4", "--omega", "0"),
    ("spectrum", "--model", "calogero", "--k", "30", "--d", "2", "--omega", "3/2"),
)

# options a command parses but does not read with the other arguments given:
# each is a usage error (exit 2, no output)
UNUSED_OPTIONS = tuple(
    ("--output", out) + argv
    for argv in (
        ("check", "--d", "1"),
        ("casimir", "--d", "1"),
        ("relations", "--d", "1"),
        ("space", "--k", "1", "--d", "2"),
        ("spectrum", "--model", "calogero", "--k", "1"),
        ("gm", "--m", "1"),
    )
    for out in ("latex", "text")
) + (
    ("spectrum", "--model", "sutherland", "--k", "1", "--omega", "5"),
    ("spectrum", "--model", "sutherland", "--k", "1", "--omega", "1"),
    ("spectrum", "--model", "calogero", "--k", "1", "--alpha", "5"),
    ("spectrum", "--model", "calogero", "--k", "1", "--alpha", "1"),
    ("space", "--k", "2", "--m", "1", "--degree-cap", "9"),
    ("space", "--k", "2", "--m", "1", "--d", "3"),
    ("space", "--k", "2", "--m", "1", "--d", "2"),
    ("space", "--k", "2", "--m", "1", "--d", "3", "--degree-cap", "9"),
)


def grid():
    rows = [("gens", "--d", str(d)) for d in (1, 2, 3, 4)]
    rows += [("gens", "--d", "2", "--k", "2")]
    rows += [("--output", out, "gens", "--d", "2") for out in ("latex", "text")]
    rows += [("check",)]
    rows += [("check", "--d", str(d)) for d in (1, 2, 3, 4)]
    rows += [("casimir", "--d", str(d)) for d in (1, 2, 3, 4)]
    rows += [("relations",)]
    rows += [("relations", "--d", str(d)) for d in (1, 2, 3, 4)]
    # d = 6, the second block size with sqrt2 entries
    rows += [(cmd, "--d", "6") for cmd in ("gens", "check", "casimir", "relations")]
    rows += [("space", "--k", str(k), "--d", str(d)) for k in (0, 1, 2, 3) for d in (1, 2, 3)]
    # the hexagon audits (d = 2) and a closure (d = 3) past k = 3
    rows += [("space", "--k", str(k), "--d", "2") for k in (4, 5, 6)]
    rows += [("space", "--k", "4", "--d", "3")]
    # the nine-generator closure past k = 4
    rows += [("space", "--k", "8", "--d", "3"), ("space", "--k", "5", "--d", "4")]
    rows += [("space", "--k", "2", "--m", str(m)) for m in (1, 2)]
    rows += [("space", "--k", "3", "--d", "2", "--degree-cap", "1")]
    for model in ("calogero", "sutherland"):
        for form in ("differential", "liealgebraic", "matrix"):
            rows += [("model", "--model", model, "--form", form, "--d", str(d)) for d in (1, 2, 3)]
        rows += [("model", "--model", model, "--form", "matrix", "--d", "2", "--k", "2")]
        rows += [
            ("--output", out, "model", "--model", model, "--form", "matrix", "--d", "2") + k
            for k in ((), ("--k", "2"))
            for out in ("latex", "text")
        ]
    rows += [("gm", "--m", str(m), "--d", str(d)) for m in (1, 2, 3, 4) for d in (1, 2, 3)]
    rows += [("gm", "--m", "2", "--d", "4")]
    for model in ("calogero", "sutherland"):
        for k in range(7):
            for d in (1, 2, 3):
                rows += [
                    ("spectrum", "--model", model, "--k", str(k), "--d", str(d), "--nu=" + nu)
                    for nu in NUS
                ]
    for model, freq in (("calogero", "--omega="), ("sutherland", "--alpha=")):
        for k in range(5):
            for d in (1, 2, 3):
                rows += [
                    ("spectrum", "--model", model, "--k", str(k), "--d", str(d),
                     "--nu=" + nu, freq + value)
                    for value in FREQS
                    for nu in NUS
                ]
    for model, nus in CANCELLING_NUS.items():
        rows += [
            ("spectrum", "--model", model, "--k", str(k), "--d", str(d), "--nu=" + nu)
            for k in range(5)
            for d in (1, 2, 3)
            for nu in nus
        ]
    rows += [
        ("spectrum", "--model", "calogero", "--k", "8", "--d", str(d), "--nu=" + nu)
        for d in (1, 2, 3)
        for nu in BENCH_NUS
    ]
    # a flag label [k, d-1] with k < d-1: refused with exit 1
    rows += [("spectrum", "--model", model, "--k", "3", "--d", "5")
             for model in ("calogero", "sutherland")]
    return rows + list(UNUSED_OPTIONS) + list(SLOW)


def run(argv):
    """(stdout bytes, exit code or exception name, wall seconds) of one argv."""
    out = io.StringIO()
    t0 = time.perf_counter()
    # stderr (a usage error's message) is not part of the digest
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:  # a crash is a digest too
            rc = type(exc).__name__
    return out.getvalue().encode(), rc, time.perf_counter() - t0


def read_digests(path):
    """argv string -> "digest exit" of each line of a saved digest file."""
    saved = {}
    with open(path) as fh:
        for line in fh:
            fields = line.split()
            if not fields:
                continue
            digest, rc, rest = fields[0], fields[1], fields[2:]
            # a --timing file has the wall seconds where an argv starts
            # with a subcommand or an option, never with a digit
            if rest and rest[0][0].isdigit():
                rest = rest[1:]
            saved[" ".join(rest)] = "%s %s" % (digest, rc)
    return saved


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--slow", action="store_true", help="only the slow rows")
    p.add_argument("--timing", action="store_true", help="add wall seconds per argv")
    p.add_argument(
        "--compare", metavar="FILE", help="print only the rows that differ from FILE"
    )
    args = p.parse_args(argv)
    saved = read_digests(args.compare) if args.compare else None
    rows = SLOW if args.slow else grid()
    differ = 0
    for row in rows:
        out, rc, wall = run(row)
        key = " ".join(row)
        digest = "%s %s" % (hashlib.sha256(out).hexdigest(), rc)
        line = digest + (" %.3f" % wall if args.timing else "") + " " + key
        if saved is None:
            print(line, flush=True)
        elif saved.get(key) != digest:
            differ += 1
            print("%s  | saved: %s" % (line, saved.get(key, "none")), flush=True)
    if saved is not None:
        print("%d of %d rows differ from %s" % (differ, len(rows), args.compare))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
