"""The benchmark's workloads: operations, budgets and predicted layer use.

Each operation is one matrixweyl CLI invocation with its wall budget in
seconds; a child that overruns its budget is killed and counted as failed.
Operations marked with a ν take ``--nu`` from NU_POOL: the run's seed draws
each one's starting ν, and a unit of measurement is len(NU_POOL) passes that
rotate every operation through the whole pool, so every run measures the
same set of inputs whatever the seed.

PREDICTED lists, per workload, the layers whose call count must be non-zero
and the layers that must not be called at all.  A traced run checks both.
"""

from __future__ import annotations

from dataclasses import dataclass

NU_POOL = ("0", "1/3", "2/3")


@dataclass(frozen=True)
class Op:
    argv: tuple
    budget_s: float
    takes_nu: bool = False


def _spectrum(model, k, d):
    return Op(
        ("spectrum", "--model", model, "--k", str(k), "--d", str(d)), 40, True
    )


WORKLOADS = {
    # The paper's identity checks: Weyl composition and Coeff arithmetic,
    # one small echelon solve, no charpoly.  The control for elimination
    # and root-extraction changes.
    "suites": (
        Op(("check",), 20),
        Op(("casimir", "--d", "1"), 20),
        Op(("casimir", "--d", "2"), 20),
        Op(("casimir", "--d", "3"), 20),
        Op(("relations",), 20),
        Op(("model", "--model", "calogero", "--form", "matrix", "--d", "3"), 20),
        Op(("model", "--model", "sutherland", "--form", "matrix", "--d", "3"), 20),
    ),
    # Tracked elimination repeated per target and tier: the measured cliff.
    # gm --m 2 --d 2 is a correct failure (exit 1): the closure fails for
    # matrix blocks.
    "gm_tower": (
        Op(("gm", "--m", "1"), 20),
        Op(("gm", "--m", "2"), 30),
        Op(("gm", "--m", "3"), 60),
        Op(("gm", "--m", "2", "--d", "2"), 40),
    ),
    # Calogero: diagonal blocks read off after flag discovery and
    # per-column elimination.  Sutherland: charpoly and rational roots,
    # whose cost rises with the coefficient height that ν sets.
    "spectra": (
        _spectrum("calogero", 8, 1),
        _spectrum("calogero", 8, 2),
        _spectrum("calogero", 8, 3),
        _spectrum("sutherland", 6, 1),
        _spectrum("sutherland", 4, 2),
        _spectrum("sutherland", 3, 3),
    ),
}

_ALWAYS = ("coeff.mul", "coeff.add", "generators", "serialize.dumps", "cli")
PREDICTED = {
    "suites": {
        "nonzero": _ALWAYS
        + (
            "weyl.compose",
            "weyl.commutator",
            "linalg.echelon.insert",
            "linalg.solve",
            "identities",
            "models",
        ),
        "zero": (
            "linalg.charpoly",
            "linalg.rational_roots",
            "linalg.numeric_roots",
            "spaces.matrix_of",
        ),
    },
    "gm_tower": {
        "nonzero": _ALWAYS
        + (
            "weyl.compose",
            "weyl.commutator",
            "linalg.echelon.insert",
            "linalg.solve",
            "identities",
        ),
        "zero": (
            "linalg.charpoly",
            "linalg.rational_roots",
            "linalg.numeric_roots",
            "spaces.matrix_of",
            "weyl.apply",
            "models",
        ),
    },
    "spectra": {
        "nonzero": _ALWAYS
        + (
            "weyl.apply",
            "linalg.echelon.insert",
            "linalg.solve",
            "linalg.charpoly",
            "linalg.rational_roots",
            "spaces.orbit_closure",
            "spaces.matrix_of",
            "models",
        ),
        # every root at these inputs is rational
        "zero": ("linalg.numeric_roots",),
    },
}


def unit(name, rng, offsets):
    """One unit of measurement: a list of passes, each a list of Ops' argv
    and budget in an order drawn from rng."""
    ops = WORKLOADS[name]
    npasses = len(NU_POOL) if any(op.takes_nu for op in ops) else 1
    passes = []
    for p in range(npasses):
        one = []
        for op, off in zip(ops, offsets):
            argv = list(op.argv)
            if op.takes_nu:
                argv += ["--nu", NU_POOL[(off + p) % len(NU_POOL)]]
            one.append((argv, op.budget_s))
        rng.shuffle(one)
        passes.append(one)
    return passes


def all_inputs():
    """Every argv any seed can produce, for recording references."""
    for ops in WORKLOADS.values():
        for op in ops:
            for nu in NU_POOL if op.takes_nu else (None,):
                yield list(op.argv) + (["--nu", nu] if nu else [])
