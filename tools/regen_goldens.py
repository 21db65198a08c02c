#!/usr/bin/env python3
"""Regenerate the golden files under tests/goldens.

Run from the repository root after an intentional change to the verified
constants; review the diff before committing.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from matrixweyl import K, build_gl_np1, build_gm, gl2_irrep, gm_commutator_tower
from matrixweyl.identities import art_dependency, art_relations, gm_tower_constants
from matrixweyl.models import WORDS, model_checks, pattern_verdict, spectrum
from matrixweyl.serialize import dumps, matrix_op_to_json

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "tests", "goldens")


def write(name: str, data) -> None:
    path = os.path.join(GOLDEN_DIR, name)
    with open(path, "w") as fh:
        fh.write(dumps(data))
    print("wrote", path)


def main() -> None:
    gens = [build_gl_np1(K, gl2_irrep(d)) for d in (1, 2, 3)]
    dep = art_dependency(gens, [art_relations(g) for g in gens])
    write(
        "art_dependency.json",
        {"coefficients": {k: str(v) for k, v in sorted(dep.coefficients.items())}},
    )

    write(
        "gm_tower_constants.json",
        {
            "m=%d" % gm.m: [str(c) for c in gm_tower_constants(gm, gm_commutator_tower(gm))]
            for gm in (build_gm(m, K) for m in (1, 2, 3))
        },
    )

    residuals = {}
    for kind in ("calogero", "sutherland"):
        for d in (1, 2, 3):
            _, (_, rep) = model_checks(kind, d)
            residuals["%s_d%d" % (kind, d)] = {
                "residual_terms": rep.residual_terms,
                "residual": matrix_op_to_json(rep.residual),
            }
    write("display_residuals.json", residuals)

    cal = {}
    for d, ks in ((1, (0, 1, 2, 3, 4)), (2, (1, 2, 3)), (3, (2, 3))):
        for k in ks:
            res = spectrum("calogero", WORDS["calogero"], k, d, {"omega": 1, "nu": 0})
            rec = res.to_json()
            rec["verdict_vs_scalar_pattern"] = pattern_verdict(res, Fraction(1))
            cal["k%d_d%d" % (k, d)] = rec
    write("calogero_spectra.json", cal)

    suth = {}
    for d, ks in ((1, (1, 2, 3)), (2, (1, 2, 3)), (3, (2, 3))):
        for k in ks:
            res = spectrum("sutherland", WORDS["sutherland"], k, d, {"alpha": 1, "nu": 0})
            rec = res.to_json()
            if d > 1:
                scalar = spectrum("sutherland", WORDS["sutherland"], k, 1, {"alpha": 1, "nu": 0})
                rec["multiset_equal_to_scalar"] = sorted(
                    e.to_json().items() for e in res.eigenvalues
                ) == sorted(e.to_json().items() for e in scalar.eigenvalues)
            suth["k%d_d%d" % (k, d)] = rec
    write("sutherland_spectra.json", suth)


if __name__ == "__main__":
    main()
