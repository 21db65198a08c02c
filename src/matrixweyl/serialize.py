"""Deterministic JSON encoding of the engine's values and run manifests.

Exact values stay exact: a scalar a + b*sqrt(2) is stored as the string
pair ("a", "b") with Fractions rendered as "p/q", never as floats.  All
maps are emitted with sorted keys and lists in canonical term order, so a
given input produces byte-identical JSON.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .coeff import Coeff
from .weyl import MatrixDiffOp, Polynomial, PolySpinor, ScalarDiffOp

SCHEMA_VERSION = 1


def coeff_to_json(c: Coeff) -> list:
    return [
        {"e": list(exps), "a": str(pair[0]), "b": str(pair[1])}
        for exps, pair in c.sorted_terms()
    ]


def coeff_from_json(data) -> Coeff:
    terms = {}
    for t in data:
        terms[tuple(t["e"])] = (Fraction(t["a"]), Fraction(t["b"]))
    return Coeff(terms)


def scalar_op_to_json(op: ScalarDiffOp) -> dict:
    return {
        "nvars": op.nvars,
        "terms": [
            {"x": list(m.xpow), "d": list(m.dpow), "c": coeff_to_json(c)}
            for m, c in op.sorted_terms()
        ],
    }


def scalar_op_from_json(data) -> ScalarDiffOp:
    nvars = data["nvars"]
    terms = {}
    for t in data["terms"]:
        terms[(tuple(t["x"]), tuple(t["d"]))] = coeff_from_json(t["c"])
    return ScalarDiffOp(nvars, terms)


def matrix_op_to_json(op: MatrixDiffOp) -> dict:
    return {
        "dim": op.dim,
        "nvars": op.nvars,
        "entries": [[scalar_op_to_json(e) for e in row] for row in op.entries],
    }


def matrix_op_from_json(data) -> MatrixDiffOp:
    return MatrixDiffOp(
        [[scalar_op_from_json(e) for e in row] for row in data["entries"]]
    )


def spinor_to_json(v: PolySpinor) -> dict:
    comps = []
    for p in v.components:
        comps.append(
            [
                {"x": list(mono), "c": coeff_to_json(c)}
                for mono, c in sorted(p.terms.items())
            ]
        )
    return {"nvars": v.nvars, "components": comps}


def spinor_from_json(data) -> PolySpinor:
    nvars = data["nvars"]
    comps = []
    for terms in data["components"]:
        comps.append(
            Polynomial(
                nvars,
                {tuple(t["x"]): coeff_from_json(t["c"]) for t in terms},
            )
        )
    return PolySpinor(comps, nvars)


def manifest(command: str, inputs: dict, results: list) -> dict:
    """The run manifest: one record per identity or computed artifact."""
    worst = "pass"
    for r in results:
        if r.get("pass") is False:
            worst = "fail"
            break
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
        "verdict": worst,
    }


def dumps(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
