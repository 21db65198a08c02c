"""Deterministic JSON encoding of the engine's values and run manifests.

Exact values stay exact: a scalar a + b*sqrt(2) is stored as the string
pair ("a", "b"), each half rendered as "n" or "p/q", never as a float.  All
maps are emitted with sorted keys and lists in canonical term order, so a
given input produces byte-identical JSON.  dumps writes the bytes of
json.dumps(data, indent=2, sort_keys=True) + "\n" for the types a manifest
holds, without the general encoder's pure-Python indented path.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .coeff import Coeff
from .weyl import MatrixDiffOp, ScalarDiffOp

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
    """data as json.dumps(data, indent=2, sort_keys=True) + "\n" writes it.

    data is built of dicts with str keys, lists, str, int, bool and None;
    any other type raises TypeError.
    """
    out = []
    _write(data, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value, newline, out):
    """Append the JSON of value to out, its lines after the first starting
    with newline (a line break and the indent of value's own level)."""
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(repr(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError("keys must be str, not %s" % type(key).__name__)
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    else:
        raise TypeError("Object of type %s is not JSON serializable" % kind.__name__)
