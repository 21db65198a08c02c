"""Plain-text and LaTeX rendering of coefficients, operators and spinors."""

from __future__ import annotations

from fractions import Fraction

from .coeff import PARAMS, Coeff

_LATEX_PARAM = {"k": "k", "omega": "\\omega", "nu": "\\nu", "alpha": "\\alpha"}


def _frac_str(f: Fraction, latex=False) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    if latex:
        sign = "-" if f < 0 else ""
        return "%s\\frac{%d}{%d}" % (sign, abs(f.numerator), f.denominator)
    return "%d/%d" % (f.numerator, f.denominator)


def _join_signed(pieces) -> str:
    """Concatenate signed pieces, writing "+" before each non-negative one."""
    out = pieces[0]
    for p in pieces[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


def _needs_parens(s: str) -> bool:
    return ("+" in s[1:]) or ("-" in s[1:])


def _scaled(cs: str, body: str, latex=False) -> str:
    """Coefficient string cs times a non-constant body."""
    if cs == "1":
        return body
    if cs == "-1":
        return "-" + body
    if _needs_parens(cs):
        cs = "(%s)" % cs
    return cs + (" " if latex else "*") + body


def _power(sym: str, e: int, latex=False) -> str:
    if e == 1:
        return sym
    return ("%s^{%d}" if latex else "%s^%d") % (sym, e)


def _qp_str(pair, latex=False) -> str:
    a, b = pair
    root = "\\sqrt{2}" if latex else "sqrt2"
    if not b:
        return _frac_str(a, latex)
    if b == 1:
        bs = root
    elif b == -1:
        bs = "-" + root
    else:
        bs = _frac_str(b, latex) + ("" if latex else "*") + root
    if not a:
        return bs
    return _join_signed([_frac_str(a, latex), bs])


def _param_monomial(exps, latex=False) -> str:
    parts = [
        _power(_LATEX_PARAM[name] if latex else name, e, latex)
        for name, e in zip(PARAMS, exps)
        if e
    ]
    sep = " " if latex else "*"
    return sep.join(parts)


def coeff_str(c: Coeff, latex=False) -> str:
    if c.is_zero():
        return "0"
    pieces = []
    for exps, pair in c.sorted_terms():
        mono = _param_monomial(exps, latex)
        scal = _qp_str(pair, latex)
        pieces.append(_scaled(scal, mono, latex) if mono else scal)
    return _join_signed(pieces)


def _vars_default(nvars, latex=False):
    if latex:
        return ["x_{%d}" % (i + 1) for i in range(nvars)]
    return ["x%d" % (i + 1) for i in range(nvars)]


def _term_str(xpow, dpow, var_names, latex=False) -> str:
    parts = [_power(v, e, latex) for v, e in zip(var_names, xpow) if e]
    for v, e in zip(var_names, dpow):
        if e:
            dsym = "\\partial_{%s}" % v if latex else "d_" + v
            parts.append(_power(dsym, e, latex))
    sep = " " if latex else "*"
    return sep.join(parts)


def scalar_op_str(op, var_names=None, latex=False) -> str:
    if not op.terms:
        return "0"
    var_names = var_names or _vars_default(op.nvars, latex)
    pieces = []
    for mono, c in op.sorted_terms():
        body = _term_str(mono.xpow, mono.dpow, var_names, latex)
        cs = coeff_str(c, latex)
        if not body:
            pieces.append(cs if not _needs_parens(cs) else "(%s)" % cs)
        else:
            pieces.append(_scaled(cs, body, latex))
    return _join_signed(pieces)


def matrix_op_str(op, var_names=None) -> str:
    rows = []
    for row in op.entries:
        rows.append("[" + ", ".join(scalar_op_str(e, var_names) for e in row) + "]")
    return "[" + ",\n ".join(rows) + "]"


def matrix_op_latex(op, var_names=None) -> str:
    var_names = var_names or _vars_default(op.nvars, latex=True)
    lines = []
    for row in op.entries:
        lines.append(" & ".join(scalar_op_str(e, var_names, latex=True) for e in row))
    body = " \\\\\n".join(lines)
    return "\\begin{pmatrix}\n%s\n\\end{pmatrix}" % body


def poly_str(p, var_names=None, latex=False) -> str:
    if not p.terms:
        return "0"
    var_names = var_names or _vars_default(p.nvars, latex)
    zero_d = (0,) * p.nvars
    pieces = []
    for mono in sorted(p.terms):
        body = _term_str(mono, zero_d, var_names, latex)
        cs = coeff_str(p.terms[mono], latex)
        pieces.append(_scaled(cs, body, latex) if body else cs)
    return _join_signed(pieces)


def spinor_str(v, var_names=None) -> str:
    return "(" + ", ".join(poly_str(c, var_names) for c in v.components) + ")^T"
