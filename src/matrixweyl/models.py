"""Three-body Calogero and Sutherland operators and their matrix extensions.

Each model exists in three forms:

  differential   scalar operator in the symmetric-invariant coordinates,
                 which the engine identifies as x1, x2;
  liealgebraic   the same combination written in the gl_3 generators, here
                 instantiated with the generators of any [k, d-1] block;
  matrix         the reference d x d matrix display with the block entries
                 written out term by term.

The lie-algebraic substitution is the normative object: consistency_check
diffs the matrix display against it and records the exact residual instead
of asserting zero, because the display is a cross-check target, not ground
truth.  Spectra are computed on the discovered invariant flags with the
basis ordered so the operator is block triangular: the Calogero grading
2 w1 + 3 w2 makes its blocks diagonal (exact eigenvalues read off), the
Sutherland grading w1 + w2 leaves blocks that are resolved per block by
exact characteristic polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .coeff import ALPHA, NU, OMEGA, Coeff, as_coeff, qp_float
from .generators import RepSpec, build_gl_np1
from .identities import IdentityReport, _report
from .linalg import charpoly, numeric_roots, rational_roots
from .matrixreps import gl2_irrep
from .spaces import (
    SpinorBasis,
    matrix_of,
    orbit_closure,
    scalar_basis,
    weight_grade,
)
from .weyl import MatrixDiffOp, PolySpinor, ScalarDiffOp

_F = Fraction


@dataclass(frozen=True)
class ModelOperator:
    kind: str  # calogero | sutherland
    form: str  # differential | liealgebraic | matrix
    k: Coeff
    d: int
    op: MatrixDiffOp


def _x_d_ops(dim: int):
    x1 = MatrixDiffOp.from_scalar(ScalarDiffOp.x(0, 2), dim)
    x2 = MatrixDiffOp.from_scalar(ScalarDiffOp.x(1, 2), dim)
    d1 = MatrixDiffOp.from_scalar(ScalarDiffOp.d(0, 2), dim)
    d2 = MatrixDiffOp.from_scalar(ScalarDiffOp.d(1, 2), dim)
    return x1, x2, d1, d2


def _blocks(d: int):
    rep = gl2_irrep(d)
    return {
        (i, j): MatrixDiffOp.from_coeff_matrix(rep.block(i, j), 2)
        for i in range(1, 3)
        for j in range(1, 3)
    }


def calogero(form: str, k, d: int = 1) -> ModelOperator:
    """The rational model: differential, lie-algebraic or matrix form."""
    k = as_coeff(k)
    w = OMEGA
    nu = NU
    if form == "differential":
        x1, x2, d1, d2 = _x_d_ops(1)
        op = (
            x1 * d1 * d1 * (-2)
            - x2 * d1 * d2 * 6
            + x1 * x1 * d2 * d2 * _F(2, 3)
            - (x1 * w * 4 + (nu * 3 + 1) * 2) * d1
            - x2 * d2 * (w * 6)
        )
        return ModelOperator("calogero", form, k, 1, op)
    if form == "liealgebraic":
        g = build_gl_np1(RepSpec.gl3(k, d))
        op = (
            g.E[(1, 1)] * g.Tminus[1] * (-2)
            - g.E[(2, 2)] * g.Tminus[1] * 6
            + g.E[(1, 2)] * g.E[(1, 2)] * _F(2, 3)
            - g.E[(1, 1)] * (w * 4)
            - g.Tminus[1] * ((nu * 3 + 1) * 2)
            - g.E[(2, 2)] * (w * 6)
        )
        return ModelOperator("calogero", form, k, d, op)
    if form == "matrix":
        x1, x2, d1, d2 = _x_d_ops(d)
        M = _blocks(d)
        ident = MatrixDiffOp.identity(d, 2)
        n = d - 1
        op = (
            x1 * d1 * d1 * (-2)
            - x2 * d1 * d2 * 6
            + x1 * x1 * d2 * d2 * _F(2, 3)
            - (x1 * (w * 2) + ident * (nu * 3 + 1) + ident * n - M[(2, 2)] * 2) * d1 * 2
            - (x2 * (w * 6) - M[(1, 2)] * x1 * _F(4, 3)) * d2
            + M[(1, 2)] * M[(1, 2)] * _F(2, 3)
            - ident * (w * (4 * n))
            - M[(2, 2)] * (w * 2)
        )
        return ModelOperator("calogero", form, k, d, op)
    raise ValueError("unknown form %r" % form)


def sutherland(form: str, k, d: int = 1) -> ModelOperator:
    """The trigonometric model: differential, lie-algebraic or matrix form."""
    k = as_coeff(k)
    nu = NU
    a2 = ALPHA * ALPHA
    a4 = a2 * a2
    if form == "differential":
        x1, x2, d1, d2 = _x_d_ops(1)
        op = (
            -(x1 * 2 + x1 * x1 * a2 * _F(1, 2) - x2 * x2 * a4 * _F(1, 24)) * d1 * d1
            - (MatrixDiffOp.identity(1, 2) * 6 + x1 * a2 * _F(4, 3)) * x2 * d1 * d2
            + (x1 * x1 * _F(2, 3) - x2 * x2 * a2 * _F(1, 2)) * d2 * d2
            - ((nu * 3 + 1) * 2 + x1 * a2 * (nu + _F(1, 3)) * 2) * d1
            - x2 * d2 * (a2 * (nu + _F(1, 3)) * 2)
        )
        return ModelOperator("sutherland", form, k, 1, op)
    if form == "liealgebraic":
        g = build_gl_np1(RepSpec.gl3(k, d))
        E11, E22, E12, E21, T1 = (
            g.E[(1, 1)],
            g.E[(2, 2)],
            g.E[(1, 2)],
            g.E[(2, 1)],
            g.Tminus[1],
        )
        op = (
            E11 * T1 * (-2)
            - E22 * T1 * 6
            + E12 * E12 * _F(2, 3)
            - T1 * ((nu * 3 + 1) * 2)
            + E21 * E21 * a4 * _F(1, 24)
            - (
                E11 * E11 * 3
                + E11 * E22 * 8
                + E22 * E22 * 3
                + (E11 + E22) * (nu * 12 + 1)
            )
            * a2
            * _F(1, 6)
        )
        return ModelOperator("sutherland", form, k, d, op)
    if form == "matrix":
        x1, x2, d1, d2 = _x_d_ops(d)
        M = _blocks(d)
        ident = MatrixDiffOp.identity(d, 2)
        n = d - 1
        op = (
            -(x1 * 2 + x1 * x1 * a2 * _F(1, 2) - x2 * x2 * a4 * _F(1, 24)) * d1 * d1
            - (ident * 6 + x1 * a2 * _F(4, 3)) * x2 * d1 * d2
            + (x1 * x1 * _F(2, 3) - x2 * x2 * a2 * _F(1, 2)) * d2 * d2
            - (
                ident * (nu * 3 + 1)
                + x1 * a2 * (nu + _F(1, 3))
                + ident * n
                - M[(2, 2)] * 2
            )
            * d1
            * 2
            + M[(2, 1)] * x2 * d1 * a4 * _F(1, 24)
            + (x2 * (a2 * (nu + _F(1, 3)) * 2) - M[(1, 2)] * x1 * _F(4, 3)) * d2
            - (
                (x1 * d1 + x2 * d2) * (3 * n)
                + M[(1, 1)] * x2 * d2
                + M[(2, 2)] * x1 * d1
            )
            * a2
            * _F(1, 3)
            + M[(1, 2)] * M[(1, 2)] * _F(2, 3)
            + M[(2, 1)] * M[(2, 1)] * a4 * _F(1, 24)
            - (M[(1, 1)] * M[(2, 2)] * 2 + ident * ((nu * 12 + 1 + 3 * n) * n))
            * a2
            * _F(1, 6)
        )
        return ModelOperator("sutherland", form, k, d, op)
    raise ValueError("unknown form %r" % form)


MODELS = {"calogero": calogero, "sutherland": sutherland}


def scalar_form_check(kind: str, k) -> IdentityReport:
    """The lie-algebraic combination at [k, 0] against the differential form."""
    build = MODELS[kind]
    lie = build("liealgebraic", k, 1)
    diff = build("differential", k, 1)
    return _report("%s lie[k,0] = differential" % kind, lie.op, diff.op)


def consistency_check(kind: str, k, d: int) -> IdentityReport:
    """Reference matrix display minus the lie-algebraic substitution."""
    build = MODELS[kind]
    lie = build("liealgebraic", k, d)
    mat = build("matrix", k, d)
    return _report("%s matrix display vs lie [d=%d]" % (kind, d), mat.op, lie.op)


# -- spectra ---------------------------------------------------------------------


@dataclass
class EigRecord:
    exact: bool
    pair: Optional[Tuple[Fraction, Fraction]]  # a + b sqrt2 when exact
    approx_re: float
    approx_im: float = 0.0
    err: Optional[float] = None

    def sort_key(self):
        return (self.approx_re, self.approx_im)

    def to_json(self) -> dict:
        if self.exact:
            a, b = self.pair
            return {"exact": True, "a": str(a), "b": str(b)}
        return {
            "exact": False,
            "re": "%.12e" % self.approx_re,
            "im": "%.12e" % self.approx_im,
            "err": "%.3e" % (self.err if self.err is not None else 0.0),
        }


@dataclass
class SpectrumResult:
    kind: str
    form: str
    k: int
    d: int
    bindings: Dict[str, Fraction]
    basis_dim: int
    block_sizes: List[int]
    diagonal: bool
    eigenvalues: List[EigRecord]
    charpolys: List[List[str]] = field(default_factory=list)

    def all_exact(self) -> bool:
        return all(e.exact for e in self.eigenvalues)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "form": self.form,
            "k": self.k,
            "d": self.d,
            "bindings": {k: str(v) for k, v in sorted(self.bindings.items())},
            "dim": self.basis_dim,
            "block_sizes": self.block_sizes,
            "diagonal": self.diagonal,
            "eigenvalues": [e.to_json() for e in self.eigenvalues],
            "charpolys": self.charpolys,
        }


class NotTriangularError(RuntimeError):
    pass


def flag_basis(kind: str, k: int, d: int) -> SpinorBasis:
    """The invariant flag: the polynomial triangle for d = 1, the orbit
    closure of the lowest vector for the matrix extensions."""
    if d == 1:
        weights = (2, 3) if kind == "calogero" else (1, 1)
        return scalar_basis(k, 1, weights=weights, label="[%d,0]" % k)
    if k < d - 1:
        # the two-row label [k, d-1] needs k >= d-1; below that the orbit
        # of the lowest vector never closes
        raise ValueError("no finite flag for k=%d with d=%d (needs k >= %d)" % (k, d, d - 1))
    rep = gl2_irrep(d)
    gens = build_gl_np1(RepSpec.gl3(Coeff.rational(k), d))
    seed = PolySpinor.unit(d - 1, d, 2)
    weights = (2, 3) if kind == "calogero" else (1, 1)
    return orbit_closure(
        gens.all_ops(),
        [seed],
        degree_cap=k + 2,
        grade_fn=weight_grade(rep, weights),
        label="[%d,%d]" % (k, d - 1),
    )


def _int_k(c: Coeff) -> int:
    try:
        pair = c.constant_pair()
    except Exception as exc:
        raise ValueError("spectrum needs a non-negative integer k") from exc
    if pair[1] or pair[0].denominator != 1 or pair[0] < 0:
        raise ValueError("spectrum needs a non-negative integer k")
    return int(pair[0])


def spectrum(model: ModelOperator, bindings: Dict[str, object]) -> SpectrumResult:
    """Exact spectrum of the model on its invariant flag.

    The flag is rediscovered from the generators, the operator matrix is
    assembled exactly, the basis order (by grade) must make the matrix block
    upper triangular, and eigenvalues come from the diagonal when the blocks
    are diagonal and from per-block characteristic polynomials otherwise.
    """
    k = _int_k(model.k)
    bind = {name: Fraction(v) for name, v in bindings.items()}
    required = "omega" if model.kind == "calogero" else "alpha"
    if required not in bind:
        raise ValueError("binding for %s is required" % required)

    basis = flag_basis(model.kind, k, model.d)
    opm = matrix_of(model.op, basis).substitute(bind)

    grades = list(basis.grades)
    n = basis.dim
    # consecutive blocks of equal grade
    blocks = []
    start = 0
    for i in range(1, n + 1):
        if i == n or grades[i] != grades[start]:
            blocks.append((start, i))
            start = i
    # grade never increases under the operator: entries below the block
    # diagonal must vanish
    for bi, (s, e) in enumerate(blocks):
        for i in range(e, n):
            for j in range(s, e):
                if not opm.entries[i][j].is_zero():
                    raise NotTriangularError(
                        "entry (%d,%d) breaks block triangularity" % (i, j)
                    )

    diagonal = True
    for s, e in blocks:
        for i in range(s, e):
            for j in range(s, e):
                if i != j and not opm.entries[i][j].is_zero():
                    diagonal = False
    eigs: List[EigRecord] = []
    charpolys: List[List[str]] = []
    if diagonal:
        for i in range(n):
            pair = opm.entries[i][i].constant_pair()
            eigs.append(EigRecord(True, pair, qp_float(pair)))
    else:
        for s, e in blocks:
            block = [
                [opm.entries[i][j] for j in range(s, e)] for i in range(s, e)
            ]
            poly = charpoly(block)
            charpolys.append([repr(c) for c in poly])
            roots, deflated = rational_roots(poly)
            for r in roots:
                eigs.append(EigRecord(True, (r, _F(0)), float(r)))
            if len(deflated) > 1:
                numeric, err = numeric_roots(deflated)
                for z in numeric:
                    eigs.append(
                        EigRecord(False, None, z.real, z.imag, err)
                    )
    eigs.sort(key=EigRecord.sort_key)
    return SpectrumResult(
        kind=model.kind,
        form=model.form,
        k=k,
        d=model.d,
        bindings=bind,
        basis_dim=n,
        block_sizes=[e - s for s, e in blocks],
        diagonal=diagonal,
        eigenvalues=eigs,
        charpolys=charpolys,
    )


def calogero_pattern(k: int, omega: Fraction) -> List[Tuple[Fraction, Fraction]]:
    """The scalar eigenvalue multiset -2 omega (2 p1 + 3 p2), p1 + p2 <= k."""
    out = []
    for p1 in range(k + 1):
        for p2 in range(k + 1 - p1):
            out.append((Fraction(-2) * omega * (2 * p1 + 3 * p2), _F(0)))
    return sorted(out)


def pattern_verdict(result: SpectrumResult, omega: Fraction) -> dict:
    """How the computed multiset relates to the scalar eigenvalue pattern."""
    scalar = calogero_pattern(result.k, omega)
    computed = sorted(e.pair for e in result.eigenvalues if e.exact)
    multiset_equal = result.all_exact() and computed == scalar
    subset = True
    step = Fraction(-2) * omega
    for pair in computed:
        if pair[1] != 0:
            subset = False
            break
        q = pair[0] / step if step else None
        if q is None or q.denominator != 1 or q < 0 or q == 1:
            subset = False
            break
    if not result.all_exact():
        subset = False
    return {
        "multiset_equal_to_scalar": multiset_equal,
        "subset_of_pattern": subset,
    }
