"""Finite-dimensional matrix blocks M_ij of gl_n and their sanity checker.

The engine mixes a vector-field copy of gl_n with a second, matrix-valued
copy M_ij that must satisfy the same canonical commutation relations

    [M_ij, M_kl] = delta_jk M_il - delta_il M_kj.

A MatrixRep builds each block once as a Coeff array and as the constant
MatrixDiffOp (ops) that generators, Casimirs and models add to operators.
gl2_irrep builds the d-dimensional irreducible family in the basis where
M11 = diag(d-1, ..., 0) and M22 = diag(0, ..., d-1); the off-diagonal
entries are solved from [M12, M21] = M11 - M22, staying inside Q(sqrt2)
whenever the required square root exists there and splitting the product
asymmetrically otherwise.  structure_constants states the relations of
gl_n once, one unordered pair of labels at a time; check_canonical checks
the operator blocks against it and reports each offending pair instead of
raising, and identities.commutation_table checks the generators of
gl_{n+1}.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from math import isqrt
from typing import Dict, Sequence, Tuple

from .coeff import Coeff
from .weyl import MatrixDiffOp, commutator


def _mat_zero(d):
    return [[Coeff.zero() for _ in range(d)] for _ in range(d)]


class CanonicalReport:
    def __init__(self, passed: bool, failures: tuple):
        self.passed = passed
        self.failures = failures  # ((i,j),(k,l), residual MatrixDiffOp) triples

    def first_failure(self):
        return self.failures[0] if self.failures else None


class MatrixRep:
    """A gl_n family of d x d matrix blocks, keyed by (i, j) in 1..n.

    blocks[(i, j)] is the array of Coeff and ops[(i, j)] the same block as a
    constant MatrixDiffOp on n variables.
    """

    def __init__(self, n: int, dim: int, blocks: Dict[Tuple[int, int], Sequence], validate: bool = True):
        if dim < 1:
            raise ValueError("matrix dimension must be positive")
        self.n = n
        self.dim = dim
        store = {}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                raw = blocks[(i, j)]
                if len(raw) != dim or any(len(r) != dim for r in raw):
                    raise ValueError("block (%d,%d) is not %dx%d" % (i, j, dim, dim))
                store[(i, j)] = tuple(
                    tuple(c if isinstance(c, Coeff) else Coeff.rational(c) for c in row)
                    for row in raw
                )
        self.blocks = store
        self.ops = {key: MatrixDiffOp.from_coeff_matrix(rows, n) for key, rows in store.items()}
        if validate:
            report = check_canonical(self)
            if not report.passed:
                (ij, kl, _res) = report.first_failure()
                raise ValueError(
                    "matrix blocks violate the canonical relations at "
                    "[M%d%d, M%d%d]" % (ij[0], ij[1], kl[0], kl[1])
                )

    def block(self, i: int, j: int):
        return [list(row) for row in self.blocks[(i, j)]]

    def replaced(self, i: int, j: int, r: int, c: int, value) -> "MatrixRep":
        """Copy with one entry overwritten; skips validation (for negative tests)."""
        blocks = {key: [list(row) for row in self.blocks[key]] for key in self.blocks}
        blocks[(i, j)][r][c] = value if isinstance(value, Coeff) else Coeff.rational(value)
        return MatrixRep(self.n, self.dim, blocks, validate=False)

    def __eq__(self, other):
        if not isinstance(other, MatrixRep):
            return NotImplemented
        return (self.n, self.dim, self.blocks) == (other.n, other.dim, other.blocks)


def structure_constants(e: Dict[Tuple[int, int], MatrixDiffOp]):
    """Yield (p, q, [e_p, e_q], delta_bc e_ad - delta_da e_cb) for each
    pair p = (a, b) <= q = (c, d) of the labels of e, the operators that
    stand for the unit matrices e_ab.  Both sides are antisymmetric in p
    and q, so each unordered pair is checked once."""
    some = next(iter(e.values()))
    zero = MatrixDiffOp.zero(some.dim, some.nvars)
    for p, q in combinations_with_replacement(sorted(e), 2):
        (a, b), (c, d) = p, q
        rhs = e[(a, d)] if b == c else zero
        if a == d:
            rhs = rhs - e[(c, b)]
        yield p, q, commutator(e[p], e[q]), rhs


def check_canonical(rep: MatrixRep) -> CanonicalReport:
    """Verify [M_ij, M_kl] = delta_jk M_il - delta_il M_kj, each unordered
    pair once (structure_constants)."""
    failures = []
    for p, q, lhs, rhs in structure_constants(rep.ops):
        res = lhs - rhs
        if not res.is_zero():
            failures.append((p, q, res))
    return CanonicalReport(passed=not failures, failures=tuple(failures))


def _square_split(w: int):
    """w = s^2 * t with t squarefree-ish; returns (s, t)."""
    s = 1
    for f in range(isqrt(w), 0, -1):
        if w % (f * f) == 0:
            s = f
            break
    return s, w // (s * s)


@lru_cache(maxsize=None)
def gl2_irrep(d: int) -> MatrixRep:
    """The d-dimensional irreducible gl_2 block in the engine's fixed basis.

    Built and validated once per d in a process: no caller mutates a
    MatrixRep (replaced() returns a copy), so every caller can share it.

    M12 sits on the superdiagonal and M21 on the subdiagonal with products
    a_i b_i = (i+1)(d-1-i).  When that product is a square or twice a square
    the entries are chosen equal (giving the sqrt(2) entries at d = 3);
    otherwise the product is split rationally, which still satisfies the
    canonical relations.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    M11 = _mat_zero(d)
    M22 = _mat_zero(d)
    M12 = _mat_zero(d)
    M21 = _mat_zero(d)
    for r in range(d):
        M11[r][r] = Coeff.rational(d - 1 - r)
        M22[r][r] = Coeff.rational(r)
    for i in range(d - 1):
        w = (i + 1) * (d - 1 - i)
        s, t = _square_split(w)
        if t == 1:
            a = b = Coeff.rational(s)
        elif t == 2:
            a = b = Coeff.rational(0, s)
        else:
            a = Coeff.rational(s * t)
            b = Coeff.rational(s)
        M12[i][i + 1] = a
        M21[i + 1][i] = b
    return MatrixRep(
        2, d, {(1, 1): M11, (1, 2): M12, (2, 1): M21, (2, 2): M22}, validate=True
    )
