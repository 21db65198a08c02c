"""Finite-dimensional matrix blocks M_ij of gl_n and their sanity checker.

The engine mixes a vector-field copy of gl_n with a second, matrix-valued
copy M_ij that must satisfy the same canonical commutation relations

    [M_ij, M_kl] = delta_jk M_il - delta_il M_kj.

gl2_irrep builds the d-dimensional irreducible family in the basis where
M11 = diag(d-1, ..., 0) and M22 = diag(0, ..., d-1); the off-diagonal
entries are solved from [M12, M21] = M11 - M22, staying inside Q(sqrt2)
whenever the required square root exists there and splitting the product
asymmetrically otherwise.  check_canonical verifies all sixteen commutators
and reports the first offending pair instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Dict, Sequence, Tuple

from .coeff import Coeff


def _mat_zero(d):
    return [[Coeff.zero() for _ in range(d)] for _ in range(d)]


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_mul(A, B):
    """Square matrix product over any ring: no zero element is needed."""
    d = len(A)
    return [
        [
            sum((A[i][l] * B[l][j] for l in range(1, d)), A[i][0] * B[0][j])
            for j in range(d)
        ]
        for i in range(d)
    ]


def mat_is_zero(A):
    return all(c.is_zero() for row in A for c in row)


@dataclass(frozen=True)
class CanonicalReport:
    passed: bool
    failures: tuple  # ((i,j),(k,l), residual matrix) triples

    def first_failure(self):
        return self.failures[0] if self.failures else None


class MatrixRep:
    """A gl_n-by-matrices block: map (i, j) -> d x d array of Coeff."""

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

    def diag(self, i: int):
        """Diagonal of M_ii as plain Fractions (used for weight gradings)."""
        out = []
        for r, row in enumerate(self.blocks[(i, i)]):
            a, b = row[r].constant_pair()
            if b:
                raise ValueError("diagonal entries are expected rational")
            out.append(a)
        return out

    def replaced(self, i: int, j: int, r: int, c: int, value) -> "MatrixRep":
        """Copy with one entry overwritten; skips validation (for negative tests)."""
        blocks = {key: [list(row) for row in self.blocks[key]] for key in self.blocks}
        blocks[(i, j)][r][c] = value if isinstance(value, Coeff) else Coeff.rational(value)
        return MatrixRep(self.n, self.dim, blocks, validate=False)

    def __eq__(self, other):
        if not isinstance(other, MatrixRep):
            return NotImplemented
        return (self.n, self.dim, self.blocks) == (other.n, other.dim, other.blocks)


def check_canonical(rep: MatrixRep) -> CanonicalReport:
    """Verify [M_ij, M_kl] = delta_jk M_il - delta_il M_kj for all pairs."""
    failures = []
    idx = range(1, rep.n + 1)
    for i in idx:
        for j in idx:
            A = rep.blocks[(i, j)]
            for k in idx:
                for l in idx:
                    B = rep.blocks[(k, l)]
                    lhs = mat_sub(mat_mul(A, B), mat_mul(B, A))
                    rhs = _mat_zero(rep.dim)
                    if j == k:
                        rhs = mat_add(rhs, rep.blocks[(i, l)])
                    if i == l:
                        rhs = mat_sub(rhs, rep.blocks[(k, j)])
                    res = mat_sub(lhs, rhs)
                    if not mat_is_zero(res):
                        failures.append(((i, j), (k, l), res))
    return CanonicalReport(passed=not failures, failures=tuple(failures))


def _square_split(w: int):
    """w = s^2 * t with t squarefree-ish; returns (s, t)."""
    s = 1
    for f in range(isqrt(w), 0, -1):
        if w % (f * f) == 0:
            s = f
            break
    return s, w // (s * s)


def gl2_irrep(d: int) -> MatrixRep:
    """The d-dimensional irreducible gl_2 block in the engine's fixed basis.

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
