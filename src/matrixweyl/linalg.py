"""Exact linear algebra over Q(sqrt2), plus characteristic polynomials.

Vectors coming out of the operator engine have Coeff coordinates.  For rank
and solve work every coordinate is scalarized: the pair (coordinate key,
parameter exponent vector) becomes one axis with a value in Q(sqrt2).  An
identity or membership established this way holds for all parameter values
at once, because the admitted combination coefficients are parameter-free.

Every span question builds one QPEchelon over its spanning vectors and
reduces all of its targets against it; a caller with a nested family of
spans (the g^(m) closure filtration) grows a single echelon instead of
rebuilding one per span.  Combination tracking is switched on only by the
solvers that report coefficients (solve_combination, coeff_matrix_solve).

Characteristic polynomials are computed by the Faddeev-LeVerrier recursion,
which only ever divides by integers and therefore stays exact over the
coefficient ring.  Root extraction first pulls out roots that are rational;
whatever remains is located numerically at high precision with a reported
error radius (mpmath).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Mapping, Sequence

from .coeff import (
    Coeff,
    CoeffError,
    qp_add,
    qp_inv,
    qp_is_zero,
    qp_mul,
    qp_neg,
)
from .matrixreps import mat_mul

_QP1 = (Fraction(1), Fraction(0))


class Indexer:
    """Stable key -> column index assignment, grown on first sight."""

    def __init__(self):
        self.index = {}
        self.keys = []

    def __call__(self, key):
        i = self.index.get(key)
        if i is None:
            i = len(self.keys)
            self.index[key] = i
            self.keys.append(key)
        return i

    def __len__(self):
        return len(self.keys)


def scalarize(vec: Mapping, ix: Indexer):
    """Coeff-coordinate vector -> sparse Q(sqrt2) vector over (key, exps)."""
    out = {}
    for key, c in vec.items():
        for exps, pair in c.terms.items():
            out[ix((key, exps))] = pair
    return out


class QPEchelon:
    """Incremental reduced echelon form over Q(sqrt2) with combo tracking.

    Rows are sparse dicts of column index -> (a, b) pair.  Each stored row is
    normalized to pivot 1 and fully reduced against the others, so reduce()
    is deterministic.  When track=True every stored row also carries its
    expression in terms of the inserted vectors, which turns reduce() into an
    exact solver.
    """

    def __init__(self, track: bool = False):
        self.rows = []  # list of (pivot, row dict, combo dict or None)
        self.track = track
        self.inserted = 0

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Mapping):
        """Return (residual, combo) where vec = residual + sum combo[i] * v_i."""
        cur = dict(vec)
        combo = {} if self.track else None
        for pivot, row, rcombo in self.rows:
            f = cur.get(pivot)
            if f is None or qp_is_zero(f):
                continue
            for col, val in row.items():
                s = qp_add(cur.get(col, (0, 0)), qp_neg(qp_mul(f, val)))
                if qp_is_zero(s):
                    cur.pop(col, None)
                else:
                    cur[col] = s
            if self.track:
                for k, v in rcombo.items():
                    s = qp_add(combo.get(k, (0, 0)), qp_mul(f, v))
                    if qp_is_zero(s):
                        combo.pop(k, None)
                    else:
                        combo[k] = s
        cur = {c: v for c, v in cur.items() if not qp_is_zero(v)}
        return cur, combo

    def insert(self, vec: Mapping):
        """Add vec to the span; returns its pivot column or None if dependent."""
        label = self.inserted
        self.inserted += 1
        res, proj = self.reduce(vec)
        if not res:
            return None
        pivot = min(res)
        inv = qp_inv(res[pivot])
        row = {c: qp_mul(v, inv) for c, v in res.items()}
        combo = None
        if self.track:
            # res = vec - sum proj_k v_k, so the normalized row is
            # inv*vec - sum inv*proj_k v_k in terms of inserted vectors.
            combo = {k: qp_neg(qp_mul(v, inv)) for k, v in proj.items()}
            combo[label] = inv
        # keep stored rows fully reduced
        for i, (p, r, c) in enumerate(self.rows):
            f = r.get(pivot)
            if f is None or qp_is_zero(f):
                continue
            nr = dict(r)
            for col, val in row.items():
                s = qp_add(nr.get(col, (0, 0)), qp_neg(qp_mul(f, val)))
                if qp_is_zero(s):
                    nr.pop(col, None)
                else:
                    nr[col] = s
            nc = c
            if self.track:
                nc = dict(c)
                for k, v in combo.items():
                    s = qp_add(nc.get(k, (0, 0)), qp_neg(qp_mul(f, v)))
                    if qp_is_zero(s):
                        nc.pop(k, None)
                    else:
                        nc[k] = s
            self.rows[i] = (p, nr, nc)
        self.rows.append((pivot, row, combo))
        self.rows.sort(key=lambda t: t[0])
        return pivot


def rank_of(vectors: Sequence[Mapping]) -> int:
    """Rank over Q(sqrt2) of Coeff-coordinate vectors (scalarized)."""
    ix = Indexer()
    ech = QPEchelon()
    for v in vectors:
        ech.insert(scalarize(v, ix))
    return ech.rank


def solve_combination(basis: Sequence[Mapping], target: Mapping):
    """Parameter-free coefficients c with target = sum c_i basis_i, or None."""
    ix = Indexer()
    ech = QPEchelon(track=True)
    for v in basis:
        ech.insert(scalarize(v, ix))
    res, combo = ech.reduce(scalarize(target, ix))
    if res:
        return None
    out = [(Fraction(0), Fraction(0))] * len(basis)
    for k, v in combo.items():
        out[k] = v
    return out


def span_contains(basis: Sequence[Mapping], vectors: Sequence[Mapping]) -> bool:
    ix = Indexer()
    ech = QPEchelon()
    for v in basis:
        ech.insert(scalarize(v, ix))
    for v in vectors:
        res, _ = ech.reduce(scalarize(v, ix))
        if res:
            return False
    return True


# -- constant matrices -------------------------------------------------------


def coeff_matrix_solve(columns: Sequence[Mapping], targets: Sequence[Mapping]):
    """Solve sum_j c_j * columns[j] = target with Coeff coefficients, per target.

    The columns must be parameter-free; a target may carry parameters, in
    which case the solve is done per parameter monomial and the parts are
    recombined.  The tracked echelon of the columns is built once and every
    target is reduced against it.  Returns one (coords, residual) per target,
    where residual is a nonempty sparse map exactly when that target is not
    in the span.
    """
    ix = Indexer()
    ech = QPEchelon(track=True)
    for col in columns:
        flat = {}
        for key, c in col.items():
            pair = c.constant_pair()
            if not qp_is_zero(pair):
                flat[ix(key)] = pair
        ech.insert(flat)

    out = []
    for target in targets:
        groups = {}
        for key, c in target.items():
            for exps, pair in c.terms.items():
                groups.setdefault(exps, {})[key] = pair

        coords = [Coeff.zero() for _ in columns]
        residual = {}
        for exps, vec in sorted(groups.items()):
            flat = {ix(key): pair for key, pair in vec.items()}
            res, combo = ech.reduce(flat)
            if res:
                for col, pair in res.items():
                    key = ix.keys[col]
                    residual[key] = residual.get(key, Coeff.zero()) + Coeff({exps: pair})
            if combo:
                mono = Coeff({exps: _QP1})
                for j, pair in combo.items():
                    coords[j] = coords[j] + Coeff({(0, 0, 0, 0): pair}) * mono
        residual = {k: v for k, v in residual.items() if not v.is_zero()}
        out.append((coords, residual))
    return out


def charpoly(matrix: Sequence[Sequence[Coeff]]):
    """Monic characteristic polynomial of an exact matrix.

    Returns [c_0, c_1, ..., c_{n-1}, 1] with p(t) = sum c_i t^i + t^n,
    computed by Faddeev-LeVerrier (divisions by integers only).
    """
    n = len(matrix)

    def mat_add_scalar(A, s):
        return [
            [A[i][j] + (s if i == j else Coeff.zero()) for j in range(n)]
            for i in range(n)
        ]

    def trace(A):
        return sum((A[i][i] for i in range(n)), Coeff.zero())

    coeffs = [Coeff.zero()] * n + [Coeff.one()]
    M = None
    c = None
    for m in range(1, n + 1):
        if m == 1:
            M = [list(row) for row in matrix]
        else:
            M = mat_mul(matrix, mat_add_scalar(M, c))
        c = trace(M) * Fraction(-1, m)
        coeffs[n - m] = c
    return coeffs


# -- polynomial roots ---------------------------------------------------------


def _divisors(n: int):
    n = abs(n)
    out = set()
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.add(d)
            out.add(n // d)
    return sorted(out)


def _deflate(coeffs, root):
    """Divide sum c_i t^i by (t - root); coeffs are Coeff, root a Coeff."""
    n = len(coeffs) - 1
    out = [Coeff.zero()] * n
    carry = coeffs[n]
    for i in range(n - 1, -1, -1):
        out[i] = carry
        carry = coeffs[i] + carry * root
    if not carry.is_zero():
        raise CoeffError("deflation by a non-root")
    return out


def rational_roots(coeffs):
    """All rational roots (with multiplicity) of a Q(sqrt2)[t] polynomial.

    Returns (roots, deflated) where deflated has no rational roots left.
    """
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1].is_zero():
        coeffs.pop()
    roots = []
    # strip t = 0 roots
    while len(coeffs) > 1 and coeffs[0].is_zero():
        roots.append(Fraction(0))
        coeffs = coeffs[1:]
    if len(coeffs) <= 1:
        return roots, coeffs

    def candidates(cs):
        pairs = [c.constant_pair() for c in cs]
        ra = [p[0] for p in pairs]
        rb = [p[1] for p in pairs]
        polys = [poly for poly in (ra, rb) if any(poly)]
        cand = None
        for poly in polys:
            den = 1
            for f in poly:
                den = den * f.denominator // gcd(den, f.denominator)
            ints = [int(f * den) for f in poly]
            while ints and ints[-1] == 0:
                ints.pop()
            lead = ints[-1]
            trail = next(v for v in ints if v != 0)
            cset = set()
            for p in _divisors(trail):
                for q in _divisors(lead):
                    cset.add(Fraction(p, q))
                    cset.add(Fraction(-p, q))
            cand = cset if cand is None else (cand & cset)
        return cand or set()

    progress = True
    while progress and len(coeffs) > 1:
        progress = False
        for r in sorted(candidates(coeffs)):
            rc = Coeff.rational(r)
            val = sum(
                (c * rc**i for i, c in enumerate(coeffs)), Coeff.zero()
            )
            if val.is_zero():
                roots.append(r)
                coeffs = _deflate(coeffs, rc)
                progress = True
                break
    return roots, coeffs


def numeric_roots(coeffs, dps: int = 50):
    """High-precision roots of the residual factor, with an error bound."""
    import mpmath

    with mpmath.workdps(dps):
        s2 = mpmath.sqrt(2)
        cs = []
        for c in coeffs:
            a, b = c.constant_pair()
            cs.append(
                mpmath.mpf(a.numerator) / a.denominator
                + (mpmath.mpf(b.numerator) / b.denominator) * s2
            )
        # mpmath wants highest degree first
        cs = list(reversed(cs))
        roots, err = mpmath.polyroots(cs, maxsteps=200, extraprec=120, error=True)
        return [complex(r) for r in roots], float(err)
