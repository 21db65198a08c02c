"""Finite-dimensional invariant spinor spaces and operator matrices.

Spaces are discovered, not transcribed: orbit_closure grows the smallest
space containing the seeds and closed under every given generator, adding
raw generated vectors so each basis vector stays a weight vector.  Known
closed-form basis lists for these families then become assertions on the
discovered spaces (tests), which guards against transcription slips on both
sides.

matrix_of converts an operator to its exact matrix on a basis, failing
loudly with the offending vector and residual when the span is not
invariant.  hexagon_audit checks the structural facts of the [k,1] family:
dimension k(k+2), layer sizes, weight multiplicities (double inside the
hull, single on its boundary) and the specific top-layer span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

from .coeff import Coeff
from .linalg import Indexer, QPEchelon, coeff_matrix_solve, scalarize, span_contains
from .matrixreps import MatrixRep
from .weyl import MatrixDiffOp, Polynomial, PolySpinor


class SpaceNotClosedError(RuntimeError):
    """Orbit closure exceeded its degree cap: not invariant under the cap."""

    def __init__(self, cap, vector):
        super().__init__(
            "space is not invariant under degree cap %d (grew to degree %s)"
            % (cap, vector.total_degree())
        )
        self.cap = cap
        self.vector = vector


class NotInvariantError(RuntimeError):
    """An operator image left the span of the basis."""

    def __init__(self, index, residual):
        super().__init__(
            "operator image of basis vector %d is outside the span" % index
        )
        self.index = index
        self.residual = residual


@dataclass
class SpinorBasis:
    """Ordered, linearly independent spinors with per-vector grades."""

    vectors: tuple
    grades: tuple
    label: str = ""

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def coords_list(self):
        return [v.coords() for v in self.vectors]


def degree_grade(v: PolySpinor) -> int:
    d = v.total_degree()
    return 0 if d is None else d


def weight_of(v: PolySpinor, rep: MatrixRep):
    """(w1, w2) with E_11 v = w1 v, E_22 v = w2 v; None if not homogeneous.

    On a monomial x^p sitting in component j the weight is
    (p1 + M11[j][j], p2 + M22[j][j]).
    """
    d1 = rep.diag(1)
    d2 = rep.diag(2)
    w = None
    for (j, mono), _c in v.coords().items():
        cand = (mono[0] + d1[j], mono[1] + d2[j])
        if w is None:
            w = cand
        elif cand != w:
            return None
    return w


def weight_grade(rep: MatrixRep, weights=(2, 3)) -> Callable[[PolySpinor], int]:
    """Grade 2*w1 + 3*w2 (by default) from the representation weight."""

    def grade(v: PolySpinor):
        w = weight_of(v, rep)
        if w is None:
            raise ValueError("spinor is not a weight vector: %r" % (v,))
        g = weights[0] * w[0] + weights[1] * w[1]
        if g.denominator != 1:
            raise ValueError("non-integer weight grade")
        return int(g)

    return grade


def scalar_basis(k: int, m: int, weights=(1, 1), label: str = "") -> SpinorBasis:
    """Monomials x^p1 y^p2 with p1 + m*p2 <= k, as one-component spinors."""
    if k < 0:
        raise ValueError("k must be a non-negative integer")
    if m < 1:
        raise ValueError("m must be positive")
    items = []
    for p2 in range(k // m + 1):
        for p1 in range(k - m * p2 + 1):
            g = weights[0] * p1 + weights[1] * p2
            items.append((g, p2, p1))
    items.sort()
    vecs = []
    grades = []
    for g, p2, p1 in items:
        vecs.append(PolySpinor([Polynomial.monomial((p1, p2), 1, 2)], 2))
        grades.append(g)
    return SpinorBasis(tuple(vecs), tuple(grades), label or "P(%d,%d)" % (k, m))


def orbit_closure(
    ops,
    seeds: Sequence[PolySpinor],
    degree_cap: int,
    grade_fn: Callable[[PolySpinor], int] = degree_grade,
    label: str = "",
) -> SpinorBasis:
    """Smallest space containing the seeds and closed under every operator.

    ops may be a sequence of MatrixDiffOp or anything with all_ops()
    (a generator set).
    """
    if hasattr(ops, "all_ops"):
        ops = ops.all_ops()
    if not seeds or all(s.is_zero() for s in seeds):
        raise ValueError("need at least one nonzero seed")
    ix = Indexer()
    ech = QPEchelon()
    basis: List[PolySpinor] = []
    queue: List[PolySpinor] = []
    for s in seeds:
        if s.is_zero():
            continue
        if ech.insert(scalarize(s.coords(), ix)) is not None:
            basis.append(s)
            queue.append(s)
    while queue:
        v = queue.pop(0)
        for op in ops:
            w = op.apply(v)
            if w.is_zero():
                continue
            deg = w.total_degree()
            if deg is not None and deg > degree_cap:
                raise SpaceNotClosedError(degree_cap, w)
            if ech.insert(scalarize(w.coords(), ix)) is not None:
                basis.append(w)
                queue.append(w)
    order = sorted(range(len(basis)), key=lambda i: (grade_fn(basis[i]), i))
    vecs = tuple(basis[i] for i in order)
    grades = tuple(grade_fn(v) for v in vecs)
    return SpinorBasis(vecs, grades, label)


@dataclass
class OperatorMatrix:
    """Exact matrix of an operator restricted to a SpinorBasis."""

    dim: int
    entries: tuple  # N x N of Coeff, entries[i][j]: coefficient of b_i in A b_j
    basis_label: str = ""

    def substitute(self, bindings) -> "OperatorMatrix":
        return OperatorMatrix(
            self.dim,
            tuple(
                tuple(c.substitute(bindings) for c in row) for row in self.entries
            ),
            self.basis_label,
        )

    def rows(self):
        return [list(row) for row in self.entries]


def matrix_of(op: MatrixDiffOp, basis: SpinorBasis) -> OperatorMatrix:
    """Column j holds the exact coordinates of op applied to basis vector j."""
    images = [op.apply(v).coords() for v in basis.vectors]
    n = basis.dim
    out = [[Coeff.zero()] * n for _ in range(n)]
    solved = coeff_matrix_solve(basis.coords_list(), images)
    for j, (coords, residual) in enumerate(solved):
        if residual:
            raise NotInvariantError(j, basis.vectors[j].with_coords(residual))
        for i, c in enumerate(coords):
            out[i][j] = c
    return OperatorMatrix(n, tuple(tuple(row) for row in out), basis.label)


def basis_contains(basis: SpinorBasis, vectors: Sequence[PolySpinor]) -> bool:
    return span_contains(basis.coords_list(), [v.coords() for v in vectors])


# -- Newton-hexagon structure ---------------------------------------------------


def _convex_hull(points):
    """Monotone-chain hull; returns vertices counterclockwise."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _on_hull_boundary(p, hull):
    if len(hull) == 1:
        return p == hull[0]
    m = len(hull)
    for i in range(m):
        a = hull[i]
        b = hull[(i + 1) % m] if m > 2 else hull[1]
        cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if cross == 0 and min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(
            a[1], b[1]
        ) <= p[1] <= max(a[1], b[1]):
            return True
    return False


@dataclass
class HexagonReport:
    k: int
    dim_expected: int
    dim_found: int
    layer_sizes: tuple
    layer_sizes_expected: tuple
    boundary_points: int
    interior_points: int
    census_ok: bool
    lower_span_full: bool
    top_layer_ok: bool
    issues: tuple

    @property
    def passed(self) -> bool:
        return not self.issues


def top_layer_spinors(k: int) -> List[PolySpinor]:
    """The k homogeneous degree-k spinors closing the [k,1] space."""
    out = []
    for i in range(k):
        top = Polynomial.monomial((i, k - i), 1, 2)
        bot = Polynomial.monomial((i + 1, k - i - 1), -1, 2)
        out.append(PolySpinor([top, bot], 2))
    return out


def hexagon_audit(basis: SpinorBasis, k: int, rep: MatrixRep) -> HexagonReport:
    """Structure audit of a [k,1] space discovered by orbit closure."""
    issues = []
    dim_expected = k * (k + 2)
    if basis.dim != dim_expected:
        issues.append("dimension %d, expected %d" % (basis.dim, dim_expected))

    degs = [degree_grade(v) for v in basis.vectors]
    layer_sizes = tuple(degs.count(t) for t in range(max(degs) + 1)) if degs else ()
    expected_layers = tuple(2 * (t + 1) for t in range(k)) + (k,)
    if layer_sizes != expected_layers:
        issues.append("layers %s, expected %s" % (layer_sizes, expected_layers))

    weights = []
    for v in basis.vectors:
        w = weight_of(v, rep)
        if w is None:
            issues.append("non-weight basis vector found")
            break
        weights.append((int(w[0]), int(w[1])))
    census_ok = False
    boundary = interior = 0
    if len(weights) == len(basis.vectors):
        mult = {}
        for w in weights:
            mult[w] = mult.get(w, 0) + 1
        hull = _convex_hull(list(mult))
        census_ok = True
        for w, m in mult.items():
            on_edge = _on_hull_boundary(w, hull)
            if on_edge:
                boundary += 1
                if m != 1:
                    census_ok = False
                    issues.append("boundary point %s has multiplicity %d" % (w, m))
            else:
                interior += 1
                if m != 2:
                    census_ok = False
                    issues.append("interior point %s has multiplicity %d" % (w, m))

    # all spinors of component degree <= k-1 live in the space
    low_monos = [
        (i, (p1, p2))
        for i in range(2)
        for p1 in range(k)
        for p2 in range(k - p1)
    ]
    low_vectors = [
        PolySpinor(
            [
                Polynomial.monomial(mono, 1, 2) if i == comp else Polynomial.zero(2)
                for i in range(2)
            ],
            2,
        )
        for comp, mono in low_monos
    ]
    lower_span_full = basis_contains(basis, low_vectors)
    if not lower_span_full:
        issues.append("degree<=k-1 spinors are not all contained")

    top_expected = top_layer_spinors(k)
    top_found = [v for v, dgr in zip(basis.vectors, degs) if dgr == k]
    top_layer_ok = (
        len(top_found) == k
        and span_contains([v.coords() for v in top_found], [v.coords() for v in top_expected])
        and span_contains([v.coords() for v in top_expected], [v.coords() for v in top_found])
    )
    if not top_layer_ok:
        issues.append("top layer does not match the expected k-vector pattern")

    return HexagonReport(
        k=k,
        dim_expected=dim_expected,
        dim_found=basis.dim,
        layer_sizes=layer_sizes,
        layer_sizes_expected=expected_layers,
        boundary_points=boundary,
        interior_points=interior,
        census_ok=census_ok,
        lower_span_full=lower_span_full,
        top_layer_ok=top_layer_ok,
        issues=tuple(issues),
    )
