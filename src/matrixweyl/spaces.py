"""Finite-dimensional invariant spinor spaces and operator matrices.

Spaces are discovered, not transcribed: orbit_closure grows the smallest
space containing a seed and closed under every given generator, adding
raw generated vectors so each basis vector stays a weight vector.  Known
closed-form basis lists for these families then become assertions on the
discovered spaces (tests), which guards against transcription slips on both
sides.

The closure runs on pair maps {(component, x^P): (a, b)} with each
generator compiled once (_rules) into groups of terms that share a row, a
column and a shift, and records the action it computes for the generators
its caller names: for each, the coordinates of its image of each basis
vector, from the elimination that accepted or rejected the image (a
diagonal generator that acts on a vector as one scalar is not applied at
all).  The elimination tracks combinations only when a recorded generator
is off-diagonal.  record_action does the same for named operators on any
basis, by one solve.  A basis holds the pair maps of its vectors and
builds them as PolySpinors only when they are read.  Bases come in
discovery order (scalar_basis: by degree) and are never permuted.

The weights are not computed a second time: the weight of b_j is the tuple
of eigenvalues of the Cartan generators E11, ..., Enn on it, which their
recorded columns hold as multiples of the unit column j (basis_weights).

matrix_of converts an operator to its exact matrix on a basis, failing
loudly with the offending vector and residual when the span is not
invariant; given words (sums of products of named generators) it composes
the recorded generator matrices instead.  The matrix is an OperatorMatrix,
a term map keyed by (row, column) like the operators of weyl.
hexagon_audit checks the structural facts of the [k,1] family: dimension
k(k+2), layer sizes, weight multiplicities (double inside the hull, single
on its boundary) and the specific top-layer span.
"""

from __future__ import annotations

from math import perm, prod
from operator import add, itemgetter
from typing import List, Sequence, Tuple

from .coeff import ZERO, _ZEXP, Coeff, _add_pair, _half, qp_mul
from .linalg import QPEchelon, coeff_matrix_solve, span_contains
from .weyl import MatrixDiffOp, Polynomial, PolySpinor, _add_at, _coeffs, _TermMap


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


class SpinorBasis:
    """Ordered, linearly independent spinors, held as their pair maps.

    raws[j] is the pair map {(component, x^P): (a, b)} of b_j, a spinor of
    shape (components, variables); the PolySpinors are built once, on first
    access to vectors.  action maps a generator name to its recorded
    coordinate columns on this basis: column j is the sparse map {i: (a, b)}
    with op(b_j) = sum of (a + b sqrt2) b_i.  orbit_closure records the ops
    its caller names; record_action adds named ops to any basis.
    """

    def __init__(self, raws, shape: Tuple[int, int], action: dict | None = None):
        self.raws = tuple(raws)
        self.shape = shape
        self.action = {} if action is None else action
        self._vectors = None

    @property
    def vectors(self) -> tuple:
        if self._vectors is None:
            self._vectors = tuple(_spinor(raw, self.shape) for raw in self.raws)
        return self._vectors

    @property
    def dim(self) -> int:
        return len(self.raws)

    def coords_list(self):
        return [v.coords() for v in self.vectors]


def _spinor(raw, shape):
    """The PolySpinor of shape (components, variables) with pair map raw."""
    return PolySpinor._raw({key: Coeff._raw({_ZEXP: p}) for key, p in raw.items()}, *shape)


def scalar_basis(k: int, m: int) -> SpinorBasis:
    """Monomials x^p1 y^p2 with p1 + m*p2 <= k, as one-component spinors,
    ordered by total degree."""
    if k < 0:
        raise ValueError("k must be a non-negative integer")
    if m < 1:
        raise ValueError("m must be positive")
    items = sorted(
        (p1 + p2, p2, p1) for p2 in range(k // m + 1) for p1 in range(k - m * p2 + 1)
    )
    return SpinorBasis(({(0, (p1, p2)): (1, 0)} for _, p2, p1 in items), (1, 2))


def _rules(name, op: MatrixDiffOp):
    """op compiled for _image: one group (i, j, shift, terms, factors) per
    (row, column, shift A - B) of its terms x^A d^B, in the order of each
    group's first term, with terms the (B, pair) of each of them and
    factors the memo of _factor; ValueError naming op if it carries a
    parameter."""
    groups = {}
    for (i, j, (A, B)), c in op.terms.items():
        if not c.is_constant():
            raise ValueError("op %r carries a parameter; it must be parameter-free" % name)
        shift = tuple(a - b for a, b in zip(A, B))
        groups.setdefault((i, j, shift), []).append((B, c.constant_pair()))
    return [(i, j, shift, tuple(terms), {}) for (i, j, shift), terms in groups.items()]


def _factor(group, P):
    """(x^(P + shift) e_i, pair) when group maps x^P e_j to pair times that
    key, pair the sum of c * prod_i P_i! / (P_i - B_i)! over its terms
    (B, c); () when the sum is 0.  Computed once per P and kept in the
    group's memo."""
    i, _, shift, terms, factors = group
    hit = factors.get(P)
    if hit is None:
        a = b = 0
        for B, (ca, cb) in terms:
            f = prod(map(perm, P, B))
            a += ca * f
            b += cb * f
        hit = ((i, tuple(map(add, P, shift))), (_half(a), _half(b))) if a or b else ()
        factors[P] = hit
    return hit


def _diagonal_table(groups):
    """{j: group} when every group is diagonal (j, j, 0), else None.

    Such an op maps x^P e_j to sigma(j, P) x^P e_j, with sigma(j, P) the
    pair of group j's _factor at P (0 for a column with no group).
    """
    if any(i != j or any(shift) for i, j, shift, _, _ in groups):
        return None
    return {group[1]: group for group in groups}


def _eigenvalue(table, keys):
    """sigma (a pair) when the diagonal op of table maps the spinor with term
    keys (j, x^P) to sigma times itself, sigma(j, P) equal on all; else None."""
    sigma = None
    for j, P in keys:
        group = table.get(j)
        hit = () if group is None else _factor(group, P)
        s = hit[1] if hit else (0, 0)
        if sigma is None:
            sigma = s
        elif s != sigma:
            return None
    return sigma


def _image(groups, raw):
    """The op of groups applied to the pair map raw {(j, x^P): pair}: the
    pair map of MatrixDiffOp.apply, with the same canonical pairs, by one
    multiply-add per group and key."""
    components = {}
    for (j, P), v in raw.items():
        components.setdefault(j, []).append((P, v))
    out = {}
    for group in groups:
        factors = group[4]
        for P, v in components.get(group[1], ()):
            hit = factors.get(P)
            if hit is None:
                hit = _factor(group, P)
            if hit:
                _add_pair(out, hit[0], qp_mul(hit[1], v))
    return out


def orbit_closure(
    named_ops: Sequence[Tuple[str, MatrixDiffOp]],
    seed: PolySpinor,
    degree_cap: int,
    recorded=None,
) -> SpinorBasis:
    """Smallest space containing seed and closed under every operator, with
    the action of each operator named in recorded on it.

    named_ops is a sequence of (name, MatrixDiffOp) pairs, such as a
    generator set's named(); recorded names the ops whose columns the
    caller reads (every op when None, ValueError for a name that is no
    op's), each recorded under its name as in record_action.  The ops and
    the seed must be parameter-free (else ValueError: each power of a
    parameter would be a new direction), and the seed nonzero.
    Every image, a pair map (_image), is inserted into an echelon whose
    columns are its keys: an independent image joins the basis and its
    column is a unit column; a dependent one is never kept, and its column
    is the combination that eliminated it.  The echelon tracks those
    combinations only when a recorded op is off-diagonal: a diagonal op
    (_diagonal_table) is not applied to a vector it maps to sigma times
    itself, and its column there is sigma times the unit column.  An
    untracked closure that meets a dependent image of a recorded op (a
    diagonal op on a vector it does not scale) starts again, tracked.  The
    basis comes out in discovery order, seed first.
    """
    if seed.is_zero():
        raise ValueError("need a nonzero seed")
    for _, op in named_ops:  # the ops are applied to raw terms: check shapes here
        op._require_like(seed)
    if not all(c.is_constant() for c in seed.terms.values()):
        raise ValueError("the seed must be parameter-free")
    names = [name for name, _ in named_ops]
    recorded = set(names) if recorded is None else set(recorded)
    unknown = recorded.difference(names)
    if unknown:
        raise ValueError("no op named %s to record" % ", ".join(sorted(unknown)))
    compiled = [_rules(name, op) for name, op in named_ops]
    ops = [(g, _diagonal_table(g), name in recorded) for name, g in zip(names, compiled)]
    shape = (seed.dim, seed.nvars)
    raw = {key: c.constant_pair() for key, c in seed.terms.items()}
    track = any(rec and table is None for _, table, rec in ops)
    closed = _close(ops, raw, shape, degree_cap, track)
    if closed is None:
        closed = _close(ops, raw, shape, degree_cap, True)
    raws, columns = closed
    action = {name: tuple(cols) for name, cols in zip(names, columns) if cols is not None}
    return SpinorBasis(raws, shape, action)


def _close(ops, seed, shape, degree_cap, track):
    """(basis pair maps, per op its columns or None if not recorded) of
    orbit_closure's closure of the pair map seed under ops, a list of
    (groups, diagonal table, recorded); None when the echelon does not
    track and a recorded op's image is dependent."""
    ech = QPEchelon(track=track)
    raws = []  # the pair map of each basis vector
    position = {}  # echelon label -> basis position

    def keep(raw):
        """The basis position of raw after inserting it, or None if dependent."""
        tag = ech.inserted
        if ech.insert(raw) is None:
            return None
        position[tag] = len(raws)
        raws.append(raw)
        return position[tag]

    keep(seed)
    # per recorded op, one column per basis vector
    columns = [[] if rec else None for _, _, rec in ops]
    i = 0
    while i < len(raws):
        raw = raws[i]
        for (groups, table, rec), cols in zip(ops, columns):
            sigma = None if table is None else _eigenvalue(table, raw)
            if sigma is not None:
                if rec:
                    cols.append({i: sigma} if sigma[0] or sigma[1] else {})
                continue
            w = _image(groups, raw)
            if not w:
                if rec:
                    cols.append({})
                continue
            if max(map(sum, map(itemgetter(1), w))) > degree_cap:
                raise SpaceNotClosedError(degree_cap, _spinor(w, shape))
            at = keep(w)
            if not rec:
                continue
            if at is not None:
                cols.append({at: (1, 0)})
            elif track:
                cols.append({position[t]: p for t, p in ech.combination.items()})
            else:
                return None
        i += 1
    return raws, columns


def basis_weights(basis: SpinorBasis):
    """The weight (w_1, ..., w_n) of each basis vector, read off its recorded
    columns of the Cartan generators E11, ..., Enn (n variables): b_j is a
    weight vector exactly when each column is a multiple of the unit column
    j, E_ii b_j = w_i b_j.  None for a vector with a column that is not
    diagonal or a weight that is not rational.
    """
    n = basis.shape[1]
    cartan = [basis.action["E%d%d" % (i, i)] for i in range(1, n + 1)]
    out = []
    for j, cols in enumerate(zip(*cartan)):
        pairs = [col.get(j, (0, 0)) for col in cols]
        diagonal = all(col.keys() <= {j} for col in cols)
        rational = not any(b for _, b in pairs)
        out.append(tuple(a for a, _ in pairs) if diagonal and rational else None)
    return out


class OperatorMatrix(_TermMap):
    """Exact matrix of an operator restricted to a SpinorBasis.

    Keyed by (i, j), the coefficient of b_i in A b_j, with no zero stored;
    `entries` is the dim x dim grid view.
    """

    __slots__ = ()

    def __init__(self, dim: int, terms=None):
        self.dim = dim
        self.nvars = 0
        self.terms = {key: c for key, c in (terms or {}).items() if not c.is_zero()}

    @property
    def entries(self):
        """The dim x dim grid of Coeff entries, built on each access."""
        grid = [[ZERO] * self.dim for _ in range(self.dim)]
        for (i, j), c in self.terms.items():
            grid[i][j] = c
        return tuple(map(tuple, grid))

    def rows(self):
        return [list(row) for row in self.entries]

    def __repr__(self):
        return "OperatorMatrix(dim=%r, entries=%r)" % (self.dim, self.entries)


def _solve_images(ops, basis: SpinorBasis):
    """The sparse coordinate maps {i: Coeff} of each op's image of each basis
    vector, by one solve: one list of basis.dim maps per op.  Raises
    NotInvariantError for the first image outside the span.
    """
    n = basis.dim
    images = [op.apply(v).coords() for op in ops for v in basis.vectors]
    solved = coeff_matrix_solve(basis.coords_list(), images)
    for t, (_, residual) in enumerate(solved):
        if residual:
            j = t % n
            raise NotInvariantError(j, basis.vectors[j].with_coords(residual))
    return [[coords for coords, _ in solved[g * n : (g + 1) * n]] for g in range(len(ops))]


def record_action(named_ops, basis: SpinorBasis) -> SpinorBasis:
    """basis with the columns of each (name, op) added to its action.

    A diagonal op (_diagonal_table) that maps every basis vector to a
    multiple of itself is read off, as in orbit_closure.  The images of the
    other ops, if any, are solved for together, against one echelon of the
    basis.  Every op must be parameter-free (ValueError naming it otherwise).
    """
    action = dict(basis.action)
    solve = []
    for name, op in named_ops:
        table = _diagonal_table(_rules(name, op))
        sigmas = [None] if table is None else [_eigenvalue(table, raw) for raw in basis.raws]
        if None in sigmas:
            solve.append((name, op))
        else:
            action[name] = tuple({j: s} if s[0] or s[1] else {} for j, s in enumerate(sigmas))
    if solve:
        for (name, _), cols in zip(solve, _solve_images([op for _, op in solve], basis)):
            action[name] = tuple(
                {i: c.constant_pair() for i, c in coords.items()} for coords in cols
            )
    return SpinorBasis(basis.raws, basis.shape, action)


def _word_column(word, j, action):
    """The sparse column j of the product of the generator matrices in word
    (the last name acts first), as {i: pair}."""
    vec = action[word[-1]][j]
    for name in reversed(word[:-1]):
        cols = action[name]
        out = {}
        for r, p in vec.items():
            for i, q in cols[r].items():
                _add_pair(out, i, qp_mul(p, q))
        vec = out
    return vec


def matrix_of(op, basis: SpinorBasis) -> OperatorMatrix:
    """Column j holds the exact coordinates of op applied to basis vector j.

    op is a MatrixDiffOp, applied to every basis vector and solved for, or
    words: a sequence of (Coeff c, tuple of generator names), standing for
    sum c * (product of the generators).  Words are composed from the
    columns recorded in basis.action, which must hold every name they use
    (ValueError naming the first missing one): the matrix of a product on an
    invariant space is the product of the matrices.  A word whose
    coefficient is 0 is skipped.
    """
    n = basis.dim
    if isinstance(op, MatrixDiffOp):
        (cols,) = _solve_images([op], basis)
        return OperatorMatrix._raw(
            {(i, j): c for j, col in enumerate(cols) for i, c in col.items()}, n, 0
        )
    missing = sorted({name for _, word in op for name in word} - basis.action.keys())
    if missing:
        raise ValueError("the basis records no column of generator %s" % missing[0])
    acc = {}  # (i, j) -> {exps: pair}
    for c, word in op:
        if c.is_zero():
            continue
        for j in range(n):
            for i, p in _word_column(word, j, basis.action).items():
                _add_at(acc, (i, j), c.terms, {_ZEXP: p}, 1)
    return OperatorMatrix._raw(_coeffs(acc), n, 0)


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


class HexagonReport:
    def __init__(self, dim_found, layer_sizes, boundary_points, interior_points, issues):
        self.dim_found = dim_found
        self.layer_sizes = layer_sizes
        self.boundary_points = boundary_points
        self.interior_points = interior_points
        self.issues = issues

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


def hexagon_audit(basis: SpinorBasis, k: int) -> HexagonReport:
    """Structure audit of a [k,1] space discovered by orbit closure, with
    the weights read off its recorded E11 and E22 columns."""
    issues = []
    dim_expected = k * (k + 2)
    if basis.dim != dim_expected:
        issues.append("dimension %d, expected %d" % (basis.dim, dim_expected))

    degs = [v.total_degree() for v in basis.vectors]
    layer_sizes = tuple(degs.count(t) for t in range(max(degs) + 1)) if degs else ()
    expected_layers = tuple(2 * (t + 1) for t in range(k)) + (k,)
    if layer_sizes != expected_layers:
        issues.append("layers %s, expected %s" % (layer_sizes, expected_layers))

    weights = basis_weights(basis)
    boundary = interior = 0
    if None in weights:
        issues.append("non-weight basis vector found")
    else:
        mult = {}
        for w in weights:
            mult[w] = mult.get(w, 0) + 1
        hull = _convex_hull(list(mult))
        for w, m in mult.items():
            if _on_hull_boundary(w, hull):
                boundary += 1
                if m != 1:
                    issues.append("boundary point %s has multiplicity %d" % (w, m))
            else:
                interior += 1
                if m != 2:
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
    if not basis_contains(basis, low_vectors):
        issues.append("degree<=k-1 spinors are not all contained")

    top_expected = top_layer_spinors(k)
    top_found = [v for v, dgr in zip(basis.vectors, degs) if dgr == k]
    if not (
        len(top_found) == k
        and span_contains([v.coords() for v in top_found], [v.coords() for v in top_expected])
        and span_contains([v.coords() for v in top_expected], [v.coords() for v in top_found])
    ):
        issues.append("top layer does not match the expected k-vector pattern")

    return HexagonReport(basis.dim, layer_sizes, boundary, interior, tuple(issues))
