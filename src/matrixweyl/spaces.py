"""Finite-dimensional invariant spinor spaces and operator matrices.

Spaces are discovered, not transcribed: orbit_closure grows the smallest
space containing a seed and closed under every given generator, adding
raw generated vectors so each basis vector stays a weight vector.  Known
closed-form basis lists for these families then become assertions on the
discovered spaces (tests), which guards against transcription slips on both
sides.

The closure runs on pair maps {(component, x^P): (a, b)} with each
generator compiled once (_rules) into groups of terms that share a row, a
column and a shift.  It only closes: it applies every generator it is given
to every basis vector and inserts each image into one echelon, which tracks
combinations exactly when the caller names a generator whose action it
records: for each, the coordinates of its image of each basis vector, from
the elimination that accepted or rejected the image.  record_action adds
the columns of named operators to any basis and proves the span invariant
under them: it is the one place a diagonal generator that acts on every
basis vector as a scalar is read off, not applied, and the other images
are solved for at once.  A basis holds the pair maps of its vectors and
builds them as PolySpinors only when they are read.  Bases come in
discovery order (scalar_basis: by degree) and are never permuted.

The weights are not computed a second time: the weight of b_j is the tuple
of eigenvalues of the Cartan generators E11, ..., Enn on it, which their
recorded columns hold as multiples of the unit column j, read once per
basis (SpinorBasis.weights).

matrix_of converts an operator to its exact matrix on a basis, failing
loudly with the offending vector and residual when the span is not
invariant; given words (sums of products of named generators) it composes
the recorded generator matrices instead.  The matrix is an OperatorMatrix,
a term map keyed by (row, column) like the operators of weyl.
hexagon_audit audits a [k,1] space whose weights are already certified
(models.certify_flag): its layer sizes, the spinors of low degree it must
contain and its specific top-layer span, with a census of its weights of
multiplicity one (3k, the boundary of the weight hexagon) and two
(k(k-1)/2, its interior).
"""

from __future__ import annotations

from collections import Counter
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
        self._vectors = self._weights = None

    @property
    def vectors(self) -> tuple:
        if self._vectors is None:
            self._vectors = tuple(_spinor(raw, self.shape) for raw in self.raws)
        return self._vectors

    @property
    def weights(self) -> tuple:
        """The weight (w_1, ..., w_n) of each basis vector, read on first
        access off its recorded columns of the Cartan generators E11, ...,
        Enn (n variables): b_j is a weight vector exactly when each column
        is a multiple of the unit column j, E_ii b_j = w_i b_j.  None for a
        vector with a column that is not diagonal or a weight that is not
        rational."""
        if self._weights is None:
            cartan = [self.action["E%d%d" % (i, i)] for i in range(1, self.shape[1] + 1)]
            out = []
            for j, cols in enumerate(zip(*cartan)):
                pairs = [col.get(j, (0, 0)) for col in cols]
                diagonal = all(col.keys() <= {j} for col in cols)
                rational = not any(b for _, b in pairs)
                out.append(tuple(a for a, _ in pairs) if diagonal and rational else None)
            self._weights = tuple(out)
        return self._weights

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


def _scalars(groups, raws):
    """[sigma_j, ...] when the op of groups is diagonal, every group (j, j,
    0), and maps each pair map raws[j] to sigma_j (a pair) times itself;
    else None.  Such an op maps x^P e_j to sigma(j, P) x^P e_j, with
    sigma(j, P) the pair of group j's _factor at P (0 for a column with no
    group), so raws[j] is scaled when sigma(j, P) is equal on its keys."""
    if any(i != j or any(shift) for i, j, shift, _, _ in groups):
        return None
    table = {group[1]: group for group in groups}
    sigmas = []
    for raw in raws:
        seen = set()
        for j, P in raw:
            hit = _factor(table[j], P) if j in table else ()
            seen.add(hit[1] if hit else (0, 0))
        if len(seen) != 1:
            return None
        sigmas.append(seen.pop())
    return sigmas


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
    Every op is applied to every basis vector, and each image, a pair map
    (_image), is inserted into one echelon whose columns are its keys: an
    independent image joins the basis and its column is a unit column; a
    dependent one is never kept, and its column is the combination that
    eliminated it.  The echelon tracks those combinations exactly when a
    column is recorded.  The basis comes out in discovery order, seed
    first.
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
    shape = (seed.dim, seed.nvars)
    ech = QPEchelon(track=bool(recorded))
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

    keep({key: c.constant_pair() for key, c in seed.terms.items()})
    # per recorded op, one column per basis vector
    columns = [[] if name in recorded else None for name in names]
    i = 0
    while i < len(raws):
        raw = raws[i]
        for groups, cols in zip(compiled, columns):
            w = _image(groups, raw)
            if not w:
                if cols is not None:
                    cols.append({})
                continue
            if max(map(sum, map(itemgetter(1), w))) > degree_cap:
                raise SpaceNotClosedError(degree_cap, _spinor(w, shape))
            at = keep(w)
            if cols is None:
                continue
            if at is not None:
                cols.append({at: (1, 0)})
            else:
                cols.append({position[t]: p for t, p in ech.combination.items()})
        i += 1
    action = {name: tuple(cols) for name, cols in zip(names, columns) if cols is not None}
    return SpinorBasis(raws, shape, action)


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
    """basis with the columns of each (name, op) added to its action, and
    the proof that its span is invariant under every op.

    This is the one place a diagonal column is read off: a diagonal op
    that maps every basis vector to a multiple of itself (_scalars) is not
    applied, and its column j is that multiple of the unit column j.
    The images of the other ops, a diagonal op that does not scale some
    vector included, are solved for together, against one echelon of the
    basis; NotInvariantError names the first image outside the span.  Every
    op must be parameter-free (ValueError naming it otherwise).
    """
    action = dict(basis.action)
    solve = []
    for name, op in named_ops:
        sigmas = _scalars(_rules(name, op), basis.raws)
        if sigmas is None:
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
    (the last name acts first), as {i: pair}; the unit column j for the
    empty word, the identity."""
    vec = action[word[-1]][j] if word else {j: (1, 0)}
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


class HexagonReport:
    def __init__(self, layer_sizes, boundary_points, interior_points, issues):
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
    """Structure audit of a [k,1] space discovered by orbit closure, whose
    weights (basis.weights) certify_flag has certified.  It counts the
    weights of multiplicity one (boundary_points) and two (interior_points),
    and checks the layer sizes, the degree <= k-1 spinors and the top
    layer."""
    issues = []
    degs = [v.total_degree() for v in basis.vectors]
    layer_sizes = tuple(degs.count(t) for t in range(max(degs) + 1)) if degs else ()
    expected_layers = tuple(2 * (t + 1) for t in range(k)) + (k,)
    if layer_sizes != expected_layers:
        issues.append("layers %s, expected %s" % (layer_sizes, expected_layers))

    census = Counter(Counter(basis.weights).values())

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

    return HexagonReport(layer_sizes, census[1], census[2], tuple(issues))
