"""Normal-ordered differential operators with matrix coefficients.

The algebra is generated by commuting variables x_1..x_n and derivations
d_1..d_n with d_i x_j - x_j d_i = delta_ij.  A ScalarDiffOp is a finite sum
of normal-ordered terms c * x^A d^B (all multiplication operators to the
left of all derivations); a MatrixDiffOp is a square array of those and is
the container for every generator and Hamiltonian in the package.
Operators act on PolySpinor values: columns of exact polynomials.

Every value is stored as one sparse map from a key to a nonzero Coeff: x^A
for a Polynomial, x^A d^B for a ScalarDiffOp, (component, x^A) for a
PolySpinor and (row, column, x^A d^B) for a MatrixDiffOp.  The linear
arithmetic, equality and coordinates are written once over that map, and
products and actions visit only nonzero terms.  A product, a commutator or
an action sums its contributions into raw Q(sqrt2) pairs per output key and
per parameter monomial, with the multiply-accumulate kernel of coeff, and
builds each output Coeff once at the end, so no temporary Coeff is made per
pair of terms.

Every value has the shape (dim, nvars) that operands must share: dim 1 for
a Polynomial or ScalarDiffOp, nvars 0 for a flag matrix (spaces).

Three functools.cache functions are the memoized tables, with no setting:
the normal-ordered expansion of (x^A d^B)(x^C d^D) (_product_expansion)
and of the bracket [x^A d^B, x^C d^D] that commutators read
(_bracket_expansion), each an immutable tuple per exponent pair, and the
per-variable contraction factors both are built from (_contractions).
An action needs no table:
x^A d^B maps x^P to f x^(A + P - B), f = prod P_i!/(P_i - B_i)!, which
math.perm makes 0 when some B_i > P_i.

Composition normal-orders eagerly, so equality of operators is equality of
term maps and no separate simplifier exists or is needed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial, perm, prod
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .coeff import Coeff, _add_pair, _add_product, as_coeff, qp_neg


class ShapeError(ValueError):
    """Operands with incompatible dimension or variable count."""


class DiffMonomial(NamedTuple):
    """x^xpow d^dpow, understood normal-ordered (x factors left of d)."""

    xpow: tuple
    dpow: tuple


def _as_scalar_coeff(x):
    if isinstance(x, (int, Fraction, Coeff)):
        return as_coeff(x)
    return None


class _TermMap:
    """A sparse map `terms` from key to nonzero Coeff, of the shape (dim, nvars).

    Two operands must share the shape: dim is 1 for a Polynomial or a
    ScalarDiffOp, and nvars is 0 for a flag matrix (spaces.OperatorMatrix).
    Subclasses fix the key and say, in _coerce, which other operands they
    admit into + and - (and, for the operators, into *).
    """

    __slots__ = ("dim", "nvars", "terms")

    @classmethod
    def _raw(cls, terms, dim, nvars):
        """A value holding terms as given: every coefficient already nonzero."""
        r = object.__new__(cls)
        r.dim = dim
        r.nvars = nvars
        r.terms = terms
        return r

    def _like(self, terms):
        return self._raw(terms, self.dim, self.nvars)

    def _coerce(self, other):
        """other as a value of this class, or None if it is not admitted."""
        return other if type(other) is type(self) else None

    def _require_like(self, other):
        if self.dim != other.dim:
            raise ShapeError("dim differs: %d vs %d" % (self.dim, other.dim))
        if self.nvars != other.nvars:
            raise ShapeError("nvars differs: %d vs %d" % (self.nvars, other.nvars))

    def _map(self, f):
        """Apply f to every coefficient, dropping those that become zero."""
        out = {}
        for key, c in self.terms.items():
            c = f(c)
            if not c.is_zero():
                out[key] = c
        return self._like(out)

    def _merge(self, other, subtract):
        """self + other, or self - other, in one pass over other's terms; a
        key of both sums raw pairs (coeff._add_pair) into one new Coeff."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._require_like(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            cur = out.get(key)
            if cur is None:
                out[key] = -c if subtract else c
                continue
            sums = dict(cur.terms)
            for exps, pair in c.terms.items():
                _add_pair(sums, exps, qp_neg(pair) if subtract else pair)
            if sums:
                out[key] = Coeff._raw(sums)
            else:
                del out[key]
        return self._like(out)

    def __add__(self, other):
        return self._merge(other, False)

    __radd__ = __add__

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self._merge(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        """Every coefficient times the scalar c."""
        c = as_coeff(c)
        return self._map(lambda v: v * c)

    def substitute(self, bindings):
        return self._map(lambda c: c.substitute(bindings))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.dim == other.dim and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, self.nvars, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def coords(self) -> Mapping:
        """Sparse coordinates: a read-only view of the term map."""
        return MappingProxyType(self.terms)

    def with_coords(self, coords: Mapping):
        """A value of this class and shape whose coordinates are coords."""
        return self._like({k: c for k, c in coords.items() if not c.is_zero()})


def _compose(self, other):
    """self o other, other acting first: the __mul__ of ScalarDiffOp and
    MatrixDiffOp, bound in each class body (perfbench/tracer.py reads it
    from the class dict).  A scalar other scales self; any other operand
    _coerce admits (a ScalarDiffOp under a MatrixDiffOp is lifted) is
    composed by the class's _compose_into, in one raw accumulation."""
    c = _as_scalar_coeff(other)
    if c is not None:
        return self.scale(c)
    other = self._coerce(other)
    if other is None:
        return NotImplemented
    self._require_like(other)
    acc = {}
    self._compose_into(acc, other, 1)
    return self._like(_coeffs(acc))


def _rcompose(self, other):
    """other o self, for an other whose own * declined: a scalar scales self,
    and a ScalarDiffOp under a MatrixDiffOp is lifted (_coerce)."""
    c = _as_scalar_coeff(other)
    if c is not None:
        return self.scale(c)
    other = self._coerce(other)
    return NotImplemented if other is None else other * self


class ScalarDiffOp(_TermMap):
    """Finite sum of normal-ordered terms over n commuting variables.

    Keyed by the DiffMonomial x^A d^B.
    """

    __slots__ = ()

    def __init__(self, nvars: int, terms: Mapping[DiffMonomial, Coeff] | None = None):
        if nvars < 1:
            raise ShapeError("nvars must be positive")
        self.dim = 1
        self.nvars = nvars
        clean = {}
        if terms:
            for mono, c in terms.items():
                c = as_coeff(c)
                if not c.is_zero():
                    if len(mono[0]) != nvars or len(mono[1]) != nvars:
                        raise ShapeError("monomial arity does not match nvars")
                    clean[DiffMonomial(tuple(mono[0]), tuple(mono[1]))] = c
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "ScalarDiffOp":
        return cls(nvars)

    @classmethod
    def constant(cls, c, nvars: int) -> "ScalarDiffOp":
        z = (0,) * nvars
        return cls(nvars, {DiffMonomial(z, z): as_coeff(c)})

    @classmethod
    def x(cls, i: int, nvars: int) -> "ScalarDiffOp":
        xp = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {DiffMonomial(xp, (0,) * nvars): Coeff.one()})

    @classmethod
    def d(cls, i: int, nvars: int) -> "ScalarDiffOp":
        dp = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {DiffMonomial((0,) * nvars, dp): Coeff.one()})

    # -- algebra -------------------------------------------------------------

    def _coerce(self, other):
        c = _as_scalar_coeff(other)
        if c is not None:
            return ScalarDiffOp.constant(c, self.nvars)
        return other if isinstance(other, ScalarDiffOp) else None

    __mul__ = _compose
    __rmul__ = _rcompose

    def _compose_into(self, acc, other, sign, same=None):
        """acc[x^E d^F] += sign * (self o other)'s raw sums (_add_at); every
        pair of terms is in the one entry, and expands by same when given."""
        expand = same or _product_expansion
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                for f, mono in expand(m1, m2):
                    _add_at(acc, mono, c1.terms, c2.terms, sign * f)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a differential operator")
        out = ScalarDiffOp.constant(1, self.nvars)
        for _ in range(n):
            out = out * self
        return out

    # -- action --------------------------------------------------------------

    def apply_poly(self, p: "Polynomial") -> "Polynomial":
        """self applied to p: MatrixDiffOp.apply on the one-component spinor."""
        v = PolySpinor._raw({(0, P): c for P, c in p.terms.items()}, 1, p.nvars)
        image = MatrixDiffOp.from_scalar(self, 1).apply(v)
        return p._like({P: c for (_, P), c in image.terms.items()})

    # -- structure queries -----------------------------------------------------

    def grade_vector(self):
        """Net per-variable degree shift if homogeneous, else None."""
        grade = None
        for (A, B) in self.terms:
            g = tuple(a - b for a, b in zip(A, B))
            if grade is None:
                grade = g
            elif g != grade:
                return None
        return grade

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0].xpow, kv[0].dpow))

    def __repr__(self):
        from .render import scalar_op_str

        return scalar_op_str(self)


def _add_at(acc, key, t1, t2, f):
    """acc[key] += f * t1 * t2 (coeff._add_product) for a map acc of raw
    term maps; a key whose map empties is removed at once, so acc holds the
    keys in the order a running sum of Coeff values would."""
    sums = acc.get(key)
    if sums is None:
        sums = acc[key] = {}
    _add_product(sums, t1, t2, f)
    if not sums:
        del acc[key]


def _coeffs(acc):
    """The term map of a raw accumulation: one Coeff built per key."""
    return {key: Coeff._raw(d) for key, d in acc.items()}


@cache
def _contractions(b, c, top):
    """binom(b, j) binom(c, j) j! for j = 0..top: the factor of x^(c-j) d^(b-j)
    in d^b x^c for one variable, 0 past min(b, c); memoized per process."""
    return tuple(comb(b, j) * comb(c, j) * factorial(j) for j in range(top + 1))


def _expansion_rows(m1, m2, bracket):
    """(x^E, d^F, f, h) per contraction vector j, in odometer order with j_1
    turning fastest: E = A + C - j, F = B + D - j, f the factor of j in
    (x^A d^B)(x^C d^D) and, when bracket, h that of j in (x^C d^D)(x^A d^B),
    over the j_i at which either product has a term (_contractions)."""
    rows = [((), (), 1, 1)]
    for a, b, c, d in zip(*m1, *m2):
        top = max(min(b, c), min(d, a)) if bracket else min(b, c)
        fs = _contractions(b, c, top)
        hs = _contractions(d, a, top) if bracket else fs
        rows = [
            (xp + (a + c - j,), dp + (b + d - j,), f * fs[j], h * hs[j])
            for j in range(top + 1)
            for xp, dp, f, h in rows
        ]
    return rows


@cache
def _product_expansion(m1, m2):
    """(x^A d^B)(x^C d^D) normal-ordered, as a tuple of (f, DiffMonomial).

    m1 = (A, B) and m2 = (C, D).  d^B x^C = sum_j binom(B,j) binom(C,j) j!
    x^(C-j) d^(B-j), over the contraction vectors j with 0 <= j_i <=
    min(B_i, C_i) (_expansion_rows).  Memoized per process.
    """
    rows = _expansion_rows(m1, m2, False)
    return tuple((f, DiffMonomial(xp, dp)) for xp, dp, f, _ in rows)


@cache
def _bracket_expansion(m1, m2):
    """[x^A d^B, x^C d^D] normal-ordered, as a tuple of (f, DiffMonomial).

    Contraction j of either order lands on x^(A+C-j) d^(B+D-j), so the two
    expansions merge: f is the difference of the two orders' factors
    (_expansion_rows), in _product_expansion's order.  The leading terms
    (j = 0) cancel, as does any j whose two factors agree.  Memoized per
    process.
    """
    rows = _expansion_rows(m1, m2, True)
    return tuple((f - h, DiffMonomial(xp, dp)) for xp, dp, f, h in rows if f != h)


class Polynomial(_TermMap):
    """Exact polynomial in x_1..x_n, keyed by the power tuple."""

    __slots__ = ()

    def __init__(self, nvars: int, terms=None):
        self.dim = 1
        self.nvars = nvars
        clean = {}
        if terms:
            for mono, c in terms.items():
                c = as_coeff(c)
                if not c.is_zero():
                    clean[tuple(mono)] = c
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: Coeff.one()})

    @classmethod
    def monomial(cls, xpow: Sequence[int], c, nvars: int) -> "Polynomial":
        return cls(nvars, {tuple(xpow): as_coeff(c)})

    def total_degree(self):
        """Maximum total degree, or None for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=None)

    def __repr__(self):
        from .render import poly_str

        return poly_str(self)


class MatrixDiffOp(_TermMap):
    """Square matrix of scalar operators sharing one variable set.

    Keyed by (row, column, DiffMonomial); `entries` is the grid view.
    """

    __slots__ = ()

    def __init__(self, entries: Sequence[Sequence[ScalarDiffOp]]):
        dim = len(entries)
        if dim < 1 or any(len(row) != dim for row in entries):
            raise ShapeError("entries must form a square matrix")
        nvars = entries[0][0].nvars
        terms = {}
        for i, row in enumerate(entries):
            for j, e in enumerate(row):
                if e.nvars != nvars:
                    raise ShapeError("entries disagree on variable count")
                for mono, c in e.terms.items():
                    terms[(i, j, mono)] = c
        self.dim = dim
        self.nvars = nvars
        self.terms = terms

    @property
    def entries(self):
        """The dim x dim grid of ScalarDiffOp entries, built on each access."""
        grid = [[{} for _ in range(self.dim)] for _ in range(self.dim)]
        for (i, j, mono), c in self.terms.items():
            grid[i][j][mono] = c
        return tuple(
            tuple(ScalarDiffOp._raw(t, 1, self.nvars) for t in row) for row in grid
        )

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, nvars: int) -> "MatrixDiffOp":
        return cls.from_scalar(ScalarDiffOp.zero(nvars), dim)

    @classmethod
    def identity(cls, dim: int, nvars: int) -> "MatrixDiffOp":
        return cls.from_scalar(ScalarDiffOp.constant(1, nvars), dim)

    @classmethod
    def from_scalar(cls, op: ScalarDiffOp, dim: int) -> "MatrixDiffOp":
        """op times the identity matrix."""
        if dim < 1:
            raise ShapeError("dim must be positive")
        terms = {(i, i, m): c for i in range(dim) for m, c in op.terms.items()}
        return cls._raw(terms, dim, op.nvars)

    @classmethod
    def from_coeff_matrix(cls, rows, nvars: int) -> "MatrixDiffOp":
        """Constant matrix: Coeff entries become degree-zero operators."""
        return cls(
            [[ScalarDiffOp.constant(c, nvars) for c in row] for row in rows]
        )

    # -- algebra -------------------------------------------------------------

    def _coerce(self, other):
        c = _as_scalar_coeff(other)
        if c is not None:
            other = ScalarDiffOp.constant(c, self.nvars)
        if isinstance(other, ScalarDiffOp):
            return MatrixDiffOp.from_scalar(other, self.dim)
        return other if isinstance(other, MatrixDiffOp) else None

    __mul__ = _compose
    __rmul__ = _rcompose

    def _compose_into(self, acc, other, sign, same=None):
        """acc[(i, j, x^E d^F)] += sign * (self o other)'s raw sums (_add_at);
        a pair of terms in one diagonal entry (i = k = j) expands by same
        when given."""
        rows = {}
        for (k, j, m2), c2 in other.terms.items():
            rows.setdefault(k, []).append((j, m2, c2.terms))
        for (i, k, m1), c1 in self.terms.items():
            for j, m2, t2 in rows.get(k, ()):
                expand = same if same and i == k == j else _product_expansion
                for f, mono in expand(m1, m2):
                    _add_at(acc, (i, j, mono), c1.terms, t2, sign * f)

    def term_count(self) -> int:
        return len(self.terms)

    # -- action ----------------------------------------------------------------

    def apply(self, v: "PolySpinor") -> "PolySpinor":
        self._require_like(v)
        components = {}
        for (j, P), c in v.terms.items():
            components.setdefault(j, []).append((P, c.terms))
        acc = {}
        for (i, j, (A, B)), c in self.terms.items():
            for P, tp in components.get(j, ()):
                f = prod(map(perm, P, B))
                if f:
                    image = tuple(a + q - b for a, q, b in zip(A, P, B))
                    _add_at(acc, (i, image), c.terms, tp, f)
        return v._like(_coeffs(acc))

    def __repr__(self):
        from .render import matrix_op_str

        return matrix_op_str(self)


class PolySpinor(_TermMap):
    """Column of dim exact polynomials; the objects operators act on.

    Keyed by (component, power tuple); `components` is the column view.
    """

    __slots__ = ()

    def __init__(self, components: Sequence[Polynomial], nvars: int | None = None):
        comps = tuple(components)
        if not comps:
            raise ShapeError("spinor needs at least one component")
        if nvars is None:
            nvars = comps[0].nvars
        terms = {}
        for i, p in enumerate(comps):
            if p.nvars != nvars:
                raise ShapeError("components disagree on variable count")
            for mono, c in p.terms.items():
                terms[(i, mono)] = c
        self.dim = len(comps)
        self.nvars = nvars
        self.terms = terms

    @property
    def components(self):
        """The dim Polynomial components, built on each access."""
        parts = [{} for _ in range(self.dim)]
        for (i, mono), c in self.terms.items():
            parts[i][mono] = c
        return tuple(Polynomial._raw(t, 1, self.nvars) for t in parts)

    @classmethod
    def zero(cls, dim: int, nvars: int) -> "PolySpinor":
        return cls([Polynomial.zero(nvars) for _ in range(dim)], nvars)

    @classmethod
    def unit(cls, index: int, dim: int, nvars: int) -> "PolySpinor":
        comps = [Polynomial.zero(nvars) for _ in range(dim)]
        comps[index] = Polynomial.one(nvars)
        return cls(comps, nvars)

    def total_degree(self):
        return max((sum(mono) for _, mono in self.terms), default=None)

    def __repr__(self):
        from .render import spinor_str

        return spinor_str(self)


def _no_terms(m1, m2):
    return ()


def commutator(a: MatrixDiffOp, b: MatrixDiffOp) -> MatrixDiffOp:
    """a o b - b o a, exactly.

    For two operators of one class, both products are summed into one raw
    accumulation by the loop that composition runs, so each output Coeff is
    built once and no product, negated copy or difference is built on the
    way.  A pair of terms in one diagonal entry (every pair, for scalars)
    lands in that entry in both orders, so it is expanded once, by its
    bracket (_bracket_expansion), and to nothing in b o a; every other pair
    goes through both products.  The terms come out in the order of that
    accumulation, not of a * b - b * a.  Mixed operands go through * and -.
    """
    if type(b) is not type(a):
        return a * b - b * a
    a._require_like(b)
    acc = {}
    a._compose_into(acc, b, 1, _bracket_expansion)
    b._compose_into(acc, a, -1, _no_terms)
    return a._like(_coeffs(acc))


scalar_commutator = commutator
