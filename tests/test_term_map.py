"""The sparse term-map storage of weyl against the d x d grid it replaced.

The reference here is the grid implementation: a MatrixDiffOp as a grid of
ScalarDiffOp entries multiplied by helpers_mw.mat_mul, applied to a spinor
as per-component sums of apply_poly (itself checked against the per-term
action loop), and added, negated, scaled and substituted entry by entry
with the per-term loops over plain dicts that each class used to carry.
The flag matrix spaces.OperatorMatrix is checked against the dense grid of
Coeff entries it replaced.  Randomized with fixed seeds at d = 1, 2, 3.
"""

import random
from fractions import Fraction
from math import perm

import pytest
from hypothesis import given, settings, strategies as st

from matrixweyl import Coeff, MatrixDiffOp, Polynomial, PolySpinor, ScalarDiffOp
from matrixweyl import weyl
from matrixweyl.spaces import OperatorMatrix
from matrixweyl.weyl import DiffMonomial
from helpers_mw import (
    mat_mul,
    odometer_product_expansion,
    random_coeff,
    random_poly,
    random_scalar_op,
)

DIMS = (1, 2, 3)
SEEDS = range(6)
BINDINGS = ({"k": 0}, {"k": Fraction(1, 2), "nu": -1}, {})


# -- reference: per-term loops over plain dicts, entry by entry --------------


def _ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        s = out[m] + c if m in out else c
        if s.is_zero():
            del out[m]
        else:
            out[m] = s
    return out


def _ref_map(terms, f):
    out = {}
    for m, c in terms.items():
        v = f(c)
        if not v.is_zero():
            out[m] = v
    return out


def _grid(op):
    return [[e.terms for e in row] for row in op.entries]


def _ref_grid_add(A, B):
    return [[_ref_add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(_grid(A), _grid(B))]


def _ref_grid_map(A, f):
    return [[_ref_map(a, f) for a in row] for row in _grid(A)]


def _ref_product(A, B):
    return [[e.terms for e in row] for row in mat_mul(A.entries, B.entries)]


def _ref_apply_poly(op, p):
    out = {}
    for (A, B), c in op.terms.items():
        for P, cp in p.terms.items():
            if any(b > q for b, q in zip(B, P)):
                continue
            f = 1
            for b, q in zip(B, P):
                f *= perm(q, b)
            out = _ref_add(out, {tuple(a + q - b for a, q, b in zip(A, P, B)): c * cp * f})
    return out


def _ref_apply(A, v):
    comps = []
    for row in A.entries:
        acc = {}
        for e, p in zip(row, v.components):
            assert e.apply_poly(p).terms == _ref_apply_poly(e, p)
            acc = _ref_add(acc, _ref_apply_poly(e, p))
        comps.append(acc)
    return comps


def _diag(s, dim):
    z = ScalarDiffOp.zero(s.nvars)
    return [[s if i == j else z for j in range(dim)] for i in range(dim)]


# -- random operands with empty entries --------------------------------------


def _op(rng, dim, nvars=2):
    return MatrixDiffOp(
        [
            [
                random_scalar_op(rng, nvars, nterms=2, maxdeg=1)
                if rng.random() < 0.6
                else ScalarDiffOp.zero(nvars)
                for _ in range(dim)
            ]
            for _ in range(dim)
        ]
    )


def _spinor(rng, dim, nvars=2):
    return PolySpinor(
        [
            random_poly(rng, nvars, nterms=2, maxdeg=2)
            if rng.random() < 0.7
            else Polynomial.zero(nvars)
            for _ in range(dim)
        ],
        nvars,
    )


def _scalars(rng):
    return [
        rng.randint(-3, 3),
        Fraction(rng.randint(-4, 4), rng.randint(1, 5)),
        random_coeff(rng),
    ]


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("seed", SEEDS)
def test_product_and_action_match_the_grid(dim, seed):
    rng = random.Random(1000 * dim + seed)
    A, B = _op(rng, dim), _op(rng, dim)
    v = _spinor(rng, dim)
    assert _grid(A * B) == _ref_product(A, B)
    assert [p.terms for p in A.apply(v).components] == _ref_apply(A, v)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("seed", SEEDS)
def test_linear_arithmetic_matches_the_grid(dim, seed):
    rng = random.Random(2000 * dim + seed)
    A, B = _op(rng, dim), _op(rng, dim)
    assert _grid(A + B) == _ref_grid_add(A, B)
    assert _grid(A - B) == _ref_grid_add(A, -B)
    assert _grid(-A) == _ref_grid_map(A, lambda c: -c)
    assert (A - A).is_zero() and (A + (-A)).is_zero()
    for c in _scalars(rng) + [0]:
        k = Coeff.rational(c) if not isinstance(c, Coeff) else c
        assert _grid(A.scale(c)) == _ref_grid_map(A, lambda e: e * k)
    for bindings in BINDINGS:
        assert _grid(A.substitute(bindings)) == _ref_grid_map(
            A, lambda e: e.substitute(bindings)
        )


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("seed", SEEDS)
def test_spinor_and_polynomial_arithmetic_match_per_component(dim, seed):
    rng = random.Random(3000 * dim + seed)
    v, w = _spinor(rng, dim), _spinor(rng, dim)
    vc, wc = v.components, w.components
    assert [p.terms for p in (v + w).components] == [
        _ref_add(a.terms, b.terms) for a, b in zip(vc, wc)
    ]
    assert [p.terms for p in (v - w).components] == [
        _ref_add(a.terms, _ref_map(b.terms, lambda c: -c)) for a, b in zip(vc, wc)
    ]
    c = random_coeff(rng)
    assert [p.terms for p in v.scale(c).components] == [
        _ref_map(p.terms, lambda e: e * c) for p in vc
    ]
    for bindings in BINDINGS:
        assert [p.terms for p in v.substitute(bindings).components] == [
            _ref_map(p.terms, lambda e: e.substitute(bindings)) for p in vc
        ]
    p, q = vc[0], wc[0]
    assert (p + q).terms == _ref_add(p.terms, q.terms)
    assert (p - q).terms == _ref_add(p.terms, _ref_map(q.terms, lambda e: -e))
    assert p.scale(c).terms == _ref_map(p.terms, lambda e: e * c)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("seed", SEEDS)
def test_views_round_trip_and_equality(dim, seed):
    rng = random.Random(4000 * dim + seed)
    A, v = _op(rng, dim), _spinor(rng, dim)
    assert len(A.entries) == dim and all(len(row) == dim for row in A.entries)
    for same in (MatrixDiffOp(A.entries), A.with_coords(A.coords()), A + 0, A * 1):
        assert same == A and hash(same) == hash(A)
    assert set(A.coords()) == {
        (i, j, m) for i, row in enumerate(_grid(A)) for j, e in enumerate(row) for m in e
    }
    assert A.term_count() == sum(len(e) for row in _grid(A) for e in row)
    assert len(v.components) == dim
    for same in (PolySpinor(v.components, v.nvars), v.with_coords(v.coords())):
        assert same == v and hash(same) == hash(v)
    assert v.total_degree() == max(
        (p.total_degree() for p in v.components if not p.is_zero()), default=None
    )
    s = random_scalar_op(rng)
    assert ScalarDiffOp(s.nvars, dict(s.terms)) == s
    p = v.components[0]
    assert Polynomial(p.nvars, dict(p.terms)) == p
    bump = MatrixDiffOp.identity(dim, 2)
    assert A + bump != A
    # the flag matrix: a grid of Coeff, zero cells included, as a term map
    grid = [[random_coeff(rng) for _ in range(dim)] for _ in range(dim)]
    M = OperatorMatrix(dim, {(i, j): c for i, row in enumerate(grid) for j, c in enumerate(row)})
    assert M.entries == tuple(map(tuple, grid))
    assert set(M.coords()) == {(i, j) for i, row in enumerate(grid) for j, c in enumerate(row) if c}
    assert not any(c.is_zero() for c in M.terms.values())
    cells = {(i, j): c for i, row in enumerate(M.entries) for j, c in enumerate(row)}
    for same in (OperatorMatrix(dim, cells), M.with_coords(M.coords()), M + OperatorMatrix(dim)):
        assert same == M and hash(same) == hash(M) and repr(same) == repr(M)
    for bindings in BINDINGS:
        assert M.substitute(bindings).entries == tuple(
            tuple(c.substitute(bindings) for c in row) for row in grid
        )
    # equal (empty) term maps of different shapes are different values
    assert OperatorMatrix(dim) != OperatorMatrix(dim + 1)
    assert MatrixDiffOp.zero(dim, 2) != MatrixDiffOp.zero(dim + 1, 2)
    assert MatrixDiffOp.zero(dim, 2) != MatrixDiffOp.zero(dim, 1)
    assert PolySpinor.zero(dim, 2) != PolySpinor.zero(dim + 1, 2)
    assert ScalarDiffOp.zero(2) != Polynomial.zero(2)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("seed", SEEDS)
def test_mixed_operands_match_the_grid(dim, seed):
    rng = random.Random(5000 * dim + seed)
    A = _op(rng, dim)
    s = random_scalar_op(rng, nterms=2, maxdeg=1)
    sI = MatrixDiffOp(_diag(s, dim))
    # a scalar operator stands for itself times the identity, on either side
    assert _grid(s * A) == [[e.terms for e in row] for row in mat_mul(_diag(s, dim), A.entries)]
    assert _grid(A * s) == [[e.terms for e in row] for row in mat_mul(A.entries, _diag(s, dim))]
    assert _grid(A + s) == _grid(s + A) == _ref_grid_add(A, sI)
    assert _grid(A - s) == _ref_grid_add(A, -sI)
    assert _grid(s - A) == _ref_grid_add(-A, sI)
    for c in _scalars(rng):
        k = Coeff.rational(c) if not isinstance(c, Coeff) else c
        cI = MatrixDiffOp.from_scalar(ScalarDiffOp.constant(k, 2), dim)
        assert _grid(A * c) == _grid(c * A) == _ref_grid_map(A, lambda e: e * k)
        assert _grid(A + c) == _grid(c + A) == _ref_grid_add(A, cI)
        assert _grid(A - c) == _ref_grid_add(A, -cI)
        assert _grid(c - A) == _ref_grid_add(-A, cI)
        one = ScalarDiffOp.constant(k, s.nvars).terms
        assert (s * c).terms == (c * s).terms == _ref_map(s.terms, lambda e: e * k)
        assert (s + c).terms == (c + s).terms == _ref_add(s.terms, one)
        assert (s - c).terms == _ref_add(s.terms, _ref_map(one, lambda e: -e))
        assert (c - s).terms == _ref_add(_ref_map(s.terms, lambda e: -e), one)


def test_scalar_times_matrix_keeps_operand_order():
    x = ScalarDiffOp.x(0, 1)
    d = ScalarDiffOp.d(0, 1)
    dI = MatrixDiffOp.from_scalar(d, 2)
    assert x * dI == MatrixDiffOp.from_scalar(x * d, 2)
    assert dI * x == MatrixDiffOp.from_scalar(x * d + 1, 2)


# -- the raw Q(sqrt2) kernel against the Coeff-object kernel it replaced -----
#
# The reference helpers below are the earlier _accumulate_product and
# _accumulate_action, which built a temporary Coeff per contribution and
# summed with Coeff.__add__.  The engine now sums raw pairs and builds each
# output Coeff once; both must give the same term map, keys in the same order.


def _ref_add_into(out, key, v):
    cur = out.get(key)
    s = v if cur is None else cur + v
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


def _ref_action_term(A, B, P):
    """(f, image) of x^A d^B applied to x^P, or None when it vanishes."""
    f = 1
    for b, q in zip(B, P):
        if b > q:
            return None
        f *= perm(q, b)
    return f, tuple(a + q - b for a, q, b in zip(A, P, B))


def _ref_accumulate_product(out, A, B, C, D, base, at=None):
    for f, mono in odometer_product_expansion((A, B), (C, D)):
        _ref_add_into(out, mono if at is None else (*at, mono), base * f)


def _ref_accumulate_action(out, mono, c, poly_terms, at=None):
    for P, cp in poly_terms:
        hit = _ref_action_term(*mono, P)
        if hit is not None:
            f, image = hit
            _ref_add_into(out, image if at is None else (at, image), c * cp * f)


def _ref_scalar_product(s, t):
    out = {}
    for (A, B), c1 in s.terms.items():
        for (C, D), c2 in t.terms.items():
            _ref_accumulate_product(out, A, B, C, D, c1 * c2)
    return out


def _ref_apply_poly_kernel(s, p):
    out = {}
    for mono, c in s.terms.items():
        _ref_accumulate_action(out, mono, c, p.terms.items())
    return out


def _ref_matrix_product(X, Y):
    rows = {}
    for (k, j, (C, D)), c2 in Y.terms.items():
        rows.setdefault(k, []).append((j, C, D, c2))
    out = {}
    for (i, k, (A, B)), c1 in X.terms.items():
        for j, C, D, c2 in rows.get(k, ()):
            _ref_accumulate_product(out, A, B, C, D, c1 * c2, (i, j))
    return out


def _ref_matrix_apply(X, v):
    components = {}
    for (j, P), cp in v.terms.items():
        components.setdefault(j, []).append((P, cp))
    out = {}
    for (i, j, mono), c in X.terms.items():
        _ref_accumulate_action(out, mono, c, components.get(j, ()), i)
    return out


def _rich_coeff(rng):
    """A nonzero Coeff with several terms in k, omega, nu, alpha and sqrt2 halves."""
    terms = {}
    while len(terms) < 3:
        exps = tuple(rng.randint(0, 2) for _ in range(4))
        terms[exps] = (
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
            Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))),
        )
    c = Coeff(terms)
    return c if not c.is_zero() else Coeff.rational(1, Fraction(1, 2))


def _mono(x, d):
    return DiffMonomial(tuple(x), tuple(d))


def _cancelling_scalar(rng):
    """c x1 d1 + (r - c) x2 d2 + c x1 x2 d1 d2, with r sharing a term with -c.

    On x1 x2 the first two terms cancel to r x1 x2 (to nothing where r is
    zero) and the third adds c x1 x2 back; in a product with x1 x2 the same
    happens to the contraction terms.
    """
    c = _rich_coeff(rng)
    r = rng.choice([Coeff.zero(), _rich_coeff(rng), c * Fraction(1, 2)])
    return ScalarDiffOp(
        2,
        {
            _mono((1, 0), (1, 0)): c,
            _mono((0, 1), (0, 1)): r - c,
            _mono((1, 1), (1, 1)): c,
        },
    )


def _rich_scalar(rng):
    return ScalarDiffOp(
        2,
        {
            _mono([rng.randint(0, 2) for _ in "xy"], [rng.randint(0, 2) for _ in "xy"]):
            _rich_coeff(rng)
            for _ in range(3)
        },
    )


def _x1x2(rng):
    return Polynomial(2, {(1, 1): _rich_coeff(rng), (rng.randint(0, 2), 2): _rich_coeff(rng)})


def _cancelling_matrix(rng, dim):
    """Entries whose paths through the middle index cancel at each output key.

    Column 1 of X is R - (column 0) and rows 0 and 1 of Y are equal, so at
    dim >= 2 the k = 0 and k = 1 products cancel up to R Y.
    """
    z = ScalarDiffOp.zero(2)
    X = [[_cancelling_scalar(rng) for _ in range(dim)] for _ in range(dim)]
    Y = [[_rich_scalar(rng) if rng.random() < 0.7 else z for _ in range(dim)] for _ in range(dim)]
    if dim >= 2:
        for i in range(dim):
            R = _rich_scalar(rng) if rng.random() < 0.5 else z
            X[i][1] = R - X[i][0]
        Y[1] = list(Y[0])
    return MatrixDiffOp(X), MatrixDiffOp(Y)


def _assert_canonical(terms):
    for c in terms.values():
        assert isinstance(c, Coeff) and not c.is_zero()
        for exps, pair in c.terms.items():
            assert len(exps) == 4 and pair != (0, 0)
            for half in pair:
                assert type(half) is int or (
                    type(half) is Fraction and half.denominator != 1
                ), (exps, pair)


def _same(got, ref):
    """Equal term maps, keys in the same order, every Coeff canonical."""
    assert got == ref
    assert list(got) == list(ref)
    _assert_canonical(got)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("seed", range(3))
def test_raw_kernel_matches_the_coeff_kernel(dim, seed):
    rng = random.Random(6000 * dim + seed)
    X, Y = _cancelling_matrix(rng, dim)
    for A, B in ((X, Y), (Y, X), (X, X), (_op(rng, dim), _op(rng, dim))):
        _same((A * B).terms, _ref_matrix_product(A, B))
    v = PolySpinor([_x1x2(rng) for _ in range(dim)], 2)
    for A, w in ((X, v), (Y, v), (X, _spinor(rng, dim))):
        _same(A.apply(w).terms, _ref_matrix_apply(A, w))
    s, t = _cancelling_scalar(rng), _rich_scalar(rng)
    for a, b in ((s, t), (t, s), (s, s), (s, ScalarDiffOp.x(0, 2) * ScalarDiffOp.x(1, 2))):
        _same((a * b).terms, _ref_scalar_product(a, b))
    for a in (s, t):
        p = _x1x2(rng)
        _same(a.apply_poly(p).terms, _ref_apply_poly_kernel(a, p))


def test_raw_kernel_drops_a_key_that_cancels_completely():
    c = Coeff({(1, 0, 1, 0): (Fraction(1, 3), 2), (0, 0, 0, 2): (3, Fraction(-1, 2))})
    op = ScalarDiffOp(2, {_mono((1, 0), (1, 0)): c, _mono((0, 1), (0, 1)): -c})
    p = Polynomial(2, {(1, 1): Coeff.rational(Fraction(2, 3), 1), (2, 0): 1})
    out = op.apply_poly(p)
    assert (1, 1) not in out.terms
    _same(out.terms, _ref_apply_poly_kernel(op, p))
    x1x2 = ScalarDiffOp(2, {_mono((1, 1), (0, 0)): 1})
    prod = op * x1x2
    assert _mono((1, 1), (0, 0)) not in prod.terms
    _same(prod.terms, _ref_scalar_product(op, x1x2))
    # a half that becomes integral is stored as an int:
    # (3/2 + sqrt2/2)(2/3 + 2 sqrt2) = 3 + (10/3) sqrt2
    half = ScalarDiffOp.constant(Coeff.rational(Fraction(3, 2), Fraction(1, 2)), 2)
    q = Polynomial(2, {(0, 0): Coeff.rational(Fraction(2, 3), 2)})
    (pair,) = half.apply_poly(q).terms[(0, 0)].terms.values()
    assert pair == (3, Fraction(10, 3)) and type(pair[0]) is int


# -- the memoized product expansion and the single-term action, per loop -----


@st.composite
def _exponent_tuples(draw, count):
    """count exponent tuples over 1 to 3 variables, entries 0 to 4."""
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 4)] * nvars)
    return [draw(exps) for _ in range(count)]


@settings(max_examples=300, deadline=None)
@given(_exponent_tuples(4))
def test_product_expansion_is_the_odometer(exps):
    A, B, C, D = exps
    m1, m2 = DiffMonomial(A, B), DiffMonomial(C, D)
    ref = odometer_product_expansion(m1, m2)
    weyl._product_expansion.cache_clear()
    built = weyl._product_expansion(m1, m2)  # a miss: built now
    cached = weyl._product_expansion(m1, m2)  # a hit: read back
    assert cached is built
    assert type(built) is tuple and built == ref
    for f, mono in built:
        assert type(f) is int and type(mono) is DiffMonomial


@settings(max_examples=300, deadline=None)
@given(_exponent_tuples(4))
def test_bracket_expansion_is_the_difference_of_two_odometers(exps):
    # [x^A d^B, x^C d^D]: the odometer expansion of (m1)(m2) minus that of
    # (m2)(m1), monomial by monomial, zeros dropped, in odometer order of
    # the contraction vector j = A + C - (x exponent), j_1 turning fastest
    A, B, C, D = exps
    m1, m2 = DiffMonomial(A, B), DiffMonomial(C, D)
    ab = {mono: f for f, mono in odometer_product_expansion(m1, m2)}
    ba = {mono: f for f, mono in odometer_product_expansion(m2, m1)}
    diff = {mono: ab.get(mono, 0) - ba.get(mono, 0) for mono in {**ab, **ba}}

    def j_reversed(mono):
        return tuple(a + c - x for a, c, x in zip(A, C, mono.xpow))[::-1]

    ref = tuple((diff[mono], mono) for mono in sorted(diff, key=j_reversed) if diff[mono])
    weyl._bracket_expansion.cache_clear()
    built = weyl._bracket_expansion(m1, m2)  # a miss: built now
    assert weyl._bracket_expansion(m1, m2) is built
    assert built == ref
    leading = DiffMonomial(tuple(a + c for a, c in zip(A, C)), tuple(b + d for b, d in zip(B, D)))
    assert leading not in {mono for _, mono in built}


@settings(max_examples=300, deadline=None)
@given(_exponent_tuples(3))
def test_single_term_action_is_the_perm_loop(exps):
    """x^A d^B on x^P through apply_poly and apply, vanishing cases included."""
    A, B, P = exps
    nvars = len(A)
    c = Coeff.param("k") + Coeff.sqrt2()
    cp = Coeff.rational(Fraction(3, 2))
    op = ScalarDiffOp(nvars, {DiffMonomial(A, B): c})
    p = Polynomial.monomial(P, cp, nvars)
    ref = _ref_action_term(A, B, P)
    expected = {} if ref is None else {ref[1]: c * cp * ref[0]}
    assert op.apply_poly(p).terms == expected
    zero = ScalarDiffOp.zero(nvars)
    mop = MatrixDiffOp([[zero, op], [zero, zero]])
    v = PolySpinor([Polynomial.zero(nvars), p])
    image = mop.apply(v)
    assert image.terms == {(0, mono): e for mono, e in expected.items()}
    for _, mono in image.terms:
        assert type(mono) is tuple


# -- operator + and - on raw pairs, against the key-by-key Coeff sum ---------

_HALVES = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2)))
# terms in k and nu, each to the power 0 or 1
_EXPS = st.tuples(st.integers(0, 1), st.just(0), st.integers(0, 1), st.just(0))
_PAIRS = st.tuples(_HALVES, _HALVES)
_COEFFS = st.dictionaries(_EXPS, _PAIRS, min_size=1, max_size=3).map(Coeff).filter(bool)
_MONOS = st.builds(_mono, *[st.tuples(st.integers(0, 1), st.integers(0, 1))] * 2)


def _ref_merge(a, b, subtract):
    """a + b, or a - b, on term maps: one Coeff sum or difference per key."""
    out = dict(a)
    for key, c in b.items():
        if key in out:
            s = out[key] - c if subtract else out[key] + c
        else:
            s = -c if subtract else c
        if s.is_zero():
            del out[key]
        else:
            out[key] = s
    return out


@st.composite
def _merge_operands(draw):
    """(a, b, scalar): two ScalarDiffOp, or two 2 x 2 MatrixDiffOp, and a scalar.

    b takes some of a's keys with a's coefficient, its negative, one of its
    terms or a new one, so + and - cancel whole keys and single pairs; b's
    keys come in any order.
    """
    matrix = draw(st.booleans())
    keys = st.tuples(st.integers(0, 1), st.integers(0, 1), _MONOS) if matrix else _MONOS
    zero = MatrixDiffOp.zero(2, 2) if matrix else ScalarDiffOp.zero(2)
    a = draw(st.dictionaries(keys, _COEFFS, max_size=5))
    b = draw(st.dictionaries(keys, _COEFFS, max_size=3))
    for key, c in a.items():
        kind = draw(st.sampled_from(("none", "same", "negated", "one term", "new")))
        if kind == "same":
            b[key] = c
        elif kind == "negated":
            b[key] = -c
        elif kind == "one term":
            exps, pair = next(iter(c.terms.items()))
            b[key] = Coeff({exps: pair}) * draw(st.sampled_from((1, -1)))
        elif kind == "new":
            b[key] = draw(_COEFFS)
    b = {key: b[key] for key in draw(st.permutations(list(b)))}
    scalar = draw(st.one_of(st.integers(-3, 3), _HALVES, _COEFFS))
    return zero.with_coords(a), zero.with_coords(b), scalar


@settings(max_examples=200, deadline=None)
@given(_merge_operands())
def test_add_and_sub_match_the_coeff_sum_key_by_key(operands):
    a, b, s = operands
    const = ScalarDiffOp.constant(s, 2)
    const = const if type(a) is ScalarDiffOp else MatrixDiffOp.from_scalar(const, 2)
    negated = {key: -c for key, c in a.terms.items()}
    for got, ref in (
        (a + b, _ref_merge(a.terms, b.terms, False)),
        (a - b, _ref_merge(a.terms, b.terms, True)),
        (b - a, _ref_merge(b.terms, a.terms, True)),
        (a - a, {}),
        (a + s, _ref_merge(a.terms, const.terms, False)),
        (s + a, _ref_merge(a.terms, const.terms, False)),
        (a - s, _ref_merge(a.terms, const.terms, True)),
        (s - a, _ref_merge(negated, const.terms, False)),
    ):
        assert type(got) is type(a) and (got.dim, got.nvars) == (a.dim, a.nvars)
        _same(got.terms, ref)
