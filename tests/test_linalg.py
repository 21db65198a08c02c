import random
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt

import mpmath
import pytest
import sympy
from hypothesis import event, example, given, settings, strategies as st

from matrixweyl import Coeff, K, models
from matrixweyl.coeff import CoeffError, qp_add, qp_mul, qp_neg
from matrixweyl.linalg import (
    Indexer,
    QPEchelon,
    _qp_deriv,
    _qp_gcd,
    _squarefree_parts,
    charpoly,
    coeff_matrix_solve,
    numeric_roots,
    rank_of,
    rational_roots,
    scalarize,
    solve_combination,
    span_contains,
)
from helpers_mw import (
    C,
    FracEchelon,
    faddeev_leverrier,
    fq_add,
    fq_is_zero,
    fq_mul,
    fraction_rational_roots,
)


def vec(**kw):
    return {k: v for k, v in kw.items()}


def test_rank_and_span_basic():
    a = vec(x=C(1), y=C(2))
    b = vec(x=C(2), y=C(4))
    c = vec(y=C(1))
    assert rank_of([a, b]) == 1
    assert rank_of([a, c]) == 2
    assert span_contains([a, c], [vec(x=C(3), y=C(7))])
    assert not span_contains([a], [c])


def test_rank_with_sqrt2_entries():
    a = vec(x=Coeff.rational(0, 1))  # sqrt2 * x
    b = vec(x=C(2))
    # b = sqrt2 * a, so the two are dependent over Q(sqrt2)
    assert rank_of([a, b]) == 1


def test_solve_combination_exact():
    a = vec(x=C(1), y=C(1))
    b = vec(y=C(1))
    t = vec(x=C(3), y=C(5))
    sol = solve_combination([a, b], t)
    assert sol == [(Fraction(3), Fraction(0)), (Fraction(2), Fraction(0))]
    assert solve_combination([a], vec(x=C(1))) is None


def test_solve_combination_symbolic_columns():
    # columns carry k; coefficients stay parameter-free
    a = vec(x=K, y=C(1))
    b = vec(x=K * 2, y=C(3))
    t = vec(x=K * 4, y=C(7))
    sol = solve_combination([a, b], t)
    # 2a + 1b: x: 2k+2k = 4k, y: 2+3 = 5 != 7; solve exactly instead
    assert sol is not None
    ca, cb = sol
    assert ca[1] == 0 and cb[1] == 0
    assert Fraction(1) * ca[0] + 2 * cb[0] == 4
    assert 1 * ca[0] + 3 * cb[0] == 7


def test_spans_equal_symbolic():
    a1 = vec(u=K, v=C(1))
    a2 = vec(v=C(2))
    b1 = vec(u=K * 3, v=C(3))
    b2 = vec(v=Fraction(1, 2) * Coeff.one())
    assert span_contains([a1, a2], [b1, b2])
    assert span_contains([b1, b2], [a1, a2])


def test_coeff_matrix_solve_with_parametric_target():
    cols = [vec(p=C(1)), vec(q=C(1))]
    target = vec(p=K * 2, q=Coeff.param("omega") + C(3))
    [(coords, residual)] = coeff_matrix_solve(cols, [target])
    assert not residual
    assert coords[0] == K * 2
    assert coords[1] == Coeff.param("omega") + 3
    [(coords, residual)] = coeff_matrix_solve([cols[0]], [target])
    assert residual


def test_coeff_matrix_solve_refuses_a_parametric_column():
    # scalarized, the k part would be one more axis and the solve would go on
    cols = [vec(p=C(1)), vec(p=K, q=C(1))]
    for targets in ([vec(q=C(1))], []):
        with pytest.raises(CoeffError, match="columns of a Coeff solve must be parameter-free"):
            coeff_matrix_solve(cols, targets)


_SMALL = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))
_CONSTANT = st.builds(Coeff.rational, _SMALL, st.one_of(st.just(0), _SMALL))
_COLUMN = st.dictionaries(st.integers(0, 4), _CONSTANT, max_size=4)


@st.composite
def _parametric(draw):
    """c0 + c1 k + c2 omega over Q(sqrt2), any part possibly 0."""
    c0, c1, c2 = (draw(_CONSTANT) for _ in range(3))
    return c0 + c1 * K + c2 * Coeff.param("omega")


@settings(max_examples=200, deadline=None)
@given(st.lists(_COLUMN, max_size=4), st.data())
def test_coeff_matrix_solve_returns_sparse_coordinates_that_rebuild_the_target(columns, data):
    # targets in the span (parametric combinations of the columns, some
    # coefficients 0) and arbitrary parametric vectors
    targets = []
    for _ in range(data.draw(st.integers(1, 4))):
        if columns and data.draw(st.booleans()):
            target = {}
            for col in columns:
                a = data.draw(st.one_of(st.just(Coeff.zero()), _parametric()))
                for key, c in col.items():
                    target[key] = target.get(key, Coeff.zero()) + a * c
            targets.append((target, True))
        else:
            targets.append((data.draw(st.dictionaries(st.integers(0, 5), _parametric())), False))
    solved = coeff_matrix_solve(columns, [t for t, _ in targets])
    assert len(solved) == len(targets)
    for (target, in_span), (coords, residual) in zip(targets, solved):
        assert type(coords) is dict
        assert set(coords) <= set(range(len(columns)))
        assert not any(c.is_zero() for c in coords.values())
        assert not any(c.is_zero() for c in residual.values())
        assert not (in_span and residual)
        rebuilt = dict(residual)
        for j, c in coords.items():
            for key, v in columns[j].items():
                rebuilt[key] = rebuilt.get(key, Coeff.zero()) + c * v
        nonzero = lambda vec: {key: c for key, c in vec.items() if not c.is_zero()}
        assert nonzero(rebuilt) == nonzero(target)


def _det_cofactor(M):
    n = len(M)
    if n == 1:
        return M[0][0]
    out = Coeff.zero()
    sign = 1
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        term = M[0][j] * _det_cofactor(minor)
        out = out + (term if sign > 0 else -term)
        sign = -sign
    return out


def test_charpoly_matches_cofactor_determinant():
    rng = random.Random(101)
    lam = Coeff.param("k")  # reuse a formal parameter as the variable
    for _ in range(6):
        n = rng.randint(1, 4)
        M = [
            [C(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(n)]
            for _ in range(n)
        ]
        coeffs = charpoly(M)
        # evaluate p(lam) and compare against det(lam I - M) symbolically
        p = Coeff.zero()
        for i, c in enumerate(coeffs):
            p = p + c * lam ** i
        shifted = [
            [(lam if i == j else Coeff.zero()) - M[i][j] for j in range(n)]
            for i in range(n)
        ]
        assert p == _det_cofactor(shifted)


# -- charpoly against the Faddeev-LeVerrier oracle -----------------------------


def _terms(poly):
    return [list(c.terms.items()) for c in poly]


# the benchmark's Sutherland spectra inputs: (k, d) at alpha = 1, three nu
SPECTRA_SUTHERLAND = [(6, 1), (4, 2), (3, 3)]


@pytest.mark.parametrize("nu", ["0", "1/3", "2/3"])
@pytest.mark.parametrize("k, d", SPECTRA_SUTHERLAND)
def test_charpoly_equals_faddeev_leverrier_on_the_spectra_blocks(monkeypatch, k, d, nu):
    blocks = []

    def recording_charpoly(block):
        blocks.append(block)
        return charpoly(block)

    monkeypatch.setattr(models, "charpoly", recording_charpoly)
    bindings = {"nu": Fraction(nu), "alpha": 1}
    models.spectrum("sutherland", models.WORDS["sutherland"], k, d, bindings)
    assert blocks
    for block in blocks:
        assert _terms(charpoly(block)) == _terms(faddeev_leverrier(block))


_PAIRS = [(1, 0), (-2, 0), (3, 0), (Fraction(1, 2), 0), (Fraction(-2, 3), 0)]
_PAIRS += [(0, 1), (1, 1), (0, -2), (Fraction(1, 3), Fraction(-1, 2))]
_ENTRY = st.one_of(st.just((0, 0)), st.sampled_from(_PAIRS))


def _similar(M, steps):
    """M conjugated by elementary integer matrices: for each (i, j, c) with
    i != j, row_i += c row_j and then column_j -= c column_i."""
    M = [list(row) for row in M]
    for i, j, c in steps:
        M[i] = [qp_add(x, qp_mul((c, 0), y)) for x, y in zip(M[i], M[j])]
        for row in M:
            row[j] = qp_add(row[j], qp_neg(qp_mul((c, 0), row[i])))
    return M


@st.composite
def sparse_qp_matrices(draw):
    """Sparse pair matrices up to 8 x 8: either random, or triangular with
    few distinct diagonal values (repeated eigenvalues), then conjugated;
    optionally with one column zeroed."""
    n = draw(st.integers(0, 8))
    if draw(st.booleans()):
        M = [[draw(_ENTRY) for _ in range(n)] for _ in range(n)]
    else:
        diag = draw(st.lists(st.sampled_from(_PAIRS), min_size=1, max_size=2))
        M = [
            [draw(st.sampled_from(diag)) if i == j else draw(_ENTRY) if j > i else (0, 0) for j in range(n)]
            for i in range(n)
        ]
        if n > len(diag):
            event("repeated eigenvalues")
        if n > 1:
            step = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1), st.integers(-2, 2))
            steps = draw(st.lists(step, max_size=4))
            M = _similar(M, [(i, (i + off) % n, c) for i, off, c in steps])
    if n and draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in M:
            row[j] = (0, 0)
    return M


def _events(M):
    n = len(M)
    if n <= 1:
        event("%dx%d" % (n, n))
    if n >= 3 and M[1][0] == (0, 0) and any(M[i][0] != (0, 0) for i in range(2, n)):
        event("zero subdiagonal pivot swapped")
    if n >= 2 and M[1][0][1]:
        event("sqrt2 pivot")
    if any(all(row[j] == (0, 0) for row in M) for j in range(n)):
        event("zero column")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sparse_qp_matrices())
@example([])
@example([[(Fraction(-2, 3), 1)]])
@example([[(1, 0), (2, 0), (3, 0)], [(0, 0), (4, 0), (5, 0)], [(6, 0), (7, 0), (8, 0)]])
@example([[(0, 0), (0, 0), (0, 0)], [(0, 1), (0, 0), (1, 0)], [(1, 0), (1, 0), (0, 0)]])
@example([[(1, 0), (0, 0), (2, 0)], [(3, 0), (0, 0), (0, 1)], [(0, 0), (0, 0), (1, 0)]])
@example(_similar([[(2, 0), (1, 0), (0, 0)], [(0, 0), (2, 0), (1, 0)], [(0, 0), (0, 0), (2, 0)]], [(2, 0, 1), (1, 2, -1)]))
def test_charpoly_equals_faddeev_leverrier_on_sparse_qp_matrices(M):
    _events(M)
    block = [[C(*p) for p in row] for row in M]
    got = charpoly(block)
    assert _terms(got) == _terms(faddeev_leverrier(block))
    assert len(got) == len(M) + 1 and got[-1] == C(1)


def test_charpoly_of_a_conjugated_jordan_block_has_one_repeated_root():
    J = [[(Fraction(1, 2), 0) if i == j else (1, 0) if j == i + 1 else (0, 0) for j in range(5)] for i in range(5)]
    M = [[C(*p) for p in row] for row in _similar(J, [(4, 0, 2), (1, 3, -1), (0, 2, 1)])]
    roots, deflated = rational_roots(charpoly(M))
    assert roots == [Fraction(1, 2)] * 5 and len(deflated) == 1


def test_rational_root_extraction():
    # (t - 2)(t + 1/3)(t - 0) = t^3 - 5/3 t^2 - 2/3 t
    coeffs = [C(0), C(Fraction(-2, 3)), C(Fraction(-5, 3)), C(1)]
    roots, deflated = rational_roots(coeffs)
    assert sorted(roots) == [Fraction(-1, 3), Fraction(0), Fraction(2)]
    assert len(deflated) == 1


def test_rational_roots_with_sqrt2_coefficients():
    # (t - 1)(t - sqrt2) has no rational root besides 1
    one = C(1)
    s2 = Coeff.sqrt2()
    coeffs = [s2, -(one + s2), one]
    roots, deflated = rational_roots(coeffs)
    assert roots == [Fraction(1)]
    assert len(deflated) == 2  # linear factor t - sqrt2 remains
    numeric, err = numeric_roots(deflated)
    assert err < 1e-30
    assert abs(numeric[0].real - 2 ** 0.5) < 1e-12


def test_numeric_roots_certified_error():
    # t^2 - 2: irrational pair, numeric fallback with tight error
    coeffs = [C(-2), C(0), C(1)]
    roots, deflated = rational_roots(coeffs)
    assert roots == []
    numeric, err = numeric_roots(deflated)
    vals = sorted(z.real for z in numeric)
    assert err < 1e-30
    assert abs(vals[0] + 2 ** 0.5) < 1e-12 and abs(vals[1] - 2 ** 0.5) < 1e-12


def test_numeric_roots_of_a_double_pair_enclose_sqrt2():
    # (t^2 - 2)^2: polyroots does not converge at the first attempt
    coeffs = [C(4), C(0), C(-4), C(0), C(1)]
    numeric, err = numeric_roots(coeffs)
    assert len(numeric) == 4
    with mpmath.workdps(100):
        for root in (mpmath.sqrt(2), -mpmath.sqrt(2)):
            assert min(abs(z - root) for z in numeric) <= err


def test_numeric_roots_raise_coeff_error_without_convergence(monkeypatch):
    from mpmath.libmp import NoConvergence

    calls = []

    def never_converges(*args, **kwargs):
        calls.append(kwargs)
        raise NoConvergence("stub")

    monkeypatch.setattr(mpmath, "polyroots", never_converges)
    with pytest.raises(CoeffError, match="no certified numeric roots"):
        numeric_roots([C(-2), C(0), C(1)])
    # each retry doubles the extra precision and the steps
    assert [c["extraprec"] for c in calls] == [120, 240, 480, 960]
    assert [c["maxsteps"] for c in calls] == [200, 400, 800, 1600]


# -- the divisor-enumeration root finder, kept as the slow oracle -------------


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


def _reference_rational_roots(coeffs):
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


def _poly_mul(f, g):
    out = [Coeff.zero()] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return out


_small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
_factor = st.one_of(
    # (t - r)^e
    st.tuples(_small, st.integers(1, 3)).map(
        lambda re: [[C(-re[0]), C(1)]] * re[1]
    ),
    # t^2 - c: rational roots when c is a square, none when c < 0
    st.integers(-4, 9).map(lambda c: [[C(-c), C(0), C(1)]]),
    # t - a sqrt2
    _small.map(lambda a: [[C(0, -a), C(1)]]),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.lists(_factor, min_size=1, max_size=4),
    _small.filter(bool),
    st.booleans(),
)
def test_rational_roots_match_divisor_enumeration(factors, scale, by_sqrt2):
    poly = [C(scale, 0) * (Coeff.sqrt2() if by_sqrt2 else Coeff.one())]
    for group in factors:
        for f in group:
            poly = _poly_mul(poly, f)
    roots, deflated = rational_roots(poly)
    ref_roots, ref_deflated = _reference_rational_roots(poly)
    # same multiset, and the same order: zeros first, then increasing
    assert roots == ref_roots
    assert deflated == ref_deflated


_pair_half = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(st.integers(-6, 6), st.integers(1, 4), st.integers(1, 3)),
        min_size=1,
        max_size=3,
    ),
    st.lists(st.tuples(_pair_half, _pair_half), min_size=1, max_size=4).filter(
        lambda cof: cof[-1] != (0, 0) and any(b for _, b in cof)
    ),
)
def test_rational_roots_divide_integer_halves_as_the_fraction_loop(linears, cofactor):
    """(L t - u)^m factors times a cofactor with a sqrt2 half: the integer
    division by L t - u gives the roots and deflated polynomial of the
    Fraction division by t - u/L, with the same canonical halves."""
    poly = [C(*pair) for pair in cofactor]
    for u, L, m in linears:
        for _ in range(m):
            poly = _poly_mul(poly, [C(-u), C(L)])
    roots, deflated = rational_roots(poly)
    want_roots, want_deflated = fraction_rational_roots(poly)
    assert roots == want_roots
    assert deflated == want_deflated
    halves = lambda cs: [tuple(map(type, c.constant_pair())) for c in cs]
    assert halves(deflated) == halves(want_deflated)
    made = Counter()
    for u, L, m in linears:
        made[Fraction(u, L)] += m
    assert all(roots.count(r) >= m for r, m in made.items())


def _sympy_value(c):
    a, b = c.constant_pair()
    return sympy.Rational(a.numerator, a.denominator) + sympy.Rational(
        b.numerator, b.denominator
    ) * sympy.sqrt(2)


@pytest.mark.parametrize(
    "k,d,nu,alpha",
    [(k, d, "2/3", 1) for k in (2, 3) for d in (1, 2)]
    + [(3, 1, "3/2", 2), (3, 2, "3/2", 2)],
)
def test_sutherland_blocks_match_sympy(monkeypatch, k, d, nu, alpha):
    blocks = []

    def recording_charpoly(block):
        blocks.append(block)
        return charpoly(block)

    monkeypatch.setattr(models, "charpoly", recording_charpoly)
    bindings = {"nu": Fraction(nu), "alpha": alpha}
    models.spectrum("sutherland", models.WORDS["sutherland"], k, d, bindings)
    assert blocks
    t = sympy.Symbol("t")
    for block in blocks:
        ours = charpoly(block)
        theirs = sympy.Matrix(
            [[_sympy_value(c) for c in row] for row in block]
        ).charpoly(t)
        expected = list(reversed(theirs.all_coeffs()))
        assert len(ours) == len(expected)
        for c, e in zip(ours, expected):
            assert sympy.expand(_sympy_value(c) - e) == 0
        roots, _ = rational_roots(ours)
        sym = sympy.roots(theirs.as_expr(), t, filter="Q")
        assert Counter(roots) == {
            Fraction(int(r.p), int(r.q)): m for r, m in sym.items()
        }


def test_echelon_tracking_consistency():
    ix = Indexer()
    ech = QPEchelon(track=True)
    vecs = [vec(a=C(2), b=C(1)), vec(b=C(3)), vec(a=C(1), c=C(1))]
    flat = [scalarize(v, ix) for v in vecs]
    for f in flat:
        ech.insert(f)
    target = scalarize(vec(a=C(5), b=C(4), c=C(2)), ix)
    res, combo = ech.reduce(target)
    assert not res
    # rebuild the target from the combination
    rebuilt = {}
    for label, pair in combo.items():
        for col, val in flat[label].items():
            cur = rebuilt.get(col, (Fraction(0), Fraction(0)))
            prod = (
                cur[0] + pair[0] * val[0] + 2 * pair[1] * val[1],
                cur[1] + pair[0] * val[1] + pair[1] * val[0],
            )
            rebuilt[col] = prod
    rebuilt = {k: v for k, v in rebuilt.items() if v != (0, 0)}
    assert rebuilt == dict(target)


def test_dependent_insert_exposes_its_combination():
    # the combination a tracked insert() leaves for a rejected vector is the
    # one reduce() finds for it, and it rebuilds the vector; a rejected
    # vector keeps its label, so later labels count every insert
    ix = Indexer()
    ech = QPEchelon(track=True)
    vecs = [
        vec(a=C(2), b=C(1)),
        vec(a=C(4), b=C(2)),  # dependent: label 1 is never used
        vec(b=C(3, 1)),
        vec(a=C(1), c=C(Fraction(1, 2))),
    ]
    flat = [scalarize(v, ix) for v in vecs]
    assert [ech.insert(f) is not None for f in flat] == [True, False, True, True]
    for target in (
        vec(a=C(5), b=C(4), c=C(2)),
        vec(a=C(0, 1), b=C(Fraction(-7, 3)), c=C(1, -1)),
    ):
        t = scalarize(target, ix)
        res, combo = ech.reduce(t)
        assert ech.insert(t) is None
        assert not res and ech.combination == combo
        assert 1 not in combo
        rest = dict(target)
        for label, pair in combo.items():
            for k, c in vecs[label].items():
                rest[k] = rest.get(k, Coeff.zero()) - Coeff.rational(*pair) * c
        assert all(c.is_zero() for c in rest.values())
    # an empty vector is dependent with the empty combination
    assert ech.insert({}) is None and ech.combination == {}


# -- the integer-row echelon against the Fraction-pair one it replaced ---------


_BIG = 2**200
_HALVES = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.integers(-_BIG, _BIG),
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG)),
)


def _canonical_pair(a, b):
    a, b = Fraction(a), Fraction(b)
    return (
        a.numerator if a.denominator == 1 else a,
        b.numerator if b.denominator == 1 else b,
    )


@st.composite
def _pairs(draw):
    if draw(st.integers(0, 9)) == 0:
        return (0, 0)  # an explicit zero entry
    b = draw(st.one_of(st.just(0), _HALVES))
    return _canonical_pair(draw(_HALVES), b)


_VECTORS = st.dictionaries(st.integers(0, 7), _pairs(), max_size=5)


def _assert_canonical(vec):
    for a, b in vec.values():
        assert a or b
        for half in (a, b):
            assert type(half) is int or (
                type(half) is Fraction and half.denominator != 1
            )


def _combination(data, seen):
    """A random Q(sqrt2) combination of earlier vectors: a dependent vector."""
    out = {}
    for _ in range(data.draw(st.integers(1, 3))):
        v = seen[data.draw(st.integers(0, len(seen) - 1))]
        f = data.draw(_pairs())
        for col, pair in v.items():
            out[col] = fq_add(out.get(col, (0, 0)), fq_mul(f, pair))
    return {c: _canonical_pair(*p) for c, p in out.items() if not fq_is_zero(p)}


def _rebuilt(residual, combo, inserted):
    out = {c: (Fraction(a), Fraction(b)) for c, (a, b) in residual.items()}
    for label, f in combo.items():
        for col, pair in inserted[label].items():
            out[col] = fq_add(out.get(col, (0, 0)), fq_mul(f, pair))
    return {c: p for c, p in out.items() if not fq_is_zero(p)}


def _check_reduce(ours, oracle, v, inserted):
    res, combo = ours.reduce(v)
    fres, fcombo = oracle.reduce(v)
    assert res == fres
    assert combo == fcombo
    _assert_canonical(res)
    if ours.track:
        _assert_canonical(combo)
        want = {c: p for c, p in v.items() if not fq_is_zero(p)}
        assert _rebuilt(res, combo, inserted) == want


@settings(max_examples=120, deadline=None)
@given(st.booleans(), st.data())
def test_echelon_matches_fraction_oracle(track, data):
    # the oracle takes each new pivot at the highest column, as QPEchelon does
    ours, oracle = QPEchelon(track=track), FracEchelon(track=track, pick=max)
    inserted, seen = [], []
    for _ in range(data.draw(st.integers(1, 12))):
        if seen and data.draw(st.booleans()):
            v = _combination(data, seen)
        else:
            v = data.draw(_VECTORS)
        seen.append(v)
        if data.draw(st.integers(0, 2)):
            assert ours.insert(v) == oracle.insert(v)
            inserted.append(v)
        else:
            _check_reduce(ours, oracle, v, inserted)
        assert ours.rank == oracle.rank
    for v in seen + [data.draw(_VECTORS)]:
        _check_reduce(ours, oracle, v, inserted)


def test_echelon_normalizes_a_sqrt2_pivot_by_its_conjugate():
    ech = QPEchelon(track=True)
    # 3 e0 + (1 + sqrt2) e1: the pivot is the highest column, 1
    assert ech.insert({0: (3, 0), 1: (1, 1)}) == 1
    # 1/(1 + sqrt2) = sqrt2 - 1, so the stored row is e1 + 3(sqrt2 - 1) e0
    res, combo = ech.reduce({1: (1, 0)})
    assert res == {0: (3, -3)}
    assert combo == {0: (-1, 1)}
    assert ech.held == {0, 1}
    # column 0 is held by row 1, so this insert clears it from that row
    assert ech.insert({0: (Fraction(1, 2), 0)}) == 0
    # e1 = (sqrt2 - 1) v0 - 3(sqrt2 - 1) * 2 v1
    res, combo = ech.reduce({1: (1, 0)})
    assert res == {}
    assert combo == {0: (-1, 1), 1: (6, -6)}


@settings(max_examples=120, deadline=None)
@given(st.booleans(), st.data())
def test_echelon_rows_stay_fully_reduced_and_held(track, data):
    # after any sequence of inserts no stored row holds another row's pivot,
    # and held covers every column of every stored row
    ech = QPEchelon(track=track)
    seen = []
    for _ in range(data.draw(st.integers(1, 12))):
        v = _combination(data, seen) if seen and data.draw(st.booleans()) else data.draw(_VECTORS)
        seen.append(v)
        ech.insert(v)
        for p, (_, row, _) in ech.rows.items():
            assert set(row) <= ech.held
            assert not (set(row) - {p}) & set(ech.rows)


# -- the square-free split before the numeric fallback ------------------------


@pytest.mark.parametrize("power", [2, 3])
def test_numeric_roots_of_repeated_pairs_are_certified_to_full_precision(power):
    # (t^2 - 2)^power: every root is solved as a simple root of t^2 - 2
    coeffs = [C(1)]
    for _ in range(power):
        coeffs = _poly_mul(coeffs, [C(-2), C(0), C(1)])
    numeric, err = numeric_roots(coeffs)
    assert len(numeric) == 2 * power
    assert err < 1e-45
    with mpmath.workdps(100):
        for root in (mpmath.sqrt(2), -mpmath.sqrt(2)):
            assert sum(abs(z - root) <= err for z in numeric) == power


_qp_small = st.tuples(_small, _small).map(lambda ab: C(*ab))
_sqfree_factor = st.one_of(
    # t - (a + b sqrt2)
    _qp_small.map(lambda r: [-r, C(1)]),
    # t^2 + p t + q over Q(sqrt2)
    st.tuples(_qp_small, _qp_small).map(lambda pq: [pq[1], pq[0], C(1)]),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(_sqfree_factor, st.integers(1, 3)), min_size=1, max_size=3),
    _qp_small.filter(bool),
)
def test_squarefree_parts_rebuild_the_factor(factors, scale):
    f = [scale]
    for g, e in factors:
        for _ in range(e):
            f = _poly_mul(f, g)
    pairs = [c.constant_pair() for c in f]
    parts = _squarefree_parts(pairs)
    rebuilt = [f[-1]]
    for part, mult in parts:
        assert part[-1] == (1, 0)
        # square-free: coprime to its derivative
        assert _qp_gcd(part, _qp_deriv(part)) == [(1, 0)]
        for _ in range(mult):
            rebuilt = _poly_mul(rebuilt, [Coeff.rational(*p) for p in part])
    assert rebuilt == f
    mults = [m for _, m in parts]
    assert len(set(mults)) == len(mults)
    for i, (p, _) in enumerate(parts):
        for q, _ in parts[i + 1 :]:
            assert _qp_gcd(p, q) == [(1, 0)]
