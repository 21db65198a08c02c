import random
from fractions import Fraction

from matrixweyl import Coeff, K
from matrixweyl.linalg import (
    Indexer,
    QPEchelon,
    charpoly,
    coeff_matrix_solve,
    numeric_roots,
    rank_of,
    rational_roots,
    scalarize,
    solve_combination,
    span_contains,
    spans_equal,
)
from helpers_mw import C


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
    assert spans_equal([a1, a2], [b1, b2])


def test_coeff_matrix_solve_with_parametric_target():
    cols = [vec(p=C(1)), vec(q=C(1))]
    target = vec(p=K * 2, q=Coeff.param("omega") + C(3))
    [(coords, residual)] = coeff_matrix_solve(cols, [target])
    assert not residual
    assert coords[0] == K * 2
    assert coords[1] == Coeff.param("omega") + 3
    [(coords, residual)] = coeff_matrix_solve([cols[0]], [target])
    assert residual


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
