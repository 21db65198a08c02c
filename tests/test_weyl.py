import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from matrixweyl import (
    Coeff,
    K,
    MatrixDiffOp,
    Polynomial,
    PolySpinor,
    ScalarDiffOp,
    ShapeError,
    gl2_irrep,
    build_gl_np1,
    commutator,
)
from matrixweyl.spaces import OperatorMatrix, orbit_closure
from matrixweyl.weyl import scalar_commutator
from helpers_mw import (
    commutator_oracle,
    in_key_order,
    poly,
    random_matrix_op,
    random_scalar_op,
    random_spinor,
    spinor,
)


def x(i, n=2):
    return ScalarDiffOp.x(i, n)


def d(i, n=2):
    return ScalarDiffOp.d(i, n)


def test_canonical_commutation():
    # d1 o x1 = x1 d1 + 1
    assert d(0) * x(0) == x(0) * d(0) + 1


def test_commuting_square():
    lhs = (x(0) * d(1)) * (x(0) * d(1))
    assert lhs == x(0) * x(0) * d(1) * d(1)


def test_second_order_leibniz_expansion():
    lhs = (d(0) * d(0)) * (x(0) * x(0))
    expected = x(0) * x(0) * d(0) * d(0) + x(0) * d(0) * 4 + 2
    assert lhs == expected


def test_second_order_leibniz_against_action_oracle():
    # both sides applied to x1^p for p = 0..4 must agree
    lhs = (d(0) * d(0)) * (x(0) * x(0))
    rhs = x(0) * x(0) * d(0) * d(0) + x(0) * d(0) * 4 + 2
    for p in range(5):
        target = poly(2, ((p, 0), 1))
        assert lhs.apply_poly(target) == rhs.apply_poly(target)


def test_vector_field_commutator():
    e12 = x(0) * d(1)
    e21 = x(1) * d(0)
    assert e12 * e21 - e21 * e12 == x(0) * d(0) - x(1) * d(1)


def test_partials_commute():
    assert d(0) * d(1) == d(1) * d(0)


def test_antisymmetry_on_random_operators():
    rng = random.Random(7)
    for _ in range(20):
        A = random_matrix_op(rng)
        assert commutator(A, A).is_zero()


# -- the one-pass commutator against its definition ----------------------------

_HALF = st.fractions(min_value=-3, max_value=3, max_denominator=3)
# a + b sqrt2 per parameter monomial; the b halves make sqrt2 parts
_COEFF = st.builds(
    Coeff,
    st.dictionaries(st.tuples(*[st.integers(0, 1)] * 4), st.tuples(_HALF, _HALF), max_size=2),
)
# a number an operator is multiplied by: rational, or a Coeff with sqrt2 parts
_NUMBER = st.one_of(st.integers(-3, 3), _HALF, _COEFF)
_EXPS = st.tuples(st.integers(0, 2), st.integers(0, 2))
_SCALAR = st.builds(
    ScalarDiffOp,
    st.just(2),
    st.dictionaries(st.tuples(_EXPS, _EXPS), _COEFF, max_size=3),
)


@st.composite
def _matrix_pair(draw):
    dim = draw(st.integers(1, 3))
    grid = st.lists(st.lists(_SCALAR, min_size=dim, max_size=dim), min_size=dim, max_size=dim)
    return MatrixDiffOp(draw(grid)), MatrixDiffOp(draw(grid))


def _sqrt2_op(c):
    return ScalarDiffOp(2, {((0, 0), (1, 0)): Coeff.rational(0, 1), ((1, 0), (0, 0)): c})


# [d1 + sqrt2 x1, x1 + sqrt2 d1]: x1 d1 cancels between a b and b a
_CANCEL_A = d(0) + x(0) * Coeff.sqrt2()
_CANCEL_B = x(0) + d(0) * Coeff.sqrt2()


def _assert_number_products(A, c):
    """A number scales A from either side, and an operand that is neither a
    number nor an operator is refused from either side."""
    assert c * A == A * c == A.scale(c)
    with pytest.raises(TypeError):
        A * object()
    with pytest.raises(TypeError):
        object() * A


@settings(max_examples=60, deadline=None)
@given(st.tuples(_SCALAR, _SCALAR), _NUMBER)
@example((_CANCEL_A, _CANCEL_B), Coeff.sqrt2())
@example((_CANCEL_A, _CANCEL_A), 0)
@example((_sqrt2_op(Coeff.rational(Fraction(1, 2), 3)), x(1) * d(0) + x(0) * Fraction(2, 3)), Fraction(-2, 3))
@example((x(0), d(0)), 3)  # [x1, d1] = -1: the leading term x1 d1 cancels
@example((x(0) * d(1) * K, x(1) * x(1) * d(0) * Coeff.param("nu")), Coeff.rational(Fraction(1, 2), -1))
def test_scalar_commutator_is_ab_minus_ba(pair, num):
    a, b = pair
    got, ref = scalar_commutator(a, b), commutator_oracle(a, b)
    # key for key, in key order: the bracket's one pass accumulates the
    # terms in another insertion order than the two products do
    assert got == ref and in_key_order(got) == in_key_order(ref)
    assert all(not c.is_zero() for c in got.terms.values())
    # the mixed products, which the commutator of two operators never makes
    _assert_number_products(a, num)


@settings(max_examples=40, deadline=None)
@given(_matrix_pair(), _SCALAR, _NUMBER)
@example(
    (
        MatrixDiffOp([[_CANCEL_A, x(1)], [ScalarDiffOp.zero(2), _CANCEL_B]]),
        MatrixDiffOp([[_CANCEL_B, ScalarDiffOp.zero(2)], [d(1), _CANCEL_A]]),
    ),
    _CANCEL_B,
    Coeff.sqrt2(),
)
@example(
    (
        MatrixDiffOp([[x(0), d(1) * K], [ScalarDiffOp.zero(2), x(1) * d(0)]]),
        MatrixDiffOp([[d(0) * Coeff.param("nu"), ScalarDiffOp.zero(2)], [x(0), x(1) * d(1)]]),
    ),
    x(0) * d(0) * Fraction(1, 3),
    Fraction(3, 2),
)
def test_commutator_is_ab_minus_ba(pair, s, num):
    a, b = pair
    got, ref = commutator(a, b), commutator_oracle(a, b)
    assert got == ref and in_key_order(got) == in_key_order(ref)
    assert all(not c.is_zero() for c in got.terms.values())
    # one-pass subtraction: the same terms, in the same order, as a + (-b)
    diff, ref = a - b, a + (-b)
    assert diff == ref and list(diff.terms) == list(ref.terms)
    # the mixed products: a scalar operator stands for itself times the
    # identity on either side, and a number scales
    sI = MatrixDiffOp.from_scalar(s, a.dim)
    assert s * a == sI * a and a * s == a * sI
    _assert_number_products(a, num)


def test_mul_associative_randomized():
    rng = random.Random(11)
    for _ in range(25):
        A = random_scalar_op(rng)
        B = random_scalar_op(rng)
        C = random_scalar_op(rng)
        assert (A * B) * C == A * (B * C)


def test_matrix_mul_associative_randomized():
    rng = random.Random(13)
    for _ in range(10):
        A = random_matrix_op(rng)
        B = random_matrix_op(rng)
        C = random_matrix_op(rng)
        assert (A * B) * C == A * (B * C)


def test_apply_is_homomorphism():
    rng = random.Random(17)
    for _ in range(20):
        A = random_matrix_op(rng)
        B = random_matrix_op(rng)
        v = random_spinor(rng)
        assert (A * B).apply(v) == A.apply(B.apply(v))


def test_jacobi_identity_randomized():
    rng = random.Random(19)
    for _ in range(8):
        A = random_matrix_op(rng)
        B = random_matrix_op(rng)
        C = random_matrix_op(rng)
        total = (
            commutator(A, commutator(B, C))
            + commutator(B, commutator(C, A))
            + commutator(C, commutator(A, B))
        )
        assert total.is_zero()


def test_normal_ordering_idempotent():
    rng = random.Random(23)
    for _ in range(20):
        A = random_scalar_op(rng)
        rebuilt = ScalarDiffOp(A.nvars, dict(A.terms))
        assert rebuilt == A
        assert A * ScalarDiffOp.constant(1, A.nvars) == A


def test_zero_operator_acts_as_zero():
    rng = random.Random(29)
    Z = MatrixDiffOp.zero(2, 2)
    for _ in range(5):
        v = random_spinor(rng)
        assert Z.apply(v).is_zero()


def test_dimension_mismatch_messages():
    A = MatrixDiffOp.zero(2, 2)
    B = MatrixDiffOp.zero(3, 2)
    dim = "^dim differs: 2 vs 3$"
    with pytest.raises(ShapeError, match=dim):
        A * B
    with pytest.raises(ShapeError, match=dim):
        A + B
    v = PolySpinor.zero(3, 2)
    with pytest.raises(ShapeError, match=dim):
        A.apply(v)
    # the orbit closure applies its ops to raw terms, so it checks up front
    with pytest.raises(ShapeError, match=dim):
        orbit_closure([("A", A)], PolySpinor.unit(0, 3, 2), degree_cap=2)


def test_shape_is_dim_then_nvars():
    # every term map has the shape (dim, nvars): dim 1 for a polynomial or
    # a scalar operator, nvars 0 for a flag matrix; dim is checked first
    nvars = "^nvars differs: 2 vs 3$"
    with pytest.raises(ShapeError, match=nvars):
        ScalarDiffOp.zero(2) + ScalarDiffOp.zero(3)
    with pytest.raises(ShapeError, match=nvars):
        ScalarDiffOp.zero(2) * ScalarDiffOp.zero(3)
    with pytest.raises(ShapeError, match=nvars):
        Polynomial.zero(2) + Polynomial.zero(3)
    with pytest.raises(ShapeError, match="^dim differs: 2 vs 3$"):
        MatrixDiffOp.zero(2, 2) + MatrixDiffOp.zero(3, 3)
    assert ScalarDiffOp.zero(2) != ScalarDiffOp.zero(3)
    assert OperatorMatrix(2) != OperatorMatrix(3)
    assert OperatorMatrix(2) == OperatorMatrix(2)
    assert hash(OperatorMatrix(2)) == hash(OperatorMatrix(2))


def test_tplus_on_constant_gives_k_x1():
    gens = build_gl_np1(K, gl2_irrep(1))
    one = PolySpinor.unit(0, 1, 2)
    image = gens.Tplus[1].apply(one)
    assert image == spinor(2, [((1, 0), K)])


def test_e21_maps_pplus_to_pminus():
    gens = build_gl_np1(K, gl2_irrep(2))
    pplus = PolySpinor.unit(0, 2, 2)
    pminus = PolySpinor.unit(1, 2, 2)
    assert gens.E[(2, 1)].apply(pplus) == pminus


def test_substitute_on_operator():
    gens = build_gl_np1(K, gl2_irrep(1))
    e0 = gens.E0.substitute({"k": 2})
    expected = MatrixDiffOp.from_scalar(
        ScalarDiffOp.constant(2, 2) - x(0) * d(0) - x(1) * d(1), 1
    )
    assert e0 == expected
    assert gens.E0.substitute({}) == gens.E0


def test_power_of_an_operator():
    assert (x(0) + d(0)) ** 0 == ScalarDiffOp.constant(1, 2)
    assert (x(0) + d(0)) ** 2 == (x(0) + d(0)) * (x(0) + d(0))
    with pytest.raises(ValueError, match="negative"):
        x(0) ** -1


def test_scalar_coercion_arithmetic():
    op = x(0) * Fraction(2, 3) + 1
    assert op.apply_poly(poly(2, ((0, 0), 3))) == poly(
        2, ((1, 0), 2), ((0, 0), 3)
    )


def test_spinor_coords_roundtrip():
    v = spinor(2, [((1, 0), 1), ((0, 0), 2)], [((0, 1), Coeff.rational(0, 1))])
    coords = v.coords()
    assert coords[(0, (1, 0))] == Coeff.one()
    assert coords[(1, (0, 1))] == Coeff.rational(0, 1)
