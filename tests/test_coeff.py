import random
from fractions import Fraction

import pytest

from matrixweyl import ALPHA, K, NU, OMEGA, SQRT2, Coeff, CoeffError
from helpers_mw import random_coeff


def test_sqrt2_norm():
    # (1 + sqrt2)(1 - sqrt2) = -1
    assert Coeff.rational(1, 1) * Coeff.rational(1, -1) == Coeff.rational(-1)


def test_thirds_sum_to_one():
    assert Coeff.rational(Fraction(2, 3)) + Coeff.rational(Fraction(1, 3)) == Coeff.one()


def test_casimir_value_substitution():
    c2 = K * (K + 2)
    assert c2.substitute({"k": 2}) == Coeff.rational(8)
    assert ((K + 1) * (K + 1)).substitute({"k": 1}) == Coeff.rational(4)


def test_partial_substitution_keeps_other_params():
    v = K * OMEGA + NU
    bound = v.substitute({"k": 3})
    assert bound == OMEGA * 3 + NU
    assert bound.substitute({"omega": 1, "nu": 0}) == Coeff.rational(3)


def test_empty_substitution_is_identity():
    v = K * K * ALPHA + SQRT2
    assert v.substitute({}) == v


def test_unknown_parameter_rejected():
    with pytest.raises(ValueError):
        K.substitute({"beta": 1})


def test_ring_axioms_randomized():
    rng = random.Random(20240601)
    for _ in range(200):
        a = random_coeff(rng)
        b = random_coeff(rng)
        c = random_coeff(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a + Coeff.zero() == a
        assert a * Coeff.one() == a
        assert a - a == Coeff.zero()


def test_canonical_no_zero_terms():
    v = K - K
    assert v.is_zero()
    assert v.terms == {}


def test_power():
    assert (K + 1) ** 2 == K * K + K * 2 + 1
    assert (K ** 0) == Coeff.one()


def test_sorted_terms_order_is_lexicographic():
    v = NU + K + ALPHA + OMEGA
    exps = [e for e, _ in v.sorted_terms()]
    assert exps == sorted(exps)


def test_constant_pair():
    v = Coeff.rational(Fraction(1, 2), Fraction(3, 4))
    a, b = v.constant_pair()
    assert (a, b) == (Fraction(1, 2), Fraction(3, 4))
    with pytest.raises(CoeffError):
        K.constant_pair()


def test_hash_consistency():
    a = K * 2 + SQRT2
    b = K + K + Coeff.rational(0, 1)
    assert a == b
    assert hash(a) == hash(b)
