import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from matrixweyl import Coeff, K, build_gl_np1, gl2_irrep
from matrixweyl.serialize import (
    coeff_from_json,
    coeff_to_json,
    dumps,
    manifest,
    matrix_op_from_json,
    matrix_op_to_json,
    scalar_op_from_json,
    scalar_op_to_json,
)
from helpers_mw import random_coeff, random_matrix_op, random_scalar_op


def test_coeff_roundtrip_randomized():
    rng = random.Random(41)
    for _ in range(50):
        c = random_coeff(rng)
        assert coeff_from_json(coeff_to_json(c)) == c


def test_sqrt2_is_serialized_as_a_pair():
    data = coeff_to_json(Coeff.rational(1, -2))
    assert data == [{"e": [0, 0, 0, 0], "a": "1", "b": "-2"}]


def test_operator_roundtrips():
    rng = random.Random(43)
    for _ in range(20):
        op = random_scalar_op(rng)
        assert scalar_op_from_json(scalar_op_to_json(op)) == op
    for _ in range(10):
        op = random_matrix_op(rng)
        assert matrix_op_from_json(matrix_op_to_json(op)) == op


def test_generator_roundtrip():
    gens = build_gl_np1(K, gl2_irrep(3))
    for name, op in gens.named():
        assert matrix_op_from_json(matrix_op_to_json(op)) == op, name


def test_dumps_is_deterministic():
    gens = build_gl_np1(K, gl2_irrep(2))
    a = dumps(matrix_op_to_json(gens.Tplus[1]))
    b = dumps(matrix_op_to_json(build_gl_np1(K, gl2_irrep(2)).Tplus[1]))
    assert a == b


def test_manifest_verdict():
    good = manifest("check", {}, [{"name": "x", "pass": True}])
    bad = manifest("check", {}, [{"name": "x", "pass": True}, {"name": "y", "pass": False}])
    assert good["verdict"] == "pass"
    assert bad["verdict"] == "fail"
    assert good["schema_version"] == 1
    json.loads(dumps(good))


_MANIFEST_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_MANIFEST_VALUES)
@example({"": [], "b": {}, "a": [{}, [[]], None, True, False, 0, -7, 10**30]})
@example(["\x00\x1f\x7f\"\\/", "\u00e9\u2028\U0001f600", {"\u00e9": "\ud800"}])
@example({"schema_version": 1, "Z": {"b": "1", "a": "-2/3"}, "a": [1, [2, [3]]]})
def test_dumps_writes_the_bytes_of_the_json_encoder(data):
    assert dumps(data) == json.dumps(data, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "data",
    [1.5, (1, 2), Fraction(1, 2), {1: "a"}, [{"a": {"b": [set()]}}], {"a": Coeff.one()}],
)
def test_dumps_refuses_a_type_a_manifest_does_not_hold(data):
    with pytest.raises(TypeError):
        dumps(data)
