import random

import pytest

from matrixweyl import Coeff, MatrixDiffOp, check_canonical, gl2_irrep
from helpers_mw import C, mat_mul, ordered_canonical_failures, random_coeff


def test_dim_one_is_trivial():
    rep = gl2_irrep(1)
    for key in ((1, 1), (1, 2), (2, 1), (2, 2)):
        assert rep.block(*key) == [[Coeff.zero()]]


def test_dim_two_matches_display():
    rep = gl2_irrep(2)
    assert rep.block(1, 1) == [[C(1), C(0)], [C(0), C(0)]]
    assert rep.block(2, 2) == [[C(0), C(0)], [C(0), C(1)]]
    assert rep.block(1, 2) == [[C(0), C(1)], [C(0), C(0)]]
    assert rep.block(2, 1) == [[C(0), C(0)], [C(1), C(0)]]


def test_dim_three_matches_display():
    rep = gl2_irrep(3)
    s2 = Coeff.sqrt2()
    z = Coeff.zero()
    assert rep.block(1, 1) == [[C(2), z, z], [z, C(1), z], [z, z, C(0)]]
    assert rep.block(2, 2) == [[C(0), z, z], [z, C(1), z], [z, z, C(2)]]
    assert rep.block(1, 2) == [[z, s2, z], [z, z, s2], [z, z, z]]
    assert rep.block(2, 1) == [[z, z, z], [s2, z, z], [z, s2, z]]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_canonical_relations_hold(d):
    assert check_canonical(gl2_irrep(d)).passed


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_block_operators_are_the_constant_blocks(d):
    rep = gl2_irrep(d)
    assert sorted(rep.ops) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    for (i, j), op in rep.ops.items():
        assert op == MatrixDiffOp.from_coeff_matrix(rep.block(i, j), 2), (i, j)


def test_corrupted_entry_fails_with_offending_pair():
    rep = gl2_irrep(2).replaced(1, 2, 0, 1, 2)  # M12 upper entry 1 -> 2
    report = check_canonical(rep)
    assert not report.passed
    pairs = {(p, q) for p, q, _ in report.failures}
    assert ((1, 2), (2, 1)) in pairs


def _corruptions(rep):
    """Every copy of rep with one entry shifted by 1 or doubled (a doubled
    zero entry leaves rep as it was)."""
    for (i, j), rows in rep.blocks.items():
        for r, row in enumerate(rows):
            for c, entry in enumerate(row):
                for value in (entry + 1, entry * 2):
                    yield rep.replaced(i, j, r, c, value)


@pytest.mark.parametrize("d", [2, 3])
def test_unordered_check_fails_exactly_where_the_ordered_oracle_fails(d):
    verdicts = set()
    for rep in _corruptions(gl2_irrep(d)):
        report = check_canonical(rep)
        ordered = ordered_canonical_failures(rep)
        assert report.passed == (not ordered)
        # the oracle's failures over the pairs p <= q, in its order
        assert list(report.failures) == [(p, q, res) for p, q, res in ordered if p <= q]
        verdicts.add(report.passed)
    assert verdicts == {True, False}


def test_zero_dim_rejected():
    with pytest.raises(ValueError):
        gl2_irrep(0)


def test_constructor_validates():
    blocks = {
        (1, 1): [[C(1), C(0)], [C(0), C(0)]],
        (2, 2): [[C(0), C(0)], [C(0), C(1)]],
        (1, 2): [[C(0), C(2)], [C(0), C(0)]],
        (2, 1): [[C(0), C(0)], [C(1), C(0)]],
    }
    from matrixweyl import MatrixRep

    with pytest.raises(ValueError, match="canonical"):
        MatrixRep(2, 2, blocks)
    MatrixRep(2, 2, blocks, validate=False)  # negative-control path stays open


def test_gl2_irrep_is_built_once_per_d():
    assert gl2_irrep(3) is gl2_irrep(3)
    assert gl2_irrep(2) is not gl2_irrep(3)


def test_replaced_copy_leaves_the_shared_rep_alone():
    shared = gl2_irrep(2)
    broken = shared.replaced(1, 2, 0, 1, 2)
    assert broken is not shared
    assert not check_canonical(broken).passed
    assert check_canonical(gl2_irrep(2)).passed
    assert gl2_irrep(2).block(1, 2) == [[C(0), C(1)], [C(0), C(0)]]


def _dense_mat_mul(A, B):
    """Every product summed, zeros included: the product mat_mul replaced."""
    d = len(A)
    return [
        [
            sum((A[i][l] * B[l][j] for l in range(1, d)), A[i][0] * B[0][j])
            for j in range(d)
        ]
        for i in range(d)
    ]


def _random_entry(rng):
    kind = rng.random()
    if kind < 0.5:
        return Coeff.zero()
    if kind < 0.7:
        return Coeff.rational(rng.randint(-3, 3), rng.randint(-2, 2))
    return random_coeff(rng, with_params=rng.random() < 0.5)


@pytest.mark.parametrize("seed", range(40))
def test_mat_mul_skipping_zero_factors_matches_dense_product(seed):
    rng = random.Random(seed)
    d = rng.randint(1, 6)
    A = [[_random_entry(rng) for _ in range(d)] for _ in range(d)]
    B = [[_random_entry(rng) for _ in range(d)] for _ in range(d)]
    got = mat_mul(A, B)
    want = _dense_mat_mul(A, B)
    assert got == want
    for grow, wrow in zip(got, want):
        for g, w in zip(grow, wrow):
            assert list(g.terms.items()) == list(w.terms.items())


def test_mat_mul_needs_no_zero_element():
    # plain ints: the seed product starts each sum
    assert mat_mul([[1, 2], [0, 3]], [[4, 0], [5, 6]]) == [[14, 12], [15, 18]]
