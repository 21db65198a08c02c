import pytest

from matrixweyl import (
    Coeff,
    K,
    MatrixDiffOp,
    ScalarDiffOp,
    build_gl_np1,
    commutator,
    gl2_irrep,
)
from matrixweyl.identities import commutation_table
from matrixweyl.serialize import dumps, matrix_op_to_json


def x(i):
    return ScalarDiffOp.x(i, 2)


def d(i):
    return ScalarDiffOp.d(i, 2)


def euler_complement(k):
    return ScalarDiffOp.constant(k, 2) - x(0) * d(0) - x(1) * d(1)


def test_scalar_family_matches_display():
    g = build_gl_np1(K, gl2_irrep(1))
    S = lambda op: MatrixDiffOp.from_scalar(op, 1)
    assert g.E[(1, 1)] == S(x(0) * d(0))
    assert g.E[(2, 2)] == S(x(1) * d(1))
    assert g.E[(1, 2)] == S(x(0) * d(1))
    assert g.E[(2, 1)] == S(x(1) * d(0))
    assert g.E0 == S(euler_complement(K))
    assert g.Tminus[1] == S(d(0))
    assert g.Tminus[2] == S(d(1))
    assert g.Tplus[1] == S(x(0) * euler_complement(K))
    assert g.Tplus[2] == S(x(1) * euler_complement(K))


def test_two_dim_family_spot_checks():
    g = build_gl_np1(K, gl2_irrep(2))
    # lower-left entry of T2+ is -x1
    t2p = g.Tplus[2]
    assert t2p.entries[1][0] == -x(0)
    # upper-right entry of T1+ is -x2
    assert g.Tplus[1].entries[0][1] == -x(1)
    # E11 diagonal: x1 d1 + 1 and x1 d1
    assert g.E[(1, 1)].entries[0][0] == x(0) * d(0) + 1
    assert g.E[(1, 1)].entries[1][1] == x(0) * d(0)
    # diagonal of T1+ carries the Cartan shift k-1 on the top slot
    assert g.Tplus[1].entries[0][0] == x(0) * euler_complement(K - 1)
    assert g.Tplus[1].entries[1][1] == x(0) * euler_complement(K)


def test_three_dim_family_sqrt2_entries():
    g = build_gl_np1(K, gl2_irrep(3))
    s2 = Coeff.sqrt2()
    assert g.Tplus[1].entries[0][1] == x(1) * (-s2)
    assert g.Tplus[1].entries[1][2] == x(1) * (-s2)
    assert g.Tplus[2].entries[1][0] == x(0) * (-s2)
    assert g.E[(1, 2)].entries[0][1] == ScalarDiffOp.constant(s2, 2)


def test_labels_follow_the_unit_matrices_of_gl3():
    g = build_gl_np1(K, gl2_irrep(2))
    names = {label: name for label, (name, _) in g.labelled().items()}
    assert names == {
        (1, 1): "E11", (1, 2): "E12", (2, 1): "E21", (2, 2): "E22", (0, 0): "E0",
        (0, 1): "T1-", (0, 2): "T2-", (1, 0): "T1+", (2, 0): "T2+",
    }
    assert list(g.labelled().values()) == g.named()


def test_e0_substitution_display():
    g = build_gl_np1(K, gl2_irrep(1))
    e0 = g.E0.substitute({"k": 2})
    assert e0 == MatrixDiffOp.from_scalar(euler_complement(Coeff.rational(2)), 1)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_full_commutation_table(d):
    g = build_gl_np1(K, gl2_irrep(d))
    reports = commutation_table(g)
    assert len(reports) == 45
    failed = [r.name for r in reports if not r.passed]
    assert failed == []


@pytest.mark.parametrize("dim", [2, 3])
def test_matrix_blocks_commute_with_differential_parts(dim):
    rep = build_gl_np1(K, gl2_irrep(dim)).rep
    pure = [x(i) * d(j) for i in range(2) for j in range(2)] + [d(0), d(1)]
    for bi in (1, 2):
        for bj in (1, 2):
            M = MatrixDiffOp.from_coeff_matrix(rep.block(bi, bj), 2)
            for P in pure:
                assert commutator(M, MatrixDiffOp.from_scalar(P, dim)).is_zero(), (bi, bj, P)


def test_structure_constants_of_mixed_pairs():
    # diagonal pairs close on E_ii - E0; off-diagonal pairs close on E_ij
    for d in (1, 2, 3):
        g = build_gl_np1(K, gl2_irrep(d))
        assert commutator(g.Tplus[1], g.Tminus[1]) == g.E[(1, 1)] - g.E0
        assert commutator(g.Tplus[2], g.Tminus[2]) == g.E[(2, 2)] - g.E0
        assert commutator(g.Tplus[1], g.Tminus[2]) == g.E[(1, 2)]
        assert commutator(g.Tplus[2], g.Tminus[1]) == g.E[(2, 1)]
        # [E0, T_i^+-] = -+ T_i^+-
        for i in (1, 2):
            assert commutator(g.E0, g.Tplus[i]) == -g.Tplus[i]
            assert commutator(g.E0, g.Tminus[i]) == g.Tminus[i]
        # [E_ij, T_k^-] = -delta_ik T_j^-
        assert commutator(g.E[(1, 2)], g.Tminus[1]) == -g.Tminus[2]
        assert commutator(g.E[(1, 2)], g.Tminus[2]).is_zero()
        # [E_ij, T_k^+] = delta_jk T_i^+
        assert commutator(g.E[(1, 2)], g.Tplus[2]) == g.Tplus[1]
        assert commutator(g.E[(1, 2)], g.Tplus[1]).is_zero()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_number_k_is_coerced_once(d):
    rep = gl2_irrep(d)
    by_number, by_coeff = build_gl_np1(3, rep), build_gl_np1(Coeff.rational(3), rep)
    assert by_number.k == by_coeff.k == Coeff.rational(3) and by_number.rep is rep
    for (name, a), (other, b) in zip(by_number.named(), by_coeff.named()):
        assert name == other and a == b
        assert dumps(matrix_op_to_json(a)) == dumps(matrix_op_to_json(b))
