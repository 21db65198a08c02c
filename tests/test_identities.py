import json
import os

import pytest

from matrixweyl import Coeff, K, MatrixDiffOp, MatrixRep, build_gl_np1, gl2_irrep
from matrixweyl.generators import _word_sum
from matrixweyl.identities import (
    ART_WORDS,
    _casimirs_c1_c2,
    _sum_of_products,
    _trace,
    _units,
    art_dependency,
    art_relations,
    casimir_centrality,
    casimir_closed_form_reports,
    casimirs_gl3,
    commutation_table,
    grading_audit,
)
from helpers_mw import art_left_sides, cycle_trace

GOLDEN = os.path.join(os.path.dirname(__file__), "goldens")


def gens_for(d, k=K):
    return build_gl_np1(k, gl2_irrep(d))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_commutation_table_closes(d):
    failed = [r.name for r in commutation_table(gens_for(d)) if not r.passed]
    assert failed == []


def scalar_gens(n):
    """Scalar gl(n+1): every block M_ij is the 1 x 1 zero matrix."""
    zero = {(i, j): [[Coeff.zero()]] for i in range(1, n + 1) for j in range(1, n + 1)}
    return build_gl_np1(K, MatrixRep(n, 1, zero))


@pytest.mark.parametrize("n", [1, 3, 4])
def test_scalar_gl_np1_table_and_casimirs_for_any_n(n):
    g = scalar_gens(n)
    reports = commutation_table(g)
    size = (n + 1) ** 2
    assert len(reports) == size * (size + 1) // 2
    assert [r.name for r in reports if not r.passed] == []
    C1, C2 = _casimirs_c1_c2(g)
    for name, C in (("C1", C1), ("C2", C2)):
        assert [r.name for r in casimir_centrality(C, g, name) if not r.passed] == []
    ident = MatrixDiffOp.identity(g.dim, g.nvars)
    assert C1 == ident * K
    assert C2 == ident * (K * (K + n))


@pytest.mark.parametrize(
    "d,c1,c2",
    [
        (1, K, K * (K + 2)),
        (2, K + 1, (K + 1) * (K + 1)),
        (3, K + 2, (K + 1) * (K + 1) + 3),
    ],
)
def test_casimir_values(d, c1, c2):
    g = gens_for(d)
    C1, C2, _ = casimirs_gl3(g)
    ident = MatrixDiffOp.identity(g.dim, g.nvars)
    assert C1 == ident * c1
    assert C2 == ident * c2


@pytest.mark.parametrize("d", [1, 2, 3])
def test_casimir_closed_forms_and_c3(d):
    g = gens_for(d)
    for r in casimir_closed_form_reports(g, casimirs_gl3(g)):
        assert r.passed, r.name


@pytest.mark.parametrize("d", [1, 2, 3])
def test_casimir_centrality(d):
    g = gens_for(d)
    C1, C2, C3 = casimirs_gl3(g)
    for name, C in (("C1", C1), ("C2", C2), ("C3", C3)):
        for r in casimir_centrality(C, g, name):
            assert r.passed, r.name


def test_corrupted_casimir_not_central():
    g = gens_for(3)
    _, C2, _ = casimirs_gl3(g)
    broken = C2 - g.Tplus[1] * g.Tminus[1]  # drop one term
    reports = casimir_centrality(broken, g, "C2'")
    assert any(not r.passed for r in reports)


# -- the matrix-power traces against the cycle sum ------------------------------


def _traces(e, idx, powers=(1, 2, 3)):
    """Each trace both ways: (identities._trace, helpers_mw.cycle_trace)."""
    return [(_trace(e, idx, p), cycle_trace(e, idx, p)) for p in powers]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_traces_equal_the_cycle_sum_on_gl3(d):
    g = gens_for(d)
    traces = _traces(_units(g), range(3))
    for got, ref in traces:
        assert got == ref
    assert casimirs_gl3(g) == tuple(ref for _, ref in traces)
    # the block traces c1m and c2m of casimir_closed_form_reports
    for got, ref in _traces(g.rep.ops, range(1, 3)):
        assert got == ref


@pytest.mark.parametrize("n", [1, 2, 3])
def test_traces_equal_the_cycle_sum_for_scalar_gl_np1(n):
    g = scalar_gens(n)
    traces = _traces(_units(g), range(n + 1))
    for got, ref in traces:
        assert got == ref
    assert _casimirs_c1_c2(g) == (traces[0][1], traces[1][1])


def test_corrupted_block_gives_the_same_failing_c3_residual_both_ways():
    rep = gl2_irrep(2).replaced(2, 2, 0, 0, 1)
    g = build_gl_np1(K, rep)
    got = casimir_closed_form_reports(g, casimirs_gl3(g))[2]
    ref = casimir_closed_form_reports(g, tuple(r for _, r in _traces(_units(g), range(3))))[2]
    assert not got.passed
    assert got.residual == ref.residual


def _cubic(e, idx, pair):
    """sum_ac e_ca o F_ac, where F_ac sums x o y over the (x, y) = pair(a, b, c)."""
    F = {(a, c): _sum_of_products([pair(a, b, c) for b in idx]) for a in idx for c in idx}
    return _sum_of_products([(e[(c, a)], F[(a, c)]) for a in idx for c in idx])


def test_a_trace_composed_in_the_wrong_order_fails():
    g = gens_for(2)
    e, idx = _units(g), range(3)
    C3 = cycle_trace(e, idx, 3)
    # e_ca F_ac is tr(E F), the same cycle sum relabelled, so not a control
    assert _cubic(e, idx, lambda a, b, c: (e[(a, b)], e[(b, c)])) == C3
    # F_ac composed the wrong way round: the cycles summed as e_ca e_bc e_ab
    wrong = _cubic(e, idx, lambda a, b, c: (e[(b, c)], e[(a, b)]))
    assert wrong != C3
    assert not casimir_closed_form_reports(g, (*_casimirs_c1_c2(g), wrong))[2].passed


@pytest.mark.parametrize("d", [1, 2, 3])
def test_art_relations_pass_symbolically(d):
    for r in art_relations(gens_for(d)):
        assert r.passed, "%s residual has %d terms" % (r.name, r.residual_terms)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_art_words_build_the_hand_written_left_sides(d):
    g = gens_for(d)
    want = art_left_sides(g)
    assert list(ART_WORDS) == list(want)
    for name, words in ART_WORDS.items():
        assert _word_sum(words, g) == want[name], name
    assert [r.lhs for r in art_relations(g)] == list(want.values())


def test_art_relations_scalar_case_rhs_vanishes():
    # with all matrix blocks zero the right sides collapse to zero
    for r in art_relations(gens_for(1)):
        assert r.rhs.is_zero()


def test_corrupted_block_breaks_a_relation():
    # a diagonal perturbation of M22 falsifies [M12, M22] = M12 and with it
    # the first relation; a pure scaling of M12 would not (relations 3-9
    # hold for arbitrary blocks, 1-2 only use that linear relation)
    rep = gl2_irrep(2).replaced(2, 2, 0, 0, 1)
    g = build_gl_np1(K, rep)
    results = art_relations(g)
    broken = [r.name for r in results if not r.passed]
    assert "Art.1" in broken


def test_scaled_offdiagonal_block_breaks_canonical_but_not_relations():
    rep = gl2_irrep(2).replaced(1, 2, 0, 1, 2)
    from matrixweyl import check_canonical

    assert not check_canonical(rep).passed
    g = build_gl_np1(K, rep)
    assert all(r.passed for r in art_relations(g))


def test_art_dependency_matches_golden():
    gens = [gens_for(d) for d in (1, 2, 3)]
    dep = art_dependency(gens, [art_relations(g) for g in gens])
    assert dep.passed
    with open(os.path.join(GOLDEN, "art_dependency.json")) as fh:
        golden = json.load(fh)
    assert {k: str(v) for k, v in sorted(dep.coefficients.items())} == golden[
        "coefficients"
    ]
    # and the combination is an identity in each representation
    for r in dep.reports:
        assert r.passed, r.name


def test_grading_audit_generators():
    audit = grading_audit(gens_for(1))
    assert audit.generator_grades["T1+"] == (1, 0)
    assert audit.generator_grades["E12"] == (1, -1)
    assert audit.generator_grades["E0"] == (0, 0)
    assert audit.generator_grades["T2-"] == (0, -1)


def test_grading_audit_balance_and_printed_list():
    audit = grading_audit(gens_for(1))
    assert audit.all_balanced
    # the reference grading table disagrees with the computed one exactly once
    assert audit.mismatched_lines() == ["Art.2"]
    line = {l.name: l for l in audit.lines}["Art.2"]
    assert line.computed == (((0, 1), (0, 0)), ((1, 0), (-1, 1)))


def test_grading_audit_grades_the_quadratic_words_in_order():
    # the grades of the two products of each relation, in the order the
    # relation's quadratic words list them
    audit = grading_audit(gens_for(1))
    assert {l.name: l.computed for l in audit.lines} == {
        "Art.1": (((1, 0), (0, 0)), ((0, 1), (1, -1))),
        "Art.2": (((0, 1), (0, 0)), ((1, 0), (-1, 1))),
        "Art.3": (((1, -1), (0, 0)), ((1, 0), (0, -1))),
        "Art.4": (((-1, 1), (0, 0)), ((0, 1), (-1, 0))),
        "Art.5": (((1, 0), (-1, 0)), ((0, 0), (0, 0))),
        "Art.6": (((0, 1), (0, -1)), ((0, 0), (0, 0))),
        "Art.7": (((1, -1), (-1, 1)), ((0, 0), (0, 0))),
        "Art.8": (((0, 0), (-1, 0)), ((-1, 1), (0, -1))),
        "Art.9": (((1, -1), (-1, 0)), ((0, 0), (0, -1))),
    }
    assert [l.name for l in audit.lines] == ["Art.%d" % i for i in range(1, 10)]


def test_grading_audit_requires_scalar_rep():
    with pytest.raises(ValueError):
        grading_audit(gens_for(2))
