import json
import os
import sys
import time
from fractions import Fraction

import pytest

from matrixweyl import (
    Coeff,
    K,
    MatrixDiffOp,
    ScalarDiffOp,
    build_gl_np1,
    build_gm,
    commutator,
    gl2_irrep,
    gm_commutator_tower,
)
from matrixweyl import cli, generators, identities
from matrixweyl.linalg import solve_combination
from matrixweyl.identities import (
    g1_matches_gl3,
    gm_closure_check,
    gm_tower_constants,
    gm_tower_reports,
)
from helpers_mw import FracEchelon

GOLDEN = os.path.join(os.path.dirname(__file__), "goldens")


def x():
    return ScalarDiffOp.x(0, 2)


def y():
    return ScalarDiffOp.x(1, 2)


def dx():
    return ScalarDiffOp.d(0, 2)


def dy():
    return ScalarDiffOp.d(1, 2)


def test_m1_towers_match_display():
    gm = build_gm(1, K)
    S = lambda op: MatrixDiffOp.from_scalar(op, 1)
    assert gm.U[0] == S(y() * dx())
    j0 = x() * dx() + y() * dy() - ScalarDiffOp.constant(K, 2)
    assert gm.U[1] == S(y() * j0)
    assert gm.Tminus[0] == S(dy())
    assert gm.Tminus[1] == S(x() * dy())
    assert gm.J12 == S(dx())
    assert gm.J11 == S(-(x() * dx()) + ScalarDiffOp.constant(K * Fraction(1, 3), 2))
    assert gm.J0 == S(j0)


def test_m2_u2_strips_all_dx():
    gm = build_gm(2, K)
    # U2 = y J0 (J0 + 1) with no d_x factors left
    j0 = x() * dx() + (y() * dy()) * 2 - ScalarDiffOp.constant(K, 2)
    expected = y() * j0 * (j0 + 1)
    assert gm.U[2] == MatrixDiffOp.from_scalar(expected, 1)
    assert gm.U[0] == MatrixDiffOp.from_scalar(y() * dx() * dx(), 1)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_towers_commute_and_nilpotency(m):
    gm = build_gm(m, K)
    tower = gm_commutator_tower(gm)
    for r in gm_tower_reports(gm, tower):
        assert r.passed, r.name
    assert tower[m + 1].is_zero()


@pytest.mark.parametrize("m", [1, 2, 3])
def test_commutator_tower_proportional_to_closed_forms(m):
    gm = build_gm(m, K)
    consts = gm_tower_constants(gm, gm_commutator_tower(gm))
    assert all(c is not None for c in consts)
    # the observed normalization is the falling factorial m!/(m-i)!
    expected = []
    acc = 1
    for i in range(1, m + 1):
        acc *= m - i + 1
        expected.append(Fraction(acc))
    assert consts == expected
    with open(os.path.join(GOLDEN, "gm_tower_constants.json")) as fh:
        golden = json.load(fh)
    assert [str(c) for c in consts] == golden["m=%d" % m]


def test_tower_consumers_read_the_tower_they_are_given():
    gm = build_gm(2, K)
    tower = gm_commutator_tower(gm)
    # doubling V_1 .. V_m doubles each ratio; a nonzero last entry fails nilpotency
    doubled = [tower[0]] + [v.scale(2) for v in tower[1:-1]] + [gm.U[0]]
    assert gm_tower_constants(gm, doubled) == [
        2 * c for c in gm_tower_constants(gm, tower)
    ]
    assert gm_tower_reports(gm, tower)[-1].passed
    last = gm_tower_reports(gm, doubled)[-1]
    assert last.name == "U3 = 0" and not last.passed


@pytest.mark.parametrize("m", [1, 2, 3])
def test_closure_within_degree_m_for_trivial_block(m):
    report = gm_closure_check(build_gm(m, K))
    assert report.closed
    assert report.max_degree <= m


def _reference_memberships(gm):
    """Closure memberships by one tracked solve per target and per tier.

    Tier deg holds every ordered product of the Cartan-part generators of
    degree <= deg, each times k^0 .. k^(m+1); a target's degree is the first
    tier whose span contains it.
    """
    cap = gm.m
    cartan = [g for _, g in gm.cartan()]
    ident = MatrixDiffOp.identity(gm.dim, 2)
    tiers = []
    prods = [ident]
    frontier = [(ident, 0)]
    for deg in range(cap + 1):
        if deg:
            frontier = [
                (op * cartan[idx], idx)
                for op, start in frontier
                for idx in range(start, len(cartan))
            ]
            prods = prods + [op for op, _ in frontier]
        cols = []
        for op in prods:
            base = op.coords()
            cols.append(base)
            for t in range(1, cap + 2):
                kt = Coeff.param("k") ** t
                cols.append({key: c * kt for key, c in base.items()})
        tiers.append(cols)

    memberships = {}
    for i in range(gm.m + 1):
        for j in range(gm.m + 1):
            target = commutator(gm.Tminus[i], gm.U[j]).coords()
            if not target:
                memberships[(i, j)] = 0
                continue
            memberships[(i, j)] = next(
                (
                    deg
                    for deg in range(cap + 1)
                    if solve_combination(tiers[deg], target) is not None
                ),
                None,
            )
    return memberships


@pytest.mark.parametrize("m,d", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)])
def test_closure_memberships_match_per_tier_solves(m, d):
    gm = build_gm(m, K, gl2_irrep(d))
    report = gm_closure_check(gm)
    assert report.degree_cap == m
    assert report.memberships == _reference_memberships(gm)


@pytest.mark.parametrize("m,d", [(1, 1), (2, 1), (3, 1), (4, 1), (2, 2), (3, 2)])
def test_closure_memberships_do_not_depend_on_the_pivot_rule(monkeypatch, m, d):
    # QPEchelon pivots at each new row's highest column; the Fraction
    # echelon pivoting at the lowest one must give every membership alike
    gm = build_gm(m, K, gl2_irrep(d))
    got = gm_closure_check(gm).memberships
    monkeypatch.setattr(identities, "QPEchelon", lambda: FracEchelon(pick=min))
    assert gm_closure_check(gm).memberships == got


def test_closure_m4_within_budget():
    start = time.perf_counter()
    report = gm_closure_check(build_gm(4, K))
    elapsed = time.perf_counter() - start
    assert report.closed
    assert report.max_degree <= 4
    assert elapsed < 30, "gm_closure_check(m=4) took %.1f s" % elapsed


def test_closure_fails_for_matrix_blocks():
    # the displayed towers do not close over the Cartan part once the
    # matrix blocks are nontrivial; the checker reports, it does not raise
    for m in (1, 2):
        report = gm_closure_check(build_gm(m, K, gl2_irrep(2)))
        assert not report.closed


def test_g1_span_equals_scalar_gl3():
    gm = build_gm(1, K)
    gl3 = build_gl_np1(K, gl2_irrep(1))
    equal, dim_gm, dim_gl3 = g1_matches_gl3(gm, gl3)
    assert equal
    assert dim_gm == dim_gl3 == 9


def test_gm_invariant_triangle():
    # every generator preserves the triangle x^p1 y^p2, p1 + m p2 <= k
    from matrixweyl.spaces import matrix_of, scalar_basis

    for m in (1, 2, 3):
        for k in range(0, 7):
            basis = scalar_basis(k, m)
            gm = build_gm(m, Coeff.rational(k))
            for name, op in gm.named():
                matrix_of(op, basis)  # raises if the triangle is not preserved


def test_build_gm_validates_m():
    with pytest.raises(ValueError):
        build_gm(0, K)


def test_gm_command_builds_the_tower_once(monkeypatch, capsys):
    real = generators.gm_commutator_tower
    calls = []

    def spy(gm):
        calls.append(gm.m)
        return real(gm)

    # every module that bound the function by name sees the spy
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "matrixweyl":
            continue
        if getattr(module, "gm_commutator_tower", None) is real:
            monkeypatch.setattr(module, "gm_commutator_tower", spy)
    assert cli.main(["gm", "--m", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"
    assert calls == [3]
