"""Acceptance suite: one test per release criterion, exact tolerances.

Every check is exact (operator identities over Q(sqrt2)[k, omega, nu,
alpha]); where the criterion names a runtime budget the test enforces it.
Each test prints one PASS/FAIL line; run with -s to see them live.
"""

import json
import os
import time
from fractions import Fraction

from matrixweyl import (
    K,
    MatrixDiffOp,
    PolySpinor,
    build_gl_np1,
    build_gm,
    check_canonical,
    gl2_irrep,
    gm_commutator_tower,
)
from matrixweyl.identities import (
    art_dependency,
    art_relations,
    casimir_closed_form_reports,
    casimirs_gl3,
    commutation_table,
    g1_matches_gl3,
    gm_tower_constants,
    gm_tower_reports,
)
from matrixweyl.models import (
    WORDS,
    calogero,
    certify_flag,
    model_checks,
    pattern_verdict,
    spectrum,
)
from matrixweyl.serialize import matrix_op_to_json
from matrixweyl.spaces import hexagon_audit, orbit_closure

GOLDEN = os.path.join(os.path.dirname(__file__), "goldens")


def _golden(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        return json.load(fh)


def _announce(number, label, ok, elapsed=None):
    stamp = "" if elapsed is None else " (%.2fs)" % elapsed
    print("ACCEPTANCE %d %-24s %s%s" % (number, label, "PASS" if ok else "FAIL", stamp))
    assert ok, "criterion %d (%s) failed" % (number, label)


def test_criterion_1_commutation_closure():
    start = time.monotonic()
    ok = True
    for d in (1, 2, 3):
        gens = build_gl_np1(K, gl2_irrep(d))
        reports = commutation_table(gens)
        ok = ok and len(reports) == 45 and all(r.passed for r in reports)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    _announce(1, "commutation closure", ok, elapsed)


def test_criterion_2_casimir_values():
    values = {
        1: (K, K * (K + 2)),
        2: (K + 1, (K + 1) * (K + 1)),
        3: (K + 2, (K + 1) * (K + 1) + 3),
    }
    ok = True
    for d, (v1, v2) in values.items():
        gens = build_gl_np1(K, gl2_irrep(d))
        casimirs = casimirs_gl3(gens)
        C1, C2, _ = casimirs
        ident = MatrixDiffOp.identity(gens.dim, gens.nvars)
        ok = ok and C1 == ident * v1
        ok = ok and C2 == ident * v2
        for r in casimir_closed_form_reports(gens, casimirs):
            ok = ok and r.passed
    _announce(2, "casimir values", ok)


def test_criterion_3_art_relations():
    ok = True
    gens = [build_gl_np1(K, gl2_irrep(d)) for d in (1, 2, 3)]
    relations = [art_relations(g) for g in gens]
    for reports in relations:
        for r in reports:
            ok = ok and r.passed and r.residual_terms == 0
    dep = art_dependency(gens, relations)
    golden = _golden("art_dependency.json")["coefficients"]
    ok = ok and dep.passed
    ok = ok and {k: str(v) for k, v in sorted(dep.coefficients.items())} == golden
    _announce(3, "art relations", ok)


def test_criterion_4_representation_spaces():
    start = time.monotonic()
    ok = True
    for k, d, expected in (
        (1, 2, 3),
        (2, 2, 8),
        (3, 2, 15),
        (4, 2, 24),
        (2, 3, 6),
        (3, 3, 15),
    ):
        gens = build_gl_np1(k, gl2_irrep(d))
        basis = orbit_closure(
            gens.named(), PolySpinor.unit(d - 1, d, 2), degree_cap=k + 2
        )
        ok = ok and basis.dim == expected
        # the weights and their multiplicities (WeightCertificateError)
        certify_flag(basis, k, d)
        if d == 2:
            report = hexagon_audit(basis, k)
            ok = ok and report.passed
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    _announce(4, "representation spaces", ok, elapsed)


def test_criterion_5_polynomial_algebra_towers():
    ok = True
    golden = _golden("gm_tower_constants.json")
    for m in (1, 2, 3):
        gm = build_gm(m, K)
        tower = gm_commutator_tower(gm)
        for r in gm_tower_reports(gm, tower):
            ok = ok and r.passed
        ok = ok and tower[m + 1].is_zero()
        consts = gm_tower_constants(gm, tower)
        ok = ok and all(c is not None for c in consts)
        ok = ok and [str(c) for c in consts] == golden["m=%d" % m]
    g1 = build_gm(1, K)
    equal, dim_a, dim_b = g1_matches_gl3(g1, build_gl_np1(K, gl2_irrep(1)))
    ok = ok and equal and dim_a == dim_b == 9
    _announce(5, "polynomial algebra g(m)", ok)


def test_criterion_6_calogero():
    start = time.monotonic()
    _, (scalar, _) = model_checks("calogero", 1)
    ok = scalar.passed
    for k in (0, 1, 2, 3, 4):
        res = spectrum("calogero", WORDS["calogero"], k, 1, {"omega": 1, "nu": 0})
        expected = sorted(
            Fraction(-2) * (2 * p1 + 3 * p2)
            for p1 in range(k + 1)
            for p2 in range(k + 1 - p1)
        )
        got = sorted(p[0] for p in (e.pair for e in res.eigenvalues))
        ok = ok and res.all_exact() and got == expected
    golden = _golden("calogero_spectra.json")
    for k, d in ((1, 2), (2, 2), (3, 2), (2, 3), (3, 3)):
        res = spectrum("calogero", WORDS["calogero"], k, d, {"omega": 1, "nu": 0})
        rec = res.to_json()
        rec["verdict_vs_scalar_pattern"] = pattern_verdict(res, Fraction(1))
        ok = ok and rec == golden["k%d_d%d" % (k, d)]
        ok = ok and rec["verdict_vs_scalar_pattern"]["subset_of_pattern"]
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _announce(6, "calogero model", ok, elapsed)


def test_criterion_7_sutherland():
    _, (scalar, _) = model_checks("sutherland", 1)
    ok = scalar.passed
    golden = _golden("sutherland_spectra.json")
    for d, ks in ((1, (1, 2, 3)), (2, (1, 2, 3)), (3, (2, 3))):
        for k in ks:
            res = spectrum("sutherland", WORDS["sutherland"], k, d, {"alpha": 1, "nu": 0})
            rec = res.to_json()
            if d > 1:
                scalar = spectrum("sutherland", WORDS["sutherland"], k, 1, {"alpha": 1, "nu": 0})
                rec["multiset_equal_to_scalar"] = sorted(
                    e.to_json().items() for e in res.eigenvalues
                ) == sorted(e.to_json().items() for e in scalar.eigenvalues)
            ok = ok and rec == golden["k%d_d%d" % (k, d)]
            if not res.diagonal:
                ok = ok and len(res.charpolys) == len(res.block_sizes)
    # the displayed matrix forms differ from the lie-algebraic truth by the
    # recorded residuals, persisted next to the spectra
    residuals = _golden("display_residuals.json")
    for kind in ("calogero", "sutherland"):
        for d in (1, 2, 3):
            _, (_, rep) = model_checks(kind, d)
            rec = residuals["%s_d%d" % (kind, d)]
            ok = ok and rep.residual_terms == rec["residual_terms"]
            ok = ok and matrix_op_to_json(rep.residual) == rec["residual"]
    _announce(7, "sutherland model", ok)


def test_criterion_8_negative_controls():
    # one corrupted matrix entry must break a suite
    corrupted = gl2_irrep(2).replaced(1, 2, 0, 1, 2)
    canonical_broken = not check_canonical(corrupted).passed
    diag_corrupted = gl2_irrep(2).replaced(2, 2, 0, 0, 1)
    relations_broken = any(
        not r.passed for r in art_relations(build_gl_np1(K, diag_corrupted))
    )
    # one corrupted model coefficient must break the scalar reduction
    g = build_gl_np1(K, gl2_irrep(1))
    from matrixweyl.coeff import NU, OMEGA

    broken_model = (
        g.E[(1, 1)] * g.Tminus[1] * (-2)
        - g.E[(2, 2)] * g.Tminus[1] * 5
        + g.E[(1, 2)] * g.E[(1, 2)] * Fraction(2, 3)
        - g.E[(1, 1)] * (OMEGA * 4)
        - g.Tminus[1] * ((NU * 3 + 1) * 2)
        - g.E[(2, 2)] * (OMEGA * 6)
    )
    model_broken = not (broken_model - calogero("differential")).is_zero()
    ok = canonical_broken and relations_broken and model_broken
    _announce(8, "negative controls", ok)
