import json
import os
import re
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from matrixweyl import ALPHA, Coeff, K, NU, OMEGA, build_gl_np1, gl2_irrep
from matrixweyl.linalg import span_contains
from matrixweyl.models import (
    GRADINGS,
    WORDS,
    EigRecord,
    NotTriangularError,
    SpectrumResult,
    _grade_blocks,
    _grades,
    _sci_up,
    _word_sum,
    calogero,
    flag_basis,
    model_checks,
    pattern_verdict,
    spectrum,
    sutherland,
)
from matrixweyl.serialize import matrix_op_to_json
from matrixweyl.spaces import OperatorMatrix, basis_weights, matrix_of, orbit_closure
from matrixweyl.weyl import PolySpinor
from helpers_mw import dense_block_scan, fraction_pattern_verdict

GOLDEN = os.path.join(os.path.dirname(__file__), "goldens")


def load(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        return json.load(fh)


def test_each_spectrum_result_gets_its_own_charpolys():
    a, b = (SpectrumResult("calogero", 1, 1, {}, 0, [], True, []) for _ in "ab")
    a.charpolys.append(["1"])
    assert a.charpolys is not b.charpolys and b.charpolys == []


@pytest.mark.parametrize("kind", ["calogero", "sutherland"])
def test_liealgebraic_scalar_form_is_the_differential_operator(kind):
    _, (scalar, _) = model_checks(kind, 1)
    assert scalar.passed


def test_calogero_matrix_display_reduces_at_trivial_block():
    _, (_, report) = model_checks("calogero", 1)
    assert report.passed
    assert report.residual.is_zero()


def test_sutherland_matrix_display_residual_at_trivial_block():
    # Not zero, and not by design: the display's 2 alpha^2 (nu + 1/3) x2 d2
    # term has the opposite sign to the differential operator's, which
    # the scalar check of model_checks proves equal to the lie-algebraic
    # form, so the residual (display minus lie) is 4 alpha^2 (nu + 1/3) x2 d2.
    # The golden keeps it until the display is corrected.
    from matrixweyl import MatrixDiffOp, ScalarDiffOp

    _, (_, report) = model_checks("sutherland", 1)
    x2d2 = MatrixDiffOp.from_scalar(ScalarDiffOp.x(1, 2) * ScalarDiffOp.d(1, 2), 1)
    assert report.residual == x2d2 * (ALPHA * ALPHA * (NU + Fraction(1, 3)) * 4)
    golden = load("display_residuals.json")["sutherland_d1"]
    assert report.residual_terms == golden["residual_terms"]
    assert matrix_op_to_json(report.residual) == golden["residual"]


@pytest.mark.parametrize("kind", ["calogero", "sutherland"])
@pytest.mark.parametrize("d", [2, 3])
def test_matrix_display_residuals_match_golden(kind, d):
    _, (_, report) = model_checks(kind, d)
    golden = load("display_residuals.json")["%s_d%d" % (kind, d)]
    assert report.residual_terms == golden["residual_terms"]
    assert matrix_op_to_json(report.residual) == golden["residual"]


def test_calogero_display_residual_is_lower_order():
    # the recorded discrepancy of the reference d x d display is exactly
    # 8 M22 d_tau2: first order, no potential part
    _, (_, report) = model_checks("calogero", 2)
    res = report.residual
    assert res.entries[0][0].is_zero()
    assert res.entries[0][1].is_zero()
    assert res.entries[1][0].is_zero()
    from matrixweyl import ScalarDiffOp

    assert res.entries[1][1] == ScalarDiffOp.d(0, 2) * 8


def test_scalar_calogero_spectrum_examples():
    res = spectrum("calogero", WORDS["calogero"], 2, 1, {"omega": 1, "nu": 0})
    values = sorted(p[0] for p in (e.pair for e in res.eigenvalues))
    assert values == [-12, -10, -8, -6, -4, 0]
    assert res.diagonal

    res0 = spectrum("calogero", WORDS["calogero"], 0, 1, {"omega": 1, "nu": 0})
    assert [e.pair[0] for e in res0.eigenvalues] == [0]


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_scalar_calogero_matches_pattern(k):
    res = spectrum("calogero", WORDS["calogero"], k, 1, {"omega": 1, "nu": 0})
    verdict = pattern_verdict(res, Fraction(1))
    assert verdict["multiset_equal_to_scalar"]
    assert res.all_exact()
    # absolute values follow 2 omega (2 p1 + 3 p2)
    absvals = sorted(-p[0] for p in (e.pair for e in res.eigenvalues))
    expected = sorted(2 * (2 * p1 + 3 * p2) for p1 in range(k + 1) for p2 in range(k + 1 - p1))
    assert absvals == expected


def test_scalar_calogero_omega_scaling():
    res = spectrum("calogero", WORDS["calogero"], 1, 1, {"omega": Fraction(1, 2), "nu": 7})
    values = sorted(p[0] for p in (e.pair for e in res.eigenvalues))
    assert values == [-3, -2, 0]  # nu never enters the diagonal


@pytest.mark.parametrize("d", [1, 2, 3])
def test_substituting_k_equals_a_build_at_that_k(d):
    # E0 and T1+ carry k, so this operator does; model --k binds by
    # substitution and must print the operator a build at that k gives
    words = WORDS["calogero"] + ((Coeff.rational(1), ("E0", "T1+")), (NU, ("T1+",)))
    formal = _word_sum(words, build_gl_np1(K, gl2_irrep(d)))
    bound = _word_sum(words, build_gl_np1(2, gl2_irrep(d)))
    assert formal != bound
    assert matrix_op_to_json(formal.substitute({"k": 2})) == matrix_op_to_json(bound)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_pattern_verdict_at_omega_zero(d):
    # every pattern value is 0 at omega = 0: the spectrum lies in the
    # pattern exactly when every eigenvalue is exactly 0
    res = spectrum("calogero", WORDS["calogero"], 2, d, {"omega": 0, "nu": 0})
    assert [e.pair for e in res.eigenvalues] == [(0, 0)] * res.basis_dim
    assert pattern_verdict(res, Fraction(0))["subset_of_pattern"]
    off = EigRecord(True, (Fraction(1), Fraction(0)), 1.0)
    res.eigenvalues = res.eigenvalues[1:] + [off]
    assert pattern_verdict(res, Fraction(0)) == {
        "multiset_equal_to_scalar": False,
        "subset_of_pattern": False,
    }


def _with_eigenvalues(k, pairs, inexact=0):
    """A Calogero SpectrumResult at k whose eigenvalues are the exact pairs
    and inexact numeric values."""
    eigs = [EigRecord(True, p, float(p[0]) + 2**0.5 * float(p[1])) for p in pairs]
    eigs += [EigRecord(False, None, 1.5, 0.0, 1e-12)] * inexact
    return SpectrumResult("calogero", k, 1, {}, len(eigs), [len(eigs)], True, eigs)


@pytest.mark.parametrize("omega", [Fraction(1), Fraction(-1, 2), Fraction(3), Fraction(0)])
@pytest.mark.parametrize("k", [0, 1, 3])
def test_the_integer_pattern_verdict_is_the_fraction_verdict(k, omega):
    step = -2 * omega
    ns = [2 * p1 + 3 * p2 for p1 in range(k + 1) for p2 in range(k + 1 - p1)]
    pattern = [(step * n, Fraction(0)) for n in ns]
    cases = [
        pattern,
        pattern[::-1],
        pattern[1:],
        pattern + [pattern[-1]],
        pattern[:-1] + [(step, Fraction(0))],  # q = 1, the one gap of 2 p1 + 3 p2
        pattern[:-1] + [(step * Fraction(1, 2), Fraction(0))],  # q not integral
        pattern[:-1] + [(step * -2, Fraction(0))],  # q < 0
        pattern[:-1] + [(step * ns[-1], Fraction(1))],  # a sqrt2 part
        pattern[:-1] + [(Fraction(1), Fraction(0))],  # off the pattern at omega = 0
        [(step * n, Fraction(0)) for n in (0, 2, 3, 3 * k + 1)],  # past the top of k
    ]
    results = [_with_eigenvalues(k, pairs) for pairs in cases]
    results.append(_with_eigenvalues(k, pattern[:-1], inexact=1))
    for res in results:
        assert pattern_verdict(res, omega) == fraction_pattern_verdict(res, omega)
    verdicts = [pattern_verdict(res, omega) for res in results]
    assert verdicts[0] == {"multiset_equal_to_scalar": True, "subset_of_pattern": True}
    assert verdicts[-1] == {"multiset_equal_to_scalar": False, "subset_of_pattern": False}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("omega", [Fraction(1), Fraction(-1, 2), Fraction(0)])
def test_the_pattern_verdict_of_a_spectrum_is_the_fraction_verdict(d, omega):
    for k in range(d - 1, 5):
        res = spectrum("calogero", WORDS["calogero"], k, d, {"omega": omega, "nu": 0})
        assert pattern_verdict(res, omega) == fraction_pattern_verdict(res, omega)


def test_exact_eigenvalues_whose_floats_tie_sort_by_their_exact_values():
    # 1 + 10^-20 and 1 are one float; the flag finds x1 (E11) before x2 (E22)
    tiny = Fraction(1, 10**20)
    words = ((Coeff.rational(1 + tiny), ("E11",)), (Coeff.rational(1), ("E22",)))
    res = spectrum("sutherland", words, 1, 1, {})
    assert [e.pair for e in res.eigenvalues] == [(0, 0), (1, 0), (1 + tiny, 0)]


def test_a_float_tie_is_broken_by_a_plus_b_sqrt2_and_exact_first():
    # the float of sqrt2, as a rational, lies just above sqrt2
    above = Fraction(2**0.5)
    root2 = EigRecord(True, (Fraction(0), Fraction(1)), 2**0.5)
    rational = EigRecord(True, (above, Fraction(0)), float(above))
    numeric = EigRecord(False, None, 2**0.5, 0.0, 1e-12)
    for given in ([rational, numeric, root2], [numeric, root2, rational]):
        assert sorted(given, key=EigRecord.sort_key) == [root2, rational, numeric]


@pytest.mark.parametrize(
    "k,d", [(1, 2), (2, 2), (3, 2), (2, 3), (3, 3)]
)
def test_matrix_calogero_spectra_match_golden(k, d):
    golden = load("calogero_spectra.json")["k%d_d%d" % (k, d)]
    res = spectrum("calogero", WORDS["calogero"], k, d, {"omega": 1, "nu": 0})
    rec = res.to_json()
    rec["verdict_vs_scalar_pattern"] = pattern_verdict(res, Fraction(1))
    assert rec == golden
    # the extension stays exactly solvable inside the scalar pattern
    assert rec["verdict_vs_scalar_pattern"]["subset_of_pattern"]
    assert not rec["verdict_vs_scalar_pattern"]["multiset_equal_to_scalar"]


def test_matrix_flag_needs_long_enough_first_row():
    with pytest.raises(ValueError):
        flag_basis(1, 3)


@pytest.mark.parametrize(
    "k,d", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3)]
)
def test_sutherland_spectra_match_golden(k, d):
    golden = load("sutherland_spectra.json")["k%d_d%d" % (k, d)]
    res = spectrum("sutherland", WORDS["sutherland"], k, d, {"alpha": 1, "nu": 0})
    rec = res.to_json()
    if d > 1:
        scalar = spectrum("sutherland", WORDS["sutherland"], k, 1, {"alpha": 1, "nu": 0})
        rec["multiset_equal_to_scalar"] = sorted(
            e.to_json().items() for e in res.eigenvalues
        ) == sorted(e.to_json().items() for e in scalar.eigenvalues)
    assert rec == golden


@pytest.mark.parametrize("nu", [Fraction(0), Fraction(1, 3)])
@pytest.mark.parametrize("kind", sorted(WORDS))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_spectra_nest_in_k(kind, d, nu):
    # the flag [k - 1, d - 1] lies in [k, d - 1], so the exact spectrum on it
    # is part of the exact spectrum at k
    bindings = {"omega" if kind == "calogero" else "alpha": 1, "nu": nu}

    def exact(k):
        res = spectrum(kind, WORDS[kind], k, d, bindings)
        return Counter(e.pair for e in res.eigenvalues if e.exact)

    below = exact(d - 1)
    for k in range(d, 7):
        here = exact(k)
        assert not below - here, (k, below - here)
        assert span_contains(flag_basis(k, d).coords_list(), flag_basis(k - 1, d).coords_list()), k
        below = here


def test_sutherland_block_charpolys_are_recorded():
    res = spectrum("sutherland", WORDS["sutherland"], 2, 1, {"alpha": 1, "nu": 0})
    assert not res.diagonal
    assert res.block_sizes == [1, 2, 3]
    assert len(res.charpolys) == len(res.block_sizes)
    assert res.all_exact()


def test_sutherland_flag_invariance_k_le_3_d_le_3():
    for d, ks in ((1, (1, 2, 3)), (2, (1, 2, 3)), (3, (2, 3))):
        for k in ks:
            # raises if not invariant
            spectrum("sutherland", WORDS["sutherland"], k, d, {"alpha": 1, "nu": 0})


def test_corrupted_model_coefficient_breaks_reduction():
    # replace the -6 E22 T1- coefficient by -5: no longer the same operator
    g = build_gl_np1(K, gl2_irrep(1))
    w, nu = OMEGA, NU
    broken = (
        g.E[(1, 1)] * g.Tminus[1] * (-2)
        - g.E[(2, 2)] * g.Tminus[1] * 5
        + g.E[(1, 2)] * g.E[(1, 2)] * Fraction(2, 3)
        - g.E[(1, 1)] * (w * 4)
        - g.Tminus[1] * ((nu * 3 + 1) * 2)
        - g.E[(2, 2)] * (w * 6)
    )
    assert not (broken - calogero("differential")).is_zero()


def test_spectrum_requires_frequency_binding():
    with pytest.raises(ValueError):
        spectrum("calogero", WORDS["calogero"], 1, 1, {"nu": 0})


@pytest.mark.parametrize(
    "kind, bindings, missing",
    [
        ("calogero", {"nu": 0}, "omega"),
        ("calogero", {"omega": 1}, "nu"),
        ("sutherland", {"nu": 0}, "alpha"),
        ("sutherland", {"alpha": 1}, "nu"),
    ],
)
def test_spectrum_requires_every_parameter_the_words_carry(kind, bindings, missing):
    with pytest.raises(ValueError, match="binding for %s is required" % missing):
        spectrum(kind, WORDS[kind], 2, 2, bindings)


def test_spectrum_refuses_a_negative_k():
    with pytest.raises(ValueError, match="no finite flag for k=-1 with d=1"):
        spectrum("calogero", WORDS["calogero"], -1, 1, {"omega": 1, "nu": 0})


def _printed_err(err):
    return EigRecord(False, None, 1.0, 0.0, err).to_json()["err"]


def test_printed_err_is_rounded_up():
    from matrixweyl.linalg import numeric_roots

    # t^2 - 2: the certified radius is 2.4914...e-51
    _, err = numeric_roots([Coeff.rational(-2), Coeff.rational(0), Coeff.rational(1)])
    assert Decimal(_printed_err(err)) >= Decimal(err)
    assert _printed_err(err) == "2.492e-51"
    assert _printed_err(0.0) == "0.000e+00"
    assert _printed_err(None) == "0.000e+00"
    assert _printed_err(9.9995) == "1.000e+01"
    assert _printed_err(1.5e-323) == "1.483e-323"  # subnormal: 1.48219...e-323


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(min_value=0, max_value=1e300))
def test_printed_err_keeps_four_digits_and_never_falls_below(err):
    printed = _printed_err(err)
    assert re.fullmatch(r"\d\.\d{3}e[+-]\d{2,3}", printed)
    # one unit of the fourth significant digit of err
    unit = Decimal(1).scaleb(Decimal(err).adjusted() - 3) if err else 0
    assert Decimal(err) <= Decimal(printed) <= Decimal(err) + unit


_SCI_UP_KNOWN = {0.0: "0.000e+00", 9.99951e-5: "1.000e-04"}  # the second carries a decade


@settings(max_examples=500, deadline=None)
@given(st.floats(min_value=0, allow_nan=False, allow_infinity=False))
@example(0.0)
@example(5e-324)
@example(9.99951e-5)
@example(sys.float_info.max)
def test_sci_up_is_the_least_four_digit_bound_not_below_x(x):
    printed = _sci_up(x)
    assert printed == _SCI_UP_KNOWN.get(x, printed)
    mantissa, exponent = printed.split("e")
    assert re.fullmatch(r"\d\.\d{3}", mantissa) and re.fullmatch(r"[+-]\d{2,3}", exponent)
    bound = Decimal(printed)
    assert bound >= Decimal(x)
    if x:
        # four significant digits, and one unit lower in the fourth is below x
        assert mantissa[0] != "0"
        assert bound - Decimal(1).scaleb(int(exponent) - 3) < Decimal(x)


# -- the numeric fallback, end to end -------------------------------------------


_ONE = Coeff.one()


# The Sutherland words plus gl3-generator products at d = 1: each added
# term keeps every polynomial-triangle block invariant but gives some of
# them irrational eigenvalues, so models.spectrum has to take the numeric
# branch.
@pytest.mark.parametrize(
    "k, extra, inexact",
    [
        # E12 E21
        (2, ((_ONE, ("E12", "E21")),), 2),
        # E21 E12 + E11; deflated factor (t^2 + 20t/3 + 31/3)^2: two double roots
        (3, ((_ONE, ("E21", "E12")), (_ONE, ("E11",))), 4),
    ],
)
def test_numeric_fallback_end_to_end_is_certified(monkeypatch, k, extra, inexact):
    import mpmath
    import sympy

    from matrixweyl import models

    calls = []
    real_numeric_roots = models.numeric_roots

    def spy(coeffs):
        out = real_numeric_roots(coeffs)
        calls.append(out)
        return out

    monkeypatch.setattr(models, "numeric_roots", spy)
    bind = {"nu": Fraction(1, 3), "alpha": 1}
    words = WORDS["sutherland"] + extra
    result = spectrum("sutherland", words, k, 1, bind)

    approx = [z for roots, _ in calls for z in roots]
    errs = [err for _, err in calls]
    records = [e for e in result.eigenvalues if not e.exact]
    assert len(records) == len(approx) == inexact
    # a square-free solve certifies to the working precision, a doubled
    # root solved as such only to about half of it
    assert max(errs) < 1e-45
    assert {e.err for e in records} <= set(errs)

    # sympy, independently: the eigenvalues of the whole operator matrix
    basis = flag_basis(k, 1)
    opm = matrix_of(_word_sum(words, build_gl_np1(k, gl2_irrep(1))), basis).substitute(bind)
    rows = []
    for row in opm.entries:
        rows.append([])
        for c in row:
            a, b = c.constant_pair()
            rows[-1].append(sympy.Rational(str(a)) + sympy.Rational(str(b)) * sympy.sqrt(2))
    t = sympy.Symbol("t")
    exact_roots = sympy.roots(sympy.Matrix(rows).charpoly(t).as_expr(), t)
    assert sum(exact_roots.values()) == basis.dim
    irrational = {r: m for r, m in exact_roots.items() if not r.is_rational}
    assert sum(irrational.values()) == inexact
    with mpmath.workdps(60):
        for r, mult in irrational.items():
            value = mpmath.mpmathify(str(sympy.N(r, 60)))
            near = [z for z in approx if abs(z - value) <= max(errs)]
            assert len(near) == mult
    rational = sorted(
        Fraction(str(r)) for r, m in exact_roots.items() if r.is_rational for _ in range(m)
    )
    assert sorted(e.pair[0] for e in result.eigenvalues if e.exact) == rational


@pytest.mark.parametrize("d, entry", [(1, "(1,0)"), (2, "(4,1)")])
def test_a_grade_raising_word_is_not_triangular(d, entry):
    # T1+ raises the grade, so the added word puts a nonzero entry below
    # the block diagonal of the flag's grade order; the entry is named in
    # discovery indices (at d = 2 the grade-sorted position (2,0))
    words = WORDS["calogero"] + ((_ONE, ("T1+",)),)
    with pytest.raises(NotTriangularError, match=re.escape("entry %s " % entry)):
        spectrum("calogero", words, 2, d, {"nu": 0, "omega": 1})


@st.composite
def _graded_sparse_matrix(draw):
    """(grades, OperatorMatrix): grades of length 1 to 7 in shuffled order,
    with runs of any length once sorted (1 x 1 blocks among them), and
    nonzero entries at random cells, below the diagonal of any block or
    none."""
    ordered = sorted(draw(st.lists(st.integers(-2, 3), min_size=1, max_size=7)))
    n = len(ordered)
    grades = [ordered[p] for p in draw(st.permutations(range(n)))]
    cells = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    values = st.sampled_from([Coeff.rational(3), Coeff.rational(-1, 2), NU * 2, OMEGA + 1])
    return grades, OperatorMatrix(n, {cell: draw(values) for cell in sorted(cells)})


@settings(max_examples=400, deadline=None)
@given(_graded_sparse_matrix())
def test_sparse_block_checks_match_the_dense_scan(case):
    # the oracle scans the matrix on the stably grade-sorted basis; its
    # positions p map back to the discovery indices order[p]
    grades, opm = case
    order = sorted(range(opm.dim), key=grades.__getitem__)
    entries = opm.entries
    permuted = [[entries[i][j] for j in order] for i in order]
    blocks, diagonal, first = dense_block_scan(permuted, [grades[i] for i in order])
    if first is not None:
        entry = (order[first[0]], order[first[1]])
        with pytest.raises(NotTriangularError, match=re.escape("entry (%d,%d) " % entry)):
            _grade_blocks(opm, grades)
        return
    got, got_diagonal = _grade_blocks(opm, grades)
    assert list(got.values()) == [order[s:e] for s, e in blocks]
    assert list(got) == sorted(set(grades))
    assert got_diagonal == diagonal


def test_spectrum_grading_refuses_a_non_weight_vector():
    # e_0 + e_1 has weights (1, 0) and (0, 1) in its two components
    seed = PolySpinor.unit(0, 2, 2) + PolySpinor.unit(1, 2, 2)
    gens = build_gl_np1(2, gl2_irrep(2))
    basis = orbit_closure(gens.named(), seed, degree_cap=4)
    assert basis_weights(basis)[0] is None
    for form in GRADINGS.values():
        with pytest.raises(ValueError, match="basis vector 0 is not a weight vector"):
            _grades(basis, form)


@pytest.mark.parametrize(
    "kind, k, d", [(kind, k, d) for kind in GRADINGS for d in (1, 2, 3) for k in range(d - 1, 5)]
)
def test_the_model_grading_steps_no_word_up(kind, k, d):
    # every generator a word uses moves the model's grade by one fixed step
    # on the flag, and no word's steps sum above 0: so the matrix is block
    # upper triangular in that grade
    words = WORDS[kind]
    names = {name for _, word in words for name in word}
    basis = flag_basis(k, d, names)
    grades = _grades(basis, GRADINGS[kind])
    step = {}
    for name in names:
        moves = {grades[i] - grades[j] for j, col in enumerate(basis.action[name]) for i in col}
        assert len(moves) <= 1, name
        step[name] = moves.pop() if moves else 0
    assert all(sum(step[name] for name in word) <= 0 for _, word in words)


@pytest.mark.parametrize("kind", ["calogero", "sutherland"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_binding_before_the_matrix_equals_binding_after(kind, d):
    # spectrum binds the parameters on the operator and then solves for its
    # matrix; OperatorMatrix.substitute on the formal matrix is the oracle
    k = d
    op = (calogero if kind == "calogero" else sutherland)("liealgebraic", d)
    basis = flag_basis(k, d)
    formal = matrix_of(op, basis)
    other = "omega" if kind == "calogero" else "alpha"
    for nu in (0, Fraction(1, 3), 2, Fraction(-1, 2)):
        for b in ({"nu": nu, other: Fraction(3, 2)}, {"nu": nu}):
            early = matrix_of(op.substitute(b), basis)
            late = formal.substitute(b)
            assert early == late and repr(early) == repr(late)
            for row_e, row_l in zip(early.entries, late.entries):
                for e, l in zip(row_e, row_l):
                    assert e == l and repr(e) == repr(l)


# -- the words against the hand-written lie-algebraic operators --------------------


def _hand_written(kind, g):
    """The lie-algebraic operators written out in the generators, as oracle."""
    F = Fraction
    E11, E22, E12, E21, T1 = g.E[(1, 1)], g.E[(2, 2)], g.E[(1, 2)], g.E[(2, 1)], g.Tminus[1]
    if kind == "calogero":
        return (
            E11 * T1 * (-2)
            - E22 * T1 * 6
            + E12 * E12 * F(2, 3)
            - E11 * (OMEGA * 4)
            - T1 * ((NU * 3 + 1) * 2)
            - E22 * (OMEGA * 6)
        )
    a2 = ALPHA * ALPHA
    return (
        E11 * T1 * (-2)
        - E22 * T1 * 6
        + E12 * E12 * F(2, 3)
        - T1 * ((NU * 3 + 1) * 2)
        + E21 * E21 * a2 * a2 * F(1, 24)
        - (E11 * E11 * 3 + E11 * E22 * 8 + E22 * E22 * 3 + (E11 + E22) * (NU * 12 + 1))
        * a2
        * F(1, 6)
    )


_MODELS = {"calogero": calogero, "sutherland": sutherland}


@pytest.mark.parametrize("kind", ["calogero", "sutherland"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_words_build_the_hand_written_operator(kind, d):
    assert _MODELS[kind]("liealgebraic", d) == _hand_written(kind, build_gl_np1(K, gl2_irrep(d)))


@pytest.mark.parametrize(
    "kind, k, d",
    [(kind, k, d) for kind in ("calogero", "sutherland") for k, d in ((3, 1), (2, 2), (4, 2), (2, 3), (3, 3))],
)
def test_matrix_of_words_equals_matrix_of_the_operator(kind, k, d):
    # formally and at bindings: composing the recorded generator columns
    # gives the matrix that applying the operator and solving gives
    op = _hand_written(kind, build_gl_np1(k, gl2_irrep(d)))
    names = {name for _, word in WORDS[kind] for name in word}
    basis = flag_basis(k, d, names)
    other = "omega" if kind == "calogero" else "alpha"
    bindings = (
        {},
        {"nu": Fraction(-1, 2), other: Fraction(3, 2)},
        {"nu": Fraction(1, 3), other: -2},
        {"nu": 2, other: 1},
        {"nu": 0},
    )
    for b in bindings:
        words = tuple((c.substitute(b), word) for c, word in WORDS[kind])
        composed = matrix_of(words, basis)
        solved = matrix_of(op.substitute(b), basis)
        assert composed == solved and repr(composed) == repr(solved), b
        for row_c, row_s in zip(composed.entries, solved.entries):
            for c, s in zip(row_c, row_s):
                assert c == s and repr(c) == repr(s), b
