"""models.spectrum composes only the words that do not lower the grade.

A word whose weight shift delta has form . delta < 0 writes only entries
strictly above the block diagonal, so spectrum drops it before the flag is
built.  What is left of Calogero is Cartan-only and is read off the flag's
weights with no flag discovered.  The oracle is
helpers_mw.unfiltered_spectrum, which records and composes every word.
"""

import json
import re
from fractions import Fraction

import pytest

from matrixweyl import NU, Coeff, K, build_gl_np1, gl2_irrep
from matrixweyl import models, spaces
from matrixweyl.coeff import PARAMS
from matrixweyl.generators import gl_labels
from matrixweyl.models import (
    SHIFTS,
    WORDS,
    NotTriangularError,
    _lowers,
    flag_basis,
    spectrum,
)
from helpers_mw import unfiltered_spectrum

_ONE = Coeff.one()
_FREQ = {"calogero": "omega", "sutherland": "alpha"}


def _dumps(result):
    return json.dumps(result.to_json(), sort_keys=True)


@pytest.mark.parametrize(
    "kind, k, d",
    [(kind, k, d) for kind in WORDS for d in (1, 2, 3) for k in range(d - 1, 6)],
)
def test_the_filtered_spectrum_is_the_unfiltered_one(kind, k, d):
    for nu in (0, Fraction(1, 3), Fraction(-1, 3), 2):
        for freq in (1, -2):
            bind = {"nu": nu, _FREQ[kind]: freq}
            got = spectrum(kind, WORDS[kind], k, d, bind)
            assert _dumps(got) == _dumps(unfiltered_spectrum(kind, WORDS[kind], k, d, bind))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize(
    "kind, composed",
    [
        ("calogero", {"E11", "E22"}),
        ("sutherland", {"E11", "E12", "E21", "E22"}),
    ],
)
def test_only_the_words_that_keep_or_raise_the_grade_are_recorded_and_composed(
    kind, composed, d, monkeypatch
):
    # T1- lowers both gradings, and E12 E12 lowers Calogero's (2, 3) by 2
    seen = {}

    def spy_flag(k, d, recorded=()):
        seen["recorded"] = set(recorded)
        basis = flag_basis(k, d, recorded)
        seen["action"] = set(basis.action)
        return basis

    def spy_matrix(words, basis):
        seen["words"] = [word for _, word in words]
        return spaces.matrix_of(words, basis)

    monkeypatch.setattr(models, "flag_basis", spy_flag)
    monkeypatch.setattr(models, "matrix_of", spy_matrix)
    bind = {"nu": Fraction(1, 3), _FREQ[kind]: 1}
    got = spectrum(kind, WORDS[kind], 2, d, bind)
    kept = [word for _, word in WORDS[kind] if set(word) <= composed]
    assert len(kept) == len(WORDS[kind]) - (4 if kind == "calogero" else 3)
    if kind == "calogero":
        # E11 and E22 are Cartan: read off the weights, with no flag or matrix
        assert seen == {}
        assert _dumps(got) == _dumps(unfiltered_spectrum(kind, WORDS[kind], 2, d, bind))
        return
    assert seen["recorded"] == composed
    # the lowering pair is closed under at d >= 2, but its columns are not read
    assert seen["action"] == composed | {"E11", "E22"}
    assert seen["words"] == kept


@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_grade_raising_word_names_the_entry_the_oracle_names(d):
    # E21 moves the weight by (-1, 1): Calogero's grade goes up by 1
    words = WORDS["calogero"] + ((_ONE, ("E21",)),)
    bind = {"nu": Fraction(1, 3), "omega": 1}
    assert not _lowers(("E21",), models.GRADINGS["calogero"])
    with pytest.raises(NotTriangularError) as want:
        unfiltered_spectrum("calogero", words, 2, d, bind)
    with pytest.raises(NotTriangularError, match="^%s$" % re.escape(str(want.value))):
        spectrum("calogero", words, 2, d, bind)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_grade_raising_word_whose_coefficient_vanishes_raises_nothing(d):
    # (3 nu + 1) E21 is 0 at nu = -1/3
    words = WORDS["calogero"] + ((NU * 3 + 1, ("E21",)),)
    bind = {"nu": Fraction(-1, 3), "omega": 1}
    got = _dumps(spectrum("calogero", words, 2, d, bind))
    assert got == _dumps(unfiltered_spectrum("calogero", words, 2, d, bind))
    assert got == _dumps(spectrum("calogero", WORDS["calogero"], 2, d, bind))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_nu_is_required_though_only_a_dropped_word_carries_it(d):
    # in Calogero nu sits in the T1- word alone, which is not composed
    nu = PARAMS.index("nu")
    carriers = [word for c, word in WORDS["calogero"] if any(e[nu] for e in c.terms)]
    assert carriers == [("T1-",)] and _lowers(("T1-",), models.GRADINGS["calogero"])
    with pytest.raises(ValueError, match="^binding for nu is required$"):
        spectrum("calogero", WORDS["calogero"], 2, d, {"omega": 1})


def test_a_word_with_a_name_that_is_no_generator_is_kept():
    # T1- E13 would lower the grade if E13 were e_13; it is kept, so the
    # flag refuses the name
    assert not _lowers(("T1-", "E13"), (2, 3))
    words = WORDS["calogero"] + ((_ONE, ("T1-", "E13")),)
    with pytest.raises(ValueError, match="unknown gl_3 generator E13"):
        spectrum("calogero", words, 2, 1, {"nu": 0, "omega": 1})


def test_the_shifts_are_read_off_the_gl3_labels():
    assert list(SHIFTS) == list(gl_labels(2))
    assert SHIFTS == {
        "E11": (0, 0), "E12": (1, -1), "E21": (-1, 1), "E22": (0, 0), "E0": (0, 0),
        "T1-": (-1, 0), "T2-": (0, -1), "T1+": (1, 0), "T2+": (0, 1),
    }


def _shift_mismatches(gens):
    """(name, term key) of every term of a generator whose weight change
    differs from SHIFTS[name].  The term x^A d^B at (i, j) maps x^P e_j to
    x^(P + A - B) e_i, and the unit spinor e_r has the weight m_r =
    (M11[r][r], M22[r][r]), so the change is A - B + m_i - m_j."""
    blocks = gens.rep.blocks
    m = [tuple(blocks[(a, a)][r][r].constant_pair()[0] for a in (1, 2)) for r in range(gens.dim)]
    out = []
    for name, op in gens.named():
        for key in op.terms:
            i, j, (A, B) = key
            change = tuple(a - b + m[i][t] - m[j][t] for t, (a, b) in enumerate(zip(A, B)))
            if change != SHIFTS[name]:
                out.append((name, key))
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_every_generator_term_moves_the_weight_by_its_shift(d):
    gens = build_gl_np1(K, gl2_irrep(d))
    assert all(op.terms for _, op in gens.named())
    assert _shift_mismatches(gens) == []


@pytest.mark.parametrize(
    "i, j, r, c, value, broken",
    [
        (1, 2, 0, 0, 1, "E12"),  # M12 gains a diagonal entry
        (2, 2, 0, 0, 1, "E12"),  # e_0's weight moves: M12 e_1 no longer shifts by (1, -1)
        (1, 1, 0, 1, 1, "E11"),  # M11 gains an off-diagonal entry
    ],
)
def test_the_shift_check_fails_for_a_block_that_breaks_homogeneity(i, j, r, c, value, broken):
    gens = build_gl_np1(K, gl2_irrep(2).replaced(i, j, r, c, value))
    assert broken in {name for name, _ in _shift_mismatches(gens)}


@pytest.mark.parametrize("k", [0, 3, 8])
def test_a_diagonal_only_triangle_builds_no_solve(k, monkeypatch):
    # the Calogero d = 1 flag records E11 and E22 only, both read off the
    # monomials; no coeff_matrix_solve echelon is built for them
    want = _dumps(spectrum("calogero", WORDS["calogero"], k, 1, {"nu": 2, "omega": 1}))

    def refuse(*args, **kwargs):
        raise AssertionError("coeff_matrix_solve called")

    monkeypatch.setattr(spaces, "coeff_matrix_solve", refuse)
    assert set(flag_basis(k, 1).action) == {"E11", "E22"}
    assert _dumps(spectrum("calogero", WORDS["calogero"], k, 1, {"nu": 2, "omega": 1})) == want
    if k:
        # a non-diagonal generator still needs the solve
        with pytest.raises(AssertionError, match="coeff_matrix_solve called"):
            flag_basis(k, 1, ("E12",))


@pytest.mark.parametrize(
    "kind, k, d",
    [(kind, k, d) for kind in WORDS for d in (1, 2, 3) for k in range(d - 1, 6)],
)
def test_a_zero_frequency_spectrum_is_the_unfiltered_one(kind, k, d):
    for nu in (0, Fraction(1, 3), Fraction(-1, 3)):
        bind = {"nu": nu, _FREQ[kind]: 0}
        got = spectrum(kind, WORDS[kind], k, d, bind)
        assert _dumps(got) == _dumps(unfiltered_spectrum(kind, WORDS[kind], k, d, bind))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize(
    "kind, recorded, composed",
    [
        # omega carries every Calogero word that is not dropped for its grade
        ("calogero", set(), []),
        # alpha^2 carries every Sutherland word but T1- ones and E12 E12
        ("sutherland", {"E12"}, [("E12", "E12")]),
    ],
)
def test_words_whose_coefficient_is_zero_are_neither_recorded_nor_composed(
    kind, recorded, composed, d, monkeypatch
):
    seen = {}

    def spy_flag(k, d, names=()):
        seen["recorded"] = set(names)
        basis = flag_basis(k, d, names)
        seen["action"] = set(basis.action)
        return basis

    def spy_matrix(words, basis):
        seen["words"] = [word for _, word in words]
        return spaces.matrix_of(words, basis)

    monkeypatch.setattr(models, "flag_basis", spy_flag)
    monkeypatch.setattr(models, "matrix_of", spy_matrix)
    bind = {"nu": Fraction(1, 3), _FREQ[kind]: 0}
    got = spectrum(kind, WORDS[kind], 3, d, bind)
    if kind == "calogero":
        # no word is left: every eigenvalue is read off the weights as 0
        assert seen == {}
        assert _dumps(got) == _dumps(unfiltered_spectrum(kind, WORDS[kind], 3, d, bind))
        return
    assert seen["recorded"] == recorded
    assert seen["action"] == recorded | {"E11", "E22"}
    assert "E21" not in seen["action"]
    assert seen["words"] == composed


@pytest.mark.parametrize("c", [0, 1])
def test_a_name_that_is_no_generator_is_refused_whatever_its_coefficient(c):
    words = WORDS["calogero"] + ((Coeff.rational(c), ("E22", "E13")),)
    with pytest.raises(ValueError, match="^unknown gl_3 generator E13$"):
        spectrum("calogero", words, 2, 2, {"nu": 0, "omega": 1})
