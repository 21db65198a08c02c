"""The flag of [k, d-1] is the closure of its highest-weight seed under the
lowering pair E12 and T2+ (models.flag_basis), and records only the
weights' E11 and E22 and the generators it is asked for."""

import pytest

from matrixweyl import K, Coeff, PolySpinor, build_gl_np1, gl2_irrep, spaces
from matrixweyl.linalg import span_contains
from matrixweyl.models import LOWERING, WORDS, flag_basis
from matrixweyl.spaces import matrix_of, orbit_closure, record_action, scalar_basis
from matrixweyl.weyl import commutator
from helpers_mw import FracEchelon

MODEL_NAMES = {
    kind: frozenset(name for _, word in words for name in word) for kind, words in WORDS.items()
}


def _gens(k, d):
    return build_gl_np1(k, gl2_irrep(d)).named()


def _same_span(a, b):
    return span_contains(a.coords_list(), b.coords_list()) and span_contains(
        b.coords_list(), a.coords_list()
    )


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_the_seed_is_the_highest_weight_vector(d):
    # the Borel half T1-, T2-, E21 kills the seed, and [E12, T2+] = T1+
    # makes the lowering pair generate all of n- = span{E12, T2+, T1+}
    ops = dict(_gens(K, d))
    seed = PolySpinor.unit(d - 1, d, 2)
    for name in ("T1-", "T2-", "E21"):
        assert ops[name].apply(seed).is_zero(), name
    assert commutator(ops["E12"], ops["T2+"]) == ops["T1+"]


@pytest.mark.parametrize("model", sorted(MODEL_NAMES))
@pytest.mark.parametrize("k, d", [(k, d) for d in (2, 3, 4) for k in range(d - 1, 9)])
def test_the_lowered_flag_is_the_nine_generator_flag(model, k, d):
    names = MODEL_NAMES[model]
    gens = _gens(k, d)
    full = orbit_closure(gens, PolySpinor.unit(d - 1, d, 2), degree_cap=k + 2)
    basis = flag_basis(k, d, names)
    assert set(basis.action) == {"E11", "E22"} | names
    assert basis.dim == full.dim
    assert _same_span(basis, full)
    # invariant under every generator, not only those it was closed under
    # (record_action raises NotInvariantError otherwise)
    record_action(gens, basis)
    for name, op in gens:
        if name in basis.action:
            assert matrix_of([(Coeff.one(), (name,))], basis) == matrix_of(op, basis), name


@pytest.mark.parametrize("k", range(6))
def test_the_lowering_pair_also_closes_the_triangle(k):
    basis = orbit_closure(
        [(name, op) for name, op in _gens(k, 1) if name in LOWERING],
        PolySpinor.unit(0, 1, 2),
        degree_cap=k + 2,
    )
    triangle = scalar_basis(k, 1)
    assert basis.dim == triangle.dim == (k + 1) * (k + 2) // 2
    assert _same_span(basis, triangle)


@pytest.mark.parametrize("name", LOWERING)
@pytest.mark.parametrize("k, d", [(3, 2), (4, 3)])
def test_half_the_lowering_pair_closes_a_smaller_space(name, k, d):
    # negative control: each generator of the pair is needed
    half = orbit_closure(
        [(n, op) for n, op in _gens(k, d) if n == name],
        PolySpinor.unit(d - 1, d, 2),
        degree_cap=k + 2,
    )
    assert half.dim < flag_basis(k, d).dim


@pytest.mark.parametrize("d", [1, 2])
def test_flag_basis_refuses_an_unknown_generator(d):
    with pytest.raises(ValueError, match="generator E13"):
        flag_basis(3, d, {"E13", "T1-"})


def test_matrix_of_words_names_a_generator_the_basis_did_not_record():
    # the lowering pair is closed under but not recorded: E12 is the first
    # name of the Calogero words the basis has no column of
    basis = flag_basis(3, 2)
    assert "T1-" not in basis.action and "E12" not in basis.action
    words = WORDS["calogero"]
    with pytest.raises(ValueError, match="generator E12"):
        matrix_of(words, basis)
    with pytest.raises(ValueError, match="generator T1-"):
        matrix_of([word for word in words if "E12" not in word[1]], basis)


def test_the_calogero_flag_does_not_depend_on_the_pivot_rule(monkeypatch):
    # QPEchelon pivots at each new row's highest column; the Fraction
    # echelon pivoting at the lowest one must find the same basis, in the
    # same order, and record the same columns
    names = MODEL_NAMES["calogero"]
    got = flag_basis(8, 3, names)
    monkeypatch.setattr(spaces, "QPEchelon", lambda track: FracEchelon(track, pick=min))
    ref = flag_basis(8, 3, names)
    assert got.vectors == ref.vectors
    assert got.action == ref.action
