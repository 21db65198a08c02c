"""The flag [k, d-1] is the gl_3 irrep V(k, d-1, 0), and its weights are
read off the Gelfand-Tsetlin patterns (models.flag_weights).  Every flag
that flag_basis or the space command discovers is certified against them
once (models.certify_flag).

The oracles are the nine-generator closure of the seed (the `space`
closure) and helpers_mw.unfiltered_spectrum, which composes every word on
the discovered flag: a spectrum of Cartan-only words read off the weights
must be the one read off the flag's matrix.
"""

import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from matrixweyl import Coeff, PolySpinor, build_gl_np1, gl2_irrep
from matrixweyl import cli, models, spaces
from matrixweyl.models import (
    CARTAN,
    WORDS,
    WeightCertificateError,
    certify_flag,
    flag_basis,
    flag_weights,
    spectrum,
)
from matrixweyl.spaces import orbit_closure, record_action, scalar_basis
from helpers_mw import unfiltered_spectrum

_PAIRS = [(k, d) for d in range(1, 6) for k in range(d - 1, 11)]


def _closure_weights(k, d):
    """The weights of [k, d-1] off the closure of its seed under all nine
    generators (the triangle's monomials for d = 1), with no certificate."""
    gens = build_gl_np1(k, gl2_irrep(d)).named()
    if d == 1:
        cartan = [(name, op) for name, op in gens if name in ("E11", "E22")]
        basis = record_action(cartan, scalar_basis(k, 1))
    else:
        basis = orbit_closure(gens, PolySpinor.unit(d - 1, d, 2), k + 2, ("E11", "E22"))
    return basis.weights


def _dumps(result):
    return json.dumps(result.to_json(), sort_keys=True)


def test_the_cartan_generators_are_the_diagonal_labels():
    assert CARTAN == {"E11", "E22", "E0"}


@pytest.mark.parametrize("k, d", _PAIRS)
def test_the_weights_are_the_closure_weights(k, d):
    assert Counter(flag_weights(k, d)) == Counter(_closure_weights(k, d))


@pytest.mark.parametrize("k, d", _PAIRS)
def test_the_dimension_is_weyls(k, d):
    # dim V(k, d-1, 0) = (k - d + 2) d (k + 2) / 2
    assert 2 * len(flag_weights(k, d)) == (k - d + 2) * d * (k + 2)


@pytest.mark.parametrize(
    "k, d, message",
    [
        (3, 5, r"^no finite flag for k=3 with d=5 \(needs k >= 4\)$"),
        (0, 2, r"^no finite flag for k=0 with d=2 \(needs k >= 1\)$"),
        # k < d-1 is refused before d < 1
        (-5, 0, r"^no finite flag for k=-5 with d=0 \(needs k >= -1\)$"),
        (0, 0, r"^dimension must be at least 1$"),
        (3, -1, r"^dimension must be at least 1$"),
    ],
)
def test_a_label_with_no_flag_is_refused(k, d, message):
    with pytest.raises(ValueError, match=message):
        flag_weights(k, d)
    with pytest.raises(ValueError, match=message):
        flag_basis(k, d)
    for kind in WORDS:
        with pytest.raises(ValueError, match=message):
            spectrum(kind, WORDS[kind], k, d, {"nu": 0, "omega": 1, "alpha": 1})


_CARTAN_WORDS = st.lists(
    st.tuples(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.sampled_from([0, 0, Fraction(1, 2), -1]),
        # matrix_of composes no empty word, so the oracle takes degrees 1 to 3
        st.lists(st.sampled_from(sorted(CARTAN)), min_size=1, max_size=3).map(tuple),
    ).map(lambda t: (Coeff.rational(t[0], t[1]), t[2])),
    min_size=1,
    max_size=4,
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.sampled_from(sorted(WORDS)),
    st.integers(1, 4).flatmap(lambda d: st.tuples(st.integers(d - 1, 8), st.just(d))),
    _CARTAN_WORDS,
)
@example("calogero", (4, 3), [(Coeff.one(), ("E0",))])
@example("sutherland", (2, 2), [(Coeff.rational(1, 1), ("E0", "E11")), (Coeff.one(), ("E22",))])
@example("calogero", (8, 4), [(Coeff.rational(-2), ("E0",)), (Coeff.one(), ("E0", "E0", "E22"))])
def test_cartan_words_read_off_the_weights_are_the_composed_spectrum(kind, label, words):
    # the words are bound to no parameter; each grading sets its own blocks
    k, d = label
    got = spectrum(kind, tuple(words), k, d, {})
    assert _dumps(got) == _dumps(unfiltered_spectrum(kind, tuple(words), k, d, {}))
    assert got.diagonal and got.charpolys == []


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("omega", [1, 0])
def test_a_calogero_spectrum_discovers_no_flag(d, omega, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the flag was discovered")

    bind = {"nu": Fraction(1, 3), "omega": omega}
    want = _dumps(unfiltered_spectrum("calogero", WORDS["calogero"], 4, d, bind))
    for name in ("flag_basis", "build_gl_np1", "orbit_closure", "matrix_of", "charpoly"):
        monkeypatch.setattr(models, name, refuse)
    assert _dumps(spectrum("calogero", WORDS["calogero"], 4, d, bind)) == want


def _dropping(index):
    """flag_weights with the weight at index dropped."""
    real = models.flag_weights

    def patched(k, d):
        weights = real(k, d)
        del weights[index]
        return weights

    return patched


@pytest.mark.parametrize("k, d, index", [(2, 1, 0), (4, 2, 7), (3, 3, -1)])
def test_a_flag_whose_weights_differ_from_the_patterns_is_refused(
    k, d, index, monkeypatch, capsys
):
    weights = flag_weights(k, d)
    dropped = weights[index]
    count = weights.count(dropped)
    message = "flag [%d, %d] has weight %s %d times, its Gelfand-Tsetlin patterns %d times" % (
        k, d - 1, dropped, count, count - 1
    )
    monkeypatch.setattr(models, "flag_weights", _dropping(index))
    with pytest.raises(WeightCertificateError) as err:
        flag_basis(k, d)
    assert str(err.value) == message
    # the space command's closure fails the same certificate
    code = cli.main(["space", "--k", str(k), "--d", str(d)])
    data = json.loads(capsys.readouterr().out)
    assert code == 1
    assert data["verdict"] == "fail"
    assert data["results"] == [{"name": "orbit closure", "pass": False, "error": message}]


def test_the_certificate_failure_is_a_fail_manifest(monkeypatch, capsys):
    monkeypatch.setattr(models, "flag_weights", _dropping(0))
    code = cli.main(["spectrum", "--model", "sutherland", "--k", "2", "--d", "2"])
    data = json.loads(capsys.readouterr().out)
    assert code == 1
    assert data["verdict"] == "fail"
    (record,) = data["results"]
    assert record["pass"] is False
    assert record["error"] == (
        "flag [2, 1] has weight (2, 1) 1 times, its Gelfand-Tsetlin patterns 0 times"
    )


def _certified(monkeypatch):
    """The (basis, k, d) of every certify_flag call, by flag_basis or by
    the space command."""
    calls = []

    def spy(basis, k, d):
        calls.append((basis, k, d))
        return certify_flag(basis, k, d)

    monkeypatch.setattr(models, "certify_flag", spy)
    monkeypatch.setattr(cli, "certify_flag", spy)
    return calls


@pytest.mark.parametrize("k, d", [(0, 1), (3, 1), (1, 2), (4, 2), (2, 3), (4, 4)])
def test_each_discovered_flag_is_certified_once(k, d, monkeypatch, capsys):
    calls = _certified(monkeypatch)
    basis = flag_basis(k, d, ("E12",))
    assert calls == [(basis, k, d)]
    del calls[:]
    spectrum("sutherland", WORDS["sutherland"], k, d, {"nu": 0, "alpha": 1})
    assert [(b.dim, *label) for b, *label in calls] == [(basis.dim, k, d)]
    del calls[:]
    assert cli.main(["space", "--k", str(k), "--d", str(d)]) == 0
    dim = json.loads(capsys.readouterr().out)["results"][0]["dim"]
    assert [(b.dim, *label) for b, *label in calls] == [(dim, k, d)]


def test_a_space_that_does_not_close_certifies_nothing(monkeypatch, capsys):
    calls = _certified(monkeypatch)
    assert cli.main(["space", "--k", "3", "--d", "2", "--degree-cap", "1"]) == 1
    assert cli.main(["space", "--k", "2", "--m", "1"]) == 0
    capsys.readouterr()
    assert calls == []


def test_the_certificate_reads_the_weights_the_closure_records(monkeypatch):
    # a closure that records one weight wrong fails its certificate too
    real = spaces.SpinorBasis.weights.fget

    def shifted(basis):
        *weights, last = real(basis)
        return (*weights, (last[0] + 1, last[1]))

    monkeypatch.setattr(spaces.SpinorBasis, "weights", property(shifted))
    with pytest.raises(WeightCertificateError, match="^flag \\[3, 1\\] has weight"):
        flag_basis(3, 2)


def _weight_reads(monkeypatch):
    """(basis, computed) for every read of SpinorBasis.weights, computed
    True when that read computed them."""
    real = spaces.SpinorBasis.weights.fget
    reads = []

    def spy(basis):
        reads.append((basis, basis._weights is None))
        return real(basis)

    monkeypatch.setattr(spaces.SpinorBasis, "weights", property(spy))
    return reads


@pytest.mark.parametrize("k", [1, 4, 12])
def test_a_space_reads_its_weights_once_for_the_certificate_and_the_audit(
    k, monkeypatch, capsys
):
    reads = _weight_reads(monkeypatch)
    assert cli.main(["space", "--k", str(k), "--d", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [r["pass"] for r in data["results"]] == [True, True]
    (basis, _), _ = reads
    assert reads == [(basis, True), (basis, False)]
    assert basis.dim == data["results"][0]["dim"]


@pytest.mark.parametrize("k, d", [(1, 2), (4, 2), (2, 3), (3, 3), (4, 4)])
def test_a_sutherland_spectrum_reads_its_weights_once_for_the_certificate_and_the_grades(
    k, d, monkeypatch
):
    reads = _weight_reads(monkeypatch)
    result = spectrum("sutherland", WORDS["sutherland"], k, d, {"nu": 0, "alpha": 1})
    (basis, _), _ = reads
    assert reads == [(basis, True), (basis, False)]
    assert basis.dim == result.basis_dim
