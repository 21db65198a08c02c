"""orbit_closure records only the columns its caller names, and tracks the
combinations of its one elimination exactly when it records one; space
reads its Cartan columns off with record_action.

The oracle is helpers_mw.apply_orbit_closure, the closure on PolySpinor
values that records every op it closes under.
"""

import json
from functools import lru_cache

import pytest

from matrixweyl import PolySpinor, build_gl_np1, cli, gl2_irrep, models, spaces
from matrixweyl.linalg import QPEchelon
from matrixweyl.models import LOWERING, WORDS, flag_basis, spectrum
from matrixweyl.spaces import SpaceNotClosedError, orbit_closure
from helpers_mw import apply_orbit_closure

GL3_NAMES = ("E11", "E12", "E21", "E22", "E0", "T1-", "T2-", "T1+", "T2+")
DIAGONAL = {"E11", "E22", "E0"}
RECORDED = ({"E11", "E22"}, {"E11", "E22", "E12", "E21"}, set(GL3_NAMES))


def _args(k, d):
    return build_gl_np1(k, gl2_irrep(d)).named(), PolySpinor.unit(d - 1, d, 2), k + 2


@lru_cache(maxsize=None)
def _oracle(k, d):
    return apply_orbit_closure(*_args(k, d))


@pytest.mark.parametrize("k, d", [(k, d) for d in (1, 2, 3, 4) for k in range(d - 1, 7)])
@pytest.mark.parametrize("recorded", RECORDED, ids=len)
def test_a_recorded_closure_is_the_all_columns_closure_cut_to_its_names(k, d, recorded):
    want = _oracle(k, d)
    got = orbit_closure(*_args(k, d), recorded)
    assert got.raws == want.raws
    assert got.vectors == want.vectors
    assert got.action == {name: want.action[name] for name in recorded}


def _tracks(monkeypatch):
    """The track flag of every QPEchelon the spaces module builds."""
    seen = []

    def spy(track=False):
        seen.append(track)
        return QPEchelon(track)

    monkeypatch.setattr(spaces, "QPEchelon", spy)
    return seen


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize(
    "names",
    [set(), {"E0"}, set(GL3_NAMES)] + [{name} for name in GL3_NAMES],
    ids=lambda names: "-".join(sorted(names)) or "none",
)
def test_the_flag_tracks_exactly_when_a_recorded_generator_is_off_diagonal(
    names, d, monkeypatch
):
    seen = _tracks(monkeypatch)
    basis = flag_basis(3, d, names)
    assert set(basis.action) == {"E11", "E22"} | names
    assert seen == [not names <= DIAGONAL]


def test_space_closes_under_nine_generators_untracked(monkeypatch, capsys):
    seen = _tracks(monkeypatch)
    assert cli.main(["space", "--k", "4", "--d", "2"]) == 0
    assert '"pass": true' in capsys.readouterr().out
    assert seen == [False]


def test_recording_every_op_tracks(monkeypatch):
    seen = _tracks(monkeypatch)
    basis = orbit_closure(*_args(3, 2))
    assert set(basis.action) == set(GL3_NAMES)
    assert seen == [True]


def test_a_name_that_is_no_op_is_refused():
    with pytest.raises(ValueError, match="^no op named E13 to record$"):
        orbit_closure(*_args(2, 2), {"E11", "E13"})


def test_the_vectors_are_built_on_first_read():
    basis = orbit_closure(*_args(3, 3), {"E11", "E22"})
    assert basis._vectors is None
    vectors = basis.vectors
    assert basis.vectors is vectors and len(vectors) == basis.dim
    assert [dict((key, c.constant_pair()) for key, c in v.terms.items()) for v in vectors] == list(
        basis.raws
    )


def _closure_calls(monkeypatch):
    """(recorded names, tracks of the echelons it built) of each orbit_closure
    call, direct or through models and cli."""
    calls = []
    tracks = _tracks(monkeypatch)

    def spy(named_ops, seed, degree_cap, recorded=None):
        before = len(tracks)
        try:
            return orbit_closure(named_ops, seed, degree_cap, recorded)
        finally:
            names = {name for name, _ in named_ops} if recorded is None else set(recorded)
            calls.append((names, tracks[before:]))

    for module in (models, cli):
        monkeypatch.setattr(module, "orbit_closure", spy)
    return calls, spy


def test_every_closure_builds_one_echelon_tracked_exactly_when_it_records(monkeypatch, capsys):
    calls, closure = _closure_calls(monkeypatch)
    gens, seed, cap = _args(3, 2)
    lowering = [(name, op) for name, op in gens if name in LOWERING]
    for ops in (gens, lowering, []):
        for recorded in (None, (), {"E11"}, {"E12"}, {"E11", "E22", "E0"}, set(GL3_NAMES)):
            if recorded is None or set(recorded) <= {name for name, _ in ops}:
                closure(ops, seed, cap, recorded)
    for d in (2, 3):
        for names in (set(), {"E0"}, {"E12", "E21"}, set(GL3_NAMES)):
            flag_basis(3, d, names)
        spectrum("sutherland", WORDS["sutherland"], 3, d, {"nu": 1, "alpha": 1})
    for k, d in ((2, 1), (4, 2), (3, 3), (0, 3)):
        cli.main(["space", "--k", str(k), "--d", str(d)])
    capsys.readouterr()
    # 11 direct calls, 8 flags, 2 spectra and 4 spaces
    assert len(calls) == 25
    for recorded, tracks in calls:
        assert tracks == [bool(recorded)], recorded


def _space_basis(k, d, monkeypatch, capsys):
    """The basis space --k k --d d reads, after its Cartan read-off, and its
    manifest: basis None when the read-off is not reached."""
    got = []

    def spy(named_ops, basis):
        got.append(record_action(named_ops, basis))
        return got[-1]

    record_action = cli.record_action
    monkeypatch.setattr(cli, "record_action", spy)
    cli.main(["space", "--k", str(k), "--d", str(d)])
    monkeypatch.undo()
    data = json.loads(capsys.readouterr().out)
    return (got[0] if got else None), data


@pytest.mark.parametrize("k, d", [(k, d) for d in (1, 2, 3, 4) for k in range(7)])
def test_space_reads_the_nine_generator_closure_off_six_roots(k, d, monkeypatch, capsys):
    basis, data = _space_basis(k, d, monkeypatch, capsys)
    try:
        want = _oracle(k, d)
    except SpaceNotClosedError as exc:
        # k < d-1: the orbit of the seed grows past the cap
        assert k < d - 1 and basis is None
        assert data["results"] == [{"name": "orbit closure", "pass": False, "error": str(exc)}]
        return
    assert basis.raws == want.raws
    assert basis.action == {name: want.action[name] for name in DIAGONAL}
    assert data["results"][0] == {"name": "orbit closure", "pass": True, "dim": want.dim}
