import importlib.util
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from matrixweyl.cli import build_parser, main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_check_command_passes(capsys):
    code, out = run_cli(["check", "--n", "2", "--d", "2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "pass"
    assert len(data["results"]) == 45
    assert all(r["pass"] for r in data["results"])


def test_spectrum_command_example(capsys):
    code, out = run_cli(
        ["spectrum", "--model", "calogero", "--k", "2", "--d", "1", "--omega", "1", "--nu", "0"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    values = sorted(int(e["a"]) for e in data["results"][0]["eigenvalues"])
    assert values == [-12, -10, -8, -6, -4, 0]
    assert data["results"][0]["verdict_vs_scalar_pattern"]["multiset_equal_to_scalar"]


def test_space_command_dimension(capsys):
    code, out = run_cli(["space", "--k", "4", "--d", "2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["results"][0]["dim"] == 24
    assert data["results"][1]["name"] == "hexagon audit"
    assert data["results"][1]["pass"]


def test_space_triangle(capsys):
    code, out = run_cli(["space", "--k", "3", "--m", "2", "--d", "1"], capsys)
    assert code == 0
    assert json.loads(out)["results"][0]["dim"] == 6


def test_space_degree_cap_failure_exits_one(capsys):
    for d in ("2", "3"):
        code, out = run_cli(["space", "--k", "2", "--d", d, "--degree-cap", "1"], capsys)
        assert code == 1
        data = json.loads(out)
        assert data["verdict"] == "fail"
        assert "grew to degree 2" in data["results"][0]["error"]


@pytest.mark.parametrize(
    "argv, bindings",
    [
        (
            ["spectrum", "--model", "sutherland", "--k", "1", "--d", "3", "--nu", "1/3", "--alpha", "2"],
            {"alpha": "2", "nu": "1/3"},
        ),
        (
            ["spectrum", "--model", "calogero", "--k", "0", "--d", "3", "--nu=-1/2", "--omega", "3/2"],
            {"nu": "-1/2", "omega": "3/2"},
        ),
        (["spectrum", "--model", "sutherland", "--k", "0", "--d", "2"], {"alpha": "1", "nu": "0"}),
    ],
)
def test_spectrum_fail_manifest_records_the_bindings(argv, bindings, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 1
    failed = json.loads(out)
    assert failed["verdict"] == "fail"
    assert failed["inputs"]["bindings"] == bindings
    # the same inputs a passing run records, k aside
    k = argv.index("--k") + 1
    passing = argv[:k] + [str(int(argv[argv.index("--d") + 1]) - 1)] + argv[k + 1 :]
    code, out = run_cli(passing, capsys)
    assert code == 0
    inputs = json.loads(out)["inputs"]
    assert inputs == dict(failed["inputs"], k=inputs["k"])


def test_relations_command(capsys):
    code, out = run_cli(["relations"], capsys)
    assert code == 0
    data = json.loads(out)
    dep = [r for r in data["results"] if r["name"] == "C2 from Art.5+6+7"][0]
    assert dep["coefficients"]["art5"] == "2"


def test_casimir_command(capsys):
    code, out = run_cli(["casimir", "--d", "3"], capsys)
    assert code == 0


def _spy(monkeypatch, name):
    """Record the block size d of each call of identities.<name>."""
    import matrixweyl.cli as cli
    import matrixweyl.identities as identities

    real = getattr(identities, name)
    dims = []

    def spy(gens, *args):
        dims.append(gens.dim)
        return real(gens, *args)

    monkeypatch.setattr(identities, name, spy)
    if hasattr(cli, name):
        monkeypatch.setattr(cli, name, spy)
    return dims


def _dependency_record(out):
    (rec,) = [r for r in json.loads(out)["results"] if r["name"] == "C2 from Art.5+6+7"]
    return rec


def test_casimir_builds_each_casimir_once(monkeypatch, capsys):
    triples = _spy(monkeypatch, "casimirs_gl3")
    pairs = _spy(monkeypatch, "_casimirs_c1_c2")
    code, _ = run_cli(["casimir", "--d", "3"], capsys)
    assert code == 0
    assert triples == [3] and pairs == [3]


def test_relations_checks_each_d_once_and_builds_no_c3(monkeypatch, capsys):
    relations = _spy(monkeypatch, "art_relations")
    triples = _spy(monkeypatch, "casimirs_gl3")
    pairs = _spy(monkeypatch, "_casimirs_c1_c2")
    code, out = run_cli(["relations"], capsys)
    assert code == 0
    assert relations == [1, 2, 3] and pairs == [1, 2, 3] and triples == []
    full = _dependency_record(out)
    assert full["pass"]

    # one d reported; the other two are still built, once each, for the solve
    relations.clear()
    code, out = run_cli(["relations", "--d", "2"], capsys)
    assert code == 0
    assert sorted(relations) == [1, 2, 3] and triples == []
    assert _dependency_record(out) == full
    assert {r["d"] for r in json.loads(out)["results"] if "d" in r} == {2}


def test_gm_command(capsys):
    code, out = run_cli(["gm", "--m", "2"], capsys)
    assert code == 0
    data = json.loads(out)
    consts = [r for r in data["results"] if r["name"] == "tower constants"][0]
    assert consts["constants"] == ["2", "2"]


def test_model_latex_output(capsys):
    code, out = run_cli(
        ["--output", "latex", "model", "--model", "calogero", "--form", "differential"],
        capsys,
    )
    assert code == 0
    assert "\\begin{pmatrix}" in out
    assert "\\partial" in out
    assert "\\tau_2" in out


def test_gens_json_roundtrip(capsys):
    from matrixweyl.serialize import matrix_op_from_json

    code, out = run_cli(["gens", "--d", "2"], capsys)
    assert code == 0
    data = json.loads(out)
    ops = {r["name"]: matrix_op_from_json(r["op"]) for r in data["results"]}
    assert "T1+" in ops and ops["T1+"].dim == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["spectrum", "--model", "nosuch", "--k", "1"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--d", "0"],
        ["check", "--d", "-2"],
        ["check", "--n", "3"],
        ["relations", "--d", "0"],
        ["space", "--k", "-1"],
        ["spectrum", "--model", "calogero", "--k", "-1"],
        ["gens", "--d", "0"],
        ["casimir", "--d", "0"],
        ["space", "--k", "2", "--d", "0"],
        ["space", "--k", "2", "--m", "0"],
        ["space", "--k", "2", "--degree-cap", "-1"],
        ["model", "--model", "calogero", "--d", "0"],
        ["spectrum", "--model", "calogero", "--k", "1", "--d", "0"],
        ["spectrum", "--model", "calogero", "--k", "1", "--omega", "abc"],
        ["spectrum", "--model", "sutherland", "--k", "1", "--alpha", "1/0"],
        ["spectrum", "--model", "sutherland", "--k", "1", "--nu", "x"],
        ["gm", "--m", "0"],
        ["gm", "--m", "1", "--d", "0"],
        # an option the command does not read with the other arguments
        ["spectrum", "--model", "sutherland", "--k", "1", "--omega", "5"],
        ["spectrum", "--model", "sutherland", "--k", "1", "--omega", "1"],
        ["spectrum", "--model", "calogero", "--k", "1", "--alpha", "5"],
        ["spectrum", "--model", "calogero", "--k", "1", "--alpha", "1"],
        ["space", "--k", "2", "--m", "1", "--degree-cap", "9"],
        ["space", "--k", "2", "--m", "1", "--d", "3"],
        ["space", "--k", "2", "--m", "1", "--d", "2"],
    ],
)
def test_out_of_domain_input_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err


@pytest.mark.parametrize("output", ["latex", "text"])
@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--d", "1"],
        ["casimir", "--d", "1"],
        ["relations", "--d", "1"],
        ["space", "--k", "1", "--d", "2"],
        ["spectrum", "--model", "calogero", "--k", "1"],
        ["gm", "--m", "1"],
    ],
)
def test_output_other_than_json_is_a_usage_error_naming_the_command(argv, output, capsys):
    with pytest.raises(SystemExit) as err:
        main(["--output", output] + argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --output: %s writes JSON only, not %s" % (argv[0], output) in captured.err


@pytest.mark.parametrize("model, own", [("sutherland", "alpha"), ("calogero", "omega")])
def test_spectrum_parameter_of_the_model_defaults_to_one(model, own, capsys):
    argv = ["spectrum", "--model", model, "--k", "1", "--d", "2"]
    default = run_cli(argv, capsys)
    assert default == run_cli(argv + ["--" + own, "1"], capsys)
    assert json.loads(default[1])["inputs"]["bindings"][own] == "1"


def test_space_without_d_is_the_closure_at_d_2(capsys):
    assert run_cli(["space", "--k", "1"], capsys) == run_cli(["space", "--k", "1", "--d", "2"], capsys)


def test_two_main_calls_build_one_parser(monkeypatch, capsys):
    import argparse

    import matrixweyl.cli as cli

    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    try:
        assert run_cli(["space", "--k", "1", "--d", "2"], capsys)[0] == 0
        assert run_cli(["space", "--k", "2", "--m", "1"], capsys)[0] == 0
        with pytest.raises(SystemExit):
            main(["spectrum"])
    finally:
        cli.build_parser.cache_clear()
    # one tree: the top parser and each subparser, each built once
    assert "matrixweyl" in built and len(built) == len(set(built))
    assert capsys.readouterr().err.startswith("usage: matrixweyl spectrum")


def test_value_error_in_the_mathematics_is_not_a_usage_error(monkeypatch):
    import matrixweyl.cli as cli

    def broken(*args, **kwargs):
        raise ValueError("raised inside the mathematics")

    monkeypatch.setattr(cli, "build_gm", broken)
    with pytest.raises(ValueError, match="inside the mathematics"):
        main(["gm", "--m", "1"])


def test_uncertified_numeric_roots_give_a_fail_manifest(monkeypatch, capsys):
    import matrixweyl.models as models
    from matrixweyl.coeff import CoeffError

    def no_certificate(coeffs):
        raise CoeffError("no certified numeric roots of the degree-2 factor")

    # no benchmark input has an irrational eigenvalue, so the rational finder
    # is stubbed to leave each block's whole characteristic polynomial over
    monkeypatch.setattr(models, "rational_roots", lambda poly: ([], poly))
    monkeypatch.setattr(models, "numeric_roots", no_certificate)
    code, out = run_cli(["spectrum", "--model", "sutherland", "--k", "2"], capsys)
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] == "fail"
    assert data["results"] == [
        {
            "name": "spectrum",
            "pass": False,
            "error": "no certified numeric roots of the degree-2 factor",
        }
    ]


def test_out_file_and_determinism(tmp_path, capsys):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    assert main(["--out", str(p1), "check", "--d", "1"]) == 0
    assert main(["--out", str(p2), "check", "--d", "1"]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_an_out_that_cannot_be_opened_is_a_usage_error(tmp_path, monkeypatch, capsys):
    import matrixweyl.cli as cli

    ran = []
    monkeypatch.setattr(cli, "cmd_check", lambda args: ran.append(args) or 0)
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["--out", str(out), "check", "--d", "1"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err and "argument --out" in captured.err
    # refused before any mathematics runs, and nothing was created
    assert ran == []
    assert list(tmp_path.iterdir()) == []


def test_console_entry_point_subprocess():
    env = dict(os.environ)
    root = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(root) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "matrixweyl.cli", "check", "--d", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "pass"


def test_sutherland_spectrum_command(capsys):
    code, out = run_cli(
        ["spectrum", "--model", "sutherland", "--k", "2", "--d", "3", "--alpha", "1", "--nu", "0"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    rec = data["results"][0]
    assert rec["dim"] == 6
    assert rec["block_sizes"] == [3, 2, 1]
    assert all(e["exact"] for e in rec["eigenvalues"])


def test_spectrum_determinism_on_blocked_case(tmp_path):
    args = ["spectrum", "--model", "sutherland", "--k", "3", "--d", "2", "--alpha", "1", "--nu", "0"]
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    assert main(["--out", str(p1)] + args) == 0
    assert main(["--out", str(p2)] + args) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_gens_with_bound_k(capsys):
    code, out = run_cli(["gens", "--d", "1", "--k", "2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["inputs"]["k"] == "2"


@pytest.mark.parametrize(
    "argv",
    [
        # ran past 600 s when rational roots were found by divisor enumeration
        ["--k", "5", "--d", "3"],
        # took about 55 s the same way: nu and alpha raise coefficient heights
        ["--k", "6", "--d", "1", "--nu", "3/2", "--alpha", "2"],
    ],
)
def test_sutherland_spectrum_within_budget(argv, capsys):
    start = time.perf_counter()
    code, out = run_cli(["spectrum", "--model", "sutherland"] + argv, capsys)
    elapsed = time.perf_counter() - start
    assert code == 0
    rec = json.loads(out)["results"][0]
    assert rec["eigenvalues"] and all(e["exact"] for e in rec["eigenvalues"])
    assert elapsed < 30, "%.1f s" % elapsed


def test_exact_spectrum_does_not_import_mpmath():
    env = dict(os.environ)
    root = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(root) + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import sys\n"
        "from matrixweyl.cli import main\n"
        "main(['--out', '%s', 'spectrum', '--model', 'sutherland', '--k', '3', '--d', '2'])\n"
        "assert 'mpmath' not in sys.modules\n" % os.devnull
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_import_skips_dataclasses_and_freezes_its_heap():
    # start-up contract: no dataclasses (which pulls in inspect, ast, dis,
    # tokenize), and the import-time heap frozen out of the collector
    root = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(root))
    code = (
        "import gc, sys\n"
        "import matrixweyl.cli\n"
        "assert 'dataclasses' not in sys.modules\n"
        "assert 'inspect' not in sys.modules\n"
        "assert gc.get_freeze_count() > 0\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("model", ["calogero", "sutherland"])
def test_model_manifest_records_k_only_when_given(model, capsys):
    argv = ["model", "--model", model, "--form", "liealgebraic", "--d", "2"]
    _, out = run_cli(argv, capsys)
    assert json.loads(out)["inputs"] == {"model": model, "form": "liealgebraic", "d": 2}
    _, bound = run_cli(argv + ["--k", "3"], capsys)
    data = json.loads(bound)
    assert data["inputs"] == {
        "model": model,
        "form": "liealgebraic",
        "d": 2,
        "k": "3",
    }
    # the checks keep a formal k whether or not --k is given
    assert data["results"][1:] == json.loads(out)["results"][1:]


@pytest.mark.parametrize("model", ["calogero", "sutherland"])
@pytest.mark.parametrize("form", ["differential", "liealgebraic", "matrix"])
@pytest.mark.parametrize("d", [1, 3])
def test_model_prints_the_operator_its_checks_built(model, form, d, monkeypatch, capsys):
    import matrixweyl.models as models
    from matrixweyl import K, MatrixDiffOp
    from matrixweyl.render import matrix_op_latex, matrix_op_str
    from matrixweyl.serialize import matrix_op_to_json

    # no model form carries k, so each build adds K times the identity: a
    # printed operator that skipped the binding of --k would then differ
    base = models.MODELS[model]

    def with_k(form, d=1):
        op = base(form, d)
        return op + MatrixDiffOp.identity(op.dim, 2) * K

    fresh = with_k(form, d)
    bound = base(form, d) + MatrixDiffOp.identity(fresh.dim, 2) * 2
    assert fresh != bound
    builds = []

    def spy(form, d=1):
        builds.append((form, d))
        return with_k(form, d)

    monkeypatch.setitem(models.MODELS, model, spy)
    # one lie-algebraic operator serves both checks at d = 1
    checks = [("liealgebraic", 1), ("differential", 1)]
    checks += [("matrix", 1)] if d == 1 else [("liealgebraic", d), ("matrix", d)]
    argv = ["model", "--model", model, "--form", form, "--d", str(d)]
    _, out = run_cli(argv, capsys)
    assert builds == checks
    assert json.loads(out)["results"][0]["op"] == matrix_op_to_json(fresh)
    # a bound k substitutes into the operator the checks built: no build more
    builds.clear()
    _, out = run_cli(argv + ["--k", "2"], capsys)
    assert builds == checks
    assert json.loads(out)["results"][0]["op"] == matrix_op_to_json(bound)
    # LaTeX and text build the printed form alone, and run no checks
    names = ["\\tau_2", "\\tau_3"] if model == "calogero" else ["\\eta_2", "\\eta_3"]
    for output, render in (("latex", lambda op: matrix_op_latex(op, names)), ("text", matrix_op_str)):
        builds.clear()
        _, out = run_cli(["--output", output] + argv + ["--k", "2"], capsys)
        assert builds == [(form, d)]
        assert out == render(bound) + "\n"


@pytest.mark.parametrize(
    "model, verdict, residual_terms", [("calogero", "pass", 0), ("sutherland", "fail", 1)]
)
def test_model_runs_the_display_check_at_d1(model, verdict, residual_terms, capsys):
    # the Sutherland display carries a sign error already at d = 1; the
    # record matches display_residuals.json, and the exit status stays 0
    code, out = run_cli(["model", "--model", model, "--form", "matrix", "--d", "1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == verdict
    assert data["results"][-1] == {
        "name": "%s matrix display vs lie [d=1]" % model,
        "pass": verdict == "pass",
        "residual_terms": residual_terms,
    }
    path = os.path.join(os.path.dirname(__file__), "goldens", "display_residuals.json")
    with open(path) as fh:
        assert json.load(fh)["%s_d1" % model]["residual_terms"] == residual_terms


@pytest.mark.parametrize(
    "model, option, value",
    [
        ("sutherland", "--nu", "-1/2"),
        ("calogero", "--nu", "-1/2"),
        ("calogero", "--omega", "-2/3"),
        ("sutherland", "--alpha", "-3/2"),
        ("sutherland", "--nu", "-1"),
        ("calogero", "--nu", "-0.5"),
        ("calogero", "--nu", "-1e-3"),
        ("calogero", "--omega", "-2E1"),
        ("sutherland", "--alpha", "-.5e1"),
    ],
)
def test_negative_rational_may_follow_its_option(model, option, value, capsys):
    argv = ["spectrum", "--model", model, "--k", "2", "--d", "2"]
    joined = run_cli(argv + ["%s=%s" % (option, value)], capsys)
    separate = run_cli(argv + [option, value], capsys)
    assert separate == joined
    assert joined[0] == 0


@settings(max_examples=300, deadline=None)
@given(st.text("0123456789./eE+-_ ", max_size=6))
def test_spectrum_reads_every_negative_rational_as_its_value(tail):
    # a negative word is --nu's value exactly when Fraction parses it
    word = "-" + tail
    try:
        value = Fraction(word)
    except (ValueError, ZeroDivisionError):
        value = None
    try:
        args = build_parser().parse_args(
            ["spectrum", "--model", "calogero", "--k", "2", "--nu", word]
        )
    except SystemExit as err:
        assert err.code == 2 and value is None
    else:
        assert args.nu == value is not None


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--model", "calogero", "--k", "2", "--bogus", "-1/2"],
        ["spectrum", "--model", "calogero", "--k", "2", "-1/2"],
        ["spectrum", "--model", "calogero", "--k", "2", "--nu", "-x"],
        ["spectrum", "--model", "calogero", "--k", "2", "--nu", "-e3"],
        ["spectrum", "--model", "calogero", "--k", "2", "--nu", "-1e"],
        ["spectrum", "--model", "calogero", "--k", "2", "--nu", "-1/0"],
        ["check", "--d", "-1/2"],
    ],
)
def test_negative_rational_does_not_hide_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


def test_cli_digest_grid_matches_the_committed_digests(capsys):
    # every output byte and exit code of tools/argv_digests.py's grid, slow
    # rows included; regenerate the file when a change alters them on purpose
    root = os.path.join(os.path.dirname(__file__), "..")
    spec = importlib.util.spec_from_file_location(
        "argv_digests", os.path.join(root, "tools", "argv_digests.py")
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    saved = os.path.join(os.path.dirname(__file__), "goldens", "argv_digests.txt")
    code = tool.main(["--compare", saved])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.startswith("0 of ")
