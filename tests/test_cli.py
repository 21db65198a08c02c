import json
import os
import subprocess
import sys

import pytest

from matrixweyl.cli import main


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
    code, out = run_cli(["space", "--k", "2", "--d", "2", "--degree-cap", "1"], capsys)
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] == "fail"


def test_relations_command(capsys):
    code, out = run_cli(["relations"], capsys)
    assert code == 0
    data = json.loads(out)
    dep = [r for r in data["results"] if r["name"] == "C2 from Art.5+6+7"][0]
    assert dep["coefficients"]["art5"] == "2"


def test_casimir_command(capsys):
    code, out = run_cli(["casimir", "--d", "3"], capsys)
    assert code == 0


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
    ],
)
def test_out_of_domain_input_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err


def test_value_error_in_the_mathematics_is_not_a_usage_error(monkeypatch):
    import matrixweyl.cli as cli

    def broken(*args, **kwargs):
        raise ValueError("raised inside the mathematics")

    monkeypatch.setattr(cli, "build_gm", broken)
    with pytest.raises(ValueError, match="inside the mathematics"):
        main(["gm", "--m", "1"])


def test_out_file_and_determinism(tmp_path, capsys):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    assert main(["--out", str(p1), "check", "--d", "1"]) == 0
    assert main(["--out", str(p2), "check", "--d", "1"]) == 0
    assert p1.read_bytes() == p2.read_bytes()


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
