"""tools/ab_ops.py on two temporary checkouts, each a copy of src/ and of
perfbench/child.py: the rows it prints, and the A/B it refuses to time."""

import importlib.util
import os
import shutil

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
ARGV = "check --d 1"


def _tool():
    spec = importlib.util.spec_from_file_location(
        "ab_ops", os.path.join(ROOT, "tools", "ab_ops.py")
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _checkout(path, cli_tail=""):
    """A checkout at path with cli_tail appended to its matrixweyl/cli.py."""
    shutil.copytree(
        os.path.join(ROOT, "src"), path / "src", ignore=shutil.ignore_patterns("__pycache__")
    )
    os.mkdir(path / "perfbench")
    shutil.copy(os.path.join(ROOT, "perfbench", "child.py"), path / "perfbench")
    with open(path / "src" / "matrixweyl" / "cli.py", "a") as fh:
        fh.write(cli_tail)
    return str(path)


def _ab(tmp_path, cli_tail_b=""):
    """ab_ops' exit code on checkouts A (the code as it is) and B (with
    cli_tail_b), one rep of ARGV."""
    a = _checkout(tmp_path / "a")
    b = _checkout(tmp_path / "b", cli_tail_b)
    return _tool().main([a, b, "--reps", "1", "--", ARGV])


def test_the_same_code_on_both_sides_gives_the_rows(tmp_path, capsys):
    assert _ab(tmp_path) == 0
    header, op, sums, slowest = capsys.readouterr().out.splitlines()
    assert header.split()[:6] == ["A", "ms", "IQR", "B", "ms", "IQR"]
    assert op.endswith("  " + ARGV)
    assert "sum of medians: A " in sums
    assert slowest.endswith("slowest argv of each rep")


def test_a_changed_output_stops_the_ab(tmp_path, capsys):
    tail = (
        "\n_main = main\n\n\ndef main(argv=None):\n"
        "    rc = _main(argv)\n    print('changed')\n    return rc\n"
    )
    assert _ab(tmp_path, tail) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("A and B differ on %s: " % ARGV)


def test_a_crashing_side_is_named_with_its_last_stderr_line(tmp_path, capsys):
    tail = "\n\ndef main(argv=None):\n    raise RuntimeError('doctored crash')\n"
    assert _ab(tmp_path, tail) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "B (%s) gave no timing record on %s; its last stderr line: %s\n" % (
        tmp_path / "b", ARGV, "RuntimeError: doctored crash"
    )


def test_a_checkout_with_bytecode_under_src_is_refused(tmp_path, capsys):
    a = _checkout(tmp_path / "a")
    b = _checkout(tmp_path / "b")
    os.mkdir(os.path.join(b, "src", "matrixweyl", "__pycache__"))
    with pytest.raises(SystemExit) as exc:
        _tool().main([a, b, "--reps", "1", "--", ARGV])
    assert exc.value.code == 2
    assert "stale bytecode: remove %s" % os.path.join(b, "src", "matrixweyl", "__pycache__") in (
        capsys.readouterr().err
    )
