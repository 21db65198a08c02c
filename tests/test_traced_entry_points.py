"""The benchmark's tracer must still find every layer entry point it names.

perfbench/tracer.py resolves each NAMED (module, attribute path) with
vars(owner)[attr]; deleting or moving one of those names breaks only traced
benchmark runs, so the resolution is checked here.  Nothing under
perfbench/ is modified.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from matrixweyl.linalg import charpoly
from matrixweyl.models import flag_basis, sutherland
from matrixweyl.spaces import matrix_of

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize(
    "module, path", [(mod, path) for _layer, mod, path in tracer.NAMED]
)
def test_named_entry_point_resolves(module, path):
    owner = importlib.import_module("%s.%s" % (tracer.PACKAGE, module))
    *head, attr = path.split(".")
    for part in head:
        owner = getattr(owner, part)
    assert attr in vars(owner), "%s.%s is gone" % (module, path)
    assert inspect.isfunction(vars(owner)[attr])


def test_tracer_installs_without_binding_error():
    # install() patches the package globally, so it runs in a child
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = "import tracer; tracer.Tracer().install()"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr


def _fraction_height(coeffs):
    """tracer._height, with every half read through Fraction(...)."""
    best = 0
    for c in coeffs:
        for pair in c.terms.values():
            for half in map(Fraction, pair):
                best = max(
                    best, abs(half.numerator).bit_length(), half.denominator.bit_length()
                )
    return best


def test_height_reads_the_pairs_charpoly_and_matrix_of_return():
    # the tracer reads .numerator/.denominator of both halves of each pair
    # of the values these two entry points return
    opm = matrix_of(sutherland("liealgebraic", 2), flag_basis(2, 2))
    entries = [c for row in opm.entries for c in row]
    bound = opm.substitute({"nu": Fraction(2, 3), "alpha": 2})
    poly = charpoly(bound.entries)
    for values in (entries, poly):
        assert all(len(pair) == 2 for c in values for pair in c.terms.values())
        height = tracer._height(values)
        assert height == _fraction_height(values) > 0


@pytest.mark.parametrize("workload", ["suites", "gm_tower", "spectra"])
def test_traced_benchmark_run_is_correct(workload):
    # a traced run checks every output against perfbench/reference.json and
    # the layer calls each workload is predicted to make or skip (for
    # spectra: spaces.matrix_of, linalg.solve, weyl.apply among them)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(ROOT, "perfbench", "run.py"),
            "--workload",
            workload,
            "--seed",
            "11",
            "--trace",
            "1",
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
