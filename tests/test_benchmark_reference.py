"""The benchmark's inputs give the output bytes and exit codes it expects.

perfbench/reference.json records sha256(stdout) and the exit code of every
input perfbench/workloads.py can produce.  Each is run here in-process
through cli.main, so a change that drifts one output byte fails the tests
and not only a benchmark run.  Both files are read, never written.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys

import pytest

from matrixweyl import cli

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")


def _workloads():
    path = os.path.join(BENCH, "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up
    spec.loader.exec_module(module)
    return module


INPUTS = list(_workloads().all_inputs())

with open(os.path.join(BENCH, "reference.json")) as fh:
    REFERENCE = json.load(fh)


def test_every_input_has_a_reference():
    # reference.json is keyed by the argv joined with spaces
    assert len(INPUTS) == 29
    assert sorted(" ".join(argv) for argv in INPUTS) == sorted(REFERENCE)


@pytest.mark.parametrize("argv", INPUTS, ids=" ".join)
def test_output_matches_the_benchmark_reference(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
    ref = REFERENCE[" ".join(argv)]
    assert rc == ref["exit"]
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == ref["sha256"]
