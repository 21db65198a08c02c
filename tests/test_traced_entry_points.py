"""The benchmark's tracer must still find every layer entry point it names.

perfbench/tracer.py resolves each NAMED (module, attribute path) with
vars(owner)[attr]; deleting or moving one of those names breaks only traced
benchmark runs, so the resolution is checked here.  Nothing under
perfbench/ is modified.
"""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys

import pytest

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
