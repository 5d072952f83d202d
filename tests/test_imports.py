"""The lazy package namespace: what `import smyth` loads, and what its names are.

Each subprocess test starts a fresh interpreter, so that sys.modules shows
exactly what one command imported.
"""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import smyth

SRC = Path(__file__).resolve().parent.parent / "src"
LIBRARY = ("algebra", "bounds", "core", "errors", "heuristic", "numfield", "quadratic",
           "serialize")
EAGER = ("algebra", "core", "errors", "serialize")


def fresh(*args: str) -> subprocess.CompletedProcess:
    """A new interpreter run with args, importing smyth from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)


def run_cli(argv: list, block_mpmath: bool = False) -> tuple[int, str, bool]:
    """Exit code, stdout and whether mpmath was loaded, for one fresh cli.main(argv).

    block_mpmath makes every import of mpmath fail, as if it were not installed.
    """
    code = f"""
import contextlib, io, json, sys
if {block_mpmath!r}:
    sys.modules["mpmath"] = None
from smyth import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main({argv!r})
print(json.dumps([code, out.getvalue(), sys.modules.get("mpmath") is not None]))
"""
    return tuple(json.loads(fresh("-c", code).stdout))


def canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_check_loads_neither_mpmath_nor_the_lazy_modules():
    code = """
import json, sys, types
from smyth import cli
code = cli.main(["check", "--q", "2", "--coeffs", "1;t;t+1"])
loaded = [name for name, module in sys.modules.items()
          if name.startswith("smyth.") and type(module) is types.ModuleType]
print(json.dumps([code, "mpmath" in sys.modules, sorted(loaded)]))
"""
    out = fresh("-c", code).stdout.splitlines()[-1]
    assert json.loads(out) == [0, False, ["smyth.algebra", "smyth.cli", "smyth.core",
                                          "smyth.errors", "smyth.serialize"]]


PN_ARGV = ["heuristic", "--mode", "pn", "--q", "3", "--d", "1", "--n", "3", "--N", "1",
           "--group-size", "6"]
PN_OUT = canonical({
    "N": 1, "d": 1, "group_size": 6, "kind": "heuristic-report", "log_group_size": None,
    "log_p": -0.049416617230998446, "mode": "closed-form", "n": 3,
    "p": 0.9517845172563663, "q": 3})
SCAN_ARGV = ["heuristic", "--mode", "scan", "--q", "2", "--d", "1", "--n", "3",
             "--growth", "1,2,3", "--format", "csv"]
ROU_ARGV = ["numfield", "--action", "rou", "--m", "-3", "--coeffs", "1;1;1"]
ROU_OUT = canonical({
    "coeffs": ["1", "1", "1"], "common_order": 3, "exponents": [0, 1, 2],
    "found": True, "kind": "rou-relation", "m": -3, "orders": [1, 3, 3]})


def test_pn_loads_no_mpmath():
    assert run_cli(PN_ARGV) == (0, PN_OUT, False)


def test_rou_loads_no_mpmath():
    """The root-of-unity search is exact and never demands mpmath."""
    assert run_cli(ROU_ARGV) == (0, ROU_OUT, False)


@pytest.mark.parametrize("argv", [ROU_ARGV, PN_ARGV, SCAN_ARGV], ids=["rou", "pn", "scan"])
def test_without_mpmath_the_same_bytes(argv):
    code, out, _ = run_cli(argv, block_mpmath=True)
    assert (code, out) == run_cli(argv)[:2]
    assert code == 0 and out


def test_module_run_warns_nothing():
    """python -m smyth.cli finds smyth.cli absent after importing the package."""
    proc = fresh("-W", "error", "-m", "smyth.cli", "check", "--q", "2", "--coeffs", "1;t;t+1")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["passes"] is True


def test_import_smyth_registers_every_library_module():
    code = """
import json, sys, types
import smyth
print(json.dumps({name: [f"smyth.{name}" in sys.modules,
                         getattr(smyth, name) is sys.modules.get(f"smyth.{name}"),
                         type(sys.modules[f"smyth.{name}"]) is types.ModuleType]
                  for name in %r}))
""" % (LIBRARY,)
    state = json.loads(fresh("-c", code).stdout)
    assert state == {name: [True, True, name in EAGER] for name in LIBRARY}


def test_every_public_name_is_its_defining_object():
    for name in smyth.__all__:
        value = getattr(smyth, name)
        home = getattr(value, "__module__", None) or "smyth.core"  # DEFAULT_BUDGET is an int
        assert home.startswith("smyth."), name
        assert getattr(importlib.import_module(home), name) is value, name


def test_star_import_dir_and_unknown_names():
    namespace: dict = {}
    exec("from smyth import *", namespace)
    assert set(smyth.__all__) <= set(namespace)
    assert namespace["numfield_pipeline"] is smyth.numfield.numfield_pipeline
    assert set(smyth.__all__) <= set(dir(smyth))
    assert {"__version__", "numfield", "serialize"} <= set(dir(smyth))
    with pytest.raises(AttributeError, match="no_such_name"):
        smyth.no_such_name


def test_lazy_modules_load_on_attribute_access():
    code = """
import json, sys, types
import smyth
before = type(sys.modules["smyth.quadratic"]) is types.ModuleType
field = smyth.quadratic.QuadField(-1)
after = type(sys.modules["smyth.quadratic"]) is types.ModuleType
print(json.dumps([before, after, field.m, "mpmath" in sys.modules]))
"""
    assert json.loads(fresh("-c", code).stdout) == [False, True, -1, False]
