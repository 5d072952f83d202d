"""The README's Python API list names only attributes that exist."""
import fnmatch
import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def api_names():
    """(module, name) for each backticked identifier or glob in the API list."""
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    section = section.split("\n## ", 1)[0]
    pairs = []
    for module, body in re.findall(r"^\* `(smyth\.\w+)`:(.*?)(?=^\* |^$)", section,
                                   flags=re.M | re.S):
        for name in re.findall(r"`([A-Za-z_*][\w*]*)`", body):
            pairs.append((module, name))
    return pairs


def test_api_list_is_parsed():
    modules = {module for module, _ in api_names()}
    assert modules == {"smyth.algebra", "smyth.core", "smyth.bounds", "smyth.heuristic",
                       "smyth.quadratic", "smyth.numfield", "smyth.serialize",
                       "smyth.errors"}
    assert ("smyth.numfield", "lattice_rounding_step") in api_names()


def test_every_listed_name_resolves():
    missing = []
    for module_name, name in api_names():
        module = importlib.import_module(module_name)
        if "*" in name:
            found = fnmatch.filter(dir(module), name)
        else:
            found = getattr(module, name, None) is not None
        if not found:
            missing.append(f"{module_name}.{name}")
    assert missing == []
