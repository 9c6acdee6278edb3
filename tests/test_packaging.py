"""Every third-party module ``src/repro`` imports is a declared dependency.

A ``pip install .`` into a clean environment installs only what
``pyproject.toml`` (and the legacy ``setup.py`` shim) list, so an import the
metadata forgets breaks ``import repro`` for everyone but the author.
"""

import ast
import re
import sys
import tomllib
from pathlib import Path

import numpy

REPO_ROOT = Path(__file__).resolve().parents[1]


def requirement_names(requirements: list[str]) -> set[str]:
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in requirements}


def third_party_imports() -> dict[str, Path]:
    """Top-level non-stdlib modules imported under ``src/repro`` -> first importer."""
    found: dict[str, Path] = {}
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, path)
    return found


def test_every_third_party_import_is_declared():
    project = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())["project"]
    declared = requirement_names(project["dependencies"])
    undeclared = {
        module: str(path.relative_to(REPO_ROOT))
        for module, path in third_party_imports().items()
        if module.lower() not in declared
    }
    assert not undeclared, f"imported but not in pyproject dependencies: {undeclared}"


def test_setup_shim_lists_the_same_requirements():
    project = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())["project"]
    setup_py = ast.parse((REPO_ROOT / "setup.py").read_text())
    (install_requires,) = [
        ast.literal_eval(keyword.value)
        for node in ast.walk(setup_py)
        if isinstance(node, ast.Call)
        for keyword in node.keywords
        if keyword.arg == "install_requires"
    ]
    assert install_requires == project["dependencies"]


def test_installed_numpy_meets_the_declared_floor():
    """``np.add.at`` (the force scatter) is tens of times slower before 1.25:
    an old image should fail here, not run the kernel off a cliff."""
    project = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())["project"]
    (floor,) = [
        re.fullmatch(r"numpy>=(\d+)\.(\d+)", req).groups()
        for req in project["dependencies"]
        if req.startswith("numpy")
    ]
    installed = re.match(r"(\d+)\.(\d+)", numpy.__version__).groups()
    assert tuple(map(int, installed)) >= tuple(map(int, floor)), (
        f"numpy {numpy.__version__} is older than the declared floor {'.'.join(floor)}"
    )
