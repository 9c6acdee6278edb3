"""Which ``src/repro`` functions the product runs, and which only tests reach.

Run from the repository root::

    python tests/reachability.py                   # tier-1 + product pass
    python tests/reachability.py --sightings DIR   # keep the raw sightings
    python tests/reachability.py --sightings DIR --report-only   # reclassify them

Two passes run under a call hook. *Tier-1* is the test suite. The *product
pass* is what a user runs: every group of the scenario table in
``tests/scenarios.py``, which CI runs too (its smoke scenarios, every CLI
verb, ``examples/*.py``, the balancer-matrix experiment and the ledger,
traced and untraced). Every ``src/repro`` function is then classified:

* *product* -- called during the product pass;
* *tests only* -- called during tier-1 and never by the product;
* *never run* -- called by neither.

A module is *tests only* when none of its functions ran under the product
and at least one ran under tier-1. Names that stay on purpose (references
the tests compare product code against, fault branches, names the ledger
imports, design arguments and ablations the tests check) are listed in
:data:`EXEMPT` and marked in the report.
The exit status is 1 when a pass failed or a non-exempt module is tests
only.

The hook is a generated ``sitecustomize.py`` put first on ``PYTHONPATH``,
so every Python process a pass starts installs it: pytest, forked and
spawned children, the scenario runner and its checks, ``repro serve``
servers and their pool workers. It is a
``sys.setprofile`` (and ``threading.setprofile``) function that appends a
``src/repro`` code object to a per-process file the first time it is
called. Each line is flushed as it is written, so a child that leaves
through ``os._exit`` or ``SIGKILL`` loses nothing. CPython drops a hook
that raises (a signal handler's exception can surface inside it), so a
pytest plugin re-installs it before each test.

Stdlib only. The file name keeps pytest from collecting it. Expect about
tier-1's time plus 15 minutes on a 2-core host.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import scenarios

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
PACKAGE = SRC / "repro"

SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_DIR = os.environ.get("REPRO_REACHABILITY_DIR")
_SRC = os.environ.get("REPRO_REACHABILITY_SRC")
_seen = {}
_out = None


def _open():
    global _out
    path = os.path.join(_DIR, "%d.tsv" % os.getpid())
    _out = open(path, "a", buffering=1, encoding="utf-8")


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _seen:
            _seen[id(code)] = code  # the reference keeps the id unique
            if code.co_filename.startswith(_SRC):
                _out.write(
                    "%s\\t%d\\t%s\\n"
                    % (code.co_filename, code.co_firstlineno, code.co_name)
                )


def install(hook=_hook):
    sys.setprofile(hook)
    threading.setprofile(hook)


if _DIR and _SRC:
    _open()
    os.register_at_fork(after_in_child=_open)
    atexit.register(install, None)  # module teardown would break the hook
    install()
'''

PLUGIN = '''\
import sitecustomize


def pytest_runtest_setup(item):
    sitecustomize.install()


def pytest_runtest_call(item):
    sitecustomize.install()
'''

#: Names that stay although only tests reach them, with the reason. Keys are
#: ``module`` (the whole file) or ``module:qualname``.
EXEMPT: dict[str, str] = {
    "repro/decomp/validation.py": "reference the tests check the pillar layout against",
    "repro/theory/bounds.py:f2": "closed form the tests compare upper_bound against",
    "repro/theory/bounds.py:f3": "closed form the tests compare upper_bound against",
    "repro/theory/bounds.py:f4": "closed form the tests compare upper_bound against",
    "repro/parallel/network.py:NetworkModel.exchange_time":
        "scalar reference for the accountant's array charging",
    "repro/parallel/network.py:NetworkModel.particles_time":
        "scalar reference for the accountant's array charging",
    "repro/parallel/network.py:preset":
        "machine presets the ablation tests sweep (tests/experiments/test_ablations.py)",
    "repro/parallel/message.py:TrafficLog.record_bulk":
        "scalar reference for the accountant's array charging",
    "repro/campaign/store.py:RunStore.renew_lease": "lease branch of product code",
    "repro/campaign/store.py:RunStore.fail": "fault branch of product code",
    "repro/campaign/store.py:RunStore.quarantine": "fault branch of product code",
    "repro/service/server.py:SimulationService._gc_loop": "the service's result-TTL sweep",
    "repro/service/server.py:SimulationService.evict_now": "the service's result-TTL sweep",
    "repro/service/server.py:SimulationService._handle_quarantine":
        "the service's quarantine route",
    "repro/md/neighbors.py:pairs_celllist":
        "reference the neighbour oracle compares against; ledger/trace.py wraps it",
    "repro/md/neighbors.py:candidate_pairs_celllist":
        "reference the neighbour oracle compares against; ledger/trace.py wraps it",
    "repro/theory/concentration.py:exact_concentration_factor":
        "oracle the tests check measure_concentration against",
    "repro/decomp/shapes.py":
        "Section 2.2's design argument (plane vs pillar vs cube), checked by "
        "tests/decomp/test_shapes.py",
    "repro/api.py": "public surface pinned by test_api_surface",
    "repro/dlb/limits.py:dlb_limit_ratio": "closed form re-exported from repro",
    "repro/dlb/cells.py:movable_fraction": "closed form re-exported from repro",
}


# -- the passes ------------------------------------------------------------------


def _environment(hook_dir: Path, sightings: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hook_dir), str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_REACHABILITY_DIR"] = str(sightings)
    env["REPRO_REACHABILITY_SRC"] = str(PACKAGE) + os.sep
    return env


def run_tier1(hook_dir: Path, sightings: Path) -> int:
    """Tier-1 under the hook; returns pytest's exit status."""
    sightings.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, "-m", "pytest", "-q", "-p", "reachability_plugin",
               "-p", "no:cacheprovider"]
    print("tier-1:", " ".join(command[1:]), flush=True)
    return subprocess.call(command, cwd=REPO, env=_environment(hook_dir, sightings))


def run_product(hook_dir: Path, sightings: Path, work: Path) -> list[str]:
    """Every group of ``tests/scenarios.py`` under the hook; returns the
    failed groups."""
    sightings.mkdir(parents=True, exist_ok=True)
    env = _environment(hook_dir, sightings)
    failed = []
    for group in scenarios.GROUPS:
        started = time.perf_counter()
        status = subprocess.call(
            [sys.executable, scenarios.__file__, "--group", group,
             "--workdir", str(work / group)], cwd=REPO, env=env)
        print(f"group {group}: {'ok' if status == 0 else 'FAILED'} "
              f"[{time.perf_counter() - started:.0f} s]", flush=True)
        if status != 0:
            failed.append(group)
    return failed


def write_hook(hook_dir: Path) -> None:
    hook_dir.mkdir(parents=True, exist_ok=True)
    (hook_dir / "sitecustomize.py").write_text(SITECUSTOMIZE)
    (hook_dir / "reachability_plugin.py").write_text(PLUGIN)


# -- the classification ----------------------------------------------------------


@dataclass
class Function:
    module: str  # path relative to src/, e.g. "repro/parallel/topology.py"
    qualname: str
    first: int  # co_firstlineno: the first decorator's line, else the def line
    lines: int
    parent: "Function | None"

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}"


def scan(package: Path = PACKAGE) -> list[Function]:
    """Every function and method defined under ``package``, nested ones too."""
    found: list[Function] = []

    def visit(node: ast.AST, module: str, prefix: str, parent: Function | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                function = Function(module, prefix + child.name, first,
                                    child.end_lineno - first + 1, parent)
                found.append(function)
                visit(child, module, f"{function.qualname}.<locals>.", function)
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.", parent)
            else:
                visit(child, module, prefix, parent)

    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package.parent).as_posix()
        visit(ast.parse(path.read_text(), str(path)), module, "", None)
    return found


def load_sightings(directory: Path) -> set[tuple[str, int]]:
    """``(module, co_firstlineno)`` of every code object a pass called."""
    seen: set[tuple[str, int]] = set()
    for path in directory.glob("*.tsv"):
        for line in path.read_text(encoding="utf-8", errors="replace").splitlines():
            parts = line.split("\t")
            if len(parts) != 3 or not parts[1].isdigit():
                continue  # a line cut short by SIGKILL
            module = Path(parts[0]).resolve().relative_to(PACKAGE.parent).as_posix()
            seen.add((module, int(parts[1])))
    return seen


def exemption(function: Function) -> str | None:
    return EXEMPT.get(function.key) or EXEMPT.get(function.module)


def classify(functions: list[Function], product: set, tests: set) -> dict[str, str]:
    """``function.key -> "product" | "tests only" | "never run"``."""
    status = {}
    for function in functions:
        where = (function.module, function.first)
        if where in product:
            status[function.key] = "product"
        elif where in tests:
            status[function.key] = "tests only"
        else:
            status[function.key] = "never run"
    return status


def _span(functions: list[Function], status: dict[str, str], label: str) -> tuple[int, int]:
    """Function count and line count of one class; a nested function in the
    same class as its parent adds no lines."""
    chosen = [f for f in functions if status[f.key] == label]
    lines = sum(
        f.lines for f in chosen
        if f.parent is None or status[f.parent.key] != label
    )
    return len(chosen), lines


def report(functions: list[Function], status: dict[str, str]) -> tuple[str, list[str]]:
    """The printed report, and the non-exempt tests-only modules."""
    by_module: dict[str, list[Function]] = defaultdict(list)
    for function in functions:
        by_module[function.module].append(function)
    out = []
    test_only_modules = []
    for module, members in sorted(by_module.items()):
        never = _span(members, status, "never run")
        tests = _span(members, status, "tests only")
        if not (never[0] or tests[0]):
            continue
        whole = not any(status[f.key] == "product" for f in members) and tests[0] > 0
        note = ""
        if whole:
            reason = EXEMPT.get(module)
            note = f"  TESTS-ONLY MODULE{f' [exempt: {reason}]' if reason else ''}"
            if reason is None:
                test_only_modules.append(module)
        out.append(f"{module}: never run {never[0]} ({never[1]} lines), "
                   f"tests only {tests[0]} ({tests[1]} lines){note}")
        for function in members:
            label = status[function.key]
            if label == "product":
                continue
            reason = exemption(function)
            suffix = f"  [exempt: {reason}]" if reason else ""
            out.append(f"    {label:10s} {function.qualname} "
                       f"(line {function.first}, {function.lines} lines){suffix}")
    total_lines = sum(f.lines for f in functions if f.parent is None)
    never = _span(functions, status, "never run")
    tests = _span(functions, status, "tests only")
    out.append("")
    out.append(f"{len(functions)} functions ({total_lines} lines) in src/repro")
    out.append(f"never run:  {never[0]} functions ({never[1]} lines)")
    out.append(f"tests only: {tests[0]} functions ({tests[1]} lines)")
    out.append("tests-only modules outside the exemptions: "
               + (", ".join(test_only_modules) or "none"))
    return "\n".join(out), test_only_modules


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sightings", type=Path, default=None,
                        help="keep the raw sightings here (default: a temp dir)")
    parser.add_argument("--report-only", action="store_true",
                        help="classify the sightings already in --sightings")
    args = parser.parse_args(argv)
    if args.report_only and args.sightings is None:
        parser.error("--report-only needs --sightings DIR")

    scratch = Path(tempfile.mkdtemp(prefix="reachability-"))
    root = args.sightings or scratch / "sightings"
    failed = []
    try:
        if not args.report_only:
            write_hook(scratch / "hook")
            if run_tier1(scratch / "hook", root / "tests") != 0:
                failed.append("tier-1")
            print("product pass:", flush=True)
            failed += run_product(scratch / "hook", root / "product", scratch / "work")
        functions = scan()
        status = classify(functions, load_sightings(root / "product"),
                          load_sightings(root / "tests"))
        text, test_only_modules = report(functions, status)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(text)
    if failed:
        print("failed passes:", ", ".join(failed))
    return 1 if failed or test_only_modules else 0


if __name__ == "__main__":
    raise SystemExit(main())
