"""Which ``src/repro`` functions the product runs, and which only tests reach.

Run from the repository root::

    python tests/reachability.py                   # tier-1 + product pass
    python tests/reachability.py --sightings DIR   # keep the raw sightings
    python tests/reachability.py --sightings DIR --report-only   # reclassify them

Two passes run under a call hook. *Tier-1* is the test suite. The *product
pass* (:data:`PRODUCT`) is what a user runs: the CI smoke commands, every
CLI verb, ``examples/*.py``, the balancer-matrix experiment and the ledger,
traced and untraced. Every ``src/repro`` function is then classified:

* *product* -- called during the product pass;
* *tests only* -- called during tier-1 and never by the product;
* *never run* -- called by neither.

A module is *tests only* when none of its functions ran under the product
and at least one ran under tier-1. Names that stay on purpose (references
the tests compare product code against, fault branches, names the ledger or
benchmarks import) are listed in :data:`EXEMPT` and marked in the report.
The exit status is 1 when a pass failed or a non-exempt module is tests
only.

The hook is a generated ``sitecustomize.py`` put first on ``PYTHONPATH``,
so every Python process a pass starts installs it: pytest, forked and
spawned children, ``repro serve`` servers and their pool workers. It is a
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
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

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

FAULT_PLAN = {
    "seed": 11,
    "slowdowns": [{"pe": 4, "factor": 2.0}],
    "jitter": 0.05,
    "messages": [{"tag": "*", "loss": 0.2, "delay_prob": 0.2, "delay": 0.005}],
    "timing": {"drop": 0.3, "max_staleness": 2},
}

CHAOS = [
    "--balancer", "permanent", "--steps", "40", "--record-interval", "1",
    "--faults", "plan.json", "--audit-invariants",
]
ENGINE = ["--balancer", "permanent", "--steps", "40", "--record-interval", "1"]

VALIDATE_TRACE = """
import json
from repro.obs import validate_trace
validate_trace(json.load(open("trace.json")))
"""

VALIDATE_EVENTS = """
from repro.obs import read_events, validate_events
for stem in ("full", "resumed", "multiprocess"):
    validate_events(read_events(f"{stem}.events.jsonl"))
    validate_events(read_events(f"{stem}.events.host.jsonl"), source=stem)
"""

CLASSIC_VS_ENGINE = """
from repro import api
from repro.config import RunConfig
run = RunConfig(steps=40, seed=1)
api.simulate("fig5b-scaled", run=run)
api.simulate("fig5b-scaled", run=run, engine="multiprocess", engine_workers=2)
"""

SERVICE = """
import signal, socket, subprocess, sys, time
from repro.service import ServiceClient

with socket.socket() as probe:
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
server = subprocess.Popen([sys.executable, "-m", "repro", "serve", "--port",
                           str(port), "--dir", "service-store", "--workers", "2"])
try:
    client = ServiceClient(port=port)
    for _ in range(100):
        try:
            client.health().raise_for_status()
            break
        except OSError:
            time.sleep(0.2)
    client.ready()
    spec = {"kind": "preset", "preset": "fig5b-scaled", "mode": "dlb",
            "n_steps": 40, "seed": 3}
    run_id = client.submit(spec).body["run_id"]
    assert client.wait(run_id, timeout=300)["status"] == "done"
    client.submit(spec)
    client.result(run_id).raise_for_status()
    client.metrics()
finally:
    server.send_signal(signal.SIGTERM)
    assert server.wait(timeout=60) == 0
"""

FLEET = """
import time
from pathlib import Path
from repro.campaign.store import RunStore
from repro.faults.chaos import Fleet

spec = {"kind": "preset", "preset": "fig5b-scaled", "mode": "dlb",
        "n_steps": 90, "seed": 3}
with Fleet("fleet-store", size=2, log_dir="fleet-logs", lease_ttl=2.0,
           reap_interval=0.5, checkpoint_every=10, max_attempts=3) as fleet:
    run_id = fleet.servers[0].client().submit(spec).body["run_id"]
    owner = fleet.wait_for_owner(run_id, timeout=60)
    checkpoints = Path("fleet-store") / "checkpoints" / run_id
    deadline = time.monotonic() + 120
    while not any(checkpoints.glob("ckpt-*.pkl")):
        assert time.monotonic() < deadline, "no checkpoint landed"
        time.sleep(0.05)
    owner.sigkill()
    result = fleet.alive[0].client().wait(run_id, timeout=300)
    assert result["status"] == "done", result
with RunStore("fleet-store") as store:
    assert store.get(run_id).status == "done"
"""


def _repro(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


def _python(code: str) -> list[str]:
    return [sys.executable, "-c", code]


#: The product pass: ``(label, argv, expected exit status)``, run in order
#: in one scratch directory (later steps read what earlier ones wrote).
PRODUCT: list[tuple[str, list[str], int]] = [
    # CI observability smoke
    ("run --trace --metrics", _repro(
        "run", "quickstart", "--balancer", "permanent", "--steps", "30",
        "--trace", "trace.json", "--metrics", "metrics.prom", "--profile"), 0),
    ("validate trace", _python(VALIDATE_TRACE), 0),
    # CI campaign smoke
    ("campaign run --max-runs", _repro(
        "campaign", "run", "smoke", "--dir", "store", "--workers", "2",
        "--max-runs", "2", "--json"), 0),
    ("campaign resume", _repro(
        "campaign", "resume", "smoke", "--dir", "store", "--workers", "2",
        "--json"), 0),
    ("campaign run (cached)", _repro(
        "campaign", "run", "smoke", "--dir", "store", "--workers", "2"), 0),
    ("campaign report", _repro("campaign", "report", "smoke", "--dir", "store"), 0),
    # CI chaos smoke
    ("run faulted", _repro(
        "run", "quickstart", *CHAOS, "--events", "full.events.jsonl",
        "--result-json", "full.json"), 0),
    ("run faulted --kill-after", _repro(
        "run", "quickstart", *CHAOS, "--checkpoint-dir", "ck",
        "--checkpoint-every", "10", "--kill-after", "25",
        "--events", "killed.events.jsonl", "--result-json", "killed.json"), 3),
    ("run faulted --resume", _repro(
        "run", "quickstart", *CHAOS, "--resume", "ck",
        "--events", "resumed.events.jsonl", "--result-json", "resumed.json"), 0),
    ("run faulted multiprocess", _repro(
        "run", "quickstart", *CHAOS, "--engine", "multiprocess",
        "--engine-workers", "2", "--events", "multiprocess.events.jsonl"), 0),
    ("validate events", _python(VALIDATE_EVENTS), 0),
    ("run --kill-after, default record interval", _repro(
        "run", "quickstart", "--balancer", "permanent", "--steps", "20",
        "--checkpoint-dir", "ck-default", "--checkpoint-every", "5",
        "--kill-after", "10", "--result-json", "k.json"), 3),
    ("run --resume, default record interval", _repro(
        "run", "quickstart", "--balancer", "permanent", "--steps", "20",
        "--resume", "ck-default", "--result-json", "k-resumed.json"), 0),
    ("events summary", _repro("events", "summary", "full.events.jsonl"), 0),
    ("events tail", _repro("events", "tail", "full.events.jsonl"), 0),
    ("explain permanent", _repro("explain", "full.events.jsonl"), 0),
    ("run diffusion --events", _repro(
        "run", "quickstart", "--steps", "40",
        "--balancer", "diffusion", "--events", "diffusion.events.jsonl"), 0),
    ("explain diffusion", _repro("explain", "diffusion.events.jsonl"), 0),
    ("run sfc --events", _repro(
        "run", "quickstart", "--steps", "40",
        "--balancer", "sfc", "--events", "sfc.events.jsonl"), 0),
    ("explain sfc", _repro("explain", "sfc.events.jsonl"), 0),
    # CI engine smoke
    ("run sequential engine", _repro(
        "run", "fig5b-scaled", *ENGINE, "--engine", "sequential"), 0),
    ("run multiprocess --kill-after", _repro(
        "run", "fig5b-scaled", *ENGINE, "--engine", "multiprocess",
        "--engine-workers", "2", "--checkpoint-dir", "ck-engine",
        "--checkpoint-every", "10", "--kill-after", "25"), 3),
    ("run multiprocess --resume", _repro(
        "run", "fig5b-scaled", *ENGINE, "--engine", "multiprocess",
        "--engine-workers", "2", "--resume", "ck-engine"), 0),
    ("classic vs engine", _python(CLASSIC_VS_ENGINE), 0),
    # CI service and fleet smoke
    ("serve + client", _python(SERVICE), 0),
    ("fleet failover", _python(FLEET), 0),
    # the remaining CLI verbs
    ("presets", _repro("presets"), 0),
    ("run default balancers", _repro("run", "bench-m2", "--steps", "40"), 0),
    ("sweep", _repro(
        "sweep", "--m", "2", "--pes", "9", "--reps", "1", "--steps", "60"), 0),
    ("campaign list", _repro("campaign", "list"), 0),
    ("campaign status", _repro("campaign", "status", "--dir", "store"), 0),
    ("campaign gc", _repro(
        "campaign", "gc", "--older-than", "7d", "--dir", "store"), 0),
    ("campaign search", _repro(
        "campaign", "search", "--m", "2", "--pes", "9", "--steps", "60",
        "--stride", "8", "--dir", "store"), 0),
    ("bounds", _repro("bounds"), 0),
    ("calibrate", _repro("calibrate", "--particles", "512", "--repeats", "1"), 0),
    ("runs quarantine", _repro("runs", "quarantine", "--dir", "service-store"), 0),
    ("runs requeue", _repro(
        "runs", "requeue", "0000000000000000", "--dir", "service-store"), 2),
    # examples, experiments, ledger
    ("examples/quickstart.py", [sys.executable, str(REPO / "examples/quickstart.py")], 0),
    ("examples/serial_argon_md.py",
     [sys.executable, str(REPO / "examples/serial_argon_md.py")], 0),
    ("examples/load_balancing_comparison.py",
     [sys.executable, str(REPO / "examples/load_balancing_comparison.py")], 0),
    ("examples/effective_range.py",
     [sys.executable, str(REPO / "examples/effective_range.py")], 0),
    ("examples/reproduce_paper.py --scale quick",
     [sys.executable, str(REPO / "examples/reproduce_paper.py"), "--scale", "quick"], 0),
    ("balancer matrix --quick",
     [sys.executable, "-m", "repro.experiments.balancer_matrix", "--quick"], 0),
    # Traced md_engine fails its own root-coverage check at --quick size
    # (CI runs it untraced too), so the traced pass leaves it out.
    ("ledger --quick", [sys.executable, str(REPO / "ledger/run.py"), "--quick",
                        "--workload", "md_kdtree", "--workload", "md_verlet",
                        "--workload", "driven_sweep", "--workload", "service_mix",
                        "--out", "ledger.json"], 0),
    ("ledger --quick --no-trace", [sys.executable, str(REPO / "ledger/run.py"),
                                   "--quick", "--no-trace", "--out",
                                   "ledger-untraced.json"], 0),
]

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
    "repro/parallel/network.py:preset": "benchmarks import it",
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
    "repro/campaign/search.py:exhaustive_boundary_scan":
        "oracle the tests check bisect_boundary against",
    "repro/decomp/shapes.py": "benchmarks import it",
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
    """Every :data:`PRODUCT` step under the hook; returns the failed labels."""
    sightings.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True, exist_ok=True)
    (work / "plan.json").write_text(json.dumps(FAULT_PLAN))
    env = _environment(hook_dir, sightings)
    failed = []
    for label, argv, expected in PRODUCT:
        started = time.perf_counter()
        status = subprocess.call(argv, cwd=work, env=env, stdout=subprocess.DEVNULL,
                                 stderr=subprocess.DEVNULL)
        verdict = "ok" if status == expected else f"FAILED (exit {status}, want {expected})"
        print(f"  {label}: {verdict} [{time.perf_counter() - started:.0f} s]", flush=True)
        if status != expected:
            failed.append(label)
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
