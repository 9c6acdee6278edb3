"""No run digest depends on the host's BLAS thread count.

Every reduction that reaches a result is a NumPy ``sum`` or ``bincount``,
never a BLAS call whose summation order follows its thread count. The same
``md_engine``-sized run (N = 4096 on 16 PEs, clustered, the multiprocess
engine with two workers) runs in two child processes, one limited to one
BLAS/OpenMP thread and one allowed two, and must end on one digest. The
small smoke systems are too small for a threaded BLAS reduction to show.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

CHILD = """
from repro import api
from repro.config import DecompositionConfig, MDConfig, RunConfig, SimulationConfig
from tests.helpers import droplet_system

config = SimulationConfig(
    md=MDConfig(n_particles=4096, density=0.256),
    decomposition=DecompositionConfig(cells_per_side=8, n_pes=16),
)
result = api.simulate(
    config, run=RunConfig(steps=10, seed=11),
    system=droplet_system(4096, 0.256, seed=11),
    engine="multiprocess", engine_workers=2,
)
print(result.digest())
"""


def digest_with_blas_threads(threads: int) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[name] = str(threads)
    child = subprocess.run(
        [sys.executable, "-c", CHILD], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout.strip().splitlines()[-1]


def test_engine_digest_is_independent_of_blas_threads():
    assert digest_with_blas_threads(1) == digest_with_blas_threads(2)
