"""The performance ledger: one benchmark for the whole repository.

See ``ledger/README.md``. The benchmark is started from a bare checkout
(``python3 ledger/run.py``) with no ``PYTHONPATH``, so importing this
package puts the checkout's ``src/`` on ``sys.path`` when ``repro`` is not
already importable.
"""

import importlib.util
import sys
from pathlib import Path

if importlib.util.find_spec("repro") is None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
