"""Child processes started by the tests import the package from this checkout.

`pythonpath` in pyproject.toml covers the pytest process itself; the CLI
tests run `python -m unruh_coherence` in subprocesses, which inherit only
the environment.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH")))
)
