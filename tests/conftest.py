"""Make the source tree importable by the CLI subprocesses some tests start.

pyproject.toml puts src on pytest's own sys.path; a child Python process
needs it on PYTHONPATH as well when the package is not installed.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
