"""Put the source tree on PYTHONPATH for the CLI subprocesses that some
tests start, so a plain ``pytest`` works from a checkout without an
install (``pythonpath`` in pyproject.toml covers the test process)."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
