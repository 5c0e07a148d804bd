"""``import ncpoly`` loads no more of the standard library than it uses
(README): its records are namedtuples and plain classes, not dataclasses,
so neither ``dataclasses`` nor the ``inspect``, ``ast``, ``dis`` and
``tokenize`` it pulls in are imported.  Every CLI call and benchmark
worker is a fresh process that would pay for them.  pytest itself loads
those modules, so the import is checked in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_import_loads_no_dataclasses_or_inspect():
    code = (
        "import sys, ncpoly, ncpoly.cli\n"
        f"print(' '.join(sorted(set({HEAVY!r}) & set(sys.modules))))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == []
