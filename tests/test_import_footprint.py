"""What a fresh process pays just to import the CLI and the sweep engine.

Every CLI call, daemon start and benchmark set-up imports these modules,
so heavyweight dependencies must stay out of them.  Checked in a child
process: the test runner itself may already have loaded anything.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _modules_after(statement: str) -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys\n{statement}\nprint('\\n'.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True,
    )
    return set(proc.stdout.split())


def test_cli_and_sweep_import_without_numpy():
    modules = _modules_after("import repro.sweep, repro.tools.cli")
    assert "repro.tools.cli" in modules
    assert "numpy" not in modules
