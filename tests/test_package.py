import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

MODULES = ("partitions", "errors", "_binio", "channel", "hrs", "clustering", "data", "mlp", "evaluation", "cli")


@pytest.mark.parametrize("module", MODULES)
def test_submodule_imports_in_a_fresh_interpreter(module):
    # the package root imports no submodule, so each one must import what it needs itself
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    subprocess.run([sys.executable, "-c", f"import hrscluster.{module}"], check=True, env=env)
