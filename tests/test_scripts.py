import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name", ["centroid_laws.py", "dither_signature.py", "weak_value_table.py"])
def test_script_runs_from_a_plain_checkout(name, tmp_path):
    # Each script puts the checkout's src/ on sys.path itself, so it needs
    # neither an installed package nor PYTHONPATH, from any working directory.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / name), "--help"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")
