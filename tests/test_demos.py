"""The library demos run end to end and write the files they announce."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo, outputs", [
    ("quickstart.py", ("sphere.tcb", "sphere_recon.tcg")),
    ("rate_distortion.py", ("rate_distortion.csv", "rate_distortion.svg")),
])
def test_demo_runs(tmp_path, demo, outputs):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo), str(tmp_path)],
                            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    for name in outputs:
        assert (tmp_path / name).is_file()
        assert str(tmp_path / name) in result.stdout
