"""The library demos run end to end and write the files they announce."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tricloud import cli

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


def test_cli_pipeline_demo_runs(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PATH=os.pathsep.join([os.path.dirname(sys.executable), os.environ.get("PATH", "")]))
    result = subprocess.run(["sh", str(ROOT / "demos" / "cli_pipeline.sh"), str(tmp_path)],
                            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    for name in ("blobs.tcg", "blobs.tcb", "blobs_recon.tcg",
                 "blobs_report.csv", "blobs_report.json", "blobs_psnr.svg"):
        assert (tmp_path / name).is_file()
    with open(tmp_path / "blobs_report.csv", newline="") as fp:
        header, row = list(csv.reader(fp))
    report = json.loads((tmp_path / "blobs_report.json").read_text())
    for key, text in zip(header, row):
        if key in report:
            assert text == cli._fmt(report[key]), key
    assert report["n_frames"] == 6 and "psnr_y_matching" in report
