"""Smoke tests for the scripts under scripts/, run as a user would."""
import os
import subprocess
import sys
from pathlib import Path

import epp_lab

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(epp_lab.__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(SRC)}


def run(argv, cwd):
    return subprocess.run(
        [sys.executable, *argv], env=ENV, cwd=cwd, capture_output=True, text=True
    )


def test_make_figure_data_matches_cli(tmp_path):
    result = run([str(ROOT / "scripts" / "make_figure_data.py"), "--out-dir", "tmp",
                  "--curve-grid", "20", "--f-grid", "11"], tmp_path)
    assert result.returncode == 0, result.stderr
    for name, argv in [
        ("vidal_curve.csv", ["vidal-curve", "--grid", "20"]),
        ("f_grid.csv", ["f-grid", "--grid", "11"]),
    ]:
        cli = run(["-m", "epp_lab", *argv, "--out", name], tmp_path)
        assert cli.returncode == 0, cli.stderr
        assert (tmp_path / "tmp" / name).read_bytes() == (tmp_path / name).read_bytes()


def test_haar_campaign_runs(tmp_path):
    result = run([str(ROOT / "scripts" / "haar_campaign.py"), "--max-samples", "1000"], tmp_path)
    assert result.returncode == 0, result.stderr
    assert "known-basis two-copy average" in result.stdout
    assert "unknown-basis four-copy average" in result.stdout
