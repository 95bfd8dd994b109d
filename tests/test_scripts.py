"""Smoke tests: the scripts under scripts/ run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], capture_output=True, text=True, env=env, timeout=300
    )


def test_run_simulated_experiment_script():
    result = run_script("run_simulated_experiment.py", "--dim", "3")
    assert result.returncode == 0, result.stderr
    assert "product (sectors)" in result.stdout


def test_make_figure_data_script(tmp_path):
    result = run_script("make_figure_data.py", "--grid-n", "4", "--outdir", str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["path_beta1_grid4.csv", "surface_grid4.csv"]
