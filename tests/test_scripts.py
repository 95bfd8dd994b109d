"""Smoke tests: the scripts under scripts/ run end to end on small inputs, and the pytest configuration reports every test."""

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


def test_a_failing_property_test_does_not_stop_the_run(tmp_path):
    # With every warning an error, the hypothesis plugin's report of a failing
    # example raises a mypy_extensions.TypedDict deprecation; unless the
    # configuration ignores it, pytest stops with INTERNALERROR and the tests
    # after the failing one never run.
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.just(0))\n"
        "def test_fails(x):\n"
        "    assert x == 1\n\n\n"
        "def test_passes():\n"
        "    pass\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "-p", "no:cacheprovider", "test_probe.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout, result.stdout[-2000:]
