#!/usr/bin/env python3
"""Fast self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload briefly, untraced and traced, through the command in
BENCHMARK.json and checks that:
- each run exits 0 and prints, as its last line, one JSON object with
  exactly the keys correct, attempted, failed and metrics;
- every op passed its output check;
- the metrics are exactly those BENCHMARK.json names, each a finite
  number with its unit, and every end-to-end metric is above 0;
- a second traced run with the same seed repeats every per-op counter
  (MLE iterations and unconverged fits, sectors scored, zero-support
  sectors) and every output digest, and traced outputs equal untraced ones;
- in a directory holding only BENCHMARK.json and the benchmark's files,
  the benchmark exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULTS = ROOT / "perfbench" / "out" / "results"
SEED = 7


def run(cwd: Path, workload: str, trace: int, seconds: int = 1) -> subprocess.CompletedProcess:
    argv = SPEC["command"] + ["--workload", workload, "--seed", str(SEED), "--seconds", str(seconds),
                              "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=900)


def check_result(proc: subprocess.CompletedProcess, expected: list[dict], what: str) -> None:
    assert proc.returncode == 0, f"{what}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: keys {sorted(result)}"
    assert result["correct"] is True and result["failed"] == 0, f"{what}: {proc.stderr}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, what
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in expected), f"{what}: metrics {sorted(metrics)}"
    for m in expected:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{what}: {m['name']} unit {got['unit']!r}, expected {m['unit']!r}"
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), f"{what}: {m['name']}"
        if "bound" in m:
            assert got["value"] > 0, f"{what}: {m['name']} = {got['value']}"


def info(workload: str, trace: int) -> dict:
    path = RESULTS / f"{workload}-seed{SEED}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))["info"]


def main() -> int:
    for w in (w["name"] for w in SPEC["workloads"]):
        check_result(run(ROOT, w, 0), SPEC["end_to_end"], f"{w} untraced")
        plain = info(w, 0)["output_digests"]
        traced = []
        for attempt in range(2):
            check_result(run(ROOT, w, 1), SPEC["per_layer"], f"{w} traced #{attempt + 1}")
            traced.append(info(w, 1))
        assert traced[0]["op_counts"] == traced[1]["op_counts"], f"{w}: per-op counters differ between runs"
        assert traced[0]["output_digests"] == traced[1]["output_digests"], f"{w}: outputs differ between runs"
        common = plain.keys() & traced[0]["output_digests"].keys()
        assert common, f"{w}: no op ran both untraced and traced"
        assert all(plain[k] == traced[0]["output_digests"][k] for k in common), f"{w}: tracing changed outputs"
        print(f"ok {w}")

    (ROOT / "perfbench" / "out").mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selftest-bare-", dir=ROOT / "perfbench" / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
        assert proc.returncode != 0, "benchmark without the program exited 0"
        assert '"metrics"' not in proc.stdout, "benchmark without the program printed a result"
    finally:
        shutil.rmtree(bare)
    print("ok without the program: exit", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
