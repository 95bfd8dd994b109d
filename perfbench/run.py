#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the pconc CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see BENCHMARK.json and perfbench/README.md) in this
process: one closed-loop client calls `pconcurrence.cli.main([...])`
in-process with stdout captured, checks every op's output, and prints
one JSON object as the last line of stdout. With --trace 0 it reports
the end-to-end metrics; with --trace 1 it runs each op of a fixed set
untraced and traced, back to back, and reports per-layer metrics from the
spans. A stamped result file is written under perfbench/out/results/.

The program is imported from src/ next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("record_witness", "full_reconstruct", "density_search", "qutrit_sweep")
SETUP_PROBES = 2  # fresh processes timed for setup_s, besides this one
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it

# Calls made once right after import, so that first-call costs (lazy
# imports, LAPACK and einsum set-up) land in setup_s and not in the ops.
WARMUP = {
    "record_witness": [
        ["simulate", "warm3.json", "--settings", "pairwise", "--seed", "0", "--out", "warm.record.json"],
        ["witness", "warm.record.json"],
        ["witness", "warm.record.json", "--pairing", "search"],
    ],
    "full_reconstruct": [
        ["simulate", "warm3.json", "--settings", "pairwise", "--time-s", "1", "--seed", "0",
         "--out", "warm.record.json"],
        ["reconstruct", "warm.record.json", "--method", "mle", "--target", "warm3.json", "--out", "warm.rho.json"],
        ["reconstruct", "warm.record.json", "--method", "linear", "--target", "warm3.json", "--out", "warm.rho.json"],
    ],
    "density_search": [
        ["witness", "warm6.json", "--pairing", "search"],
        ["witness", "warm6.json", "--pairing", "known"],
    ],
    "qutrit_sweep": [
        ["sweep", "--grid-n", "2", "--out", "warm.csv"],
        ["path", "--grid-n", "2", "--out", "warm.csv"],
    ],
}
END_TO_END_UNITS = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ops_ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    """One in-process `pconc` call; returns (exit code, stdout). stderr is discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def write_warmup_kets() -> None:
    """d = 3 and d = 6 anticorrelated kets, written without importing the program or numpy."""
    for d in (3, 6):
        labels = range(d // 2, d // 2 - d, -1)
        c = [math.exp(-l * l / 8.0) for l in labels]
        norm = math.sqrt(sum(x * x for x in c))
        data = [[0.0, 0.0] for _ in range(d * d)]
        for i, x in enumerate(c):
            data[i * (d + 1)][0] = x / norm
        Path(f"warm{d}.json").write_text(json.dumps({"type": "ket", "dimA": d, "dimB": d, "data": data}))


def set_up(workload: str):
    """Import pconcurrence.cli from src/ and run the warm-up calls; returns (cli, seconds)."""
    write_warmup_kets()
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from pconcurrence import cli

    for argv in WARMUP[workload]:
        rc, _ = call_cli(cli, argv)
        if rc != 0:
            raise BenchError(f"warm-up call {argv} exited {rc}")
    elapsed = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported {cli.__file__}, not the package under {SRC}")
    return cli, elapsed


def probe_setup(workload: str) -> float:
    """set_up() in a fresh process; returns its seconds."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


class OpRunner:
    """Runs ops, checks them with the clock stopped, and keeps their digests."""

    def __init__(self, cli):
        self.cli = cli
        self.digests: dict[str, str] = {}
        self.failures: list[str] = []
        self.latencies: list[tuple[str, float]] = []  # (op id, ms), untraced ops only

    def run(self, op) -> tuple[float, bool]:
        """Returns (latency in seconds, ok)."""
        from workloads import CheckFailure

        stdouts = []
        error = None
        t0 = time.perf_counter()
        try:
            for argv in op.calls:
                rc, out = call_cli(self.cli, argv)
                stdouts.append(out)
                if rc != 0:
                    error = f"{argv[0]} exited {rc}"
                    break
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if error is None:
            try:
                op.check(stdouts)
                digest = self._digest(op, stdouts)
                if self.digests.setdefault(op.op_id, digest) != digest:
                    error = "output differs from an earlier run of the same op"
            except (CheckFailure, OSError, ValueError, TypeError, KeyError, IndexError) as exc:
                error = f"check: {type(exc).__name__}: {exc}"
        if error is not None:
            self.fail(op.op_id, error)
        return latency, error is None

    def fail(self, op_id: str, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(f"{op_id}: {message}")

    @staticmethod
    def _digest(op, stdouts: list[str]) -> str:
        h = hashlib.sha256()
        for argv, out in zip(op.calls, stdouts):
            h.update(json.dumps(argv).encode() + b"\0" + out.encode() + b"\0")
        for path in op.outputs:
            h.update(Path(path).read_bytes())
        return h.hexdigest()


def tail_index(n: int) -> int:
    """Index into n sorted samples of the highest one with TAIL_BEYOND samples above it (median rank if n is small)."""
    return n - 1 - TAIL_BEYOND if n > 2 * TAIL_BEYOND else (n - 1) // 2


def run_plain(runner: OpRunner, blocks: list[list], seconds: float) -> tuple[dict, dict]:
    """Run whole blocks, cycling, until the op time reaches the given seconds."""
    ok = b = 0
    busy = 0.0
    while busy < seconds:
        for op in blocks[b % len(blocks)]:
            latency, good = runner.run(op)
            runner.latencies.append((op.op_id, latency * 1e3))
            busy += latency
            ok += good
        b += 1
    ordered = sorted(ms for _, ms in runner.latencies)
    n = len(ordered)
    k = tail_index(n)
    metrics = {
        "throughput_ops_s": ok / busy,
        "latency_p50_ms": statistics.median(ordered),
        "latency_tail_ms": ordered[k],
        "ops_ok_ratio": ok / n,
    }
    info = {
        "attempted": n,
        "failed": n - ok,
        "latency_samples": n,
        "latency_tail_percentile": 100.0 * (k + 1) / n,
        "busy_s": busy,
        "blocks": b,
    }
    return metrics, info


def run_traced(runner: OpRunner, ops: list, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Run each op untraced and traced, back to back, in passes over the ops until the time is up.

    The order within each pair alternates from op to op, so drift and
    first-run effects fall on both sides. At least one pass runs, and
    another starts only if it is expected to end within the time. An op's
    counters must come out the same in every pass, and its outputs the
    same traced or not.
    """
    from spans import Tracer

    tracer = Tracer()
    plain_s = traced_s = pass_s = 0.0
    attempted = ok = traced_ops = passes = 0
    op_counts: list[dict | None] = [None] * len(ops)
    while passes == 0 or plain_s + traced_s + pass_s <= seconds:
        pass_start = plain_s + traced_s
        for i, op in enumerate(ops):
            for traced in (False, True) if (i + passes) % 2 == 0 else (True, False):
                if not traced:
                    latency, good = runner.run(op)
                    runner.latencies.append((op.op_id, latency * 1e3))
                    plain_s += latency
                else:
                    tracer.install()
                    try:
                        before = tracer.snapshot()
                        tracer.op = i
                        with tracer.span("op"):
                            latency, good = runner.run(op)
                        counts = {k: v - before[k] for k, v in tracer.snapshot().items()}
                    finally:
                        tracer.uninstall()
                    if op_counts[i] is None:
                        op_counts[i] = counts
                    elif counts != op_counts[i] and good:
                        good = False
                        runner.fail(op.op_id, "counters changed between traced passes")
                    traced_s += latency
                    traced_ops += 1
                attempted += 1
                ok += good
        passes += 1
        pass_s = plain_s + traced_s - pass_start
    metrics = tracer.layer_metrics(traced_ops, traced_s / plain_s)
    tracer.write_spans(spans_path)
    info = {
        "attempted": attempted,
        "failed": attempted - ok,
        "traced_ops": traced_ops,
        "passes": passes,
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "untraced_targets": tracer.missing,
        "op_counts": {op.op_id: c for op, c in zip(ops, op_counts)},
        "spans_file": spans_path.name,
    }
    return metrics, info


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import numpy

    for lib in sorted(Path(numpy.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha() -> str | None:
    """HEAD of the repository around the benchmark, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help="only time set-up and print its seconds")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pconcurrence" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'pconcurrence' / 'cli.py'} is missing", file=sys.stderr)
        return 2
    (OUT_DIR / "work").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR / "work"))
    os.chdir(workdir)
    try:
        cli, setup0 = set_up(args.workload)
        if args.setup_probe:
            print(repr(setup0))
            return 0
        return measure(args, cli, setup0)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, cli, setup0: float) -> int:
    setups = [setup0]
    if args.trace == 0:
        setups += [probe_setup(args.workload) for _ in range(SETUP_PROBES)]

    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    def simulate(argv):
        rc, out = call_cli(cli, argv)
        if rc != 0:
            raise BenchError(f"input generation {argv} exited {rc}")

    wl = workloads.build(args.workload, args.seed, simulate)
    runner = OpRunner(cli)
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace == 0:
        metrics, info = run_plain(runner, wl.blocks, args.seconds)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS
        info["setup_samples_s"] = setups
    else:
        from spans import LAYER_METRICS

        traced_ops = [op for block in wl.blocks[: wl.trace_blocks] for op in block]
        metrics, info = run_traced(runner, traced_ops, args.seconds, stem.with_suffix(".spans.csv"))
        units = dict(LAYER_METRICS)
    info["failures"] = runner.failures
    info["op_latencies_ms"] = runner.latencies
    info["output_digests"] = runner.digests
    info["outputs_digest"] = hashlib.sha256(
        "".join(f"{k}={v}\n" for k, v in sorted(runner.digests.items())).encode()
    ).hexdigest()
    result = {
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    stem.with_suffix(".json").write_text(
        json.dumps({"stamp": stamp(args), "result": result, "info": info}, indent=1) + "\n", encoding="utf-8"
    )
    for line in runner.failures:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # One closed-loop client and no extra threads: keep the BLAS and OpenMP
    # pools at one thread. Set before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
