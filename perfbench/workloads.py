"""The four benchmark workloads: seeded inputs, the CLI calls of each op, and output checks.

Every op is a short list of `pconc` argument vectors that run in order
(stopping at the first nonzero exit). Ops are grouped into blocks with a
fixed mix of op kinds, so that every run sees the same proportions of
cheap and expensive ops whatever the seed; the seed only draws the
parameters inside each block (state decay, noise visibility, Poisson
streams, grid sizes). Continuous parameters are stratified over groups
of blocks, which keeps the per-run cost steady across seeds.

Checks compare each op's output with values the benchmark computes on
its own (closed forms for the generating states), never with the
program's own functions. A failed check raises CheckFailure.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

RATE_HZ = "1000"
RECORD_TIME_S = "10"

# Largest |product from a record - exact product of the generating state|
# accepted for 1 kHz x 10 s pairwise records at d = 3..5.
RECORD_PRODUCT_BAND = 0.03
# Lowest accepted printed fidelity to the generating state, by (method, d, counting time).
FIDELITY_FLOOR = {
    ("mle", 3, "1"): 0.995,
    ("mle", 3, "10"): 0.998,
    ("mle", 3, "100"): 0.999,
    ("mle", 3, "1000"): 0.999,
    ("linear", 3, "10"): 0.94,
    ("linear", 4, "10"): 0.92,
    ("linear", 5, "10"): 0.88,
}
PRODUCT_RTOL = 1e-9  # product vs row product, and vs closed forms of exact inputs
CLOSED_FORM_RTOL = 1e-7
CLOSED_FORM_ATOL = 1e-10
CSV_ATOL = 1e-9
PRINT_ATOL = 1e-6  # values printed with 6 decimals


class CheckFailure(Exception):
    """An op's output disagrees with its expected value."""


@dataclass
class Op:
    op_id: str
    calls: list[list[str]]  # argv for pconc, file names relative to the work directory
    outputs: list[str]  # files the op writes; hashed into its digest
    check: Callable[[list[str]], None]  # receives the stdout of each call


@dataclass
class Workload:
    blocks: list[list[Op]]
    trace_blocks: int  # the traced run repeats the ops of this many leading blocks


# --- states the benchmark writes itself --------------------------------------


def spdc_amplitudes(d: int, decay: float) -> np.ndarray:
    """Gaussian envelope over the d angular-momentum labels nearest 0, descending."""
    labels = np.arange(d // 2, d // 2 - d, -1, dtype=float)
    c = np.exp(-(labels**2) / (2.0 * decay**2))
    return c / np.linalg.norm(c)


def write_ket(path: str, c: np.ndarray) -> None:
    d = len(c)
    amp = np.zeros(d * d)
    amp[:: d + 1] = c
    data = [[float(x), 0.0] for x in amp]
    Path(path).write_text(json.dumps({"type": "ket", "dimA": d, "dimB": d, "data": data}))


def write_density(path: str, c: np.ndarray, visibility: float) -> None:
    """visibility * |psi><psi| + (1 - visibility) * I / d^2 for psi = sum_i c_i |i,i>."""
    d = len(c)
    psi = np.zeros(d * d)
    psi[:: d + 1] = c
    m = visibility * np.outer(psi, psi) + (1.0 - visibility) * np.eye(d * d) / (d * d)
    data = [[[float(x), 0.0] for x in row] for row in m]
    Path(path).write_text(json.dumps({"type": "density", "dimA": d, "dimB": d, "data": data}))


def sector_concurrence(ci: float, cj: float, visibility: float, d: int) -> float:
    """Concurrence of the (i, j) x (i, j) sector of the white-noise-mixed state.

    The projected sector is the X state p |phi><phi| + q I with p|ab| = v c_i c_j
    and q = (1 - v) / d^2, so C = 2 max(0, v c_i c_j - q) / (v (c_i^2 + c_j^2) + 4 q).
    """
    q = (1.0 - visibility) / (d * d)
    num = visibility * ci * cj - q
    den = visibility * (ci * ci + cj * cj) + 4.0 * q
    return 0.0 if num <= 0.0 else 2.0 * num / den


def exact_product(c: np.ndarray, visibility: float = 1.0) -> float:
    """Known-pairing product over every sector; for pure states prod 2 c_i c_j / (c_i^2 + c_j^2)."""
    d = len(c)
    return math.prod(
        sector_concurrence(c[i], c[j], visibility, d) for i in range(d) for j in range(i + 1, d)
    )


# --- shared checks -------------------------------------------------------------


def _close(x: float, y: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(x - y) <= atol + rtol * max(abs(x), abs(y))


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailure(msg)


def check_report(path: str, stdout: str, d: int, mode: str) -> float:
    """Check a witness report file and the printed table; return the product."""
    rep = json.loads(Path(path).read_text(encoding="utf-8"))
    rows = rep["subspaces"]
    k = d * (d - 1) // 2
    _expect(len(rows) == k, f"{len(rows)} report rows, expected {k}")
    prod = math.prod(r["concurrence"] for r in rows)
    p = rep["pconcurrence"]
    _expect(_close(p, prod, PRODUCT_RTOL, 1e-300), f"product {p!r} != row product {prod!r}")
    _expect(all(0.0 <= r["concurrence"] <= 1.0 for r in rows), "concurrence outside [0, 1]")
    _expect(all(0.0 <= r["weight"] <= 1.0 + 1e-9 for r in rows), "weight outside [0, 1]")
    a_side = sorted(tuple(r["a"]) for r in rows)
    b_side = sorted(tuple(r["b"]) for r in rows)
    every = [(i, j) for i in range(d) for j in range(i + 1, d)]
    _expect(a_side == every and b_side == every, "pairing is not a bijection of the sectors")
    if mode == "known":
        _expect(rep["search_mode"] == "known", f"search_mode {rep['search_mode']!r}")
        _expect(all(r["a"] == r["b"] for r in rows), "known pairing is not the identity")
    else:
        _expect(rep["search_mode"] in ("brute_force", "assignment"), f"search_mode {rep['search_mode']!r}")
    footer = stdout.rstrip("\n").splitlines()[-1].split()
    _expect(footer[0] == "pconcurrence" and float(footer[-1]) == float(f"{p:.2f}"),
            f"printed footer {' '.join(footer)!r} does not match product {p!r}")
    _expect(len(stdout.rstrip("\n").splitlines()) == k + 2, "printed table has the wrong number of lines")
    return p


def _load_matrix(path: str) -> tuple[int, np.ndarray]:
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    _expect(obj["type"] == "density", f"state type {obj['type']!r}, expected density")
    m = np.array([[complex(re, im) for re, im in row] for row in obj["data"]])
    return int(obj["dimA"]), m


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """n draws covering [lo, hi] in equal strata, in random order."""
    xs = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(xs)
    return xs


# --- record_witness ------------------------------------------------------------


# Sector fits of near-uniform states converge in a steady few hundred
# iterations per op; at decay 2.5-3 they take several-fold more and vary
# with the Poisson draw (lower decays vary more still). One d = 4 op per
# block keeps those slow fits and the others use the steady band, so each
# block costs about the same. Three steady d = 4 ops hold the median
# latency and two d = 5 ops the tail.
STEADY, SLOW = (8.0, 12.0), (2.5, 3.0)
RECORD_SLOTS = [(3, STEADY), (4, SLOW), (4, STEADY), (4, STEADY), (4, STEADY), (5, STEADY), (5, STEADY)]


def _record_witness(seed: int) -> Workload:
    rng = random.Random(seed)
    n_blocks, group = 32, 4
    decays = {s: [] for s in range(len(RECORD_SLOTS))}
    for _ in range(n_blocks // group):
        for s, (_d, (lo, hi)) in enumerate(RECORD_SLOTS):
            decays[s].extend(_stratified(rng, lo, hi, group))
    known: dict[str, float] = {}
    blocks = []
    for b in range(n_blocks):
        block = []
        for s, (d, _band) in enumerate(RECORD_SLOTS):
            c = spdc_amplitudes(d, decays[s][b])
            state = f"b{b:02d}.s{s}.state.json"
            write_ket(state, c)
            sim_seed = str(rng.randrange(2**31))
            # Known pairing at every d; search only at d = 3, where it succeeds at this commit.
            modes = ("known", "search") if d == 3 else ("known",)
            for mode in modes:
                op_id = f"b{b:02d}.s{s}.d{d}.{mode}"
                record, report = f"{op_id}.record.json", f"{op_id}.report.json"
                calls = [
                    ["simulate", state, "--settings", "pairwise", "--rate-hz", RATE_HZ,
                     "--time-s", RECORD_TIME_S, "--seed", sim_seed, "--out", record],
                    ["witness", record, "--pairing", mode, "--out", report],
                ]
                check = _record_check(report, record, d, c, mode, known, f"{state}@{sim_seed}")
                block.append(Op(op_id, calls, [record, report], check))
        blocks.append(block)
    return Workload(blocks, trace_blocks=2)


def _record_check(report, record, d, c, mode, known, key):
    exact = exact_product(c)
    n_settings = (2 * d * d - d) ** 2

    def check(stdouts: list[str]) -> None:
        _expect(stdouts[0] == f"wrote {n_settings} settings with counts to {record}\n",
                f"simulate printed {stdouts[0]!r}")
        p = check_report(report, stdouts[1], d, mode)
        _expect(abs(p - exact) <= RECORD_PRODUCT_BAND,
                f"record product {p:.4f} is off the exact {exact:.4f} by more than {RECORD_PRODUCT_BAND}")
        if mode == "known":
            known[key] = p
        elif key in known:
            _expect(p >= known[key] - 1e-12, f"search product {p!r} < known product {known[key]!r}")

    return check


# --- full_reconstruct ------------------------------------------------------------

# Iterations of one full fit vary several-fold with the Poisson draw, so each
# counting time gets the decay band where its cost is steadiest: the 1000 s
# records come from a far-from-uniform state whose fits all run into the
# iteration cap, the rest converge.
MLE_DECAYS = {"1": (5.5, 6.5), "10": (5.5, 6.5), "100": (3.5, 4.5), "1000": (0.75, 0.85)}


def _full_reconstruct(seed: int, simulate: Callable[[list[str]], None]) -> Workload:
    rng = random.Random(seed)
    n_blocks, group = 12, 4
    decays = {t: [] for t in MLE_DECAYS}
    for _ in range(n_blocks // group):
        for t, (lo, hi) in MLE_DECAYS.items():
            decays[t].extend(_stratified(rng, lo, hi, group))

    def make_record(tag: str, d: int, decay: float, time_s: str) -> tuple[str, str, np.ndarray]:
        c = spdc_amplitudes(d, decay)
        state, record = f"{tag}.state.json", f"{tag}.record.json"
        write_ket(state, c)
        simulate(["simulate", state, "--settings", "pairwise", "--rate-hz", RATE_HZ,
                  "--time-s", time_s, "--seed", str(rng.randrange(2**31)), "--out", record])
        return state, record, c

    # Least squares costs the same for any counts at a given d, so two
    # records per d serve every block.
    linear_inputs = {
        d: [make_record(f"lin{k}.d{d}", d, rng.uniform(2.5, 3.0), RECORD_TIME_S) for k in range(2)]
        for d in (4, 5)
    }
    blocks = []
    for b in range(n_blocks):
        block = []
        for t in MLE_DECAYS:
            state, record, c = make_record(f"b{b:02d}.t{t}", 3, decays[t][b], t)
            block.append(_reconstruct_op(f"b{b:02d}.d3.t{t}.mle", "mle", 3, t, state, record, c))
            if t == RECORD_TIME_S:
                block.append(_reconstruct_op(f"b{b:02d}.d3.t{t}.linear", "linear", 3, t, state, record, c))
        for d, k in ((4, 0), (4, 1), (5, b % 2)):
            state, record, c = linear_inputs[d][k]
            block.append(_reconstruct_op(f"b{b:02d}.d{d}.r{k}.linear", "linear", d, RECORD_TIME_S,
                                         state, record, c))
        blocks.append(block)
    return Workload(blocks, trace_blocks=2)


def _reconstruct_op(op_id, method, d, time_s, state, record, c) -> Op:
    out = f"{op_id}.rho.json"
    floor = FIDELITY_FLOOR[(method, d, time_s)]
    psi = np.zeros(d * d)
    psi[:: d + 1] = c

    def check(stdouts: list[str]) -> None:
        lines = stdouts[0].splitlines()
        _expect(len(lines) == 3 and lines[0] == f"reconstructed ({method}) -> {out}",
                f"reconstruct printed {stdouts[0]!r}")
        purity = float(lines[1].removeprefix("purity: "))
        fid = float(lines[2].removeprefix("fidelity to target: "))
        _expect(fid >= floor, f"fidelity {fid} below the floor {floor} for {method} d={d} t={time_s}")
        dim, m = _load_matrix(out)
        _expect(dim == d, f"reconstructed dimension {dim}, expected {d}")
        _expect(np.abs(m - m.conj().T).max() <= 1e-9, "reconstruction is not Hermitian")
        _expect(abs(np.trace(m) - 1.0) <= 1e-9, "reconstruction trace is not 1")
        _expect(np.linalg.eigvalsh(m)[0] >= -1e-9, "reconstruction is not PSD")
        true_fid = float((psi @ m @ psi).real)
        _expect(abs(fid - true_fid) <= PRINT_ATOL, f"printed fidelity {fid} != <psi|rho|psi> {true_fid}")
        true_purity = float(np.trace(m @ m).real)
        _expect(abs(purity - true_purity) <= PRINT_ATOL, f"printed purity {purity} != Tr rho^2 {true_purity}")

    return Op(op_id, [["reconstruct", record, "--method", method, "--target", state, "--out", out]],
              [out], check)


# --- density_search ---------------------------------------------------------------


def _density_search(seed: int) -> Workload:
    rng = random.Random(seed)
    dims = (6, 7, 8)
    n_blocks = 4
    decays = {d: _stratified(rng, 4.0, 8.0, n_blocks) for d in dims}
    visibilities = {d: _stratified(rng, 0.90, 0.99, n_blocks) for d in dims}
    blocks = []
    for b in range(n_blocks):
        inputs = []
        for d in dims:
            c = spdc_amplitudes(d, decays[d][b])
            pure, mixed = f"b{b}.d{d}.pure.json", f"b{b}.d{d}.mixed.json"
            write_density(pure, c, 1.0)
            write_density(mixed, c, visibilities[d][b])
            inputs += [(pure, d, c, 1.0), (mixed, d, c, visibilities[d][b])]
        # Every input is searched; one per block also runs the known pairing.
        runs = [(inp, "search") for inp in inputs] + [(inputs[5 * b % len(inputs)], "known")]
        block = []
        for (path, d, c, v), mode in runs:
            op_id = f"{path.removesuffix('.json')}.{mode}"
            report = f"{op_id}.report.json"
            block.append(Op(op_id, [["witness", path, "--pairing", mode, "--out", report]], [report],
                            _density_check(report, d, exact_product(c, v), mode)))
        blocks.append(block)
    return Workload(blocks, trace_blocks=4)


def _density_check(report, d, exact, mode):
    def check(stdouts: list[str]) -> None:
        p = check_report(report, stdouts[0], d, mode)
        # For these states every pairing but the identity meets a zero sector,
        # so the search maximum equals the known-pairing closed form (which
        # also checks search >= known).
        _expect(_close(p, exact, CLOSED_FORM_RTOL, CLOSED_FORM_ATOL),
                f"{mode} product {p!r} != closed form {exact!r}")

    return check


# --- qutrit_sweep -------------------------------------------------------------------

SWEEP_HEADER = "alpha,beta,pconcurrence,eof_norm,iconcurrence_norm"
GRID_SIZES = range(15, 26)


def qutrit_row(alpha: float, beta: float) -> tuple[float, float, float]:
    """Closed forms for (|0,0> + alpha |1,-1> + beta |-1,1>) / norm: pconcurrence, eof/log2 3, I-conc/max."""
    amps = (alpha, 1.0, beta)
    conc = [
        0.0 if amps[i] * amps[j] == 0.0 else 2 * amps[i] * amps[j] / (amps[i] ** 2 + amps[j] ** 2)
        for i, j in ((0, 1), (0, 2), (1, 2))
    ]
    norm = 1.0 + alpha**2 + beta**2
    p = [a * a / norm for a in amps]
    eof = -sum(x * math.log2(x) for x in p if x > 1e-12) / math.log2(3)
    iconc = math.sqrt(max(0.0, 2.0 * (1.0 - sum(x * x for x in p)))) / math.sqrt(4.0 / 3.0)
    return math.prod(conc), eof, iconc


def _qutrit_sweep(seed: int) -> Workload:
    rng = random.Random(seed)
    n_groups = 2
    sweeps, paths = [], []
    for _ in range(n_groups):
        sweeps += rng.sample(GRID_SIZES, len(GRID_SIZES))
        for _ in range(3):
            paths += rng.sample(GRID_SIZES, len(GRID_SIZES))
    blocks = []
    for b in range(len(sweeps)):
        block = [_grid_op(f"b{b:02d}.sweep", "sweep", sweeps[b])]
        block += [_grid_op(f"b{b:02d}.path{k}", "path", paths[3 * b + k]) for k in range(3)]
        blocks.append(block)
    return Workload(blocks, trace_blocks=len(GRID_SIZES))


def _grid_op(op_id, command, n) -> Op:
    out = f"{op_id}.csv"
    if command == "sweep":
        grid = [(i / n, j / n) for i in range(n + 1) for j in range(n + 1)]
    else:
        grid = [(i / n, 1.0) for i in range(n + 1)]

    def check(stdouts: list[str]) -> None:
        _expect(stdouts[0] == f"wrote {len(grid)} rows to {out}\n", f"{command} printed {stdouts[0]!r}")
        lines = Path(out).read_text(encoding="utf-8").splitlines()
        _expect(lines[0] == SWEEP_HEADER, f"CSV header {lines[0]!r}")
        _expect(len(lines) == len(grid) + 1, f"{len(lines) - 1} CSV rows, expected {len(grid)}")
        for line, (alpha, beta) in zip(lines[1:], grid):
            row = [float(x) for x in line.split(",")]
            _expect(row[0] == alpha and row[1] == beta, f"grid point {row[:2]} != {(alpha, beta)}")
            for got, want in zip(row[2:], qutrit_row(alpha, beta)):
                _expect(abs(got - want) <= CSV_ATOL, f"row {line!r}: {got!r} != closed form {want!r}")

    return Op(op_id, [[command, "--grid-n", str(n), "--out", out]], [out], check)


def build(name: str, seed: int, simulate: Callable[[list[str]], None]) -> Workload:
    """Write the workload's inputs into the current directory and return its ops.

    simulate runs one `pconc simulate` call; full_reconstruct uses it to
    make its records before timing starts.
    """
    if name == "record_witness":
        return _record_witness(seed)
    if name == "full_reconstruct":
        return _full_reconstruct(seed, simulate)
    if name == "density_search":
        return _density_search(seed)
    if name == "qutrit_sweep":
        return _qutrit_sweep(seed)
    raise ValueError(f"unknown workload {name!r}")
