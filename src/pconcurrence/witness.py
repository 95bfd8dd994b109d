"""Qubit-subspace decomposition of bipartite qudit states.

A d x d state is carved into K = d(d-1)/2 two-qubit sectors per side.
The product of the Wootters concurrences over a bijective pairing of
A-sectors with B-sectors is an entanglement measure that vanishes unless
entanglement survives in every sector, which makes it a dimension
witness. When the correlation-preserving pairing is unknown, the maximum
over all K! pairings is taken exactly, as a linear-assignment problem on
log-concurrences, solved here in numpy by shortest augmenting paths.

pconcurrence_known and pconcurrence_search take a state or a tomography
record and turn it into one sector table, sector_table: three vectors of
weights, concurrences and Bell fidelities, one entry per sector. A ket's
sectors are pure, and ket_sectors scores them in closed form from one
gather of its amplitudes; a density's blocks (sector_states, one gather)
and a record's MLE estimates (tomography.sector_estimates) go through one
block builder, _block_table: the batched Wootters kernel and
measures.bell_fidelities. sector_report builds the rows from the table.

A pairing search scores all K^2 sectors, except on a density whose
blocks certify a pairing. concurrence_bounds bounds each sector's
concurrence from the entries of its block, with no eigensolve: from
above by 2 (sqrt(s00 s33) + sqrt(s11 s22)), or 0 inside the separable
ball Tr s^2 <= 1/3 (Zyczkowski, Horodecki, Sanpera & Lewenstein, PRA 58,
883 (1998)), and from below by the concurrence of its X part. When
certified_pairing proves from them that one pairing beats every other,
only its K sectors are scored. The report is the same either way.
MEASURES is the table of named measures, this one among them.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .measures import bell_fidelities, eof_pure, i_concurrence, wootters_concurrences
from .states import PSD_ATOL, WEIGHT_FLOOR, BipartiteKet, DensityMatrix, IndexPair, count_subspaces, enumerate_pairs
from .tomography import TomographyRecord, sector_estimates

Source = BipartiteKet | DensityMatrix | TomographyRecord

OVERSHOOT_ATOL = 1e-9

# One forbidden edge must outweigh any achievable log-product: |log C| is
# bounded by ~700 per factor at double precision, K <= 2016 for d <= 64.
_FORBIDDEN_LOG = -1e18

# The log-product lead by which certified_pairing's bounds must separate its
# pairing from every other one, far above the round-off of a K-term log sum.
CERTIFICATE_GAP = 1e-9


class SubspaceSupportError(ValueError):
    """Nothing raises it (a sector without support scores 0); it stays while
    perfbench/spans.py reads it by name to build its tracer."""


# A bijection between the K side-A index pairs and the K side-B pairs.
Pairing = tuple[tuple[IndexPair, IndexPair], ...]


@dataclass(frozen=True)
class SubspaceRow:
    a: IndexPair
    b: IndexPair
    concurrence: float
    fidelity: float
    weight: float


@dataclass(frozen=True)
class WitnessReport:
    """Per-subspace concurrence/fidelity rows and their product."""

    subspace_rows: tuple[SubspaceRow, ...]
    pconcurrence: float
    search_mode: str  # known | assignment

    def __post_init__(self):
        prod = math.prod(row.concurrence for row in self.subspace_rows)
        if abs(prod - self.pconcurrence) > 1e-9:
            raise ValueError(
                f"pconcurrence {self.pconcurrence!r} does not match row product {prod!r}"
            )

    @property
    def pairing_used(self) -> Pairing:
        return tuple((row.a, row.b) for row in self.subspace_rows)


def identity_pairing(d: int) -> Pairing:
    """Match the k-th A-pair with the k-th B-pair (lexicographic order both sides).

    This is the correlation-preserving pairing under the anticorrelated
    basis convention used by the state constructors.
    """
    pairs = enumerate_pairs(d)
    return tuple(zip(pairs, pairs))


@functools.cache
def _search_index(d: int) -> np.ndarray:
    """The (K^2, 4) _sector_index of sector_pairs(d): the (K, 2) table of (lo, hi) pairs broadcast against itself."""
    t = np.array([(p.lo, p.hi) for p in enumerate_pairs(d)])
    index = (t[:, None, :, None] * d + t[None, :, None, :]).reshape(-1, 4)
    index.flags.writeable = False
    return index


@functools.cache
def sector_pairs(d: int) -> tuple[tuple[IndexPair, IndexPair], ...]:
    """All K^2 (A-pair, B-pair) sectors, A-pair major: the pairing-search table, one shared tuple per d."""
    pairs = enumerate_pairs(d)
    return tuple((a, b) for a in pairs for b in pairs)


def _sector_index(dims: tuple[int, int], pairs: Sequence[tuple[IndexPair, IndexPair]]) -> np.ndarray:
    """(M, 4) flat indices of each sector's basis (lo lo, lo hi, hi lo, hi hi) in a dimA * dimB ket.

    The search table sector_pairs(d) takes its cached index, _search_index;
    any other list is read pair by pair.
    """
    d = dims[0]
    if dims[1] == d >= 2 and pairs is sector_pairs(d):
        return _search_index(d)
    lohi = np.array([(a.lo, a.hi, b.lo, b.hi) for a, b in pairs]).reshape(-1, 4)
    if (lohi[:, 1] >= dims[0]).any() or (lohi[:, 3] >= dims[1]).any():
        raise ValueError(f"sector indices exceed dims ({dims[0]}, {dims[1]})")
    return (lohi[:, :2, None] * dims[1] + lohi[:, None, 2:]).reshape(-1, 4)


def sector_states(
    rho: np.ndarray, dims: tuple[int, int], pairs: Sequence[tuple[IndexPair, IndexPair]]
) -> tuple[np.ndarray, np.ndarray]:
    """Restrict an (n, n) density to each two-qubit sector (a on side A, b on side B).

    With B = P_a x P_b, P_a selecting rows (lo, hi) of side A, returns the
    (M, 4, 4) stack of B rho B^dag / weight, one gather from the Hermitian
    part of rho, and the (M,) weights Tr(B rho B^dag). Subspace coordinates
    map lo -> 0 and hi -> 1. States with weight below WEIGHT_FLOOR stay
    unnormalized.
    """
    idx = _sector_index(dims, pairs)
    herm = (rho + rho.conj().T) / 2
    raw = herm.ravel().take(idx[:, :, None] * len(rho) + idx[:, None, :])
    weights = np.trace(raw, axis1=-2, axis2=-1).real
    return raw / np.where(weights < WEIGHT_FLOOR, 1.0, weights)[:, None, None], weights


def ket_sectors(
    kets: np.ndarray, dims: tuple[int, int], pairs: Sequence[tuple[IndexPair, IndexPair]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights, concurrences and Bell fidelities of each sector of a ket or (N, n) ket stack, in closed form.

    A sector of a ket is the pure two-qubit ket v = psi[idx], of weight
    |v|^2. Its concurrence is 2 |v_00 v_11 - v_01 v_10| / |v|^2 (Wootters,
    PRL 80, 2245 (1998)) and its fidelity to (|00> + |11>)/sqrt(2) is
    |v_00 + v_11|^2 / 2 |v|^2. Each is clamped into [0, 1], and a sector
    with weight below WEIGHT_FLOOR scores 0 in all three. The gather is
    made C-contiguous, so no result depends on the stack around it. Each
    array has shape kets.shape[:-1] + (M,).
    """
    v = np.ascontiguousarray(kets[..., _sector_index(dims, pairs)])
    weights = (v * v.conj()).real.sum(axis=-1)
    live = weights >= WEIGHT_FLOOR
    norm = np.where(live, weights, 1.0)
    conc = 2.0 * np.abs(v[..., 0] * v[..., 3] - v[..., 1] * v[..., 2]) / norm
    fid = np.abs(v[..., 0] + v[..., 3]) ** 2 / (2.0 * norm)
    return tuple(np.where(live, np.fmin(1.0, x), 0.0) for x in (weights, conc, fid))


def sector_table(
    source: Source, pairs: Sequence[tuple[IndexPair, IndexPair]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sector table of a state or record: (M,) weights, concurrences and Bell fidelities of pairs.

    A ket's sectors are scored in closed form (ket_sectors); a density's
    blocks and a record's MLE estimates by the Wootters kernel and
    bell_fidelities. A sector with weight below WEIGHT_FLOOR holds no
    entanglement: it scores 0 in all three.
    """
    if isinstance(source, BipartiteKet):
        return ket_sectors(source.amplitudes, (source.dim_a, source.dim_b), pairs)
    if isinstance(source, TomographyRecord):
        states, weights = sector_estimates(source, pairs)
    else:
        states, weights = sector_states(source.matrix, (source.dim_a, source.dim_b), pairs)
    return _block_table(states, weights)


def _block_table(states: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sector table of (M, 4, 4) sector states and their (M,) weights: Wootters kernel and bell_fidelities.

    The one block builder, for density blocks and record estimates alike; a
    sector below WEIGHT_FLOOR scores 0 in all three and skips the kernel.
    """
    live = weights >= WEIGHT_FLOOR
    conc = np.zeros(weights.shape)
    conc[live] = wootters_concurrences(states[live])
    return np.where(live, weights, 0.0), conc, np.where(live, bell_fidelities(states), 0.0)


def sector_report(
    pairs: Sequence[tuple[IndexPair, IndexPair]],
    weights: np.ndarray,
    conc: np.ndarray,
    fid: np.ndarray,
    search: bool = False,
) -> WitnessReport:
    """The one row builder: pick and build rows from a sector table.

    weights[i], conc[i] and fid[i] belong to sector pairs[i], as
    sector_table gives them. Without search, pairs is the pairing and
    every sector is a row; with it, pairs is the sector_pairs(d) table and
    maximize_over_pairings picks the rows.
    """
    chosen = range(len(pairs))
    if search:
        k = math.isqrt(len(pairs))
        perm = maximize_over_pairings(conc.reshape(k, k))
        chosen = [i * k + j for i, j in enumerate(perm)]
    rows = tuple(
        SubspaceRow(*pairs[i], concurrence=float(conc[i]), fidelity=float(fid[i]), weight=float(weights[i]))
        for i in chosen
    )
    return WitnessReport(
        subspace_rows=rows,
        pconcurrence=math.prod(r.concurrence for r in rows),
        search_mode="assignment" if search else "known",
    )


def side_dim(dim_a: int, dim_b: int) -> int:
    """The common side dimension d of a d x d state, the only shape the witness takes."""
    if dim_a != dim_b:
        raise ValueError(f"need equal side dimensions, got ({dim_a}, {dim_b})")
    return dim_a


def _check_pairing(pairing: Pairing, d: int) -> None:
    for side, name in enumerate("AB"):
        if sorted(pair[side] for pair in pairing) != enumerate_pairs(d):
            raise ValueError(f"pairing does not cover each side-{name} index pair exactly once")


def pconcurrence_known(source: Source, pairing: Pairing) -> WitnessReport:
    """Product of subspace concurrences under a given pairing.

    source is a d x d state (ket or density) or a tomography record. Each
    row also reports the fidelity of the sector state to the two-qubit
    maximally entangled state (in subspace coordinates) and the sector
    weight; weights do not enter the product.
    """
    _check_pairing(pairing, side_dim(source.dim_a, source.dim_b))
    return sector_report(pairing, *sector_table(source, pairing))


def maximize_over_pairings(conc: np.ndarray) -> tuple[int, ...]:
    """Pick the bijection of A-sectors to B-sectors maximizing the product.

    conc[i, j] is the concurrence of A-pair i against B-pair j
    (lexicographic order on both sides); perm[i] is the B-pair matched with
    A-pair i. Solved exactly as the equivalent maximum sum of
    log-concurrences, a linear assignment with zero entries as forbidden
    edges. When every bijection meets a zero, the maximum is 0 and the
    identity is returned.
    """
    conc = np.asarray(conc, dtype=float)
    positive = conc > 0.0
    log_conc = np.full(conc.shape, _FORBIDDEN_LOG)
    log_conc[positive] = np.log(conc[positive])
    cols = _min_cost_assignment(-log_conc)
    if not positive[np.arange(len(cols)), cols].all():
        return tuple(range(len(conc)))
    return tuple(int(j) for j in cols)


def _min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """The column of each row in a minimum-cost bijection of a square cost matrix.

    Shortest augmenting paths (Jonker & Volgenant; Crouse, IEEE TAES 52,
    1679 (2016)). The dual potentials u, v keep every reduced cost
    cost - u - v at or above 0, and at 0 on matched edges. A row reduction
    starts them: each row takes its cheapest column, the first row to claim
    a column keeps it, and only the rows left over run a Dijkstra pass.
    """
    n = len(cost)
    u, v = cost.min(axis=1), np.zeros(n)
    col4row, row4col = np.full(n, -1), np.full(n, -1)
    for i, j in enumerate(cost.argmin(axis=1)):
        if row4col[j] < 0:
            row4col[j], col4row[i] = i, j
    for start in np.flatnonzero(col4row < 0):
        dist, path = np.full(n, np.inf), np.full(n, -1)
        scanned, rows = np.zeros(n, dtype=bool), []
        i, reach = start, 0.0
        while True:
            # Relax the columns from row i, then scan the nearest unscanned
            # one, a free one among equals, so that ties end the path early.
            r = reach + cost[i] - u[i] - v
            closer = ~scanned & (r < dist)
            dist[closer], path[closer] = r[closer], i
            pending = np.where(scanned, np.inf, dist)
            nearest = np.flatnonzero(pending == pending.min())
            j = int(nearest[np.argmin(row4col[nearest] >= 0)])
            reach, scanned[j] = dist[j], True
            if row4col[j] < 0:
                break
            i = row4col[j]
            rows.append(i)
        u[start] += reach
        u[rows] += reach - dist[col4row[rows]]
        v[scanned] -= reach - dist[scanned]
        while True:  # flip the matching along the path back from the free column j
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == start:
                break
    return col4row


def concurrence_bounds(states: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on the Wootters kernel's concurrence of each sector state, from its entries.

    For a two-qubit state sigma, C <= 2 (sqrt(s00 s33) + sqrt(s11 s22))
    (convexity over pure decompositions and Cauchy-Schwarz), and C = 0
    when Tr sigma^2 <= 1/3, inside the separable ball (Zyczkowski,
    Horodecki, Sanpera & Lewenstein, PRA 58, 883 (1998)). The X part
    (sigma + Z x Z sigma Z x Z) / 2 mixes local-unitary images of sigma, so
    its concurrence 2 max(0, |s03| - sqrt(s11 s22), |s12| - sqrt(s00 s33))
    is a lower bound. Each bound is widened for the kernel: a block may keep
    a negative eigenvalue down to PSD_ATOL / weight, which the kernel drops,
    and that moves each bound by at most 4 sqrt(x) + 8 x for x = |PSD_ATOL| /
    weight, far above the kernel's round-off; the lower bound is left
    negative where it falls below 0. Sectors below WEIGHT_FLOOR score 0,
    and both bounds read 0 there.
    """
    live = weights >= WEIGHT_FLOOR
    slack = -PSD_ATOL / np.where(live, weights, 1.0)
    margin = 4.0 * np.sqrt(slack) + 8.0 * slack
    pops = np.fmax(0.0, np.diagonal(states, axis1=1, axis2=2).real)
    outer, inner = np.sqrt(pops[:, 0] * pops[:, 3]), np.sqrt(pops[:, 1] * pops[:, 2])
    entries = states.view(float).reshape(len(states), -1)
    entangled = np.einsum("ij,ij->i", entries, entries) > 1.0 / 3.0  # Tr sigma^2 = sum |s_ij|^2
    upper = np.where(entangled, 2.0 * (outer + inner), 0.0) + margin
    lower = 2.0 * np.maximum(np.abs(states[:, 0, 3]) - inner, np.abs(states[:, 1, 2]) - outer) - margin
    return np.where(live, lower, 0.0), np.where(live, upper, 0.0)


def certified_pairing(lower: np.ndarray, upper: np.ndarray) -> np.ndarray | None:
    """The pairing that bounds on a (K, K) concurrence table prove the one optimum, or None.

    The candidate pi0 takes each row's largest upper bound. With costs
    c = -log(upper) and the row minima u as duals (the column duals are 0
    once pi0 is a bijection), every reduced cost c - u is >= 0 and is 0 on
    pi0, so any other bijection costs at least sum(u) plus the smallest
    reduced cost off pi0. When that exceeds -sum(log lower[pi0]) by
    CERTIFICATE_GAP, every other bijection has a strictly smaller product
    of concurrences than pi0, whichever values the kernel gives within the
    bounds.
    """
    k = len(upper)
    perm = upper.argmax(axis=1)
    best = lower[np.arange(k), perm]
    if np.bincount(perm, minlength=k).max() > 1 or not (best > 0.0).all():
        return None
    with np.errstate(divide="ignore"):
        cost = -np.log(upper)
    u = cost[np.arange(k), perm]
    reduced = cost - u[:, None]
    reduced[np.arange(k), perm] = np.inf
    return perm if u.sum() + reduced.min() > -np.log(best).sum() + CERTIFICATE_GAP else None


def pconcurrence_search(source: Source) -> WitnessReport:
    """Maximize the concurrence product over all K! subspace pairings of a state or record.

    A density's K^2 sector blocks are gathered first. When their
    concurrence_bounds certify a pairing (certified_pairing), only its K
    sectors are scored; the others stay 0, so the assignment returns that
    pairing. Otherwise, and for kets and records, all K^2 are scored.
    """
    pairs = sector_pairs(side_dim(source.dim_a, source.dim_b))
    if not isinstance(source, DensityMatrix):
        return sector_report(pairs, *sector_table(source, pairs), search=True)
    states, weights = sector_states(source.matrix, (source.dim_a, source.dim_b), pairs)
    k = math.isqrt(len(pairs))
    perm = certified_pairing(*(b.reshape(k, k) for b in concurrence_bounds(states, weights)))
    rows = np.arange(len(pairs)) if perm is None else np.arange(k) * k + perm
    table = np.zeros((3, len(pairs)))
    table[:, rows] = _block_table(states[rows], weights[rows])
    return sector_report(pairs, *table, search=True)


def report_to_dict(report: WitnessReport) -> dict:
    """JSON form of a witness report."""
    return {
        "pconcurrence": float(report.pconcurrence),
        "search_mode": report.search_mode,
        "pairing": [[a.lo, a.hi, b.lo, b.hi] for a, b in report.pairing_used],
        "subspaces": [
            {
                "a": [r.a.lo, r.a.hi],
                "b": [r.b.lo, r.b.hi],
                "concurrence": float(r.concurrence),
                "fidelity": float(r.fidelity),
                "weight": float(r.weight),
            }
            for r in report.subspace_rows
        ],
    }


def _concurrence(state: BipartiteKet | DensityMatrix) -> float:
    """Concurrence of a 2 x 2 state: its pconcurrence, the concurrence of its one sector."""
    if (state.dim_a, state.dim_b) != (2, 2):
        raise ValueError(f"concurrence needs a 2x2 bipartite state, got ({state.dim_a}, {state.dim_b})")
    return pconcurrence_known(state, identity_pairing(2)).pconcurrence


# Each named measure: (its value on a state, its pure-state maximum in d
# dimensions, which normalizes it into [0, 1]). pconcurrence takes the
# identity pairing, the correlation-preserving one of the state constructors.
MEASURES = {
    "concurrence": (_concurrence, lambda d: 1.0),
    "i_concurrence": (i_concurrence, lambda d: math.sqrt(2.0 * (d - 1) / d)),
    "eof": (eof_pure, math.log2),
    "pconcurrence": (lambda s: pconcurrence_known(s, identity_pairing(s.dim_a)).pconcurrence, lambda d: 1.0),
}


def normalize_measure(raw: float | np.ndarray, measure_name: str, d: int) -> float | np.ndarray:
    """Divide by the measure's maximum in d dimensions; clamp only roundoff-level overshoot.

    raw is one value or an array of them, and the result has its shape.
    """
    count_subspaces(d)  # refuses d < 2
    if measure_name not in MEASURES:
        raise ValueError(f"unknown measure {measure_name!r}")
    x = np.asarray(raw, dtype=float) / MEASURES[measure_name][1](d)
    over = (x > 1.0 + OVERSHOOT_ATOL) | (x < -OVERSHOOT_ATOL)
    if over.any():
        raise ValueError(
            f"normalized {measure_name} = {float(x[over][0])!r} overshoots [0, 1] beyond {OVERSHOOT_ATOL:.1e}"
        )
    x = np.fmin(1.0, np.fmax(0.0, x))
    return float(x) if x.ndim == 0 else x


def evaluate_measure(
    state: BipartiteKet | DensityMatrix, measure_name: str, d: int | None = None
) -> tuple[float, float]:
    """(raw, normalized): a named measure of a state and its normalization in d dimensions.

    d defaults to min(dimA, dimB).
    """
    if measure_name not in MEASURES:
        raise ValueError(f"unknown measure {measure_name!r} (choose from {tuple(MEASURES)})")
    if d is None:
        d = min(state.dim_a, state.dim_b)
    raw = MEASURES[measure_name][0](state)
    return raw, normalize_measure(raw, measure_name, d)
