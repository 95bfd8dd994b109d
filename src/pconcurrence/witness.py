"""Qubit-subspace decomposition of bipartite qudit states.

A d x d state is carved into K = d(d-1)/2 two-qubit sectors per side.
The product of the Wootters concurrences over a bijective pairing of
A-sectors with B-sectors is an entanglement measure that vanishes unless
entanglement survives in every sector, which makes it a dimension
witness. When the correlation-preserving pairing is unknown, the maximum
over all K! pairings is taken exactly, as a linear-assignment problem on
log-concurrences.

pconcurrence_known and pconcurrence_search take a state or a tomography
record. Its sectors come as a stack, from sector_states (one fancy index
into the density) or tomography.sector_estimates (one MLE fit each), and
sector_report scores the stack with one batched Wootters kernel.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.optimize import linear_sum_assignment

from .measures import ket_fidelity, wootters_concurrences
from .states import BipartiteKet, DensityMatrix, as_density, make_max_entangled

if TYPE_CHECKING:
    from .tomography import TomographyRecord

    Source = BipartiteKet | DensityMatrix | TomographyRecord

WEIGHT_FLOOR = 1e-12

# One forbidden edge must outweigh any achievable log-product: |log C| is
# bounded by ~700 per factor at double precision, K <= 2016 for d <= 64.
_FORBIDDEN_LOG = -1e18


class SubspaceSupportError(ValueError):
    """Nothing raises it (a sector without support scores 0); it stays while
    perfbench/spans.py reads it by name to build its tracer."""


@dataclass(frozen=True, order=True)
class IndexPair:
    """Strictly ordered pair of basis indices on one side."""

    lo: int
    hi: int

    def __post_init__(self):
        if not (0 <= self.lo < self.hi):
            raise ValueError(f"need 0 <= lo < hi, got ({self.lo}, {self.hi})")


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


def count_subspaces(d: int) -> int:
    """Number of two-dimensional sectors of a d-dimensional side: d(d-1)/2."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    return d * (d - 1) // 2


def enumerate_pairs(d: int) -> list[IndexPair]:
    """All strictly ordered index pairs in lexicographic order."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    return [IndexPair(lo, hi) for lo, hi in itertools.combinations(range(d), 2)]


def identity_pairing(d: int) -> Pairing:
    """Match the k-th A-pair with the k-th B-pair (lexicographic order both sides).

    This is the correlation-preserving pairing under the anticorrelated
    basis convention used by the state constructors.
    """
    pairs = enumerate_pairs(d)
    return tuple(zip(pairs, pairs))


def sector_pairs(d: int) -> list[tuple[IndexPair, IndexPair]]:
    """All K^2 (A-pair, B-pair) sectors, A-pair major: the pairing-search table."""
    pairs = enumerate_pairs(d)
    return [(a, b) for a in pairs for b in pairs]


def sector_states(
    rho: DensityMatrix, pairs: Sequence[tuple[IndexPair, IndexPair]]
) -> tuple[np.ndarray, np.ndarray]:
    """Restrict a state to each two-qubit sector (a on side A, b on side B).

    With B = P_a x P_b, P_a selecting rows (lo, hi) of side A, returns the
    (M, 4, 4) stack of B rho B^dag / weight (one fancy index into rho) and
    the (M,) weights Tr(B rho B^dag). Subspace coordinates map lo -> 0 and
    hi -> 1. States with weight below WEIGHT_FLOOR stay unnormalized.
    """
    lohi = np.array([(a.lo, a.hi, b.lo, b.hi) for a, b in pairs]).reshape(-1, 4)
    if (lohi[:, 1] >= rho.dim_a).any() or (lohi[:, 3] >= rho.dim_b).any():
        raise ValueError(f"sector indices exceed dims ({rho.dim_a}, {rho.dim_b})")
    idx = (lohi[:, :2, None] * rho.dim_b + lohi[:, None, 2:]).reshape(-1, 4)
    raw = rho.matrix[idx[:, :, None], idx[:, None, :]]
    raw = (raw + raw.conj().transpose(0, 2, 1)) / 2
    weights = np.trace(raw, axis1=1, axis2=2).real
    return raw / np.where(weights < WEIGHT_FLOOR, 1.0, weights)[:, None, None], weights


_BELL2 = make_max_entangled(2)


def sector_report(
    pairs: Sequence[tuple[IndexPair, IndexPair]],
    states: np.ndarray,
    weights: np.ndarray,
    search: bool = False,
) -> WitnessReport:
    """The one row builder: score a stack of sector states, pick and build rows.

    states[i] (unit trace) and weights[i] belong to sector pairs[i], from
    sector_states or from tomography.sector_estimates. A sector with weight
    below WEIGHT_FLOOR holds no entanglement: it scores concurrence 0,
    fidelity 0 and weight 0. Without search, pairs is the pairing and
    every sector is a row; with it, pairs is the sector_pairs(d) table and
    maximize_over_pairings picks the rows. Bell fidelities are evaluated
    for the reported rows only.
    """
    live = weights >= WEIGHT_FLOOR
    conc = np.zeros(len(pairs))
    conc[live] = wootters_concurrences(states[live])
    chosen = range(len(pairs))
    if search:
        k = math.isqrt(len(pairs))
        perm = maximize_over_pairings(conc.reshape(k, k))
        chosen = [i * k + j for i, j in enumerate(perm)]
    rows = tuple(
        SubspaceRow(
            *pairs[i],
            concurrence=float(conc[i]),
            fidelity=ket_fidelity(states[i], _BELL2.amplitudes) if live[i] else 0.0,
            weight=float(weights[i]) if live[i] else 0.0,
        )
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


def _sectors(source: Source, pairs: Sequence[tuple[IndexPair, IndexPair]]) -> tuple[np.ndarray, np.ndarray]:
    """Sector states and weights: blocks of a state's density, or MLE estimates from a record."""
    if isinstance(source, (BipartiteKet, DensityMatrix)):
        return sector_states(as_density(source), pairs)
    from .tomography import sector_estimates

    return sector_estimates(source, pairs)


def pconcurrence_known(source: Source, pairing: Pairing) -> WitnessReport:
    """Product of subspace concurrences under a given pairing.

    source is a d x d state (ket or density) or a tomography record. Each
    row also reports the fidelity of the sector state to the two-qubit
    maximally entangled state (in subspace coordinates) and the sector
    weight; weights do not enter the product.
    """
    _check_pairing(pairing, side_dim(source.dim_a, source.dim_b))
    return sector_report(pairing, *_sectors(source, pairing))


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
    # For a square matrix the row indices come back as 0..K-1.
    rows, cols = linear_sum_assignment(log_conc, maximize=True)
    if not positive[rows, cols].all():
        return tuple(range(len(conc)))
    return tuple(int(j) for j in cols)


def pconcurrence_search(source: Source) -> WitnessReport:
    """Maximize the concurrence product over all K! subspace pairings of a state or record."""
    pairs = sector_pairs(side_dim(source.dim_a, source.dim_b))
    return sector_report(pairs, *_sectors(source, pairs), search=True)


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
