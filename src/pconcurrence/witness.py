"""Qubit-subspace decomposition of bipartite qudit states.

A d x d state is carved into K = d(d-1)/2 two-qubit sectors per side.
The product of the Wootters concurrences over a bijective pairing of
A-sectors with B-sectors is an entanglement measure that vanishes unless
entanglement survives in every sector, which makes it a dimension
witness. When the correlation-preserving pairing is unknown, the maximum
over all K! pairings is taken exactly, as a linear-assignment problem on
log-concurrences.

Sectors are scored as stacks: sector_states gathers them from a density
matrix with one fancy index, and sector_report scores any stack (record
estimates too) with one batched Wootters kernel and builds the rows.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .measures import ket_fidelity, wootters_concurrences
from .states import DensityMatrix, make_max_entangled

WEIGHT_FLOOR = 1e-12

# One forbidden edge must outweigh any achievable log-product: |log C| is
# bounded by ~700 per factor at double precision, K <= 2016 for d <= 64.
_FORBIDDEN_LOG = -1e18


class SubspaceSupportError(ValueError):
    """The state has (numerically) no support on the requested subspace."""


@dataclass(frozen=True, order=True)
class IndexPair:
    """Strictly ordered pair of basis indices on one side."""

    lo: int
    hi: int

    def __post_init__(self):
        if not (0 <= self.lo < self.hi):
            raise ValueError(f"need 0 <= lo < hi, got ({self.lo}, {self.hi})")


@dataclass(frozen=True)
class SubspacePairing:
    """Bijection between the K side-A index pairs and the K side-B pairs."""

    pairs: tuple[tuple[IndexPair, IndexPair], ...]

    def __len__(self) -> int:
        return len(self.pairs)


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
    pairing_used: SubspacePairing
    search_mode: str  # known | assignment

    def __post_init__(self):
        prod = math.prod(row.concurrence for row in self.subspace_rows)
        if abs(prod - self.pconcurrence) > 1e-9:
            raise ValueError(
                f"pconcurrence {self.pconcurrence!r} does not match row product {prod!r}"
            )


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


def identity_pairing(d: int) -> SubspacePairing:
    """Match the k-th A-pair with the k-th B-pair (lexicographic order both sides).

    This is the correlation-preserving pairing under the anticorrelated
    basis convention used by the state constructors.
    """
    pairs = enumerate_pairs(d)
    return SubspacePairing(tuple(zip(pairs, pairs)))


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


def project_subspace(
    rho: DensityMatrix, a: IndexPair, b: IndexPair
) -> tuple[DensityMatrix, float]:
    """One sector of sector_states, as (state, weight).

    Raises SubspaceSupportError when the weight underflows WEIGHT_FLOOR;
    sector_report scores such sectors as concurrence 0.
    """
    states, weights = sector_states(rho, [(a, b)])
    if weights[0] < WEIGHT_FLOOR:
        raise SubspaceSupportError(
            f"no support on subspace ({a.lo},{a.hi})x({b.lo},{b.hi}): weight = {weights[0]:.3e}"
        )
    return DensityMatrix(2, 2, states[0]), float(weights[0])


_BELL2 = make_max_entangled(2)


def sector_report(
    pairs: Sequence[tuple[IndexPair, IndexPair]],
    states: np.ndarray,
    weights: np.ndarray,
    search: bool = False,
) -> WitnessReport:
    """The one row builder: score a stack of sector states, pick and build rows.

    states[i] (unit trace) and weights[i] belong to sector pairs[i], from
    sector_states or from per-sector record estimates. A sector with weight
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
        pairing_used=SubspacePairing(tuple((r.a, r.b) for r in rows)),
        search_mode="assignment" if search else "known",
    )


def side_dim(dim_a: int, dim_b: int) -> int:
    """The common side dimension d of a d x d state, the only shape the witness takes."""
    if dim_a != dim_b:
        raise ValueError(f"need equal side dimensions, got ({dim_a}, {dim_b})")
    return dim_a


def _check_pairing(pairing: SubspacePairing, d: int) -> None:
    expected = set(enumerate_pairs(d))
    a_side = [a for a, _ in pairing.pairs]
    b_side = [b for _, b in pairing.pairs]
    if set(a_side) != expected or len(a_side) != len(expected):
        raise ValueError("pairing does not cover each side-A index pair exactly once")
    if set(b_side) != expected or len(b_side) != len(expected):
        raise ValueError("pairing does not cover each side-B index pair exactly once")


def pconcurrence_known(rho: DensityMatrix, pairing: SubspacePairing) -> WitnessReport:
    """Product of subspace concurrences under a given pairing.

    Each row also reports the fidelity of the projected sector to the
    two-qubit maximally entangled state (in subspace coordinates) and the
    sector weight; weights do not enter the product.
    """
    _check_pairing(pairing, side_dim(rho.dim_a, rho.dim_b))
    return sector_report(pairing.pairs, *sector_states(rho, pairing.pairs))


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


def pconcurrence_search(rho: DensityMatrix) -> WitnessReport:
    """Maximize the concurrence product over all K! subspace pairings."""
    pairs = sector_pairs(side_dim(rho.dim_a, rho.dim_b))
    return sector_report(pairs, *sector_states(rho, pairs), search=True)


def report_to_dict(report: WitnessReport) -> dict:
    """JSON form of a witness report."""
    return {
        "pconcurrence": float(report.pconcurrence),
        "search_mode": report.search_mode,
        "pairing": [[a.lo, a.hi, b.lo, b.hi] for a, b in report.pairing_used.pairs],
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
