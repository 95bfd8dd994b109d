"""Entanglement measures and state-comparison utilities.

Concurrence applies to two-qubit states (pure or mixed) and is evaluated
on (M, 4, 4) stacks by one batched kernel, wootters_concurrences; the
I-concurrence and entanglement of formation are pure-state measures in
arbitrary dimensions. The named measures of the CLI, with their
normalizations, are witness.MEASURES.
"""

from __future__ import annotations

import math

import numpy as np

from .states import TRACE_ATOL, BipartiteKet, DensityMatrix, partial_trace

PURITY_GATE = 1.0 - 1e-6
RANK_RTOL = 1e-13

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)


def spectra(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Descending eigenpairs and numerical rank of an (..., n, n) stack of Hermitian matrices.

    One batched eigh on the symmetrized stack. Returns (w, v, rank): w
    descending along the last axis, v[..., :, i] the eigenvector of w[..., i],
    and rank the count of eigenvalues above RANK_RTOL * max(w[..., 0], 0).
    Callers pass gated states or sector blocks of one, so the eigenvalues
    past the rank are round-off (for a block, scaled by 1 / weight): small
    negatives and sqrt(eps)-sized noise modes, which the factors drop.
    """
    m = np.asarray(m, dtype=complex)
    w, v = np.linalg.eigh((m + m.conj().swapaxes(-1, -2)) / 2)
    w, v = w[..., ::-1], v[..., ::-1]
    return w, v, (w > np.maximum(w[..., :1], 0.0) * RANK_RTOL).sum(axis=-1)


def psd_factor(m: np.ndarray) -> np.ndarray:
    """Rank-revealing factor L of a PSD matrix, m = L L^dag, columns v_i sqrt(w_i)."""
    w, v, rank = spectra(m)
    return v[:, :rank] * np.sqrt(w[:rank])


def wootters_concurrences(states: np.ndarray) -> np.ndarray:
    """Concurrences of an (M, 4, 4) stack of two-qubit density matrices.

    C = max(0, l1 - l2 - l3 - l4) where the l_i descend and are the square
    roots of the eigenvalues of sqrt(rho) rho_tilde sqrt(rho), with the
    spin flip rho_tilde = (sy x sy) rho* (sy x sy) in the storage basis.
    The l_i are evaluated as the singular values of the complex symmetric
    L^T (sy x sy) L for the rank-truncated factor rho = L L^dag, so zero
    eigenvalues stay exactly zero instead of picking up sqrt(eps) noise.
    Only the shape is checked: the states are gated states or blocks of one
    (see spectra). Singular values are taken per group of equal rank r, as
    (M_r, r, r) stacks, so no result depends on its neighbours.

    A block of a gated state can hold a negative eigenvalue far below
    round-off, down to states.PSD_ATOL / weight, which the truncation drops.
    Where a dropped eigenvalue is below -TRACE_ATOL, the l_i are divided by
    the sum of the kept eigenvalues: C is homogeneous of degree 1, so this
    is the concurrence of the renormalized positive part, in [0, 1].
    """
    m = np.asarray(states, dtype=complex)
    if m.ndim != 3 or m.shape[1:] != (4, 4):
        raise ValueError(f"expected an (M, 4, 4) stack of two-qubit states, got shape {m.shape}")
    w, v, rank = spectra(m)
    lam = np.zeros((len(m), 4))
    for r in np.unique(rank[rank > 0]):
        group = rank == r
        factor = np.ascontiguousarray(v[group, :, :r] * np.sqrt(w[group, None, :r]))
        lam[group, :r] = np.linalg.svd(factor.transpose(0, 2, 1) @ _SPIN_FLIP @ factor, compute_uv=False)
    dropped = w[:, -1] < -TRACE_ATOL
    if dropped.any():
        lam[dropped] /= np.where(np.arange(4) < rank[dropped, None], w[dropped], 0.0).sum(axis=1)[:, None]
    c = lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3]
    return np.where(c > 0.0, c, 0.0)


def wootters_concurrence(rho: DensityMatrix) -> float:
    """Concurrence of one two-qubit density matrix (a stack of one, see wootters_concurrences)."""
    if (rho.dim_a, rho.dim_b) != (2, 2):
        raise ValueError(f"concurrence needs a 2x2 bipartite state, got ({rho.dim_a}, {rho.dim_b})")
    return float(wootters_concurrences(rho.matrix[None])[0])


def _reduced_a_of_pure(state: BipartiteKet | DensityMatrix, caller: str) -> np.ndarray:
    if isinstance(state, BipartiteKet):
        psi = state.amplitude_matrix()
        return psi @ psi.conj().T
    pur = purity(state)
    if pur < PURITY_GATE:
        raise ValueError(
            f"{caller} is defined for pure states only: purity {pur:.6f} is below the "
            f"gate {PURITY_GATE}; mixed-state extensions are out of scope"
        )
    return partial_trace(state.matrix, (state.dim_a, state.dim_b), "A")


def i_concurrence(state: BipartiteKet | DensityMatrix) -> float:
    """I-concurrence sqrt(2 (1 - Tr rho_A^2)) of a pure state, any dimensions."""
    rho_a = _reduced_a_of_pure(state, "i_concurrence")
    tr2 = float(np.trace(rho_a @ rho_a).real)
    return math.sqrt(max(0.0, 2.0 * (1.0 - tr2)))


def eof_pure(state: BipartiteKet | DensityMatrix) -> float:
    """Entanglement of formation of a pure state: entropy of rho_A in bits.

    A product state, whose rho_A has rank 1 under the rank cut of spectra
    (RANK_RTOL), has EoF exactly 0: the entropy of its one eigenvalue, which
    rounds near 1, would be a round-off of either sign. Otherwise
    eigenvalues at or below 1e-12 contribute zero (0 log 0 := 0), and the
    value is clamped at 0, since a ket is only normalized to within
    KET_NORM_ATOL.
    """
    rho_a = _reduced_a_of_pure(state, "eof_pure")
    w = np.linalg.eigvalsh((rho_a + rho_a.conj().T) / 2)
    if (w > w[-1] * RANK_RTOL).sum() < 2:
        return 0.0
    w = w[w > 1e-12]
    return max(0.0, float(-np.sum(w * np.log2(w))))


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), ranging from 1/(dimA dimB) to 1."""
    return float(np.trace(rho.matrix @ rho.matrix).real)


def ket_fidelity(m: np.ndarray, v: np.ndarray) -> float:
    """<v| m |v> for a density matrix m and a unit vector v, clipped into [0, 1]."""
    return float(min(1.0, max(0.0, complex(np.vdot(v, m @ v)).real)))


def uhlmann_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Evaluated as the squared nuclear norm of L_rho^dag L_sigma for
    rank-truncated factors rho = L L^dag, which equals the sandwich trace
    without ever squaring near-zero eigenvalues.
    """
    if (rho.dim_a, rho.dim_b) != (sigma.dim_a, sigma.dim_b):
        raise ValueError(
            f"dimension mismatch: ({rho.dim_a}, {rho.dim_b}) vs ({sigma.dim_a}, {sigma.dim_b})"
        )
    overlap = psd_factor(rho.matrix).conj().T @ psd_factor(sigma.matrix)
    f = float(np.linalg.svd(overlap, compute_uv=False).sum() ** 2)
    return min(1.0, max(0.0, f))
