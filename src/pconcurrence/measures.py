"""Entanglement measures and state-comparison utilities.

Concurrence applies to two-qubit states (pure or mixed) and is evaluated
on (M, 4, 4) stacks by one batched kernel, wootters_concurrences; the
I-concurrence and entanglement of formation are pure-state measures in
arbitrary dimensions, evaluated on (N, d, d) stacks of reduced states by
i_concurrence_of_reduced and eof_of_reduced. Fidelities of two-qubit
stacks to the Bell state are bell_fidelities. The named measures of the
CLI, with their normalizations, are witness.MEASURES.
"""

from __future__ import annotations

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


def reduced_a_of_kets(kets: np.ndarray, dim_a: int) -> np.ndarray:
    """(N, dimA, dimA) reduced states psi psi^dag of an (N, dimA * dimB) ket stack, psi the amplitude matrix."""
    psi = kets.reshape(len(kets), dim_a, -1)
    return psi @ psi.conj().transpose(0, 2, 1)


def _reduced_a_of_pure(state: BipartiteKet | DensityMatrix, caller: str) -> np.ndarray:
    """rho_A of one pure state as a stack of one; a density must pass the purity gate."""
    if isinstance(state, BipartiteKet):
        return reduced_a_of_kets(state.amplitudes[None], state.dim_a)
    pur = purity(state)
    if pur < PURITY_GATE:
        raise ValueError(
            f"{caller} is defined for pure states only: purity {pur:.6f} is below the "
            f"gate {PURITY_GATE}; mixed-state extensions are out of scope"
        )
    return partial_trace(state.matrix, (state.dim_a, state.dim_b), "A")[None]


def i_concurrence_of_reduced(rho_a: np.ndarray) -> np.ndarray:
    """I-concurrences sqrt(2 (1 - Tr rho_A^2)) of the pure states whose (N, d, d) reduced states are rho_a."""
    tr2 = np.trace(rho_a @ rho_a, axis1=1, axis2=2).real
    return np.sqrt(np.fmax(0.0, 2.0 * (1.0 - tr2)))


def i_concurrence(state: BipartiteKet | DensityMatrix) -> float:
    """I-concurrence of one pure state, any dimensions (i_concurrence_of_reduced for N = 1)."""
    return float(i_concurrence_of_reduced(_reduced_a_of_pure(state, "i_concurrence"))[0])


def eof_of_reduced(rho_a: np.ndarray) -> np.ndarray:
    """Entanglements of formation, in bits, of the pure states whose (N, d, d) reduced states are rho_a.

    Each is the entropy of the eigenvalues of rho_A above the rank cut of
    spectra (RANK_RTOL times the largest); the rest contribute zero
    (0 log 0 := 0). A product state, of rank 1, has EoF exactly 0: the
    entropy of its one eigenvalue, which rounds near 1, would be a
    round-off of either sign. The value is clamped at 0, since a ket is
    only normalized to within KET_NORM_ATOL. The entropy sum runs per group
    of equal rank, over the kept eigenvalues only, so no result depends on
    its neighbours or on the zeros it leaves out.
    """
    w = np.linalg.eigvalsh((rho_a + rho_a.conj().transpose(0, 2, 1)) / 2)
    rank = (w > w[:, -1:] * RANK_RTOL).sum(axis=1)
    eof = np.zeros(len(w))
    for r in np.unique(rank[rank > 1]):
        group = rank == r
        p = w[group, -r:]
        eof[group] = -np.sum(p * np.log2(p), axis=1)
    return np.fmax(0.0, eof)


def eof_pure(state: BipartiteKet | DensityMatrix) -> float:
    """Entanglement of formation of one pure state (eof_of_reduced for N = 1)."""
    return float(eof_of_reduced(_reduced_a_of_pure(state, "eof_pure"))[0])


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), ranging from 1/(dimA dimB) to 1."""
    return float(np.trace(rho.matrix @ rho.matrix).real)


def bell_fidelities(states: np.ndarray) -> np.ndarray:
    """Fidelities <Phi| sigma |Phi> of a (..., 4, 4) stack of two-qubit states to Phi = (|00> + |11>)/sqrt(2).

    For Hermitian sigma that is (sigma_00 + sigma_33) / 2 + Re sigma_03,
    clipped into [0, 1].
    """
    f = (states[..., 0, 0].real + states[..., 3, 3].real) / 2 + states[..., 0, 3].real
    return np.fmin(1.0, np.fmax(0.0, f))


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
