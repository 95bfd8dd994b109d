"""Dense complex linear algebra for small Hilbert spaces (dimension <= 64)."""

from __future__ import annotations

import numpy as np

HERMITICITY_ATOL = 1e-10
PSD_EIG_FLOOR = -1e-10
RANK_RTOL = 1e-13


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, entry ((i*rb+k),(j*cb+l)) = a[i,j]*b[k,l]."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(m: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one subsystem of a bipartite operator.

    m must be (dA*dB) x (dA*dB) with row index a*dB + b. keep selects the
    surviving side, "A" or "B". The trace of the result equals the trace
    of the input.
    """
    da, db = dims
    m = np.asarray(m, dtype=complex)
    if m.shape != (da * db, da * db):
        raise ValueError(f"matrix shape {m.shape} does not match dims ({da}, {db})")
    t = m.reshape(da, db, da, db)
    if keep in ("A", "a"):
        return np.einsum("abcb->ac", t)
    if keep in ("B", "b"):
        return np.einsum("abad->bd", t)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def hermitian_eig(m: np.ndarray, atol: float = HERMITICITY_ATOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues real and sorted
    descending and eigenvectors as matching unitary columns. Inputs are
    gated on max|m - m^dag| <= atol and symmetrized before decomposition,
    so roundoff-level asymmetry never reaches the solver.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    dev = float(np.abs(m - m.conj().T).max())
    if dev > atol:
        raise ValueError(f"matrix is not Hermitian: max|m - m^dag| = {dev:.3e} exceeds {atol:.1e}")
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    return w[::-1].copy(), v[:, ::-1].copy()


def sqrt_psd(m: np.ndarray, eig_floor: float = PSD_EIG_FLOOR) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in [eig_floor, 0) are clipped to zero; anything below
    eig_floor means the input is not PSD and raises.
    """
    w, v = hermitian_eig(m)
    if w[-1] < eig_floor:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w[-1]:.3e} below {eig_floor:.1e}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def psd_factor(
    m: np.ndarray, eig_floor: float = PSD_EIG_FLOOR, rank_rtol: float = RANK_RTOL
) -> np.ndarray:
    """Rank-revealing factor L with m = L L^dag, columns v_i sqrt(w_i).

    Eigenvalues below rank_rtol * max(w) are treated as numerically zero
    and dropped, so rank-deficient inputs (pure states in particular) keep
    their exact rank instead of acquiring sqrt(eps)-sized noise modes.
    Raises when an eigenvalue falls below eig_floor (not PSD).
    """
    w, v = hermitian_eig(m)
    if w[-1] < eig_floor:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w[-1]:.3e} below {eig_floor:.1e}")
    keep = w > max(w[0], 0.0) * rank_rtol
    if not keep.any():
        return np.zeros((m.shape[0], 0), dtype=complex)
    return v[:, keep] * np.sqrt(w[keep])
