"""Bipartite quantum states: kets, density matrices, parametric families, file I/O.

Basis convention for the down-conversion families: side A is ordered by
decreasing angular-momentum label (+l ... -l) and side B by increasing
label (-l ... +l), so anticorrelated amplitudes sit on matched indices
and the correlation-preserving subspace pairing is the identity matching.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The one tolerance set for states. DensityMatrix is the only check of
# Hermiticity, trace and positivity; what is computed from a gated state
# (sector blocks, concurrences, fidelities) is not checked again.
KET_NORM_ATOL = 1e-10
HERM_ATOL = 1e-10
TRACE_ATOL = 1e-9
PSD_ATOL = -1e-9


@dataclass(frozen=True)
class BipartiteKet:
    """Pure state of a dimA x dimB system; amplitudes indexed a*dimB + b."""

    dim_a: int
    dim_b: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amp)
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("dimensions must be positive")
        if amp.shape != (self.dim_a * self.dim_b,):
            raise ValueError(
                f"amplitude vector has length {amp.shape}, expected {self.dim_a * self.dim_b}"
            )
        if not np.isfinite(amp).all():
            raise ValueError("amplitudes contain non-finite entries")
        norm2 = float(np.vdot(amp, amp).real)
        if abs(norm2 - 1.0) > KET_NORM_ATOL:
            raise ValueError(f"ket is not normalized: sum |amp|^2 = {norm2!r}")

    def amplitude_matrix(self) -> np.ndarray:
        """Amplitudes reshaped to a (dimA, dimB) matrix."""
        return self.amplitudes.reshape(self.dim_a, self.dim_b)

    def reduced_a(self) -> np.ndarray:
        """Reduced density matrix of side A (dimA x dimA)."""
        psi = self.amplitude_matrix()
        return psi @ psi.conj().T


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


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace operator on a dimA x dimB bipartite space."""

    dim_a: int
    dim_b: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        n = self.dim_a * self.dim_b
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match dims ({self.dim_a}, {self.dim_b})")
        if not np.isfinite(m).all():
            raise ValueError("matrix contains non-finite entries")
        herm_dev = float(np.abs(m - m.conj().T).max())
        if herm_dev > HERM_ATOL:
            raise ValueError(f"Hermiticity violated: max|m - m^dag| = {herm_dev:.3e} exceeds {HERM_ATOL:.1e}")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"unit trace violated: |Tr - 1| = {abs(tr - 1.0):.3e} exceeds {TRACE_ATOL:.1e}")
        min_eig = float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])
        if min_eig < PSD_ATOL:
            raise ValueError(f"positivity violated: min eigenvalue = {min_eig:.3e} below {PSD_ATOL:.1e}")

    def reduced(self, keep: str) -> np.ndarray:
        return partial_trace(self.matrix, (self.dim_a, self.dim_b), keep)


@dataclass(frozen=True)
class SpdcParams:
    """Probability amplitudes of the two-photon qutrit family, both in [0, 1]."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha = {self.alpha!r} outside [0, 1]")
        if not (0.0 <= self.beta <= 1.0):
            raise ValueError(f"beta = {self.beta!r} outside [0, 1]")


def make_spdc_qutrit(p: SpdcParams) -> BipartiteKet:
    """Two-photon qutrit (|0,0> + alpha|1,-1> + beta|-1,1>) / sqrt(1+alpha^2+beta^2).

    Side A basis order is (+1, 0, -1), side B is (-1, 0, +1), so the three
    amplitudes land on matched indices (0,0), (1,1), (2,2).
    """
    n = 1.0 / math.sqrt(1.0 + p.alpha**2 + p.beta**2)
    amp = np.zeros(9, dtype=complex)
    amp[0] = n * p.alpha  # |+1>_A |-1>_B
    amp[4] = n            # | 0>_A | 0>_B
    amp[8] = n * p.beta   # |-1>_A |+1>_B
    return BipartiteKet(3, 3, amp)


def make_max_entangled(d: int) -> BipartiteKet:
    """Maximally entangled state sum_i |i,i> / sqrt(d)."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    amp = np.zeros(d * d, dtype=complex)
    amp[:: d + 1] = 1.0 / math.sqrt(d)
    return BipartiteKet(d, d, amp)


def make_spdc_qudit(d: int, decay: float) -> BipartiteKet:
    """Anticorrelated qudit sum_l c_l |l,-l> with a Gaussian amplitude envelope.

    c_l is proportional to exp(-l^2 / (2 decay^2)) over the d integer
    angular-momentum labels closest to 0 (for even d the range is one
    step heavier on the positive side). decay -> infinity recovers the
    maximally entangled state.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if decay <= 0:
        raise ValueError(f"decay must be positive, got {decay!r}")
    lvals = tuple(range(d // 2, d // 2 - d, -1))  # descending, e.g. d=3 -> (1, 0, -1)
    weights = np.exp(-np.array(lvals, dtype=float) ** 2 / (2.0 * decay**2))
    weights /= math.sqrt(float(np.sum(weights**2)))
    amp = np.zeros(d * d, dtype=complex)
    amp[:: d + 1] = weights
    return BipartiteKet(d, d, amp)


def density_from_ket(k: BipartiteKet) -> DensityMatrix:
    """Rank-1 projector |psi><psi| as a DensityMatrix."""
    return DensityMatrix(k.dim_a, k.dim_b, np.outer(k.amplitudes, k.amplitudes.conj()))


def validate_density(m: np.ndarray, dims: tuple[int, int]) -> DensityMatrix:
    """Gate an arbitrary matrix into a DensityMatrix.

    The DensityMatrix checks (Hermiticity, unit trace and positivity
    against the type tolerances) run once, on m as given, and raise naming
    the violated invariant and its magnitude. The stored matrix is then
    symmetrized and renormalized to unit trace, which keeps every checked
    invariant.
    """
    rho = DensityMatrix(dims[0], dims[1], m)
    sym = (rho.matrix + rho.matrix.conj().T) / 2
    object.__setattr__(rho, "matrix", sym / float(np.trace(sym).real))
    return rho


# --- state file format ------------------------------------------------------
# {"type": "ket"|"density", "dimA": int, "dimB": int, "data": ...}
# kets: flat list of [re, im] pairs; densities: square nested lists of pairs.


def _c2pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def state_to_dict(state: BipartiteKet | DensityMatrix) -> dict:
    if isinstance(state, BipartiteKet):
        return {
            "type": "ket",
            "dimA": state.dim_a,
            "dimB": state.dim_b,
            "data": [_c2pair(z) for z in state.amplitudes],
        }
    if isinstance(state, DensityMatrix):
        return {
            "type": "density",
            "dimA": state.dim_a,
            "dimB": state.dim_b,
            "data": [[_c2pair(z) for z in row] for row in state.matrix],
        }
    raise TypeError(f"expected BipartiteKet or DensityMatrix, got {type(state).__name__}")


def require_field(obj: dict, key: str):
    """obj[key], raising a ValueError that names the field if it is missing."""
    if key not in obj:
        raise ValueError(f"field {key!r} is missing")
    return obj[key]


def parse_field(obj: dict, key: str, kind):
    """kind(obj[key]), raising a ValueError that names the field if it is missing or does not convert."""
    value = require_field(obj, key)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"field {key!r} is malformed: {value!r:.60}") from None


def parse_dim(obj: dict, key: str) -> int:
    """A dimension field: a JSON integer >= 1, so 3.7, "3" and true are refused, not truncated."""
    value = require_field(obj, key)
    if type(value) is not int or value < 1:
        raise ValueError(f"field {key!r} must be an integer >= 1, got {value!r:.60}")
    return value


def parse_complex_list(value, field: str) -> list[complex]:
    """A JSON list of [re, im] number pairs as complex numbers; a ValueError names the field.

    complex() refuses strings and null but takes booleans, so a pair holding
    one is dropped, and the shortened list fails the length check.
    """
    try:
        z = [complex(re, im) for re, im in value if type(re) is not bool and type(im) is not bool]
    except (TypeError, ValueError, OverflowError):
        z = None
    if z is None or len(z) != len(value):
        raise ValueError(f"{field} must be a list of [re, im] pairs")
    return z


def state_from_dict(obj: dict) -> BipartiteKet | DensityMatrix:
    if not isinstance(obj, dict):
        raise ValueError(f"a state must be a JSON object, got a {type(obj).__name__}")
    kind = obj.get("type")
    da, db = parse_dim(obj, "dimA"), parse_dim(obj, "dimB")
    data = require_field(obj, "data")
    if kind == "ket":
        return BipartiteKet(da, db, parse_complex_list(data, "data"))
    if kind == "density":
        if not isinstance(data, list):
            raise ValueError("data must be a list of rows of [re, im] pairs")
        m = np.array([parse_complex_list(row, f"data[{i}]") for i, row in enumerate(data)])
        return validate_density(m, (da, db))
    raise ValueError(f"unknown state type {kind!r} (expected 'ket' or 'density')")


def save_state(path: str | Path, state: BipartiteKet | DensityMatrix) -> None:
    Path(path).write_text(json.dumps(state_to_dict(state), indent=2) + "\n", encoding="utf-8")


def load_state(path: str | Path) -> BipartiteKet | DensityMatrix:
    return state_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def as_density(state: BipartiteKet | DensityMatrix) -> DensityMatrix:
    """Coerce a ket or density matrix to a DensityMatrix."""
    if isinstance(state, BipartiteKet):
        return density_from_ket(state)
    if isinstance(state, DensityMatrix):
        return state
    raise TypeError(f"expected BipartiteKet or DensityMatrix, got {type(state).__name__}")
