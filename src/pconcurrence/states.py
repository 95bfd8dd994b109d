"""Bipartite quantum states: kets, density matrices, parametric families, sector index pairs, file I/O.

Basis convention for the down-conversion families: side A is ordered by
decreasing angular-momentum label (+l ... -l) and side B by increasing
label (-l ... +l), so anticorrelated amplitudes sit on matched indices
and the correlation-preserving subspace pairing is the identity matching.
"""

from __future__ import annotations

import itertools
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
        check_kets(amp[None])

    def amplitude_matrix(self) -> np.ndarray:
        """Amplitudes reshaped to a (dimA, dimB) matrix."""
        return self.amplitudes.reshape(self.dim_a, self.dim_b)


def check_kets(amps: np.ndarray) -> None:
    """Raise unless every row of an (N, n) amplitude stack is a ket.

    A ket has finite entries and sum |amp|^2 within KET_NORM_ATOL of 1. A
    BipartiteKet is the N = 1 case; the error names the violated invariant,
    and the norm of the first row that breaks it.
    """
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes contain non-finite entries")
    norm2 = (amps.conj()[:, None, :] @ amps[:, :, None]).real[:, 0, 0]
    off = np.abs(norm2 - 1.0) > KET_NORM_ATOL
    if off.any():
        raise ValueError(f"ket is not normalized: sum |amp|^2 = {float(norm2[off][0])!r}")


def check_unit_interval(name: str, values) -> None:
    """Raise unless every one of values (a number or an array) lies in [0, 1], naming the first one outside."""
    v = np.atleast_1d(values)
    outside = ~((v >= 0.0) & (v <= 1.0))
    if outside.any():
        raise ValueError(f"{name} = {v[outside].tolist()[0]!r} outside [0, 1]")


# A sector whose weight Tr(B rho B^dag) is below this holds no state to score or fit.
WEIGHT_FLOOR = 1e-12


@dataclass(frozen=True, order=True)
class IndexPair:
    """Strictly ordered pair of basis indices on one side."""

    lo: int
    hi: int

    def __post_init__(self):
        if not (0 <= self.lo < self.hi):
            raise ValueError(f"need 0 <= lo < hi, got ({self.lo}, {self.hi})")


def enumerate_pairs(d: int) -> list[IndexPair]:
    """All strictly ordered index pairs in lexicographic order."""
    count_subspaces(d)  # refuses d < 2
    return [IndexPair(lo, hi) for lo, hi in itertools.combinations(range(d), 2)]


def count_subspaces(d: int) -> int:
    """Number of two-dimensional sectors of a d-dimensional side, d(d-1)/2: the one side-dimension gate, refusing d < 2."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    return d * (d - 1) // 2


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


@dataclass(frozen=True)
class SpdcParams:
    """Probability amplitudes of the two-photon qutrit family, both in [0, 1]."""

    alpha: float
    beta: float

    def __post_init__(self):
        check_unit_interval("alpha", self.alpha)
        check_unit_interval("beta", self.beta)


def spdc_qutrit_amplitudes(alpha, beta) -> np.ndarray:
    """(N, 9) amplitudes of the two-photon qutrit family at N points (alpha[i], beta[i]).

    Row i is (|0,0> + alpha|1,-1> + beta|-1,1>) / sqrt(1+alpha^2+beta^2).
    Side A basis order is (+1, 0, -1), side B is (-1, 0, +1), so the three
    amplitudes land on matched indices (0,0), (1,1), (2,2). alpha and beta
    must lie in [0, 1], and every row passes check_kets.
    """
    alpha, beta = np.broadcast_arrays(np.atleast_1d(alpha), np.atleast_1d(beta))
    check_unit_interval("alpha", alpha)
    check_unit_interval("beta", beta)
    n = 1.0 / np.sqrt(1.0 + alpha**2 + beta**2)
    amp = np.zeros((len(n), 9), dtype=complex)
    amp[:, 0] = n * alpha  # |+1>_A |-1>_B
    amp[:, 4] = n          # | 0>_A | 0>_B
    amp[:, 8] = n * beta   # |-1>_A |+1>_B
    check_kets(amp)
    return amp


def make_spdc_qutrit(p: SpdcParams) -> BipartiteKet:
    """The qutrit family's ket at one point: spdc_qutrit_amplitudes for N = 1."""
    return BipartiteKet(3, 3, spdc_qutrit_amplitudes(p.alpha, p.beta)[0])


def make_max_entangled(d: int) -> BipartiteKet:
    """Maximally entangled state sum_i |i,i> / sqrt(d)."""
    count_subspaces(d)  # refuses d < 2
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
    count_subspaces(d)  # refuses d < 2
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


def complex_pairs(a: np.ndarray) -> list:
    """A complex array as nested lists of [re, im] float pairs, the one encoder of state and record files."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


def state_to_dict(state: BipartiteKet | DensityMatrix) -> dict:
    ket = isinstance(state, BipartiteKet)
    data = state.amplitudes if ket else as_density(state).matrix  # as_density refuses any other type
    return {"type": "ket" if ket else "density", "dimA": state.dim_a, "dimB": state.dim_b, "data": complex_pairs(data)}


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


def parse_complex_list(value, field: str, n: int, n_name: str) -> list[complex]:
    """n JSON [re, im] number pairs as complex numbers; a ValueError names the field, and n by n_name.

    complex() refuses strings and null but takes booleans, so a pair holding
    one is dropped, and the shortened list fails the pair check.
    """
    try:
        z = [complex(re, im) for re, im in value if type(re) is not bool and type(im) is not bool]
    except (TypeError, ValueError, OverflowError):
        z = None
    if z is None or len(z) != len(value):
        raise ValueError(f"{field} must be a list of [re, im] pairs")
    if len(z) != n:
        raise ValueError(f"{field} has {len(z)} entries, expected {n_name} = {n}")
    return z


def state_from_dict(obj: dict) -> BipartiteKet | DensityMatrix:
    if not isinstance(obj, dict):
        raise ValueError(f"a state must be a JSON object, got a {type(obj).__name__}")
    kind = obj.get("type")
    da, db = parse_dim(obj, "dimA"), parse_dim(obj, "dimB")
    data = require_field(obj, "data")
    if kind == "ket":
        return BipartiteKet(da, db, parse_complex_list(data, "data", da * db, "dimA * dimB"))
    if kind == "density":
        if not isinstance(data, list):
            raise ValueError("data must be a list of rows of [re, im] pairs")
        m = np.array([parse_complex_list(row, f"data[{i}]", da * db, "dimA * dimB") for i, row in enumerate(data)])
        return validate_density(m, (da, db))
    raise ValueError(f"unknown state type {kind!r} (expected 'ket' or 'density')")


def save_state(path: str | Path, state: BipartiteKet | DensityMatrix) -> None:
    Path(path).write_text(json.dumps(state_to_dict(state), indent=2) + "\n", encoding="utf-8")


def read_json(path: str | Path):
    """The JSON document in a file; one nested too deeply to parse is a ValueError naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"{path} is nested too deeply to parse as JSON") from None


def load_state(path: str | Path) -> BipartiteKet | DensityMatrix:
    return state_from_dict(read_json(path))


def as_density(state: BipartiteKet | DensityMatrix) -> DensityMatrix:
    """Coerce a ket or density matrix to a DensityMatrix."""
    if isinstance(state, BipartiteKet):
        return density_from_ket(state)
    if isinstance(state, DensityMatrix):
        return state
    raise TypeError(f"expected BipartiteKet or DensityMatrix, got {type(state).__name__}")
