"""Simulated two-photon tomography and density-matrix reconstruction.

Measurement settings are joint rank-1 projectors, one ket per arm.
Coincidence counts follow Poisson statistics with mean
rate * integration_time * Born probability. Reconstruction is offered as
least squares over a Hermitian operator basis (with a PSD projection)
and as the multiplicative fixed-point maximum-likelihood iteration.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .states import DensityMatrix, validate_density
from .witness import WEIGHT_FLOOR, IndexPair, count_subspaces

SUPERPOSITION_PHASES = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
_PHASE_DEG = (0, 90, 180, 270)

PROB_FLOOR = 1e-15
SUPPORT_ATOL = 1e-12


@dataclass(frozen=True)
class ProjectorSetting:
    """One joint projective measurement: a normalized ket per arm."""

    arm_a: np.ndarray
    arm_b: np.ndarray
    label_a: str = ""
    label_b: str = ""

    def __post_init__(self):
        for name, arm in (("arm_a", self.arm_a), ("arm_b", self.arm_b)):
            v = np.asarray(arm, dtype=complex)
            object.__setattr__(self, name, v)
            if abs(float(np.vdot(v, v).real) - 1.0) > 1e-10:
                raise ValueError(f"{name} is not normalized")


@dataclass(frozen=True)
class TomographyRecord:
    """Joint settings with observed coincidence counts.

    counts are Poisson draws for simulated experiments; the exact-expectation
    mode of simulate_counts stores real-valued means instead, which is only
    meant for noiseless validation runs.
    """

    dim_a: int
    dim_b: int
    rate_hz: float
    integration_time_s: float
    settings: tuple[ProjectorSetting, ...]
    counts: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=float)
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "settings", tuple(self.settings))
        if len(c) != len(self.settings):
            raise ValueError(f"{len(c)} counts for {len(self.settings)} settings")
        if (c < 0).any():
            raise ValueError("counts must be nonnegative")


@dataclass(frozen=True)
class Budget:
    """Measurement counts and times for the subspace route vs full tomography."""

    d: int
    k: int
    pconc_measurements: int
    qst_measurements: int
    pconc_time_s: float
    qst_time_s: float


# --- measurement sets -------------------------------------------------------


def _basis_ket(d: int, i: int) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


def _superposition_ket(d: int, lo: int, hi: int, theta: float) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    v[lo] = 1.0
    v[hi] = np.exp(1j * theta)
    return v / math.sqrt(2.0)


def pairwise_overcomplete_kets(d: int) -> list[np.ndarray]:
    """The d basis kets plus 4 phase superpositions for every index pair.

    Gives d + 2d(d-1) kets per arm; jointly (2d^2 - d)^2 settings, the
    standard overcomplete qudit tomography count. Restricting to one index
    pair recovers exactly the 6-ket qubit set, which is what makes qubit
    sub-tomography a literal filter.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    kets = [_basis_ket(d, i) for i in range(d)]
    for lo, hi in itertools.combinations(range(d), 2):
        kets.extend(_superposition_ket(d, lo, hi, th) for th in SUPERPOSITION_PHASES)
    return kets


def qubit_setting_kets() -> list[np.ndarray]:
    """The overcomplete single-qubit set: |0>, |1>, (|0> + e^{i theta}|1>)/sqrt(2)."""
    return pairwise_overcomplete_kets(2)


def pairwise_ket_labels(d: int) -> list[str]:
    labels = [f"basis:{i}" for i in range(d)]
    for lo, hi in itertools.combinations(range(d), 2):
        labels.extend(f"sup:{lo}+{hi}:theta={deg}" for deg in _PHASE_DEG)
    return labels


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % p for p in range(2, int(math.isqrt(n)) + 1))


def mub_kets(d: int) -> list[np.ndarray]:
    """A complete set of d+1 mutually unbiased bases for prime d, flattened.

    For odd primes the d extra bases have components w^(b j^2 + m j)/sqrt(d)
    with w = exp(2 pi i / d); d = 2 uses the computational, diagonal and
    circular bases. Prime powers are not constructed.
    """
    if not _is_prime(d):
        raise ValueError(f"d must be prime, got {d}")
    kets = [_basis_ket(d, i) for i in range(d)]
    if d == 2:
        for th in (0.0, math.pi, math.pi / 2, 3 * math.pi / 2):
            kets.append(_superposition_ket(2, 0, 1, th))
        return kets
    omega = np.exp(2j * math.pi / d)
    j = np.arange(d)
    for b in range(d):
        for m in range(d):
            kets.append(omega ** (b * j * j + m * j) / math.sqrt(d))
    return kets


def mub_ket_labels(d: int) -> list[str]:
    labels = [f"mub0:{i}" for i in range(d)]
    n_extra = 2 if d == 2 else d
    for b in range(n_extra):
        labels.extend(f"mub{b + 1}:{m}" for m in range(d))
    return labels


def joint_settings(
    kets_a: list[np.ndarray],
    kets_b: list[np.ndarray],
    labels_a: list[str] | None = None,
    labels_b: list[str] | None = None,
) -> list[ProjectorSetting]:
    """Cartesian product of per-arm kets, arm-A major order."""
    labels_a = labels_a or [""] * len(kets_a)
    labels_b = labels_b or [""] * len(kets_b)
    return [
        ProjectorSetting(a, b, la, lb)
        for (a, la), (b, lb) in itertools.product(zip(kets_a, labels_a), zip(kets_b, labels_b))
    ]


# --- forward model ----------------------------------------------------------


def _joint_ket_stack(settings: tuple[ProjectorSetting, ...] | list[ProjectorSetting]) -> np.ndarray:
    return np.array([np.kron(s.arm_a, s.arm_b) for s in settings])


def born_probability(rho: DensityMatrix, s: ProjectorSetting) -> float:
    """Tr(rho |a><a| x |b><b|) for one joint setting."""
    v = np.kron(s.arm_a, s.arm_b)
    if v.shape[0] != rho.dim:
        raise ValueError(f"setting dimension {v.shape[0]} does not match state {rho.dim}")
    p = float(np.vdot(v, rho.matrix @ v).real)
    if p < -1e-12 or p > 1.0 + 1e-12:
        raise ValueError(f"Born probability {p!r} outside [0, 1]")
    return min(1.0, max(0.0, p))


def simulate_counts(
    rho: DensityMatrix,
    settings: list[ProjectorSetting],
    rate_hz: float,
    integration_time_s: float,
    seed: int | None = None,
    poisson: bool = True,
) -> TomographyRecord:
    """Draw coincidence counts for every setting.

    Counts are Poisson with mean rate_hz * integration_time_s * p_Born,
    one independent stream per (seed, setting index) so records are
    reproducible regardless of evaluation order. poisson=False stores the
    exact means instead (noiseless validation mode); seed is then ignored.
    """
    if rate_hz <= 0 or integration_time_s <= 0:
        raise ValueError("rate_hz and integration_time_s must be positive")
    scale = rate_hz * integration_time_s
    means = np.array([scale * born_probability(rho, s) for s in settings])
    if poisson:
        base = np.random.SeedSequence().entropy if seed is None else seed
        counts = np.array(
            [
                float(np.random.default_rng(np.random.SeedSequence(entropy=base, spawn_key=(i,))).poisson(mu))
                for i, mu in enumerate(means)
            ]
        )
    else:
        counts = means
    return TomographyRecord(
        dim_a=rho.dim_a,
        dim_b=rho.dim_b,
        rate_hz=rate_hz,
        integration_time_s=integration_time_s,
        settings=tuple(settings),
        counts=counts,
        seed=seed,
    )


# --- reconstruction ---------------------------------------------------------


def _hermitian_basis(n: int) -> list[np.ndarray]:
    """n^2 linearly independent Hermitian matrices (diagonal + sym + antisym)."""
    mats = []
    for i in range(n):
        m = np.zeros((n, n), dtype=complex)
        m[i, i] = 1.0
        mats.append(m)
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = m[j, i] = 1.0
            mats.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = -1.0j
            m[j, i] = 1.0j
            mats.append(m)
    return mats


def _design_matrix(V: np.ndarray, n: int) -> np.ndarray:
    """A[j, k] = <v_j| G_k |v_j> for the _hermitian_basis ordering.

    Real because both sides are Hermitian; evaluated columnwise from the
    one- and two-entry structure of the basis instead of materializing it.
    """
    cols = [np.abs(V[:, i]) ** 2 for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            cross = V[:, i].conj() * V[:, j]
            cols.append(2 * cross.real)
            cols.append(2 * cross.imag)
    return np.column_stack(cols)


def frequencies(record: TomographyRecord) -> np.ndarray:
    """Per-setting count / (rate * time); the Born-probability estimates."""
    return record.counts / (record.rate_hz * record.integration_time_s)


def reconstruct_linear(record: TomographyRecord) -> DensityMatrix:
    """Least-squares state fit followed by a PSD projection.

    Expands rho over a Hermitian operator basis, solves the linear system
    against observed frequencies, clips negative eigenvalues to zero and
    renormalizes the trace. Requires the settings to span the full
    operator space.
    """
    n = record.dim_a * record.dim_b
    V = _joint_ket_stack(record.settings)
    design = _design_matrix(V, n)
    rank = int(np.linalg.matrix_rank(design))
    if rank < n * n:
        raise ValueError(
            f"settings are rank-deficient: design rank {rank} < {n * n} operator dimensions; "
            "reconstruction is underdetermined"
        )
    coeff, *_ = np.linalg.lstsq(design, frequencies(record), rcond=None)
    rho = sum(c * g for c, g in zip(coeff, _hermitian_basis(n)))
    rho = (rho + rho.conj().T) / 2
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    rho = (v * w) @ v.conj().T
    tr = float(np.trace(rho).real)
    if tr <= 0:
        raise ValueError("least-squares estimate has nonpositive trace after PSD projection")
    return validate_density(rho / tr, (record.dim_a, record.dim_b))


def _log_likelihood(V: np.ndarray, counts: np.ndarray, rho: np.ndarray) -> float:
    p = np.einsum("ji,ik,jk->j", V.conj(), rho, V).real
    pos = counts > 0
    return float(np.sum(counts[pos] * np.log(np.maximum(p[pos], PROB_FLOOR))))


def reconstruct_mle(
    record: TomographyRecord,
    tol: float = 1e-10,
    max_iter: int = 10000,
    return_history: bool = False,
) -> DensityMatrix | tuple[DensityMatrix, list[float]]:
    """Maximum-likelihood reconstruction via the multiplicative fixed point.

    Iterates rho <- N[R rho R] with R = sum_j (f_j / p_j(rho)) Pi_j from the
    maximally mixed start; every iterate is PSD with unit trace by
    construction. R is rescaled by sum_j f_j so that, should a step ever
    lower the log-likelihood, damping R <- (I + R)/2 pulls it back toward
    the identity; accepted iterates are therefore monotone. Stops when the
    count-weighted log-likelihood sum_j c_j log p_j gains less than tol,
    or warns and returns the best iterate after max_iter.

    With return_history=True also returns the accepted log-likelihood
    values, one per iteration including the starting point.
    """
    n = record.dim_a * record.dim_b
    V = _joint_ket_stack(record.settings)
    counts = record.counts
    fsum = float(frequencies(record).sum())
    if fsum <= 0:
        raise ValueError("record has no counts; likelihood is flat")

    eye = np.eye(n)
    rho = eye.astype(complex) / n
    history = [_log_likelihood(V, counts, rho)]
    converged = False
    for _ in range(max_iter):
        p = np.maximum(np.einsum("ji,ik,jk->j", V.conj(), rho, V).real, PROB_FLOOR)
        step = ((V.T * (counts / p)) @ V.conj()) / counts.sum()
        cand = None
        for _halving in range(60):
            cand = step @ rho @ step
            cand = (cand + cand.conj().T) / 2
            cand /= float(np.trace(cand).real)
            ll = _log_likelihood(V, counts, cand)
            if ll >= history[-1] - 1e-12:
                break
            step = (eye + step) / 2
        gain = ll - history[-1]
        rho = cand
        history.append(ll)
        if gain < tol:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"MLE did not converge in {max_iter} iterations (last gain {gain:.3e}); "
            "returning the best iterate",
            RuntimeWarning,
            stacklevel=2,
        )
    result = validate_density(rho, (record.dim_a, record.dim_b))
    if return_history:
        return result, history
    return result


# --- qubit sub-tomography ---------------------------------------------------


def _supported_restriction(ket: np.ndarray, lo: int, hi: int) -> np.ndarray | None:
    """Restrict a ket to indices (lo, hi) if it has no weight elsewhere."""
    rest = np.abs(ket) ** 2
    inside = rest[lo] + rest[hi]
    if rest.sum() - inside > SUPPORT_ATOL:
        return None
    sub = np.array([ket[lo], ket[hi]])
    return sub / math.sqrt(inside)


def extract_sub_tomography(
    record: TomographyRecord, a: IndexPair, b: IndexPair
) -> TomographyRecord:
    """Filter a qudit record down to one two-qubit sector.

    Keeps the settings whose arm-A ket lives on span{|a.lo>, |a.hi>} and
    whose arm-B ket lives on span{|b.lo>, |b.hi>}, re-expressed in
    subspace coordinates (lo -> 0, hi -> 1). Counts pass through
    unmodified. Pairwise-overcomplete records yield exactly 36 settings.
    """
    if a.hi >= record.dim_a or b.hi >= record.dim_b:
        raise ValueError(
            f"pair indices ({a.lo},{a.hi})x({b.lo},{b.hi}) exceed dims ({record.dim_a}, {record.dim_b})"
        )
    kept_settings = []
    kept_counts = []
    for setting, count in zip(record.settings, record.counts):
        sub_a = _supported_restriction(setting.arm_a, a.lo, a.hi)
        if sub_a is None:
            continue
        sub_b = _supported_restriction(setting.arm_b, b.lo, b.hi)
        if sub_b is None:
            continue
        kept_settings.append(ProjectorSetting(sub_a, sub_b, setting.label_a, setting.label_b))
        kept_counts.append(count)

    if kept_settings:
        design = _design_matrix(_joint_ket_stack(kept_settings), 4)
        rank = int(np.linalg.matrix_rank(design))
    else:
        rank = 0
    if rank < 16:
        raise ValueError(
            f"only {len(kept_settings)} settings (rank {rank}) remain on subspace "
            f"({a.lo},{a.hi})x({b.lo},{b.hi}); 16 independent settings are needed"
        )
    return TomographyRecord(
        dim_a=2,
        dim_b=2,
        rate_hz=record.rate_hz,
        integration_time_s=record.integration_time_s,
        settings=tuple(kept_settings),
        counts=np.array(kept_counts),
        seed=record.seed,
    )


def sector_estimates(
    record: TomographyRecord, pairs: Sequence[tuple[IndexPair, IndexPair]]
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked per-sector MLE states and weights of a qudit record.

    The weight estimate is the total sector frequency / 9: the 36 subspace
    projectors of a pairwise record sum to 9 I. A sector below WEIGHT_FLOOR
    (no counts) is not fitted and its state stays zero.
    """
    states = np.zeros((len(pairs), 4, 4), dtype=complex)
    weights = np.zeros(len(pairs))
    for i, (a, b) in enumerate(pairs):
        sub_record = extract_sub_tomography(record, a, b)
        weights[i] = frequencies(sub_record).sum() / 9.0
        if weights[i] >= WEIGHT_FLOOR:
            states[i] = reconstruct_mle(sub_record).matrix
    return states, weights


# --- measurement budget -----------------------------------------------------


def budget(d: int, integration_time_s: float = 10.0) -> Budget:
    """Measurement counts and times: 36 K subspace settings vs (2d^2-d)^2 full QST."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    k = count_subspaces(d)
    pconc = 36 * k
    qst = (2 * d * d - d) ** 2
    return Budget(
        d=d,
        k=k,
        pconc_measurements=pconc,
        qst_measurements=qst,
        pconc_time_s=pconc * integration_time_s,
        qst_time_s=qst * integration_time_s,
    )


def budget_to_dict(b: Budget) -> dict:
    return {
        "d": b.d,
        "k": b.k,
        "pconc_measurements": b.pconc_measurements,
        "qst_measurements": b.qst_measurements,
        "pconc_time_s": float(b.pconc_time_s),
        "qst_time_s": float(b.qst_time_s),
    }


# --- record file format -----------------------------------------------------


def _ket_pairs(v: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in v]


def record_to_dict(record: TomographyRecord) -> dict:
    counts = [
        int(c) if float(c).is_integer() else float(c)  # Poisson draws are integral
        for c in record.counts
    ]
    return {
        "dimA": record.dim_a,
        "dimB": record.dim_b,
        "rate_hz": float(record.rate_hz),
        "integration_time_s": float(record.integration_time_s),
        "seed": record.seed,
        "settings": [
            {
                "a": _ket_pairs(s.arm_a),
                "b": _ket_pairs(s.arm_b),
                "label_a": s.label_a,
                "label_b": s.label_b,
            }
            for s in record.settings
        ],
        "counts": counts,
    }


def record_from_dict(obj: dict) -> TomographyRecord:
    settings = tuple(
        ProjectorSetting(
            arm_a=np.array([complex(re, im) for re, im in s["a"]]),
            arm_b=np.array([complex(re, im) for re, im in s["b"]]),
            label_a=s.get("label_a", ""),
            label_b=s.get("label_b", ""),
        )
        for s in obj["settings"]
    )
    return TomographyRecord(
        dim_a=int(obj["dimA"]),
        dim_b=int(obj["dimB"]),
        rate_hz=float(obj["rate_hz"]),
        integration_time_s=float(obj["integration_time_s"]),
        settings=settings,
        counts=np.array(obj["counts"], dtype=float),
        seed=obj.get("seed"),
    )


def save_record(path: str | Path, record: TomographyRecord) -> None:
    Path(path).write_text(json.dumps(record_to_dict(record), indent=2) + "\n", encoding="utf-8")


def load_record(path: str | Path) -> TomographyRecord:
    return record_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
