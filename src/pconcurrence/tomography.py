"""Simulated two-photon tomography and density-matrix reconstruction.

Measurement settings are joint rank-1 projectors, one ket per arm.
Coincidence counts follow Poisson statistics with mean
rate * integration_time * Born probability. Reconstruction is offered as
least squares over a Hermitian operator basis, ending in the nearest
density matrix, and as maximum likelihood, by an accelerated
projected-gradient ascent (through that same nearest-state projection)
with multiplicative R rho R steps and a Newton polish, monotone in the
likelihood.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .measures import psd_factor
from .states import KET_NORM_ATOL, DensityMatrix, parse_complex_list, parse_dim, parse_field, validate_density
from .witness import WEIGHT_FLOOR, IndexPair, count_subspaces

PROB_FLOOR = 1e-15
# numpy's largest Poisson mean (POISSON_LAM_MAX of numpy.random); a larger one raises "lam value too large".
POISSON_MEAN_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)
SUPPORT_ATOL = 1e-12


@dataclass(frozen=True)
class Settings:
    """Joint rank-1 projective measurements, one row per setting.

    Row j measures |kets_a[j]> on arm A and |kets_b[j]> on arm B; kets_a is
    (m, dA), kets_b is (m, dB) and the labels are (m,) strings. Every ket is
    checked for unit norm here, once for the whole table.
    """

    kets_a: np.ndarray
    kets_b: np.ndarray
    labels_a: np.ndarray | None = None
    labels_b: np.ndarray | None = None

    def __post_init__(self):
        m, norms = len(self.kets_a), []
        for arm in "ab":
            kets = np.asarray(getattr(self, f"kets_{arm}"), dtype=complex)
            labels = getattr(self, f"labels_{arm}")
            labels = np.asarray([""] * m if labels is None else labels, dtype=object)
            if kets.ndim != 2 or len(kets) != m or labels.shape != (m,):
                raise ValueError(f"settings need {m} kets and {m} labels per arm, one row each")
            object.__setattr__(self, f"kets_{arm}", kets)
            object.__setattr__(self, f"labels_{arm}", labels)
            norms.append(np.einsum("ji,ji->j", kets.conj(), kets).real)
        bad = ~(np.abs(np.column_stack(norms) - 1.0) <= KET_NORM_ATOL)  # (m, 2); NaN fails too
        if bad.any():
            j, arm = np.argwhere(bad)[0]  # row-major: the first bad row, arm a before arm b
            raise ValueError(f"settings[{j}].{'ab'[arm]} is not normalized")

    def __len__(self) -> int:
        return len(self.kets_a)

    def joint_kets(self) -> np.ndarray:
        """Row j is kron(kets_a[j], kets_b[j]), as one broadcast product."""
        return (self.kets_a[:, :, None] * self.kets_b[:, None, :]).reshape(len(self), -1)


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _count_scale(rate_hz: float, integration_time_s: float) -> float:
    """rate_hz * integration_time_s, which turns Born probabilities into mean counts.

    The product, as each factor, must be finite and positive: frequencies
    divide by it, so an overflow zeroes them all and an underflow makes them infinite.
    """
    _check_positive("rate_hz", rate_hz)
    _check_positive("integration_time_s", integration_time_s)
    scale = rate_hz * integration_time_s
    if not math.isfinite(scale):
        raise ValueError(f"rate_hz * integration_time_s = {scale!r} is not finite")
    if scale <= 0:
        raise ValueError(f"rate_hz * integration_time_s = {scale!r} underflows to zero")
    return scale


def _check_seed(seed: int | None) -> None:
    if seed is not None and (type(seed) is not int or seed < 0):
        raise ValueError(f"seed must be an integer >= 0 or null, got {seed!r:.60}")


@dataclass(frozen=True)
class TomographyRecord:
    """Joint settings with observed coincidence counts.

    counts are finite and nonnegative: Poisson draws for simulated
    experiments, or real-valued means rate_hz * integration_time_s * p_Born
    for noiseless checks. The arm dimensions are those of the settings'
    kets.
    """

    rate_hz: float
    integration_time_s: float
    settings: Settings
    counts: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        scale = _count_scale(self.rate_hz, self.integration_time_s)
        _check_seed(self.seed)
        c = np.asarray(self.counts, dtype=float)
        object.__setattr__(self, "counts", c)
        if not len(self.settings):
            raise ValueError("a record needs at least one setting")
        if c.ndim != 1:
            raise ValueError("counts must be a flat list of numbers")
        if len(c) != len(self.settings):
            raise ValueError(f"{len(c)} counts for {len(self.settings)} settings")
        if not (np.isfinite(c) & (c >= 0)).all():
            raise ValueError("counts must be finite and nonnegative")
        if c.max() > scale * sys.float_info.max:  # its frequency, count / scale, overflows
            raise ValueError(f"rate_hz * integration_time_s = {scale!r} is too small for the count {c.max():g}")

    @property
    def dim_a(self) -> int:
        return self.settings.kets_a.shape[1]

    @property
    def dim_b(self) -> int:
        return self.settings.kets_b.shape[1]


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


def _pairwise_arm(d: int) -> tuple[np.ndarray, list[str]]:
    """The d basis kets, then (|lo> + e^{i k pi/2}|hi>)/sqrt(2), k = 0..3, for each pair lo < hi.

    Gives d + 2d(d-1) kets per arm; jointly (2d^2 - d)^2 settings, the
    standard overcomplete qudit tomography count. Restricting to one index
    pair recovers exactly the 6-ket qubit set, which is what makes qubit
    sub-tomography a literal filter.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    lo, hi = (np.repeat(ix, 4) for ix in np.triu_indices(d, 1))
    k = np.tile(np.arange(4), len(lo) // 4)
    rows, sup = np.arange(len(lo)), np.zeros((len(lo), d), dtype=complex)
    sup[rows, lo] = 1.0
    sup[rows, hi] = np.exp(1j * (k * math.pi / 2))
    labels = [f"basis:{i}" for i in range(d)] + [f"sup:{a}+{b}:theta={90 * t}" for a, b, t in zip(lo, hi, k)]
    return np.concatenate([np.eye(d, dtype=complex), sup / math.sqrt(2.0)]), labels


def _mub_arm(d: int) -> tuple[np.ndarray, list[str]]:
    """A complete set of d+1 mutually unbiased bases for prime d, basis after basis.

    For odd primes the d extra bases have components w^(b j^2 + m j)/sqrt(d)
    with w = exp(2 pi i / d); d = 2 uses the computational, diagonal and
    circular bases, which are the pairwise qubit kets with the phases in
    the order 0, 180, 90, 270 degrees. Prime powers are not constructed.
    """
    if d < 2 or any(d % p == 0 for p in range(2, math.isqrt(d) + 1)):
        raise ValueError(f"d must be prime, got {d}")
    labels = [f"mub{b}:{m}" for b in range(d + 1) for m in range(d)]
    if d == 2:
        return _pairwise_arm(2)[0][[0, 1, 2, 4, 3, 5]], labels
    b, m, j = np.ogrid[:d, :d, :d]
    extra = np.exp(2j * math.pi / d) ** (b * j * j + m * j) / math.sqrt(d)
    return np.concatenate([np.eye(d, dtype=complex), extra.reshape(d * d, d)]), labels


# The measurement families: each maps an arm dimension d to that arm's kets
# and labels. A family's joint settings are every pair of its arm kets.
FAMILIES = {"pairwise": _pairwise_arm, "mub": _mub_arm}


def arm_kets(family: str, d: int) -> tuple[np.ndarray, list[str]]:
    """One arm's kets, a (k, d) complex array, and their k labels, for a family of FAMILIES."""
    if family not in FAMILIES:
        raise ValueError(f"unknown settings family {family!r}")
    return FAMILIES[family](d)


def joint_settings(
    kets_a: np.ndarray | Sequence[np.ndarray],
    kets_b: np.ndarray | Sequence[np.ndarray],
    labels_a: list[str] | None = None,
    labels_b: list[str] | None = None,
) -> Settings:
    """Cartesian product of per-arm kets, arm-A major order."""
    na, nb = len(kets_a), len(kets_b)
    return Settings(
        np.repeat(np.asarray(kets_a, dtype=complex), nb, axis=0),
        np.tile(np.asarray(kets_b, dtype=complex), (na, 1)),
        np.repeat(labels_a or [""] * na, nb),
        np.tile(labels_b or [""] * nb, na),
    )


def family_settings(family: str, dim_a: int, dim_b: int) -> Settings:
    """Every pair of the family's arm-A and arm-B kets, arm-A major."""
    (kets_a, labels_a), (kets_b, labels_b) = arm_kets(family, dim_a), arm_kets(family, dim_b)
    return joint_settings(kets_a, kets_b, labels_a, labels_b)


# --- forward model ----------------------------------------------------------


def born_probabilities(rho: DensityMatrix, settings: Settings) -> np.ndarray:
    """Tr(rho |a><a| x |b><b|) for every joint setting, clipped into [0, 1].

    Each entry is vdot(v, rho v) on its own row v of the ket stack, bit-equal
    to the one-setting evaluation on kron(a, b); a stacked matrix product
    rounds differently, which would shift Poisson draws and exact means.
    """
    dims = (settings.kets_a.shape[1], settings.kets_b.shape[1])
    if dims != (rho.dim_a, rho.dim_b):
        raise ValueError(f"settings of dims {dims} do not match the state's dims {(rho.dim_a, rho.dim_b)}")
    m = rho.matrix
    p = np.array([np.vdot(v, m @ v).real for v in settings.joint_kets()])
    outside = (p < -1e-12) | (p > 1.0 + 1e-12)
    if outside.any():
        raise ValueError(f"Born probability {float(p[outside][0])!r} outside [0, 1]")
    return np.clip(p, 0.0, 1.0) + 0.0  # + 0.0: no -0.0 probabilities or exact means


def simulate_counts(
    rho: DensityMatrix,
    settings: Settings,
    rate_hz: float,
    integration_time_s: float,
    seed: int | None = None,
) -> TomographyRecord:
    """Draw coincidence counts for every setting.

    Counts are Poisson with mean rate_hz * integration_time_s * p_Born,
    one independent stream per (seed, setting index) so records are
    reproducible regardless of evaluation order. A rate_hz *
    integration_time_s that is not finite and positive, or a Poisson mean
    above POISSON_MEAN_MAX, is refused before any count is drawn.
    """
    scale = _count_scale(rate_hz, integration_time_s)
    _check_seed(seed)
    means = scale * born_probabilities(rho, settings)
    top = float(means.max(initial=0.0))
    if top > POISSON_MEAN_MAX:
        raise ValueError(
            f"rate_hz * integration_time_s = {scale!r} gives a Poisson mean of {top!r}, "
            f"above numpy's largest {POISSON_MEAN_MAX!r}"
        )
    base = np.random.SeedSequence().entropy if seed is None else seed
    counts = np.zeros(len(means))
    for i in np.flatnonzero(means):  # a zero mean draws 0 without its stream
        stream = np.random.SeedSequence(entropy=base, spawn_key=(int(i),))
        counts[i] = np.random.default_rng(stream).poisson(means[i])
    return TomographyRecord(rate_hz, integration_time_s, settings, counts, seed)


# --- reconstruction ---------------------------------------------------------


def _design_matrix(V: np.ndarray, n: int) -> np.ndarray:
    """A[j, k] = <v_j| G_k |v_j> for a basis G_k of the n x n Hermitian matrices.

    The basis is the n diagonal units, then for each i < j (row-major) the
    symmetric unit (1 at ij and ji) and the antisymmetric one (-i at ij,
    +i at ji). A is real because both sides are Hermitian; it is evaluated
    columnwise from the one- and two-entry structure of the basis.
    """
    cols = [np.abs(V[:, i]) ** 2 for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            cross = V[:, i].conj() * V[:, j]
            cols.append(2 * cross.real)
            cols.append(2 * cross.imag)
    return np.column_stack(cols)


def _hermitian_from_coefficients(coeff: np.ndarray, n: int) -> np.ndarray:
    """sum_k coeff[..., k] G_k for the basis of _design_matrix, scattered entrywise.

    coeff is (..., n^2) and may be complex; the result is (..., n, n).
    Adding 0.0 turns signed zeros positive, which makes the result equal,
    bit for bit, to the explicit sum over the n^2 basis matrices.
    """
    rho = np.zeros((*coeff.shape[:-1], n, n), dtype=complex)
    diag = np.arange(n)
    rho[..., diag, diag] = coeff[..., :n]
    lo, hi = np.triu_indices(n, 1)
    rho[..., lo, hi] = coeff[..., n::2] - 1j * coeff[..., n + 1 :: 2]
    rho[..., hi, lo] = coeff[..., n::2] + 1j * coeff[..., n + 1 :: 2]
    return rho + 0.0


def frequencies(record: TomographyRecord) -> np.ndarray:
    """Per-setting count / (rate * time); the Born-probability estimates."""
    return record.counts / (record.rate_hz * record.integration_time_s)


def _row_index(kets: np.ndarray, index: dict[bytes, int]) -> np.ndarray:
    """Each row's number among the distinct rows, matched by their bytes.

    index maps a row's bytes to its number; rows not in it yet are added in
    order of first appearance. 0.0 and -0.0, which json writes differently,
    are different rows.
    """
    keys = np.ascontiguousarray(kets).view(f"V{kets.shape[1] * kets.itemsize}").ravel().tolist()
    return np.array([index.setdefault(key, len(index)) for key in keys], dtype=np.intp)


def _product_factors(record: TomographyRecord) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arm kets V_a (ka, n_a) and V_b (kb, n_b) and frequencies F (ka, kb) with F[i, j] at V_a[i] x V_b[j].

    When the settings are every pair of their distinct arm-A and arm-B kets,
    each exactly once and in any order, the factors are those distinct kets.
    Any other record is its joint kets against the trivial 1 x 1 factor.
    """
    table, freq = record.settings, frequencies(record)
    rows_a, rows_b = _row_index(table.kets_a, {}), _row_index(table.kets_b, {})
    ka, kb = rows_a.max() + 1, rows_b.max() + 1
    cells = rows_a * kb + rows_b
    if ka * kb == len(freq) and np.bincount(cells, minlength=ka * kb).max() == 1:
        grid = np.empty((ka, kb))
        grid[rows_a, rows_b] = freq
        first_a, first_b = np.unique(rows_a, return_index=True)[1], np.unique(rows_b, return_index=True)[1]
        return table.kets_a[first_a], table.kets_b[first_b], grid
    return table.joint_kets(), np.ones((1, 1), dtype=complex), freq[:, None]


def _require_counts(record: TomographyRecord) -> None:
    """Refuse a record without a single count, which neither fit can use."""
    if not record.counts.any():
        raise ValueError("record has no counts; there is nothing to fit")


def reconstruct_linear(record: TomographyRecord) -> DensityMatrix:
    """Least-squares state fit, projected onto the nearest density matrix.

    Expands rho over the product basis E_p x F_q of the arms' Hermitian
    bases, solves for the coefficients against the observed frequencies,
    and returns the unit-trace PSD matrix nearest to that Hermitian
    estimate in Frobenius norm (_nearest_density, the projection of the
    MLE's gradient steps). A record without counts is refused.

    A record of product settings whose rows are every pair of its distinct
    arm-A kets (matched by bytes) and distinct arm-B kets, each pair once in
    any order, has the design A_a x A_b, so the least-squares coefficients
    are C = A_a^+ F (A_b^+)^T for the frequency grid F: two small per-arm
    solves (45 x 25 at d = 5, 120 x 64 at d = 8) instead of one on the
    (m, n^2) joint design. The pairwise, mub and qubit36 records of
    `simulate` are such grids. Any other record (a setting dropped or
    repeated, or an arbitrary list) is its joint kets against a 1 x 1
    factor, which is the joint solve. The rank is that of the joint design:
    the products of the two factors' singular values above
    eps * max(m, n^2) times the largest, lstsq's rcond=None rule. Requires
    rank n^2, the settings spanning the full operator space.
    """
    _require_counts(record)
    n = record.dim_a * record.dim_b
    kets_a, kets_b, grid = _product_factors(record)
    n_a, n_b = kets_a.shape[1], kets_b.shape[1]
    half, _, _, s_a = np.linalg.lstsq(_design_matrix(kets_a, n_a), grid, rcond=None)
    coeff_t, _, _, s_b = np.linalg.lstsq(_design_matrix(kets_b, n_b), half.T, rcond=None)
    s = np.outer(s_a, s_b)
    cutoff = np.finfo(float).eps * max(grid.size, n * n) * s.max()
    rank = int((s > cutoff).sum())
    if rank < n * n:
        raise ValueError(
            f"settings are rank-deficient: design rank {rank} < {n * n} operator dimensions; "
            "reconstruction is underdetermined"
        )
    # rho[(i, k), (j, l)] = sum_q H_q[i, j] F_q[k, l], with H_q = sum_p C[p, q] E_p
    h = _hermitian_from_coefficients(coeff_t, n_a)
    rho = _hermitian_from_coefficients(h.transpose(1, 2, 0), n_b).transpose(0, 2, 1, 3).reshape(n, n)
    return validate_density(_nearest_density(rho), (record.dim_a, record.dim_b))


# The fit stops at the first step gaining less than TOL in ll, or warns after MAX_ITER.
TOL = 1e-10
MAX_ITER = 10000
# A first-order step that gains less than this (in count-weighted
# log-likelihood) switches on the Newton polish for the rest of the fit.
POLISH_GAIN = 1e-2
# The Newton polish runs while its factor has at most this many real parameters.
NEWTON_MAX_PARAMS = 512
# The gradient step length doubles after every iteration, up to this cap.
STEP_MAX = 1e6

Step = tuple[np.ndarray, np.ndarray, float]  # candidate, its probabilities, its gain


class _Likelihood:
    """ll(rho) = sum_j c_j log p_j(rho), p_j = <v_j|rho|v_j>, over the settings with counts.

    Settings without counts add nothing to ll or to its gradient on the
    unit-trace set, so they are dropped.
    """

    def __init__(self, record: TomographyRecord):
        _require_counts(record)
        seen = record.counts > 0
        self.kets = record.settings.joint_kets()[seen]
        self.counts = record.counts[seen]
        self.total = float(self.counts.sum())

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        return np.einsum("ji,ji->j", self.kets.conj() @ rho, self.kets).real

    def value(self, p: np.ndarray) -> float:
        return float(self.counts @ np.log(np.maximum(p, PROB_FLOOR)))

    def gradient(self, p: np.ndarray) -> np.ndarray:
        """R = sum_j c_j / (N p_j) |v_j><v_j|, the gradient of ll / N; Tr(R rho) = 1."""
        w = self.counts / (self.total * np.maximum(p, PROB_FLOOR))
        return (self.kets.T * w) @ self.kets.conj()

    def gain(self, rho: np.ndarray, p: np.ndarray, cand: np.ndarray) -> tuple[float, np.ndarray]:
        """ll(cand) - ll(rho) and the probabilities of cand.

        Both come from the exact difference cand - rho, and the gain is
        taken of ll(sigma / Tr sigma). Subtracting two sums of size N log p
        would lose every gain below ~N * 1e-16, and rounding in a
        candidate's trace would shift ll by N times that rounding.
        """
        delta = cand - rho
        dp = self.probabilities(delta)
        new = p + dp
        if min(p.min(), new.min()) > PROB_FLOOR:
            logs = np.log1p(dp / p)
        else:
            logs = np.log(np.maximum(new, PROB_FLOOR)) - np.log(np.maximum(p, PROB_FLOOR))
        trace_change = math.log1p(delta.trace().real / rho.trace().real)
        return float(self.counts @ logs) - self.total * trace_change, new


def _nearest_density(m: np.ndarray) -> np.ndarray:
    """The unit-trace PSD matrix nearest to Hermitian m in Frobenius norm.

    Projects the eigenvalues onto the probability simplex (Smolin, Gambetta
    & Smith, PRL 108, 070502 (2012)).
    """
    w, v = np.linalg.eigh(m)
    u = w[::-1]
    excess = np.cumsum(u) - 1.0
    k = np.nonzero(u * np.arange(1, len(u) + 1) > excess)[0][-1]
    return (v * np.maximum(w - excess[k] / (k + 1), 0.0)) @ v.conj().T


def _gradient_step(
    like: _Likelihood, s: np.ndarray, ps: np.ndarray, rho: np.ndarray, p: np.ndarray, step: float
) -> tuple[Step, float]:
    """Projected gradient step N[s + t R(s)] from s; t shrinks until the ascent bound holds.

    The bound is ll(c)/N >= ll(s)/N + <R, c - s> - |c - s|^2 / 2t. A trial
    that fails it has curvature above 1/t along d = c - s; the next t is
    the step length at which that trial would just pass,
    |d|^2 / 2(<R, d> - gain/N), clamped to [t/64, t/2]. Returns the step,
    with its gain over rho, and the step length t.
    """
    R = like.gradient(ps)
    while True:
        cand = _nearest_density(s + step * R)
        gain, pc = like.gain(s, ps, cand)
        d = cand - s
        d2, slope = np.vdot(d, d).real, np.vdot(R, d).real - gain / like.total
        if step < 1e-30 or slope <= d2 / (2 * step):
            break
        step = min(step / 2, max(step / 64, d2 / (2 * slope)))
    if s is not rho:
        gain, pc = like.gain(rho, p, cand)
    return (cand, pc, gain), step


def _rho_r_rho(like: _Likelihood, rho: np.ndarray, p: np.ndarray) -> Step:
    """Multiplicative step N[R rho R]; R <- (I + R)/2 until it loses no likelihood."""
    R = like.gradient(p)
    eye = np.eye(len(rho))
    for _halving in range(60):
        cand = R @ rho @ R
        cand = (cand + cand.conj().T) / 2
        cand /= float(np.trace(cand).real)
        gain, pc = like.gain(rho, p, cand)
        if gain >= 0:
            break
        R = (eye + R) / 2
    return cand, pc, gain


def _newton_step(like: _Likelihood, rho: np.ndarray, p: np.ndarray) -> Step | None:
    """Saddle-free Newton step on a factor of rho, or None when the factor is too big.

    With rho = A A^dag, A = psd_factor(rho) of rank r (the eigenvalues
    above measures.RANK_RTOL of the largest, the package's one cut), the
    step maximizes F(A) = sum_j c_j log |A^dag v_j|^2 - N log |A|^2, which is
    ll(A A^dag / Tr). Moving A both reweights rho inside its support and
    tilts the support, so near a rank-deficient maximum the step is exact
    to second order where gradient steps crawl. F is not concave in A, and
    its gauge directions A -> A U are flat, so the Hessian's eigenvalues
    enter by magnitude with a floor (Dauphin et al., NeurIPS 2014). Far
    from the maximum that quadratic model overshoots, so the factor step
    halves until it loses no likelihood, as in _rho_r_rho.
    """
    A = psd_factor(rho)
    n, r = A.shape
    if 2 * n * r > NEWTON_MAX_PARAMS:
        return None
    W = like.kets @ A.conj()
    q = (np.abs(W) ** 2).sum(axis=1)
    live = q > PROB_FLOOR  # the floored terms of ll are flat in A
    kets, W, q, c, N = like.kets[live], W[live], q[live], like.counts[live], like.total
    M = (kets[:, :, None] * W.conj()[:, None, :]).reshape(len(q), n * r)
    J = 2 * np.concatenate([M.real, M.imag], axis=1)
    x = np.concatenate([A.real.ravel(), A.imag.ravel()])
    norm2 = float(x @ x)
    grad = J.T @ (c / q) - 2 * N * x / norm2
    K = np.kron((kets.T * (c / q)) @ kets.conj(), np.eye(r))
    hess = -(J.T * (c / q**2)) @ J + 2 * np.block([[K.real, -K.imag], [K.imag, K.real]])
    hess -= N * (2 * np.eye(len(x)) / norm2 - 4 * np.outer(x, x) / norm2**2)
    w, Q = np.linalg.eigh(hess)
    dx = Q @ ((Q.T @ grad) / np.maximum(np.abs(w), 1e-6 * np.abs(w).max()))
    dA = (dx[: n * r] + 1j * dx[n * r :]).reshape(n, r)
    for _halving in range(60):
        B = A + dA
        cand = B @ B.conj().T
        cand /= float(np.trace(cand).real)
        gain, pc = like.gain(rho, p, cand)
        if gain >= 0:
            break
        dA /= 2
    return cand, pc, gain


def reconstruct_mle(
    record: TomographyRecord, return_history: bool = False
) -> DensityMatrix | tuple[DensityMatrix, list[float]]:
    """Maximum-likelihood reconstruction by an accelerated, monotone ascent.

    Maximizes ll(rho) = sum_j c_j log p_j(rho) over density matrices from
    the maximally mixed start. Each iteration takes the best of:

    - an accelerated projected gradient step (Nesterov momentum, restarted
      whenever the momentum step gains less than TOL), projected onto the
      density matrices by the Smolin-Gambetta-Smith eigenvalue simplex
      projection, so eigenvalues can reach zero and regrow (Shang, Zhang &
      Ng, PRA 95, 062336 (2017)); a trial that fails the ascent bound
      sizes the next step length from its own curvature;
    - on restart, also the multiplicative rho <- N[R rho R] step, damped
      toward the identity until it loses no likelihood (Rehacek, Hradil,
      Knill & Lvovsky, PRA 75, 042108 (2007)), which is well scaled for
      small but nonzero eigenvalues;
    - once a step gains less than POLISH_GAIN, a saddle-free Newton step
      on a factor of rho, halved until it loses no likelihood, which
      converges where first-order steps crawl.

    A step that loses likelihood is never taken, so accepted iterates are
    monotone. Stops when an accepted step gains less than TOL, or warns
    and returns the last iterate after MAX_ITER. Fits to pure states
    converge in tens of iterations; slightly mixed near-pure ones, whose
    small eigenvalues are ill-conditioned for every step above, take
    hundreds.

    With return_history=True also returns the accepted log-likelihoods,
    one per iteration including the starting point. Each entry after the
    first adds its step's gain, computed from the change in the
    probabilities, so gains far below the rounding of ll itself (~N * 1e-16
    for N counts) still resolve.
    """
    like = _Likelihood(record)
    n = record.dim_a * record.dim_b
    rho = np.eye(n, dtype=complex) / n
    p = like.probabilities(rho)
    history = [like.value(p)]
    prev_rho, prev_p = rho, p
    momentum, step, polish = 1.0, 1.0, False
    converged, gain = False, 0.0
    for _ in range(MAX_ITER):
        next_momentum = (1 + math.sqrt(1 + 4 * momentum * momentum)) / 2
        beta = (momentum - 1) / next_momentum
        best = None
        if beta > 0:
            s, ps = rho + beta * (rho - prev_rho), p + beta * (p - prev_p)
            if ps.min() > 0:
                best, step = _gradient_step(like, s, ps, rho, p, step)
            if best is None or best[2] < TOL:
                best, next_momentum = None, 1.0
        if best is None:
            best, step = _gradient_step(like, rho, p, rho, p, step)
            best = max(best, _rho_r_rho(like, rho, p), key=lambda c: c[2])
        newton = None
        if polish or best[2] < POLISH_GAIN:
            polish = True
            newton = _newton_step(like, rho, p)
            if newton is not None and newton[2] > best[2]:
                best = newton
        cand, pc, gain = best
        if not gain >= TOL:
            # Converged. A Newton step that loses nothing lands closest to
            # the maximum; the others are not taken.
            cand, pc, gain = newton if newton is not None and newton[2] >= 0 else (rho, p, 0.0)
        prev_rho, prev_p, rho, p = rho, p, cand, pc
        momentum = next_momentum
        step = min(2 * step, STEP_MAX)
        history.append(history[-1] + gain)
        if gain < TOL:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"MLE did not converge in {MAX_ITER} iterations (last gain {gain:.3e}); "
            "returning the best iterate",
            RuntimeWarning,
            stacklevel=2,
        )
    result = validate_density(rho, (record.dim_a, record.dim_b))
    if return_history:
        return result, history
    return result


# --- qubit sub-tomography ---------------------------------------------------


def _arm_restrictions(kets: np.ndarray, pairs: set[IndexPair]) -> dict[IndexPair, tuple[np.ndarray, np.ndarray]]:
    """Per index pair: which arm kets live on span{|lo>, |hi>}, and those kets restricted.

    kets is the (m, d) stack of one arm. For each pair the mask marks the
    kets with at most SUPPORT_ATOL of |ket|^2 outside (lo, hi); their rows of
    the (m, 2) restriction hold (ket[lo], ket[hi]) / sqrt(inside), the
    other rows are zero.
    """
    weight = np.abs(kets) ** 2
    total = weight.sum(axis=1)
    out = {}
    for pair in pairs:
        inside = weight[:, pair.lo] + weight[:, pair.hi]
        keep = ~(total - inside > SUPPORT_ATOL)
        sub = np.zeros((len(kets), 2), dtype=complex)
        sub[keep] = kets[keep][:, [pair.lo, pair.hi]] / np.sqrt(inside[keep])[:, None]
        out[pair] = keep, sub
    return out


def sector_records(
    record: TomographyRecord, pairs: Sequence[tuple[IndexPair, IndexPair]]
) -> list[TomographyRecord]:
    """Filter a qudit record down to each two-qubit sector (a on arm A, b on arm B).

    A sector keeps, in record order, the settings whose arm-A ket lives on
    span{|a.lo>, |a.hi>} and whose arm-B ket lives on span{|b.lo>, |b.hi>},
    re-expressed in subspace coordinates (lo -> 0, hi -> 1). Counts and
    labels pass through unmodified. The |ket|^2 tables of each arm are
    computed once, so a sector is one boolean mask over the settings.
    Pairwise-overcomplete records yield exactly 36 settings per sector.
    """
    for a, b in pairs:
        if a.hi >= record.dim_a or b.hi >= record.dim_b:
            raise ValueError(
                f"pair indices ({a.lo},{a.hi})x({b.lo},{b.hi}) exceed dims ({record.dim_a}, {record.dim_b})"
            )
    table = record.settings
    arms_a = _arm_restrictions(table.kets_a, {a for a, _ in pairs})
    arms_b = _arm_restrictions(table.kets_b, {b for _, b in pairs})
    records = []
    for a, b in pairs:
        (keep_a, sub_a), (keep_b, sub_b) = arms_a[a], arms_b[b]
        kept = np.flatnonzero(keep_a & keep_b)
        settings = Settings(sub_a[kept], sub_b[kept], table.labels_a[kept], table.labels_b[kept])
        rank = int(np.linalg.matrix_rank(_design_matrix(settings.joint_kets(), 4))) if len(kept) else 0
        if rank < 16:
            raise ValueError(
                f"only {len(kept)} settings (rank {rank}) remain on subspace "
                f"({a.lo},{a.hi})x({b.lo},{b.hi}); 16 independent settings are needed"
            )
        records.append(replace(record, settings=settings, counts=record.counts[kept]))
    return records


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
    for i, sub_record in enumerate(sector_records(record, pairs)):
        weights[i] = frequencies(sub_record).sum() / 9.0
        if weights[i] >= WEIGHT_FLOOR:
            states[i] = reconstruct_mle(sub_record).matrix
    return states, weights


# --- measurement budget -----------------------------------------------------


def budget(d: int, integration_time_s: float = 10.0) -> Budget:
    """Measurement counts and times: 36 K subspace settings vs (2d^2-d)^2 full QST."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    _check_positive("integration_time_s", integration_time_s)
    k = count_subspaces(d)
    pconc, qst = 36 * k, (2 * d * d - d) ** 2
    time_s = float(integration_time_s)
    if not math.isfinite(qst * time_s):
        raise ValueError(f"integration_time_s = {time_s!r} overflows the total time of {qst} settings")
    return Budget(d, k, pconc, qst, pconc * time_s, qst * time_s)


# --- record file format -----------------------------------------------------


def _ket_pairs(v: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in v]


def _record_head(record: TomographyRecord) -> dict:
    return {
        "dimA": record.dim_a,
        "dimB": record.dim_b,
        "rate_hz": float(record.rate_hz),
        "integration_time_s": float(record.integration_time_s),
        "seed": record.seed,
    }


def _count_values(record: TomographyRecord) -> list[int | float]:
    return [
        int(c) if float(c).is_integer() else float(c)  # Poisson draws are integral
        for c in record.counts
    ]


def record_to_dict(record: TomographyRecord) -> dict:
    s = record.settings
    return {
        **_record_head(record),
        "settings": [
            {"a": _ket_pairs(a), "b": _ket_pairs(b), "label_a": la, "label_b": lb}
            for a, b, la, lb in zip(s.kets_a, s.kets_b, s.labels_a, s.labels_b)
        ],
        "counts": _count_values(record),
    }


def _json_number(value) -> float:
    """A JSON number as a float; a string or a boolean, which float() would take, is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError
    return float(value)


def _arm_ket(value, i: int, arm: str, dim: int) -> list[complex]:
    ket = parse_complex_list(value, f"settings[{i}].{arm}")
    if len(ket) != dim:
        raise ValueError(f"settings[{i}].{arm} has {len(ket)} entries, expected dim{arm.upper()} = {dim}")
    return ket


def record_from_dict(obj: dict) -> TomographyRecord:
    if not isinstance(obj, dict):
        raise ValueError(f"a record must be a JSON object, got a {type(obj).__name__}")
    if not isinstance(obj.get("settings"), list):
        raise ValueError("field 'settings' must be a list of setting objects")
    dim_a, dim_b = parse_dim(obj, "dimA"), parse_dim(obj, "dimB")
    kets_a, kets_b, labels_a, labels_b = [], [], [], []
    for i, s in enumerate(obj["settings"]):
        if not isinstance(s, dict):
            raise ValueError(f"settings[{i}] must be an object with kets 'a' and 'b'")
        try:
            a, b = s["a"], s["b"]
        except KeyError as exc:
            raise ValueError(f"settings[{i}] has no ket {exc.args[0]!r}") from None
        label_a, label_b = s.get("label_a", ""), s.get("label_b", "")
        if not (isinstance(label_a, str) and isinstance(label_b, str)):
            raise ValueError(f"settings[{i}] labels must be strings")
        kets_a.append(_arm_ket(a, i, "a", dim_a))
        kets_b.append(_arm_ket(b, i, "b", dim_b))
        labels_a.append(label_a)
        labels_b.append(label_b)
    return TomographyRecord(
        rate_hz=parse_field(obj, "rate_hz", _json_number),
        integration_time_s=parse_field(obj, "integration_time_s", _json_number),
        settings=Settings(
            np.array(kets_a, dtype=complex).reshape(-1, dim_a),
            np.array(kets_b, dtype=complex).reshape(-1, dim_b),
            labels_a,
            labels_b,
        ),
        counts=parse_field(obj, "counts", lambda c: np.array(c, dtype=float)),
        seed=obj.get("seed"),
    )


def _nested_json(value, level: int) -> str:
    """json.dumps(value, indent=2) as it reads `level` levels deep in an indented document."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * level)


def save_record(path: str | Path, record: TomographyRecord) -> None:
    """Write the bytes of json.dumps(record_to_dict(record), indent=2) + "\n".

    json encodes indented output in pure Python, and a record repeats each
    arm ket across many settings (45 distinct kets per arm in the 2025
    settings of a d = 5 pairwise record). So each distinct ket and label is
    encoded once, at the depth of a setting field, and the settings are
    assembled from those fragments around the indented layout below. The
    counts, a flat list of numbers, go through json's fast unindented
    encoder and are then laid out one per line.
    """
    table, index = record.settings, {}
    rows_a, rows_b = _row_index(table.kets_a, index), _row_index(table.kets_b, index)
    texts = [_nested_json(_ket_pairs(np.frombuffer(key, dtype=complex)), 3) for key in index]
    labels = {x: _nested_json(x, 3) for x in {*table.labels_a, *table.labels_b}}
    settings = [
        '{\n      "a": ' + texts[a]
        + ',\n      "b": ' + texts[b]
        + ',\n      "label_a": ' + labels[la]
        + ',\n      "label_b": ' + labels[lb]
        + "\n    }"
        for a, b, la, lb in zip(rows_a.tolist(), rows_b.tolist(), table.labels_a, table.labels_b)
    ]
    text = (
        json.dumps(_record_head(record), indent=2)[: -len("\n}")]
        + ',\n  "settings": [\n    '
        + ",\n    ".join(settings)
        + '\n  ],\n  "counts": [\n    '
        + json.dumps(_count_values(record))[1:-1].replace(", ", ",\n    ")  # no number holds ", "
        + "\n  ]\n}\n"
    )
    Path(path).write_text(text, encoding="utf-8")


def load_record(path: str | Path) -> TomographyRecord:
    return record_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
