"""Simulated two-photon tomography and density-matrix reconstruction.

Measurement settings are joint rank-1 projectors, one ket per arm.
Coincidence counts follow Poisson statistics with mean
rate * integration_time * Born probability. Reconstruction is offered as
least squares over a Hermitian operator basis (with a PSD projection)
and as maximum likelihood, by an accelerated projected-gradient ascent
with multiplicative R rho R steps and a Newton polish, monotone in the
likelihood.
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

from .states import DensityMatrix, parse_complex_list, parse_field, validate_density
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
    """Row j is kron(arm_a, arm_b) of setting j, as one broadcast product."""
    a = np.array([s.arm_a for s in settings])
    b = np.array([s.arm_b for s in settings])
    return (a[:, :, None] * b[:, None, :]).reshape(len(settings), -1)


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
    """sum_k coeff[k] G_k for the basis of _design_matrix, scattered entrywise.

    Adding 0.0 turns signed zeros positive, which makes the result equal,
    bit for bit, to the explicit sum over the n^2 basis matrices.
    """
    rho = np.zeros((n, n), dtype=complex)
    rho[np.diag_indices(n)] = coeff[:n]
    upper = np.triu_indices(n, 1)
    rho[upper] = coeff[n::2] - 1j * coeff[n + 1 :: 2]
    rho[upper[::-1]] = coeff[n::2] + 1j * coeff[n + 1 :: 2]
    return rho + 0.0


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
    design = _design_matrix(_joint_ket_stack(record.settings), n)
    coeff, _, rank, _ = np.linalg.lstsq(design, frequencies(record), rcond=None)
    if rank < n * n:
        raise ValueError(
            f"settings are rank-deficient: design rank {rank} < {n * n} operator dimensions; "
            "reconstruction is underdetermined"
        )
    w, v = np.linalg.eigh(_hermitian_from_coefficients(coeff, n))
    w = np.clip(w, 0.0, None)
    rho = (v * w) @ v.conj().T
    tr = float(np.trace(rho).real)
    if tr <= 0:
        raise ValueError("least-squares estimate has nonpositive trace after PSD projection")
    return validate_density(rho / tr, (record.dim_a, record.dim_b))


# A first-order step that gains less than this (in count-weighted
# log-likelihood) switches on the Newton polish for the rest of the fit.
POLISH_GAIN = 1e-3
# The Newton polish runs while its factor has at most this many real parameters.
NEWTON_MAX_PARAMS = 512
# Eigenvalues below this fraction of the largest are outside the factor's rank.
RANK_RTOL = 1e-12
# The gradient step length doubles after every iteration, up to this cap.
STEP_MAX = 1e6

Step = tuple[np.ndarray, np.ndarray, float]  # candidate, its probabilities, its gain


class _Likelihood:
    """ll(rho) = sum_j c_j log p_j(rho), p_j = <v_j|rho|v_j>, over the settings with counts.

    Settings without counts add nothing to ll or to its gradient on the
    unit-trace set, so they are dropped.
    """

    def __init__(self, record: TomographyRecord):
        if float(record.counts.sum()) <= 0:
            raise ValueError("record has no counts; likelihood is flat")
        seen = record.counts > 0
        self.kets = _joint_ket_stack([s for s, k in zip(record.settings, seen) if k])
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
    """Projected gradient step N[s + t R(s)] from s; t halves until the ascent bound holds.

    The bound is ll(c)/N >= ll(s)/N + <R, c - s> - |c - s|^2 / 2t. Returns
    the step, with its gain over rho, and the step length t.
    """
    R = like.gradient(ps)
    while True:
        cand = _nearest_density(s + step * R)
        gain, pc = like.gain(s, ps, cand)
        d = cand - s
        if step < 1e-30 or gain / like.total >= np.vdot(R, d).real - np.vdot(d, d).real / (2 * step):
            break
        step /= 2
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

    With rho = A A^dag, A of rank r = the numerical rank of rho, the step
    maximizes F(A) = sum_j c_j log |A^dag v_j|^2 - N log |A|^2, which is
    ll(A A^dag / Tr). Moving A both reweights rho inside its support and
    tilts the support, so near a rank-deficient maximum the step is exact
    to second order where gradient steps crawl. F is not concave in A, and
    its gauge directions A -> A U are flat, so the Hessian's eigenvalues
    enter by magnitude with a floor (Dauphin et al., NeurIPS 2014).
    """
    lam, U = np.linalg.eigh(rho)
    keep = lam > RANK_RTOL * lam[-1]
    n, r = len(lam), int(keep.sum())
    if 2 * n * r > NEWTON_MAX_PARAMS:
        return None
    A = U[:, keep] * np.sqrt(lam[keep])
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
    B = A + (dx[: n * r] + 1j * dx[n * r :]).reshape(n, r)
    cand = B @ B.conj().T
    cand /= float(np.trace(cand).real)
    gain, pc = like.gain(rho, p, cand)
    return cand, pc, gain


def reconstruct_mle(
    record: TomographyRecord,
    tol: float = 1e-10,
    max_iter: int = 10000,
    return_history: bool = False,
) -> DensityMatrix | tuple[DensityMatrix, list[float]]:
    """Maximum-likelihood reconstruction by an accelerated, monotone ascent.

    Maximizes ll(rho) = sum_j c_j log p_j(rho) over density matrices from
    the maximally mixed start. Each iteration takes the best of:

    - an accelerated projected gradient step (Nesterov momentum, restarted
      whenever the momentum step gains less than tol), projected onto the
      density matrices by the Smolin-Gambetta-Smith eigenvalue simplex
      projection, so eigenvalues can reach zero and regrow (Shang, Zhang &
      Ng, PRA 95, 062336 (2017));
    - on restart, also the multiplicative rho <- N[R rho R] step, damped
      toward the identity until it loses no likelihood (Rehacek, Hradil,
      Knill & Lvovsky, PRA 75, 042108 (2007)), which is well scaled for
      small but nonzero eigenvalues;
    - once a step gains less than POLISH_GAIN, a saddle-free Newton step
      on a factor of rho, which converges where first-order steps crawl.

    A step that loses likelihood is never taken, so accepted iterates are
    monotone. Stops when an accepted step gains less than tol, or warns
    and returns the last iterate after max_iter.

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
    for _ in range(max_iter):
        next_momentum = (1 + math.sqrt(1 + 4 * momentum * momentum)) / 2
        beta = (momentum - 1) / next_momentum
        best = None
        if beta > 0:
            s, ps = rho + beta * (rho - prev_rho), p + beta * (p - prev_p)
            if ps.min() > 0:
                best, step = _gradient_step(like, s, ps, rho, p, step)
            if best is None or best[2] < tol:
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
        if not gain >= tol:
            # Converged. A Newton step that loses nothing lands closest to
            # the maximum; the others are not taken.
            cand, pc, gain = newton if newton is not None and newton[2] >= 0 else (rho, p, 0.0)
        prev_rho, prev_p, rho, p = rho, p, cand, pc
        momentum = next_momentum
        step = min(2 * step, STEP_MAX)
        history.append(history[-1] + gain)
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
    if not isinstance(obj.get("settings"), list):
        raise ValueError("field 'settings' must be a list of setting objects")
    settings = []
    for i, s in enumerate(obj["settings"]):
        if not isinstance(s, dict):
            raise ValueError(f"settings[{i}] must be an object with kets 'a' and 'b'")
        settings.append(
            ProjectorSetting(
                arm_a=parse_complex_list(s["a"], f"settings[{i}].a"),
                arm_b=parse_complex_list(s["b"], f"settings[{i}].b"),
                label_a=s.get("label_a", ""),
                label_b=s.get("label_b", ""),
            )
        )
    return TomographyRecord(
        dim_a=parse_field(obj, "dimA", int),
        dim_b=parse_field(obj, "dimB", int),
        rate_hz=parse_field(obj, "rate_hz", float),
        integration_time_s=parse_field(obj, "integration_time_s", float),
        settings=tuple(settings),
        counts=parse_field(obj, "counts", lambda c: np.array(c, dtype=float)),
        seed=obj.get("seed"),
    )


def save_record(path: str | Path, record: TomographyRecord) -> None:
    Path(path).write_text(json.dumps(record_to_dict(record), indent=2) + "\n", encoding="utf-8")


def load_record(path: str | Path) -> TomographyRecord:
    return record_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
