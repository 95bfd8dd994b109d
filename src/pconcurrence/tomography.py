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

import itertools
import json
import math
import sys
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .measures import psd_factor
from .states import (
    KET_NORM_ATOL,
    WEIGHT_FLOOR,
    DensityMatrix,
    IndexPair,
    complex_pairs,
    count_subspaces,
    parse_complex_list,
    parse_dim,
    parse_field,
    read_json,
    require_field,
    validate_density,
)

PROB_FLOOR = 1e-15
# numpy's largest Poisson mean (POISSON_LAM_MAX of numpy.random); a larger one raises "lam value too large".
POISSON_MEAN_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)
SUPPORT_ATOL = 1e-12


def _off_norm(kets: np.ndarray) -> np.ndarray:
    """Which rows of an (m, d) ket stack miss unit norm by more than KET_NORM_ATOL; a NaN row misses too."""
    return ~(np.abs(np.einsum("ji,ji->j", kets.conj(), kets).real - 1.0) <= KET_NORM_ATOL)


@dataclass(frozen=True)
class Settings:
    """Joint rank-1 projective measurements: one ket table per arm and one index pair per setting.

    Setting j measures |kets_a[pairs[j, 0]]> x |kets_b[pairs[j, 1]]>: kets_a is (ka, dA), kets_b (kb, dB),
    each with a label string per row, and pairs (m, 2). The tables and pairs are kept as given, repeated
    and unused entries included. Every table ket is checked for unit norm here, once.
    """

    kets_a: np.ndarray
    kets_b: np.ndarray
    pairs: np.ndarray
    labels_a: np.ndarray | None = None
    labels_b: np.ndarray | None = None

    def __post_init__(self):
        for arm in "ab":
            kets = np.asarray(getattr(self, f"kets_{arm}"), dtype=complex)
            labels = getattr(self, f"labels_{arm}")
            labels = np.asarray([""] * len(kets) if labels is None else labels, dtype=object)
            if kets.ndim != 2 or labels.shape != (len(kets),):
                raise ValueError(f"settings need {len(kets)} kets and {len(kets)} labels on arm {arm}, one row each")
            object.__setattr__(self, f"kets_{arm}", kets)
            object.__setattr__(self, f"labels_{arm}", labels)
        pairs = np.asarray(self.pairs)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"pairs must be an (m, 2) array of index pairs, got shape {pairs.shape}")
        sizes = [len(self.kets_a), len(self.kets_b)]
        outside = ((pairs < 0) | (pairs >= sizes)).any(axis=1)  # numpy would wrap a negative index
        if outside.any():
            j = np.flatnonzero(outside)[0]
            raise ValueError(f"settings[{j}] = {pairs[j].tolist()} is outside arm tables of {sizes[0]} and {sizes[1]} kets")
        pairs = pairs.astype(np.intp, casting="safe")  # a float index is refused, not truncated
        object.__setattr__(self, "pairs", pairs)
        bad_a, bad_b = _off_norm(self.kets_a), _off_norm(self.kets_b)
        used = np.column_stack([bad_a[pairs[:, 0]], bad_b[pairs[:, 1]]])
        if used.any():
            j, arm = np.argwhere(used)[0]  # arm a before arm b
            raise ValueError(f"settings[{j}].{'ab'[arm]} is not normalized")
        for arm, bad in (("a", bad_a), ("b", bad_b)):
            if bad.any():
                raise ValueError(f"kets_{arm}[{np.flatnonzero(bad)[0]}] is not normalized; no setting uses it")

    def __len__(self) -> int:
        return len(self.pairs)

    def joint_kets(self) -> np.ndarray:
        """Row j is the kron of setting j's two kets, as one broadcast product; (m, dA * dB), for m = 0 too."""
        a, b = self.kets_a[self.pairs[:, 0]], self.kets_b[self.pairs[:, 1]]
        return (a[:, :, None] * b[:, None, :]).reshape(len(self), a.shape[1] * b.shape[1])


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
    count_subspaces(d)  # refuses d < 2
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
    """Cartesian product of per-arm kets, arm-A major order: setting i * kb + j pairs ket i of A with ket j of B."""
    pairs = np.indices((len(kets_a), len(kets_b))).reshape(2, -1).T
    return Settings(kets_a, kets_b, pairs, labels_a, labels_b)


def family_settings(family: str, dim_a: int, dim_b: int) -> Settings:
    """Every pair of the family's arm-A and arm-B kets, arm-A major."""
    (kets_a, labels_a), (kets_b, labels_b) = arm_kets(family, dim_a), arm_kets(family, dim_b)
    return joint_settings(kets_a, kets_b, labels_a, labels_b)


# --- forward model ----------------------------------------------------------


def born_probabilities(rho: DensityMatrix, settings: Settings) -> np.ndarray:
    """Tr(rho |a><a| x |b><b|) for every joint setting, clipped into [0, 1].

    One stacked product v^dag (rho v) over the rows v of the ket stack, each
    a matrix-vector product then a dot product, as vdot(v, rho @ v) is: every
    entry is bit-equal to the one-setting evaluation on kron(a, b). A product
    that groups the sums otherwise, such as rho @ kets.T, rounds differently,
    which would shift Poisson draws and exact means.
    """
    dims = (settings.kets_a.shape[1], settings.kets_b.shape[1])
    if dims != (rho.dim_a, rho.dim_b):
        raise ValueError(f"settings of dims {dims} do not match the state's dims {(rho.dim_a, rho.dim_b)}")
    kets = settings.joint_kets()
    m_kets = np.matmul(rho.matrix, kets[:, :, None])
    p = np.matmul(np.conjugate(kets, out=kets)[:, None, :], m_kets)[:, 0, 0].real  # conjugated in place: one stack less
    outside = (p < -1e-12) | (p > 1.0 + 1e-12)
    if outside.any():
        raise ValueError(f"Born probability {float(p[outside][0])!r} outside [0, 1]")
    return np.clip(p, 0.0, 1.0) + 0.0  # + 0.0: no -0.0 probabilities or exact means


# numpy's SeedSequence hash constants and PCG64's multiplier; NEP 19 keeps SeedSequence and PCG64 seeding stable.
_POOL_SIZE = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK_128 = (1 << 128) - 1


def _stream_states(base: int, index: np.ndarray) -> list[dict]:
    """PCG64(SeedSequence(entropy=base, spawn_key=(i,))).state for every i < 2**32 of index, seeded in one pass.

    Follows numpy's SeedSequence step for step, on one uint32 column per
    index: mix_entropy puts base's 32-bit words (least significant first),
    zero-padded to the pool size as a non-empty spawn key requires, then i,
    into a pool of 4 words, and generate_state(4, np.uint64) hashes the pool
    into the words (seed, inc). PCG64 seeds its 128-bit LCG from them as
    state = (inc' + seed) * _PCG_MULT + inc' with inc' = 2 inc + 1, mod 2**128.
    """
    u32, shift = np.uint32, np.uint32(16)
    run = [base >> k & 0xFFFFFFFF for k in range(0, max(base.bit_length(), 1), 32)]
    entropy = [u32(w) for w in run + [0] * (_POOL_SIZE - len(run))] + [np.asarray(index, dtype=u32)]
    hash_a = u32(_INIT_A)

    def hashmix(value):
        nonlocal hash_a
        value = value ^ hash_a
        hash_a = hash_a * u32(_MULT_A)
        value = value * hash_a
        return value ^ value >> shift

    def mix(x, y):
        out = u32(_MIX_MULT_L) * x - u32(_MIX_MULT_R) * y
        return out ^ out >> shift

    with np.errstate(over="ignore"):  # uint32 arithmetic wraps mod 2**32, as numpy's does
        pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in entropy[_POOL_SIZE:]:  # the index is the last word, so every pool word is a column from here on
            for dst in range(_POOL_SIZE):
                pool[dst] = mix(pool[dst], hashmix(word))
        hash_b, words = u32(_INIT_B), []
        for k in range(8):
            value = pool[k % _POOL_SIZE] ^ hash_b
            hash_b = hash_b * u32(_MULT_B)
            value = value * hash_b
            words.append((value ^ value >> shift).astype(np.uint64))
    # uint64 word k is uint32 words 2k (low) and 2k + 1 (high); a 128-bit number is two of them, the high first
    seed_hi, seed_lo, inc_hi, inc_lo = ((words[2 * k + 1] << np.uint64(32) | words[2 * k]).tolist() for k in range(4))
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK_128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK_128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0})
    return states


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
    reproducible regardless of evaluation order: count j is
    default_rng(SeedSequence(entropy=seed, spawn_key=(j,))).poisson(mean_j),
    and a zero mean is 0 without a draw. _stream_states seeds every stream
    in one pass and one reused generator draws them;
    test_simulated_means_and_counts_match_per_setting_kron_vdot pins the
    counts to that per-setting loop. A seed of None draws fresh OS entropy.
    A rate_hz * integration_time_s that is not finite and positive, or a
    Poisson mean above POISSON_MEAN_MAX, is refused before any count is drawn.
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
    live = np.flatnonzero(means)  # a zero mean draws 0 without its stream
    bits = np.random.PCG64(0)  # a fixed seed, as PCG64() reads OS entropy; each draw replaces the state
    poisson = np.random.Generator(bits).poisson
    draws = []
    for state, mean in zip(_stream_states(base, live), means[live].tolist()):
        bits.state = state
        draws.append(poisson(mean))
    counts = np.zeros(len(means))
    counts[live] = draws
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


def _product_factors(record: TomographyRecord) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arm kets V_a (ka, n_a) and V_b (kb, n_b) and frequencies F (ka, kb) with F[i, j] at V_a[i] x V_b[j].

    When pairs covers every (ia, ib) cell exactly once, in any order, the
    factors are the arm tables (a ket under two labels is two rows, as in
    the joint design). Any other record is its joint kets against a 1 x 1 factor.
    """
    table, freq = record.settings, frequencies(record)
    (ka, kb), (ia, ib) = (len(table.kets_a), len(table.kets_b)), table.pairs.T
    if ka * kb == len(freq) and np.bincount(ia * kb + ib, minlength=ka * kb).max() == 1:
        grid = np.empty((ka, kb))
        grid[ia, ib] = freq
        return table.kets_a, table.kets_b, grid
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

    A record whose pairs cover every (ia, ib) cell of its arm tables exactly
    once, in any order, has the design A_a x A_b, so the least-squares
    coefficients are C = A_a^+ F (A_b^+)^T for the frequency grid F: two
    small per-arm solves (45 x 25 at d = 5, 120 x 64 at d = 8) instead of
    one on the (m, n^2) joint design. The pairwise, mub and qubit36 records of
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
# Each gradient step sets the next one's length from its accepted trial's
# curvature, at most doubling it, and never above this cap.
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
        self.conj = self.kets.conj()
        self.counts = record.counts[seen]
        self.total = float(self.counts.sum())

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        return np.einsum("ji,ji->j", self.conj @ rho, self.kets).real

    def value(self, p: np.ndarray) -> float:
        return float(self.counts @ np.log(np.maximum(p, PROB_FLOOR)))

    def gradient(self, p: np.ndarray) -> np.ndarray:
        """R = sum_j c_j / (N p_j) |v_j><v_j|, the gradient of ll / N; Tr(R rho) = 1."""
        w = self.counts / (self.total * np.maximum(p, PROB_FLOOR))
        return (self.kets.T * w) @ self.conj

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
    & Smith, PRL 108, 070502 (2012)): the shift is the excess over 1 of the
    k largest, divided by k, for the last k whose smallest stays above it.
    The few eigenvalues are scanned as Python floats, which sum them in
    the order np.cumsum does.
    """
    w, v = np.linalg.eigh(m)
    total = 0.0
    for k, u in enumerate(w[::-1].tolist(), 1):
        total += u
        if u * k > total - 1.0:
            shift = (total - 1.0) / k
    return (v * np.maximum(w - shift, 0.0)) @ v.conj().T


def _gradient_step(
    like: _Likelihood, s: np.ndarray, ps: np.ndarray, rho: np.ndarray, p: np.ndarray, step: float
) -> tuple[Step, float]:
    """Projected gradient step N[s + t R(s)] from s; t shrinks until the ascent bound holds.

    The bound is ll(c)/N >= ll(s)/N + <R, c - s> - |c - s|^2 / 2t. A trial
    that fails it has curvature above 1/t along d = c - s; the next t is
    the step length at which that trial would just pass,
    |d|^2 / 2(<R, d> - gain/N), clamped to [t/64, t/2]. Returns the step,
    with its gain over rho, and the next step length: the same rule on the
    accepted trial, min(2t, |d|^2 / 2(<R, d> - gain/N)), or 2t where
    <R, d> - gain/N <= 0, capped at STEP_MAX.
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
    return (cand, pc, gain), min(2 * step, STEP_MAX, d2 / (2 * slope) if slope > 0 else math.inf)


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
    halves until it loses no likelihood, as in _rho_r_rho, or until the
    halved step's first-order gain grad . dx / 2^k falls below TOL, which
    no accepted step could beat.

    The real parameters x interleave (Re A[i, k], Im A[i, k]), so x and the
    step are A and dA viewed as floats, and the Jacobian of the q_j =
    |A^dag v_j|^2 is 2 M, M[j, (i, k)] = v_j[i] conj(A^dag v_j)[k] viewed
    likewise. The Hessian is filled in place, term by term: the Gauss
    term -4 M^T (c / q^2) M, then 2 G x I_r with G = sum_j c_j / q_j
    |v_j><v_j|, added to its r diagonal blocks as the real 2 x 2 form
    [[Re, -Im], [Im, Re]] of each entry, then the terms of -N log |A|^2.
    """
    A = psd_factor(rho)
    n, r = A.shape
    if 2 * n * r > NEWTON_MAX_PARAMS:
        return None
    kets, conj, c, N = like.kets, like.conj, like.counts, like.total
    W = conj @ A  # W[j, k] = conj(A^dag v_j)[k]
    q = (W.view(float) ** 2).sum(axis=1)
    live = q > PROB_FLOOR  # the floored terms of ll are flat in A
    if not live.all():
        kets, conj, W, q, c = kets[live], conj[live], W[live], q[live], c[live]
    M = (kets[:, :, None] * W[:, None, :]).view(float).reshape(len(q), -1)
    x = A.view(float).ravel()
    norm2 = float(x @ x)
    w1 = c / q
    grad = 2 * (w1 @ M) - (2 * N / norm2) * x
    hess = (M.T * (-4 * w1 / q)) @ M
    G_conj = (conj.T * w1) @ kets
    # Entry (i, i') of G enters as 2 [[Re, -Im], [Im, Re]]: rows that are the (Re, Im) pairs of 2 conj(G), 2i conj(G).
    blocks = (G_conj[:, None, :] * [[2], [2j]]).view(float).reshape(n, 2, n, 2)
    np.einsum("ikajkb->kiajb", hess.reshape(n, r, 2, n, r, 2))[...] += blocks
    hess.reshape(-1)[:: len(x) + 1] -= 2 * N / norm2
    hess += np.outer(x, (4 * N / norm2**2) * x)
    w, Q = np.linalg.eigh(hess)
    dx = Q @ ((Q.T @ grad) / np.maximum(np.abs(w), 1e-6 * np.abs(w).max()))
    slope = float(grad @ dx)
    dA = dx.view(complex).reshape(n, r)
    for _halving in range(60):
        B = A + dA
        cand = B @ B.conj().T
        cand /= float(np.trace(cand).real)
        gain, pc = like.gain(rho, p, cand)
        slope /= 2
        if gain >= 0 or slope < TOL:
            break
        dA /= 2
    return cand, pc, gain


def reconstruct_mle(
    record: TomographyRecord, return_history: bool = False
) -> DensityMatrix | tuple[DensityMatrix, list[float]]:
    """Maximum-likelihood reconstruction by an accelerated, monotone ascent.

    Maximizes ll(rho) = sum_j c_j log p_j(rho) over density matrices from
    the maximally mixed start, in two phases. Until a step gains less than
    POLISH_GAIN, each iteration takes the best of:

    - an accelerated projected gradient step (Nesterov momentum, restarted
      whenever the momentum step gains less than TOL), projected onto the
      density matrices by the Smolin-Gambetta-Smith eigenvalue simplex
      projection, so eigenvalues can reach zero and regrow (Shang, Zhang &
      Ng, PRA 95, 062336 (2017)); a trial that fails the ascent bound
      sizes the next step length from its own curvature;
    - on restart, also the multiplicative rho <- N[R rho R] step, damped
      toward the identity until it loses no likelihood (Rehacek, Hradil,
      Knill & Lvovsky, PRA 75, 042108 (2007)), which is well scaled for
      small but nonzero eigenvalues.

    From then on (the polish) each iteration takes the better of one plain
    projected gradient step from rho and a saddle-free Newton step on a
    factor of rho (_newton_step), halved until it loses no likelihood or
    its first-order gain falls below TOL; the Newton step converges where
    first-order steps crawl, and the gradient step keeps the fit moving
    where the factor's rank must grow. While rho's factor is too big for a
    Newton step (more than NEWTON_MAX_PARAMS real parameters), the polish
    iterations take the first phase's steps instead.

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
        newton = _newton_step(like, rho, p) if polish else None
        if newton is not None:
            best, step = _gradient_step(like, rho, p, rho, p, step)
            next_momentum = 1.0
        else:  # before the polish, or while rho's factor is too big for a Newton step
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
            if not polish and best[2] < POLISH_GAIN:
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


def _arm_restrictions(kets: np.ndarray, used: np.ndarray, pairs: set[IndexPair]) -> dict:
    """Per index pair: one arm's table restricted to span{|lo>, |hi>} and each setting's row in it.

    kets is the (k, d) table of the arm and used each setting's row of it. The kets with at most
    SUPPORT_ATOL of |ket|^2 outside (lo, hi) live on the span; the restricted table holds their
    (ket[lo], ket[hi]) / sqrt(inside) in table order, without labels, and an off-span setting has row -1.
    """
    weight = np.abs(kets) ** 2
    total = weight.sum(axis=1)
    out = {}
    for pair in pairs:
        inside = weight[:, pair.lo] + weight[:, pair.hi]
        on = ~(total - inside > SUPPORT_ATOL)
        rows = np.where(on, np.cumsum(on) - 1, -1)
        out[pair] = kets[on][:, [pair.lo, pair.hi]] / np.sqrt(inside[on])[:, None], rows[used]
    return out


def sector_records(
    record: TomographyRecord, pairs: Sequence[tuple[IndexPair, IndexPair]]
) -> list[TomographyRecord]:
    """Filter a qudit record down to each two-qubit sector (a on arm A, b on arm B).

    A sector keeps, in record order, the settings whose arm-A ket lives on
    span{|a.lo>, |a.hi>} and whose arm-B ket lives on span{|b.lo>, |b.hi>},
    re-expressed in subspace coordinates (lo -> 0, hi -> 1), with their
    counts and without labels. The arm tables are restricted once per index
    pair, so a sector is the settings whose two rows are >= 0. Sectors whose
    restricted arm tables and index pairs are byte-equal share one Settings,
    checked once, and one design rank: all sectors of a pairwise record
    share one table of 36 settings.
    """
    for a, b in pairs:
        if a.hi >= record.dim_a or b.hi >= record.dim_b:
            raise ValueError(
                f"pair indices ({a.lo},{a.hi})x({b.lo},{b.hi}) exceed dims ({record.dim_a}, {record.dim_b})"
            )
    table, timing = record.settings, (record.rate_hz, record.integration_time_s)
    arms_a = _arm_restrictions(table.kets_a, table.pairs[:, 0], {a for a, _ in pairs})
    arms_b = _arm_restrictions(table.kets_b, table.pairs[:, 1], {b for _, b in pairs})
    records, designs = [], {}  # restricted table bytes -> its Settings and design rank
    for a, b in pairs:
        (sub_a, rows_a), (sub_b, rows_b) = arms_a[a], arms_b[b]
        kept = np.flatnonzero((rows_a >= 0) & (rows_b >= 0))
        sub_pairs = np.column_stack([rows_a[kept], rows_b[kept]])
        key = sub_a.tobytes(), sub_b.tobytes(), sub_pairs.tobytes()
        if key not in designs:
            settings = Settings(sub_a, sub_b, sub_pairs)
            rank = int(np.linalg.matrix_rank(_design_matrix(settings.joint_kets(), 4))) if len(kept) else 0
            designs[key] = settings, rank
        settings, rank = designs[key]
        if rank < 16:
            raise ValueError(
                f"only {len(kept)} settings (rank {rank}) remain on subspace "
                f"({a.lo},{a.hi})x({b.lo},{b.hi}); 16 independent settings are needed"
            )
        records.append(TomographyRecord(*timing, settings, record.counts[kept], record.seed))
    return records


def sector_estimates(
    record: TomographyRecord, pairs: Sequence[tuple[IndexPair, IndexPair]]
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked per-sector MLE states and weights of a qudit record.

    The weight estimate is the total sector frequency / (Tr S / 4), for the
    frame S = sum_j |v_j><v_j| of the sector's m kept settings (Tr S = m).
    It is exact where S is a multiple of I, as on the 36 settings of a
    pairwise or qubit36 sector (S = 9 I), each listed once or all as often;
    elsewhere it is an average-case estimate, exact for a block proportional
    to I. A sector whose weight is below WEIGHT_FLOOR, one without counts
    among them, is not fitted and its state stays zero:
    witness.sector_table scores it 0 in every column.
    """
    states = np.zeros((len(pairs), 4, 4), dtype=complex)
    weights = np.zeros(len(pairs))
    for i, sub_record in enumerate(sector_records(record, pairs)):
        weights[i] = frequencies(sub_record).sum() * 4 / len(sub_record.settings)
        if weights[i] >= WEIGHT_FLOOR:
            states[i] = reconstruct_mle(sub_record).matrix
    return states, weights


# --- measurement budget -----------------------------------------------------


def budget(d: int, integration_time_s: float = 10.0) -> Budget:
    """Measurement counts and times: 36 K subspace settings vs (2d^2-d)^2 full QST.

    36 K (1008 at d = 8) counts each basis-basis setting once per sector that
    shares it; the K sectors hold 32 K + d^2 distinct settings (960 at d = 8).
    """
    k = count_subspaces(d)  # refuses d < 2
    _check_positive("integration_time_s", integration_time_s)
    pconc, qst = 36 * k, (2 * d * d - d) ** 2
    time_s = float(integration_time_s)
    if not math.isfinite(qst * time_s):
        raise ValueError(f"integration_time_s = {time_s!r} overflows the total time of {qst} settings")
    return Budget(d, k, pconc, qst, pconc * time_s, qst * time_s)


# --- record file format -----------------------------------------------------


def record_to_dict(record: TomographyRecord) -> dict:
    """The record file's object: the settings' arm tables, as {ket, label} entries, and index pairs, as they are."""
    table = record.settings
    arms = {arm: [{"ket": ket, "label": label} for ket, label in zip(complex_pairs(kets), labels.tolist())]
            for arm, kets, labels in (("a", table.kets_a, table.labels_a), ("b", table.kets_b, table.labels_b))}
    return {
        "dimA": record.dim_a,
        "dimB": record.dim_b,
        "rate_hz": float(record.rate_hz),
        "integration_time_s": float(record.integration_time_s),
        "seed": record.seed,
        "arms": arms,
        "settings": table.pairs.tolist(),
        "counts": [int(c) if c.is_integer() else c for c in record.counts.tolist()],  # Poisson draws are integral
    }


def _json_number(value) -> float:
    """A JSON number as a float; a string or a boolean, which float() would take, is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError
    return float(value)


def _json_counts(value) -> np.ndarray:
    """The counts as floats; a boolean or string entry, which numpy would convert, is refused."""
    if isinstance(value, list) and any(issubclass(t, (bool, str)) for t in set(map(type, value))):
        raise TypeError
    return np.array(value, dtype=float)


def _arm_table(entries, arm: str, n: int, n_name: str) -> tuple[np.ndarray, np.ndarray]:
    """An arm's kets (k, n), each of n entries and unit norm, and their k labels."""
    if not isinstance(entries, list):
        raise ValueError(f"field 'arms.{arm}' must be a list of {{ket, label}} objects")
    for i, e in enumerate(entries):
        if not (isinstance(e, dict) and "ket" in e):
            raise ValueError(f"arms.{arm}[{i}] must be an object with a 'ket'")
        if not isinstance(e.get("label"), str):
            raise ValueError(f"arms.{arm}[{i}].label must be a string")
    kets = [parse_complex_list(e["ket"], f"arms.{arm}[{i}].ket", n, n_name) for i, e in enumerate(entries)]
    kets = np.array(kets, dtype=complex).reshape(-1, n)
    bad = np.flatnonzero(_off_norm(kets))
    if len(bad):
        raise ValueError(f"arms.{arm}[{bad[0]}].ket is not normalized")
    return kets, np.array([e["label"] for e in entries], dtype=object)


def _index_pairs(value, ka: int, kb: int) -> np.ndarray:
    """The settings' [ia, ib] pairs as an (m, 2) array; an error names the first that is not two JSON integers in range."""
    if not isinstance(value, list):
        raise ValueError("field 'settings' must be a list of [ia, ib] index pairs")
    if set(map(type, value)) <= {list} and set(map(len, value)) <= {2}:
        flat = list(itertools.chain.from_iterable(value))
        if set(map(type, flat)) <= {int}:  # no bools, floats or strings
            pairs = np.array(flat).reshape(-1, 2)  # int64 unless an entry needs more bits
            if pairs.dtype.kind == "i" and (pairs >= 0).all() and (pairs < [ka, kb]).all():
                return pairs.astype(np.intp, copy=False)
    for i, p in enumerate(value):  # name the first bad pair
        if not (type(p) is list and len(p) == 2 and type(p[0]) is int and type(p[1]) is int
                and 0 <= p[0] < ka and 0 <= p[1] < kb):
            raise ValueError(f"settings[{i}] must be [ia, ib] with 0 <= ia < {ka} and 0 <= ib < {kb}, got {p!r:.60}")
    return np.array(value, dtype=np.intp).reshape(-1, 2)


def record_from_dict(obj: dict) -> TomographyRecord:
    """A record from the object of its file: arm tables of {ket, label} entries and [ia, ib] index pairs."""
    if not isinstance(obj, dict):
        raise ValueError(f"a record must be a JSON object, got a {type(obj).__name__}")
    arms = require_field(obj, "arms")
    if not isinstance(arms, dict):
        raise ValueError("field 'arms' must be an object with arm lists 'a' and 'b'")
    kets_a, labels_a = _arm_table(arms.get("a"), "a", parse_dim(obj, "dimA"), "dimA")
    kets_b, labels_b = _arm_table(arms.get("b"), "b", parse_dim(obj, "dimB"), "dimB")
    pairs = _index_pairs(require_field(obj, "settings"), len(kets_a), len(kets_b))
    return TomographyRecord(
        rate_hz=parse_field(obj, "rate_hz", _json_number),
        integration_time_s=parse_field(obj, "integration_time_s", _json_number),
        settings=Settings(kets_a, kets_b, pairs, labels_a, labels_b),
        counts=parse_field(obj, "counts", _json_counts),
        seed=obj.get("seed"),
    )


def save_record(path: str | Path, record: TomographyRecord) -> None:
    """Write json.dumps(record_to_dict(record)) and a newline."""
    Path(path).write_text(json.dumps(record_to_dict(record)) + "\n", encoding="utf-8")


def load_record(path: str | Path) -> TomographyRecord:
    return record_from_dict(read_json(path))
