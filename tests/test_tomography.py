import itertools
import json
import math
import warnings
from dataclasses import asdict, replace

import hypothesis
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import noiseless_record, white_noise_spdc
from pconcurrence.measures import psd_factor, uhlmann_fidelity, wootters_concurrence
from pconcurrence import tomography
from pconcurrence.states import (
    BipartiteKet,
    DensityMatrix,
    IndexPair,
    SpdcParams,
    density_from_ket,
    make_max_entangled,
    make_spdc_qudit,
    make_spdc_qutrit,
    validate_density,
)
from pconcurrence.tomography import (
    Settings,
    TomographyRecord,
    arm_kets,
    born_probabilities,
    budget,
    family_settings,
    frequencies,
    joint_settings,
    record_from_dict,
    record_to_dict,
    reconstruct_linear,
    reconstruct_mle,
    save_record,
    sector_estimates,
    sector_records,
    simulate_counts,
)
from pconcurrence.witness import identity_pairing, sector_pairs, sector_states

BELL = make_max_entangled(2)
QUTRIT = make_max_entangled(3)


def bell_settings():
    return family_settings("pairwise", 2, 2)


def qutrit_settings():
    return family_settings("pairwise", 3, 3)


def take(settings, index):
    """The settings index of a settings table, in that order."""
    return Settings(settings.kets_a, settings.kets_b, settings.pairs[index], settings.labels_a, settings.labels_b)


def row_pairs(m):
    """Index pairs [j, j], j < m: setting j measures row j of both tables."""
    return np.repeat(np.arange(m), 2).reshape(m, 2)


def per_setting(settings):
    """Setting by setting, read through pairs: (arm-A kets, arm-B kets, arm-A labels, arm-B labels), each (m, ...)."""
    ia, ib = settings.pairs.T
    return settings.kets_a[ia], settings.kets_b[ib], settings.labels_a[ia], settings.labels_b[ib]


def random_density(d, rank, seed, d_b=None):
    d_b = d if d_b is None else d_b
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d * d_b, rank)) + 1j * rng.normal(size=(d * d_b, rank))
    m = g @ g.conj().T
    return validate_density(m / np.trace(m).real, (d, d_b))


def setting_sets():
    """(name, d, settings): pairwise d = 2..5, MUB d = 2, 3, 5 and the qubit36 set."""
    for d in (2, 3, 4, 5):
        yield f"pairwise{d}", d, family_settings("pairwise", d, d)
    for d in (2, 3, 5):
        yield f"mub{d}", d, family_settings("mub", d, d)
    yield "qubit36", 2, bell_settings()


def test_qubit_setting_kets():
    kets, labels = arm_kets("pairwise", 2)
    assert kets.shape == (6, 2)
    assert np.allclose(kets[0], [1, 0])
    assert np.allclose(kets[1], [0, 1])
    assert np.allclose(kets[2], np.array([1, 1]) / math.sqrt(2))  # theta = 0
    assert np.allclose(kets[3], np.array([1, 1j]) / math.sqrt(2))  # theta = pi/2
    assert np.allclose(kets[4], np.array([1, -1]) / math.sqrt(2))  # theta = pi
    assert np.allclose(kets[5], np.array([1, -1j]) / math.sqrt(2))  # theta = 3pi/2
    assert labels == ["basis:0", "basis:1"] + [f"sup:0+1:theta={deg}" for deg in (0, 90, 180, 270)]
    assert len(bell_settings()) == 36


def test_pairwise_counts():
    for d in range(2, 9):
        kets, labels = arm_kets("pairwise", d)
        assert kets.shape == (2 * d * d - d, d) and len(labels) == len(kets)
    assert len(family_settings("pairwise", 8, 8)) == 14400
    assert len(qutrit_settings()) == 225
    labels = arm_kets("pairwise", 3)[1]
    assert labels[:4] == ["basis:0", "basis:1", "basis:2", "sup:0+1:theta=0"]
    assert labels[-1] == "sup:1+2:theta=270"
    with pytest.raises(ValueError, match=r"^d must be >= 2, got 1$"):
        arm_kets("pairwise", 1)


def test_mub_qubit():
    kets, labels = arm_kets("mub", 2)
    assert kets.shape == (6, 2)  # 3 bases of 2 kets
    # the diagonal and circular bases are the pairwise superpositions at 0, 180 and 90, 270 degrees
    assert kets.tobytes() == arm_kets("pairwise", 2)[0][[0, 1, 2, 4, 3, 5]].tobytes()
    assert labels == ["mub0:0", "mub0:1", "mub1:0", "mub1:1", "mub2:0", "mub2:1"]


def test_unknown_family_is_refused():
    with pytest.raises(ValueError, match="unknown settings family 'sic'"):
        family_settings("sic", 3, 3)


def test_mub_unbiasedness():
    for d in (2, 3, 5, 7):
        kets, labels = arm_kets("mub", d)
        assert kets.shape == ((d + 1) * d, d) and len(labels) == len(kets)
        bases = [kets[i * d : (i + 1) * d] for i in range(d + 1)]
        for bi, bj in itertools.combinations_with_replacement(range(d + 1), 2):
            for i, u in enumerate(bases[bi]):
                for k, v in enumerate(bases[bj]):
                    ov = abs(np.vdot(u, v)) ** 2
                    if bi == bj:
                        assert abs(ov - (1.0 if i == k else 0.0)) < 1e-10
                    else:
                        assert abs(ov - 1.0 / d) < 1e-10


def test_mub_rejects_non_prime():
    for d in (1, 4, 6, 8, 9):
        with pytest.raises(ValueError, match=rf"^d must be prime, got {d}$"):
            arm_kets("mub", d)


def test_mub_joint_setting_count():
    assert len(family_settings("mub", 3, 3)) == 144
    assert len(family_settings("mub", 3, 5)) == 12 * 30


def test_born_probabilities_bell_cases():
    rho = density_from_ket(BELL)
    ket0 = np.array([1, 0], dtype=complex)
    ket1 = np.array([0, 1], dtype=complex)
    p = born_probabilities(rho, joint_settings([ket0], [ket0, ket1]))
    assert abs(p[0] - 0.5) < 1e-12
    assert p[1] < 1e-12


def test_born_probabilities_mub_conjugate_pairs():
    rho = density_from_ket(QUTRIT)
    kets = arm_kets("mub", 3)[0]
    p = born_probabilities(rho, Settings(kets, kets.conj(), row_pairs(12)))
    assert len(p) == 12
    assert np.abs(p - 1 / 3).max() < 1e-12


def test_born_sums_to_one_over_mub_basis_pair():
    rho = density_from_ket(make_spdc_qutrit(SpdcParams(0.4, 0.9)))
    kets = arm_kets("mub", 3)[0]
    for b in range(4):
        basis = kets[b * 3 : (b + 1) * 3]
        total = born_probabilities(rho, joint_settings(basis, basis)).sum()
        assert abs(total - 1.0) < 1e-9


def test_simulate_zero_probability_gives_zero_counts():
    rho = density_from_ket(BELL)
    ket0 = np.array([1, 0], dtype=complex)
    ket1 = np.array([0, 1], dtype=complex)
    settings = Settings([ket0], [ket1], np.zeros((50, 2), dtype=int))
    record = simulate_counts(rho, settings, 1e6, 1.0, seed=5)
    assert record.counts.max() == 0.0


def test_simulate_poisson_mean():
    # sample mean over many draws stays within 3 sigma of the expectation
    rho = density_from_ket(BELL)
    settings = take(bell_settings(), [0] * 1000)
    p = born_probabilities(rho, take(settings, [0]))[0]
    record = simulate_counts(rho, settings, rate_hz=1e4, integration_time_s=1.0, seed=11)
    mean = 1e4 * p
    sigma = math.sqrt(mean / 1000)
    assert abs(record.counts.mean() - mean) < 3 * sigma


def test_simulate_deterministic_per_seed():
    rho = density_from_ket(BELL)
    settings = bell_settings()
    r1 = simulate_counts(rho, settings, 1e3, 10.0, seed=42)
    r2 = simulate_counts(rho, settings, 1e3, 10.0, seed=42)
    r3 = simulate_counts(rho, settings, 1e3, 10.0, seed=43)
    assert np.array_equal(r1.counts, r2.counts)
    assert not np.array_equal(r1.counts, r3.counts)


def test_simulate_streams_split_per_setting_index():
    # the draw at index i depends on (seed, i) only, not on later settings
    rho = density_from_ket(BELL)
    settings = bell_settings()
    full = simulate_counts(rho, settings, 1e3, 10.0, seed=4)
    head = simulate_counts(rho, take(settings, slice(10)), 1e3, 10.0, seed=4)
    assert np.array_equal(full.counts[:10], head.counts)


def test_simulated_means_and_counts_match_per_setting_kron_vdot():
    # bit-equal to the per-setting evaluation vdot(kron(a, b), rho kron(a, b)) clipped into [0, 1],
    # and to one Poisson stream per (seed, setting index); pairwise8 is a large record of 14 400 settings
    for name, d, settings in [*setting_sets(), ("pairwise8", 8, family_settings("pairwise", 8, 8))]:
        for rho in (random_density(d, 2, d), density_from_ket(make_spdc_qudit(d, 1.5))):
            probs = []
            for a, b in zip(*per_setting(settings)[:2]):
                v = np.kron(a, b)
                probs.append(min(1.0, max(0.0, float(np.vdot(v, rho.matrix @ v).real))))
            means = np.array([1e3 * 10.0 * p for p in probs])
            exact = noiseless_record(rho, settings, 1e3, 10.0)
            assert exact.counts.tobytes() == means.tobytes(), name
            drawn = simulate_counts(rho, settings, 1e3, 10.0, seed=17)
            streams = [np.random.SeedSequence(entropy=17, spawn_key=(i,)) for i in range(len(means))]
            counts = np.array([float(np.random.default_rng(st).poisson(mu)) for st, mu in zip(streams, means)])
            assert drawn.counts.tobytes() == counts.tobytes(), name
            for j in (0, len(settings) // 2, len(settings) - 1):
                assert born_probabilities(rho, take(settings, [j]))[0] == probs[j]


def numpy_stream_state(base, i):
    """The PCG64 state of default_rng(SeedSequence(entropy=base, spawn_key=(i,))), seeded by numpy itself."""
    return np.random.PCG64(np.random.SeedSequence(entropy=base, spawn_key=(i,))).state


@pytest.mark.parametrize("base", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 - 1, 2**200 + 3, None])
def test_bulk_stream_seeding_matches_numpy(base):
    # None stands for the seed=None path, whose base is fresh 128-bit OS entropy
    base = np.random.SeedSequence().entropy if base is None else base
    index = np.array([0, 1, 2**31, 2**32 - 1])
    assert tomography._stream_states(base, index) == [numpy_stream_state(base, i) for i in index.tolist()]


@hypothesis.settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**256), st.lists(st.integers(0, 2**32 - 1), max_size=20))
def test_bulk_stream_seeding_matches_numpy_for_any_base_and_indices(base, index):
    states = tomography._stream_states(base, np.array(index, dtype=np.intp))
    assert states == [numpy_stream_state(base, i) for i in index]


def test_born_probabilities_check_dimension_and_range():
    ket = np.array([1, 0], dtype=complex)
    with pytest.raises(ValueError, match=r"settings of dims \(2, 2\) do not match the state's dims \(3, 3\)"):
        born_probabilities(density_from_ket(QUTRIT), Settings([ket], [ket], [[0, 0]]))
    # equal total dimension, arms swapped
    two_by_four = density_from_ket(BipartiteKet(2, 4, np.eye(8)[0]))
    with pytest.raises(ValueError, match=r"settings of dims \(4, 2\) do not match the state's dims \(2, 4\)"):
        born_probabilities(two_by_four, Settings([np.eye(4)[0]], [ket], [[0, 0]]))
    rho = density_from_ket(BELL)
    object.__setattr__(rho, "matrix", 3 * rho.matrix)  # past the DensityMatrix gate
    with pytest.raises(ValueError, match="outside"):
        born_probabilities(rho, Settings([ket], [ket], [[0, 0]]))


def test_simulate_refuses_a_table_without_settings():
    kets = arm_kets("mub", 3)[0][3:6]  # one Fourier basis
    settings = Settings(kets, kets, np.zeros((0, 2), dtype=int))
    assert settings.joint_kets().shape == (0, 9)
    with pytest.raises(ValueError, match="^a record needs at least one setting$"):
        simulate_counts(density_from_ket(QUTRIT), settings, 1e3, 1.0, seed=0)


def test_simulate_rejects_bad_rate():
    with pytest.raises(ValueError):
        simulate_counts(density_from_ket(BELL), bell_settings(), 0.0, 10.0)


@pytest.mark.parametrize("rate_hz, time_s", [(1e300, 1e300), (1e200, 1e200)])
def test_simulate_refuses_a_non_finite_count_scale(rate_hz, time_s):
    settings = bell_settings()
    message = r"^rate_hz \* integration_time_s = inf is not finite$"
    with pytest.raises(ValueError, match=message):
        simulate_counts(density_from_ket(BELL), settings, rate_hz, time_s)
    with pytest.raises(ValueError, match=message):
        TomographyRecord(rate_hz, time_s, settings, np.zeros(len(settings)))


def test_simulate_refuses_a_count_scale_that_underflows():
    settings = bell_settings()
    message = r"^rate_hz \* integration_time_s = 0\.0 underflows to zero$"
    with pytest.raises(ValueError, match=message):
        simulate_counts(density_from_ket(BELL), settings, 1e-300, 1e-300)
    with pytest.raises(ValueError, match=message):
        TomographyRecord(1e-300, 1e-300, settings, np.zeros(len(settings)))


@pytest.mark.parametrize(
    "rate_hz, message",
    [
        (1e300, r"^rate_hz \* integration_time_s = inf is not finite$"),
        (1e-300, r"^rate_hz \* integration_time_s = 0\.0 underflows to zero$"),
        (1e-160, r"^rate_hz \* integration_time_s = 1e-320 is too small for the count 7$"),
    ],
)
def test_record_refuses_a_count_scale_whose_frequencies_are_not_finite(rate_hz, message):
    settings = bell_settings()
    with pytest.raises(ValueError, match=message):
        TomographyRecord(rate_hz, rate_hz, settings, np.full(len(settings), 7.0))
    # no count, no frequency to overflow
    assert frequencies(TomographyRecord(1e-160, 1e-160, settings, np.zeros(len(settings)))).max() == 0.0


def test_simulate_refuses_a_poisson_mean_numpy_cannot_draw():
    # the Bell state's largest Born probability is 1/2; numpy draws means up to ~9.22e18
    rho, settings = density_from_ket(BELL), bell_settings()
    assert simulate_counts(rho, settings, 1.8e19, 1.0, seed=0).counts.max() > 8e18
    message = r"^rate_hz \* integration_time_s = 1e\+20 gives a Poisson mean of [\d.]+e\+19, above numpy's largest 9\.22"
    with pytest.raises(ValueError, match=message):
        simulate_counts(rho, settings, 1e10, 1e10, seed=0)
    # exact means need no draw
    assert noiseless_record(rho, settings, 1e10, 1e10).counts.max() == pytest.approx(5e19)


def test_reconstruct_linear_noiseless_bell():
    record = noiseless_record(BELL, bell_settings())
    rho = reconstruct_linear(record)
    assert uhlmann_fidelity(rho, density_from_ket(BELL)) >= 0.9999


def test_reconstruct_linear_uniform_counts_give_maximally_mixed():
    settings = bell_settings()
    counts = np.full(36, 2500.0)
    record = TomographyRecord(1e4, 1.0, settings, counts)
    rho = reconstruct_linear(record)
    assert np.abs(rho.matrix - np.eye(4) / 4).max() < 1e-6


def test_reconstruct_linear_design_rank():
    from pconcurrence.tomography import _design_matrix

    design = _design_matrix(bell_settings().joint_kets(), 4)
    assert np.linalg.matrix_rank(design) == 16


def hermitian_basis(n):
    """The n^2 basis matrices of _design_matrix, written out literally."""
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


def test_design_matrix_matches_basis_definition():
    # columnwise fast path agrees with the literal <v|G|v> evaluation
    from pconcurrence.tomography import _design_matrix

    V = bell_settings().joint_kets()[:7]
    fast = _design_matrix(V, 4)
    slow = np.array([[(v.conj() @ g @ v).real for g in hermitian_basis(4)] for v in V])
    assert np.abs(fast - slow).max() < 1e-12


def test_hermitian_coefficients_scatter_matches_basis_sum():
    # the entrywise scatter equals the explicit basis sum bit for bit, signed zeros included
    from pconcurrence.tomography import _hermitian_from_coefficients

    rng = np.random.default_rng(5)
    for n in (1, 2, 4, 9):
        coeff = rng.normal(size=n * n) * rng.choice([1.0, 0.0, -0.0], size=n * n)
        explicit = sum(c * g for c, g in zip(coeff, hermitian_basis(n)))
        assert _hermitian_from_coefficients(coeff, n).tobytes() == explicit.tobytes()
    # complex coefficients, stacked on leading axes
    coeff = rng.normal(size=(2, 3, 16)) + 1j * rng.normal(size=(2, 3, 16))
    explicit = np.tensordot(coeff, np.array(hermitian_basis(4)), 1)
    assert np.abs(_hermitian_from_coefficients(coeff, 4) - explicit).max() < 1e-15


def test_joint_kets_match_kron():
    # joint_settings is arm-A major, and row j of joint_kets is kron(a, b) of setting j, bit for bit
    (kets_a, labels_a), (kets_b, labels_b) = arm_kets("pairwise", 3), arm_kets("mub", 3)
    settings = joint_settings(kets_a, kets_b, labels_a, labels_b)
    product = list(itertools.product(kets_a, kets_b))
    assert settings.joint_kets().tobytes() == np.array([np.kron(a, b) for a, b in product]).tobytes()
    labels = list(itertools.product(labels_a, labels_b))
    assert list(zip(*per_setting(settings)[2:])) == labels


def test_reconstruct_linear_rejects_rank_deficient():
    ket0 = np.array([1, 0], dtype=complex)
    ket1 = np.array([0, 1], dtype=complex)
    basis_only = joint_settings([ket0, ket1], [ket0, ket1])
    # a grid (per-arm solve), and the same settings with one repeated (joint solve)
    for settings in (basis_only, take(basis_only, [0, 1, 2, 3, 0])):
        record = TomographyRecord(1e4, 1.0, settings, np.full(len(settings), 2500.0))
        with pytest.raises(ValueError, match="rank-deficient: design rank 4 < 16"):
            reconstruct_linear(record)


def literal_design(settings):
    """The (m, n^2) joint design <v_j|G_k|v_j> of the literal basis, and that basis."""
    n = settings.kets_a.shape[1] * settings.kets_b.shape[1]
    basis = np.array(hermitian_basis(n))
    V = settings.joint_kets()
    outer = (V.conj()[:, :, None] * V[:, None, :]).reshape(len(V), n * n)  # conj(v_i) v_l
    return (outer @ basis.reshape(n * n, n * n).T).real, basis


def nearest_state(m):
    """The unit-trace PSD matrix nearest to Hermitian m in Frobenius norm.

    Every eigenvalue moves by one shift t and is cut at zero. With the
    eigenvalues sorted descending, t = (1 - u_1 - ... - u_k) / k for the
    largest k whose u_k + t stays positive.
    """
    w, v = np.linalg.eigh(m)
    u = np.sort(w)[::-1]
    for k in range(len(u), 0, -1):
        shift = (1.0 - u[:k].sum()) / k
        if u[k - 1] + shift > 0:
            break
    return (v * np.maximum(w + shift, 0.0)) @ v.conj().T


def joint_least_squares(design, basis, freq):
    """The joint fit: lstsq on the whole design, then the nearest state."""
    coeff, _, rank, _ = np.linalg.lstsq(design, freq, rcond=None)
    assert rank == len(basis)
    return nearest_state(np.tensordot(coeff, basis, 1))


def test_reconstruct_linear_matches_the_joint_solve():
    # grid records take the per-arm solve, the others the joint one; every result equals the joint fit
    arms32 = family_settings("pairwise", 3, 2)
    for name, dims, settings in [*((n, (d, d), s) for n, d, s in setting_sets()), ("pairwise3x2", (3, 2), arms32)]:
        rho = random_density(dims[0], 2, len(settings), d_b=dims[1])
        design, basis = literal_design(settings)
        m = len(settings)
        rng = np.random.default_rng(m)
        orders = {
            "grid": np.arange(m),
            "shuffled": rng.permutation(m),
            "dropped": np.delete(np.arange(m), m // 3),
            "repeated": np.append(np.arange(m), m // 2),
            "replaced": np.where(np.arange(m) == m // 3, m // 2, np.arange(m)),  # m rows, not a grid
        }
        noiseless, drawn = noiseless_record(rho, settings, 1e3, 1.0), simulate_counts(rho, settings, 1e3, 1.0, seed=3)
        for kind, full in (("noiseless", noiseless), ("drawn", drawn)):
            for order, rows in orders.items():
                record = replace(full, settings=take(settings, rows), counts=full.counts[rows])
                expected = joint_least_squares(design[rows], basis, frequencies(record))
                got = reconstruct_linear(record).matrix
                assert np.abs(got - expected).max() < 1e-12, (name, order, kind)


def test_reconstruct_linear_solves_a_grid_per_arm(monkeypatch):
    # lstsq sees the joint design only for a record that is not a grid
    shapes = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda a, b, rcond: shapes.append(a.shape) or lstsq(a, b, rcond=rcond))
    record = noiseless_record(QUTRIT, take(qutrit_settings(), np.random.default_rng(0).permutation(225)))
    reconstruct_linear(record)
    assert shapes == [(15, 9), (15, 9)]
    shapes.clear()
    reconstruct_linear(replace(record, settings=take(record.settings, slice(1, None)), counts=record.counts[1:]))
    assert shapes == [(224, 81), (1, 1)]


def test_reconstruct_linear_round_trip_at_d8():
    # 14 400 settings, whose joint design would take 472 MB
    state = make_spdc_qudit(8, 1.5)
    record = noiseless_record(state, family_settings("pairwise", 8, 8))
    assert uhlmann_fidelity(reconstruct_linear(record), density_from_ket(state)) >= 0.9999


def test_reconstruct_linear_ends_in_the_nearest_state_of_noisy_records():
    # 0.98 separates the nearest state (0.990-0.993) from clipping and renormalizing (0.927-0.952)
    for d in (4, 5):
        settings = family_settings("pairwise", d, d)
        for seed, decay in enumerate((2.5, 2.75, 3.0)):
            rho = density_from_ket(make_spdc_qudit(d, decay))
            record = simulate_counts(rho, settings, 1000.0, 10.0, seed=seed)
            assert uhlmann_fidelity(reconstruct_linear(record), rho) >= 0.98, (d, decay)


def test_reconstruct_mle_noiseless_bell():
    record = noiseless_record(BELL, bell_settings())
    rho, history = reconstruct_mle(record, return_history=True)
    assert uhlmann_fidelity(rho, density_from_ket(BELL)) >= 0.9999
    assert all(history[i + 1] >= history[i] - 1e-9 for i in range(len(history) - 1))


def test_reconstruct_mle_noiseless_qutrit():
    record = noiseless_record(QUTRIT, qutrit_settings())
    rho = reconstruct_mle(record)
    assert uhlmann_fidelity(rho, density_from_ket(QUTRIT)) >= 0.9999


def test_reconstruct_methods_agree_noiseless():
    record = noiseless_record(make_spdc_qutrit(SpdcParams(0.6, 0.3)), qutrit_settings())
    lin = reconstruct_linear(record)
    mle = reconstruct_mle(record)
    assert uhlmann_fidelity(lin, mle) >= 0.9999


def test_reconstruct_mle_valid_under_noise():
    rho_true = density_from_ket(QUTRIT)
    record = simulate_counts(rho_true, qutrit_settings(), 100.0, 1.0, seed=3)
    rho = reconstruct_mle(record)  # validate_density inside would raise on bad output
    assert abs(np.trace(rho.matrix).real - 1.0) < 1e-9
    assert np.linalg.eigvalsh(rho.matrix)[0] > -1e-9


def kron_block_newton_step(like, rho, p):
    """The Newton candidate of _newton_step, its real Hessian assembled from np.kron and np.block blocks.

    The parameters are (Re A, Im A) stacked, not interleaved; the step halves
    until it loses no likelihood.
    """
    A = psd_factor(rho)
    n, r = A.shape
    W = like.kets @ A.conj()
    c, q, N = like.counts, (np.abs(W) ** 2).sum(axis=1), like.total
    M = (like.kets[:, :, None] * W.conj()[:, None, :]).reshape(len(q), n * r)
    J = 2 * np.concatenate([M.real, M.imag], axis=1)
    x = np.concatenate([A.real.ravel(), A.imag.ravel()])
    norm2 = x @ x
    grad = J.T @ (c / q) - 2 * N * x / norm2
    K = np.kron((like.kets.T * (c / q)) @ like.kets.conj(), np.eye(r))
    hess = -(J.T * (c / q**2)) @ J + 2 * np.block([[K.real, -K.imag], [K.imag, K.real]])
    hess -= N * (2 * np.eye(len(x)) / norm2 - 4 * np.outer(x, x) / norm2**2)
    w, Q = np.linalg.eigh(hess)
    dx = Q @ ((Q.T @ grad) / np.maximum(np.abs(w), 1e-6 * np.abs(w).max()))
    dA = (dx[: n * r] + 1j * dx[n * r :]).reshape(n, r)
    for _halving in range(60):
        cand = (A + dA) @ (A + dA).conj().T
        cand /= np.trace(cand).real
        if like.gain(rho, p, cand)[0] >= 0:
            break
        dA /= 2
    return cand


def test_newton_step_matches_the_kron_block_hessian():
    # Far from the maximum, where the two halve alike, at factor ranks 1, 2 and full.
    record = simulate_counts(density_from_ket(make_spdc_qudit(3, 1.5)), qutrit_settings(), 1000.0, 10.0, seed=0)
    sub = sector_records(record, [(IndexPair(0, 1), IndexPair(0, 1))])[0]
    for rec in (record, sub):
        like = tomography._Likelihood(rec)
        n = rec.dim_a * rec.dim_b
        for rank in (1, 2, n):
            rho = random_density(rec.dim_a, rank, seed=rank).matrix
            p = like.probabilities(rho)
            step = tomography._newton_step(like, rho, p)[0]
            assert np.abs(step - kron_block_newton_step(like, rho, p)).max() <= 1e-9


def test_reconstruct_mle_nonconvergence_warns(monkeypatch):
    record = noiseless_record(BELL, bell_settings())
    monkeypatch.setattr(tomography, "MAX_ITER", 5)
    monkeypatch.setattr(tomography, "TOL", 0.0)
    with pytest.warns(RuntimeWarning, match="did not converge in 5 iterations"):
        reconstruct_mle(record)


def likelihood_certificate(record, rho):
    """N (lambda_max(R) - 1), an upper bound on ll* - ll(rho) for any solver.

    ll is concave, so ll(sigma) <= ll(rho) + N Tr(R (sigma - rho)) with
    R = sum_j c_j / (N p_j) |v_j><v_j| and Tr(R rho) = 1; the maximum over
    density matrices sigma of Tr(R sigma) is lambda_max(R).
    """
    seen = record.counts > 0
    kets = np.array([np.kron(a, b) for a, b, k in zip(*per_setting(record.settings)[:2], seen) if k])
    counts = record.counts[seen]
    total = counts.sum()
    p = np.einsum("ji,ik,jk->j", kets.conj(), rho.matrix, kets).real
    R = (kets.T * (counts / p)) @ kets.conj() / total
    return total * (np.linalg.eigvalsh(R)[-1] - 1.0)


# Decay bands per counting time: near-uniform states at 1 and 10 s, and far
# from uniform at 1000 s, where the fits end on rank-deficient maxima.
MLE_DECAYS = {1.0: (5.5, 6.5), 10.0: (5.5, 6.5), 100.0: (3.5, 4.5), 1000.0: (0.75, 0.85)}


def qutrit_records():
    settings = family_settings("pairwise", 3, 3)
    for time_s, (lo, hi) in MLE_DECAYS.items():
        for seed, decay in enumerate((lo, (lo + hi) / 2, hi)):
            rho = density_from_ket(make_spdc_qudit(3, decay))
            yield simulate_counts(rho, settings, 1000.0, time_s, seed=seed)


def ququart_sector_records():
    settings = family_settings("pairwise", 4, 4)
    for seed, decay in enumerate((2.5, 2.75, 3.0)):
        record = simulate_counts(density_from_ket(make_spdc_qudit(4, decay)), settings, 1000.0, 10.0, seed=seed)
        for sub in sector_records(record, sector_pairs(4)):
            if sub.counts.sum() > 0:
                yield sub


def white_noise_record(d, decay, visibility, time_s, seed):
    """A pairwise record at 1 kHz of visibility x an spdc state + (1 - visibility) x white noise."""
    rho, _ = white_noise_spdc(d, decay, visibility)
    return simulate_counts(rho, family_settings("pairwise", d, d), 1000.0, time_s, seed=seed)


def near_pure_records():
    # Eigenvalues near 1e-4 beside a dominant one: the hardest full fits, hundreds of iterations.
    for seed in (0, 1):
        yield white_noise_record(3, 0.64, 0.999, 1000.0, seed)


def noisy_ququart_records():
    # Full rank: 16 x 16 fits whose Newton factor has 512 real parameters.
    for seed in (0, 1):
        yield white_noise_record(4, 1.5, 0.9, 10.0, seed)


@pytest.mark.parametrize("records", [qutrit_records, ququart_sector_records, near_pure_records, noisy_ququart_records])
def test_mle_reaches_the_maximum(records):
    for record in records():
        rho, history = reconstruct_mle(record, return_history=True)
        assert len(history) - 1 <= 500
        assert all(history[i + 1] >= history[i] - 1e-9 for i in range(len(history) - 1))
        assert likelihood_certificate(record, rho) <= 1e-3


def no_newton_record():
    # Full rank at d = 3: with the cap at 16 real parameters no factor of a
    # 9 x 9 state gets a Newton step, as no full-rank one does at d >= 5.
    return white_noise_record(3, 1.5, 0.9, 10.0, 0)


def test_polish_without_newton_steps_is_monotone(monkeypatch):
    monkeypatch.setattr(tomography, "NEWTON_MAX_PARAMS", 16)
    newton, steps = tomography._newton_step, []
    monkeypatch.setattr(tomography, "_newton_step", lambda *args: steps.append(newton(*args)) or steps[-1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, history = reconstruct_mle(no_newton_record(), return_history=True)
    assert steps and all(step is None for step in steps)
    assert all(history[i + 1] >= history[i] - 1e-9 for i in range(len(history) - 1))


@pytest.mark.xfail(strict=True, reason="without Newton steps the polish stops short: certificate ~0.021 after 105 iterations")
def test_polish_without_newton_steps_reaches_the_maximum(monkeypatch):
    monkeypatch.setattr(tomography, "NEWTON_MAX_PARAMS", 16)
    record = no_newton_record()
    assert likelihood_certificate(record, reconstruct_mle(record)) <= 1e-3


def test_sector_fits_have_no_slow_tail(monkeypatch):
    # The known-pairing sectors of near-uniform d = 5 records, as in the
    # record benchmark. Most fits take under 10 iterations; a few end in
    # the slow regime where first-order gains stay near 1e-3 per step, and
    # a solver that only crawls there takes up to 100. The likelihood
    # evaluations of every trial step count too: a polish that also takes
    # momentum and R rho R steps, or halves a Newton step whose first-order
    # gain is already below TOL, makes ~1700 over these 40 fits. So do the
    # eigenvalue projections of the gradient trials: a step length that
    # doubles after every iteration, whatever the last trial's curvature,
    # fails its first trial most of the time and makes ~815.
    gain, gains = tomography._Likelihood.gain, 0
    project, projections = tomography._nearest_density, 0

    def counted_gain(*args):
        nonlocal gains
        gains += 1
        return gain(*args)

    def counted_projection(m):
        nonlocal projections
        projections += 1
        return project(m)

    monkeypatch.setattr(tomography._Likelihood, "gain", counted_gain)
    monkeypatch.setattr(tomography, "_nearest_density", counted_projection)
    settings = family_settings("pairwise", 5, 5)
    for seed, decay in enumerate(np.linspace(8.0, 12.0, 4)):
        record = simulate_counts(density_from_ket(make_spdc_qudit(5, decay)), settings, 1000.0, 10.0, seed=seed)
        for sub in sector_records(record, identity_pairing(5)):
            rho, history = reconstruct_mle(sub, return_history=True)
            assert len(history) - 1 <= 30
            assert all(history[i + 1] >= history[i] - 1e-9 for i in range(len(history) - 1))
            assert likelihood_certificate(sub, rho) <= 1e-3
    assert gains <= 1400
    assert projections <= 760


def test_sector_records_counts_and_shape():
    record = noiseless_record(QUTRIT, qutrit_settings())
    pairs = list(itertools.product([IndexPair(0, 1), IndexPair(0, 2), IndexPair(1, 2)], repeat=2))
    for sub in sector_records(record, pairs):
        assert len(sub.settings) == 36
        assert (sub.dim_a, sub.dim_b) == (2, 2)
    # counts pass through unmodified: sum of a subspace extraction is a subset sum
    sub = sector_records(record, [(IndexPair(0, 1), IndexPair(0, 1))])[0]
    all_counts = set(np.round(record.counts, 6))
    assert set(np.round(sub.counts, 6)) <= all_counts


def test_extract_round_trip_concurrence():
    record = noiseless_record(QUTRIT, qutrit_settings())
    for pair in (IndexPair(0, 1), IndexPair(0, 2), IndexPair(1, 2)):
        sub = sector_records(record, [(pair, pair)])[0]
        rho2 = reconstruct_mle(sub)
        assert abs(wootters_concurrence(rho2) - 1.0) < 1e-4


def test_extract_commutes_with_projection():
    ket = make_spdc_qutrit(SpdcParams(0.7, 0.4))
    record = noiseless_record(ket, qutrit_settings())
    rho_full = density_from_ket(ket)
    for pair in (IndexPair(0, 1), IndexPair(1, 2)):
        sub_record = sector_records(record, [(pair, pair)])[0]
        rho2 = reconstruct_mle(sub_record)
        expected = DensityMatrix(2, 2, sector_states(rho_full.matrix, (3, 3), [(pair, pair)])[0][0])
        assert uhlmann_fidelity(rho2, expected) >= 0.999


def per_setting_sector(record, a, b):
    """The sector filter written one setting at a time: (kets A, kets B, counts)."""

    def restrict(ket, pair):
        weight = np.abs(ket) ** 2
        inside = weight[pair.lo] + weight[pair.hi]
        if weight.sum() - inside > 1e-12:
            return None
        return np.array([ket[pair.lo], ket[pair.hi]]) / math.sqrt(inside)

    kept = []
    kets_a, kets_b, _, _ = per_setting(record.settings)
    for ket_a, ket_b, count in zip(kets_a, kets_b, record.counts):
        sub_a, sub_b = restrict(ket_a, a), restrict(ket_b, b)
        if sub_a is not None and sub_b is not None:
            kept.append((sub_a, sub_b, count))
    return tuple(np.array(column) for column in zip(*kept))


def mixed_record():
    """d = 3 settings in shuffled order, many of them outside every sector."""
    rng = np.random.default_rng(8)
    leaks = []
    for outside in (1e-7, 1e-5):  # |amplitude|^2 outside ~1e-14 (kept) and ~1e-10 (dropped)
        for lo, hi in itertools.combinations(range(3), 2):
            v = np.full(3, outside, dtype=complex)
            v[[lo, hi]] = rng.normal(size=2) + 1j * rng.normal(size=2)
            leaks.append(v / np.linalg.norm(v))
    kets = np.concatenate([arm_kets("pairwise", 3)[0], arm_kets("mub", 3)[0][3:], leaks])
    labels = [f"k{i}" for i in range(len(kets))]
    settings = joint_settings(kets, kets, labels, labels)
    settings = take(settings, rng.permutation(len(settings)))
    return TomographyRecord(1e3, 1.0, settings, rng.integers(0, 50, len(settings)).astype(float), seed=8)


def test_sector_records_match_the_per_setting_filter():
    records = [mixed_record()]
    for d in (3, 4):
        rho = density_from_ket(make_spdc_qudit(d, 1.5))
        settings = family_settings("pairwise", d, d)
        records += [simulate_counts(rho, settings, 1e3, 10.0, seed=d), noiseless_record(rho, settings, 1e3, 10.0)]
    for record in records:
        pairs = sector_pairs(record.dim_a)
        for (a, b), sub in zip(pairs, sector_records(record, pairs), strict=True):
            kets_a, kets_b, counts = per_setting_sector(record, a, b)
            assert (sub.dim_a, sub.dim_b, sub.seed) == (2, 2, record.seed)
            sub_kets_a, sub_kets_b, _, _ = per_setting(sub.settings)
            assert sub_kets_a.tobytes() == kets_a.tobytes()
            assert sub_kets_b.tobytes() == kets_b.tobytes()
            assert sub.counts.tobytes() == counts.tobytes()
            assert sector_records(record, [(a, b)])[0].counts.tobytes() == counts.tobytes()
    # every pair gains a seventh arm ket, the one that leaks ~1e-14 of its weight
    assert [len(sub.settings) for sub in sector_records(records[0], sector_pairs(3))] == [49] * 9


def test_sector_records_share_one_settings_per_restricted_table():
    # Sectors share one Settings object exactly when their restricted arm
    # tables and index pairs are byte-equal: all K^2 sectors of a pairwise
    # record do, while the mixed record restricts differently on every sector.
    for d in range(3, 9):
        record = TomographyRecord(1e3, 1.0, family_settings("pairwise", d, d), np.ones((2 * d * d - d) ** 2))
        assert len({id(sub.settings) for sub in sector_records(record, sector_pairs(d))}) == 1
    tables = [sub.settings for sub in sector_records(mixed_record(), sector_pairs(3))]
    for s, t in itertools.product(tables, repeat=2):
        assert (s is t) == all(getattr(s, f).tobytes() == getattr(t, f).tobytes() for f in ("kets_a", "kets_b", "pairs"))
    assert len({id(table) for table in tables}) == 9


def test_extract_insufficient_settings():
    # a record holding only basis settings cannot support a subspace fit
    kets = [np.eye(3, dtype=complex)[i] for i in range(3)]
    record = TomographyRecord(1e3, 1.0, joint_settings(kets, kets), np.full(9, 100.0))
    with pytest.raises(ValueError, match="independent settings"):
        sector_records(record, [(IndexPair(0, 1), IndexPair(0, 1))])


def test_sector_records_refuse_a_pair_beyond_the_dims():
    with pytest.raises(ValueError, match=r"^pair indices \(0,3\)x\(0,1\) exceed dims \(3, 3\)$"):
        sector_records(noiseless_record(QUTRIT, qutrit_settings()), [(IndexPair(0, 3), IndexPair(0, 1))])


def test_budget_reproduces_reference_point():
    b = budget(8, 10.0)
    assert b.pconc_measurements == 1008
    assert b.qst_measurements == 14400
    assert abs(b.pconc_time_s / 3600 - 2.8) < 1e-12
    assert abs(b.qst_time_s / 3600 - 40.0) < 1e-12
    assert b.k == 28


def test_budget_small_dims():
    b2 = budget(2)
    assert (b2.pconc_measurements, b2.qst_measurements) == (36, 36)
    b3 = budget(3)
    assert (b3.pconc_measurements, b3.qst_measurements) == (108, 225)
    with pytest.raises(ValueError):
        budget(1)


def test_budget_order_of_magnitude_reduction():
    b = budget(8)
    ratio = b.qst_measurements / b.pconc_measurements
    assert abs(ratio - 14400 / 1008) < 1e-12
    assert 10 < ratio < 15


def test_budget_json_fields():
    obj = asdict(budget(8, 10.0))
    assert obj == {
        "d": 8,
        "k": 28,
        "pconc_measurements": 1008,
        "qst_measurements": 14400,
        "pconc_time_s": 10080.0,
        "qst_time_s": 144000.0,
    }


def test_record_json_round_trip():
    rho = density_from_ket(BELL)
    record = simulate_counts(rho, bell_settings(), 1e3, 10.0, seed=7)
    obj = json.loads(json.dumps(record_to_dict(record)))
    assert set(obj) == {"dimA", "dimB", "rate_hz", "integration_time_s", "seed", "arms", "settings", "counts"}
    assert all(isinstance(c, int) for c in obj["counts"])
    back = record_from_dict(obj)
    assert np.array_equal(back.counts, record.counts)
    assert back.seed == 7
    (back_a, back_b, back_labels, _), (kets_a, kets_b, labels, _) = per_setting(back.settings), per_setting(record.settings)
    assert np.abs(back_a - kets_a).max() < 1e-15
    assert np.abs(back_b - kets_b).max() < 1e-15
    assert list(back_labels) == list(labels)


def test_save_record_writes_the_json_dump(tmp_path):
    for name, d, settings in setting_sets():
        rho = random_density(d, 2, d)
        drawn = simulate_counts(rho, settings, 1e3, 10.0, seed=3)
        for record in (drawn, noiseless_record(rho, settings, 1e3, 10.0),
                       record_from_dict(json.loads(json.dumps(record_to_dict(drawn))))):
            path = tmp_path / f"{name}.json"
            save_record(path, record)
            assert path.read_bytes() == (json.dumps(record_to_dict(record)) + "\n").encode(), name


def test_record_arm_entries_keep_labels_and_signed_zeros(tmp_path):
    # Arm tables are kept as given: a repeated (ket, label) entry, one ket under
    # two labels, one that differs from it only in the sign of a zero, and an
    # unused entry all round-trip byte for byte through the record file.
    e0, e1 = np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)
    e0_signed = np.array([1, complex(-0.0, 0.0)])
    kets_a = np.array([e1, e0, e0_signed, e0, e0, e1])
    labels_a = ["V", "H", "H", "x", "H", "Z"]  # entry 5 is used by no setting
    pairs = np.array([[4, 1], [2, 1], [3, 0], [0, 0], [1, 0]])
    settings = Settings(kets_a, np.array([e1, e0, e0]), pairs, labels_a, ["H", "H", "H"])
    record = TomographyRecord(1e3, 1.0, settings, np.array([1, 2, 3, 4, 5.5]), seed=2)
    obj = record_to_dict(record)
    assert [entry["label"] for entry in obj["arms"]["a"]] == labels_a
    assert len(obj["arms"]["b"]) == 3
    assert obj["settings"] == pairs.tolist()
    path = tmp_path / "record.json"
    save_record(path, record)
    back = tomography.load_record(path)
    for arm in "ab":
        assert getattr(back.settings, f"kets_{arm}").tobytes() == getattr(settings, f"kets_{arm}").tobytes()
        assert list(getattr(back.settings, f"labels_{arm}")) == list(getattr(settings, f"labels_{arm}"))
    assert back.settings.pairs.tolist() == pairs.tolist()
    assert back.counts.tobytes() == record.counts.tobytes()
    assert (back.rate_hz, back.integration_time_s, back.seed) == (1e3, 1.0, 2)
    save_record(tmp_path / "again.json", back)
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()



def test_per_row_and_arm_table_settings_are_the_same_settings():
    # Repeated (ket, label) rows, one ket under two labels and one that differs
    # only in the sign of a zero, written one row per setting and as shuffled
    # arm tables with a duplicate and an unused entry. Both are kept as given,
    # and setting by setting they measure the same kets under the same labels.
    e0, e1 = np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)
    e0_signed = np.array([1, complex(-0.0, 0.0)])
    rows_a, rows_b = np.array([e0, e0_signed, e0, e1, e0]), np.array([e0, e0, e1, e1, e1])
    per_row = Settings(rows_a, rows_b, row_pairs(5), ["H", "H", "x", "V", "H"], ["H"] * 5)
    table_a, table_b = np.array([e1, e0, e0_signed, e0, e0, e1]), np.array([e1, e0])
    pairs = np.array([[4, 1], [2, 1], [3, 0], [0, 0], [1, 0]])
    tables = Settings(table_a, table_b, pairs, ["V", "H", "H", "x", "H", "Z"], ["H", "H"])
    assert per_row.kets_a.tobytes() == rows_a.tobytes() and per_row.kets_b.tobytes() == rows_b.tobytes()
    assert tables.kets_a.tobytes() == table_a.tobytes() and tables.kets_b.tobytes() == table_b.tobytes()
    assert list(tables.labels_a) == ["V", "H", "H", "x", "H", "Z"] and tables.pairs.tolist() == pairs.tolist()
    kets_a, kets_b, labels_a, labels_b = per_setting(tables)
    assert kets_a.tobytes() == rows_a.tobytes() and kets_b.tobytes() == rows_b.tobytes()
    assert list(labels_a) == list(per_row.labels_a) and list(labels_b) == list(per_row.labels_b)
    assert tables.joint_kets().tobytes() == per_row.joint_kets().tobytes()
    assert per_row.joint_kets().tobytes() == np.array([np.kron(a, b) for a, b in zip(rows_a, rows_b)]).tobytes()

def test_sector_records_restrict_the_arm_tables():
    record = TomographyRecord(1e3, 1.0, family_settings("pairwise", 8, 8), np.ones(14400))
    assert (len(record.settings.kets_a), len(record.settings.kets_b)) == (120, 120)
    for sub in sector_records(record, identity_pairing(8)):
        assert (len(sub.settings.kets_a), len(sub.settings.kets_b), len(sub.settings)) == (6, 6, 36)
        assert sorted(map(tuple, sub.settings.pairs.tolist())) == list(itertools.product(range(6), repeat=2))


def test_sector_records_name_the_one_deficient_sector():
    # Without the settings that measure a superposition of |1> and |2> on both
    # arms, sector (1,2)x(1,2) alone loses settings: it keeps 20, of rank 12,
    # on the same restricted arm tables as the 35 sectors that keep all 36.
    settings = family_settings("pairwise", 4, 4)
    sup12 = np.array([label.startswith("sup:1+2:") for label in settings.labels_a])  # both arms hold this table
    kept = np.flatnonzero(~(sup12[settings.pairs[:, 0]] & sup12[settings.pairs[:, 1]]))
    assert len(kept) == len(settings) - 16
    record = TomographyRecord(1e3, 1.0, take(settings, kept), np.ones(len(kept)))
    pairs = sector_pairs(4)
    deficient = pairs.index((IndexPair(1, 2), IndexPair(1, 2)))
    others = sector_records(record, pairs[:deficient] + pairs[deficient + 1 :])
    assert [len(sub.settings) for sub in others] == [36] * 35
    with pytest.raises(ValueError, match=r"^only 20 settings \(rank 12\) remain on subspace \(1,2\)x\(1,2\); 16 independent"):
        sector_records(record, pairs)


def test_sector_weights_scale_with_each_sector_own_settings():
    # A d = 3 pairwise record that lists every setting twice, with counts from
    # two seeds, doubles both a sector's total frequency and its setting count,
    # so each weight keeps the scale of the record listed once.
    rho, _ = white_noise_spdc(3, 1.5, 0.9)
    settings, pairs = qutrit_settings(), identity_pairing(3)
    once, again = (simulate_counts(rho, settings, 1e3, 10.0, seed=seed) for seed in (0, 1))
    twice = TomographyRecord(1e3, 10.0, take(settings, np.tile(np.arange(len(settings)), 2)),
                             np.concatenate([once.counts, again.counts]))
    weights_once, weights_twice = sector_estimates(once, pairs)[1], sector_estimates(twice, pairs)[1]
    assert (weights_twice <= 1.0).all()
    assert np.abs(weights_twice - weights_once).max() <= 0.02
    # On the 36 settings of a pairwise sector, x * 4 / 36 and x / 9 round the same real number.
    for d in (3, 4, 5):
        record = simulate_counts(white_noise_spdc(d, 1.5, 0.9)[0], family_settings("pairwise", d, d), 1e3, 10.0, seed=d)
        pairs = identity_pairing(d)
        weights = sector_estimates(record, pairs)[1]
        assert weights.tolist() == [frequencies(sub).sum() / 9 for sub in sector_records(record, pairs)]


def test_settings_refuse_index_pairs_outside_the_tables():
    kets = np.eye(2, dtype=complex)
    for pairs, message in (
        ([[0, 0], [0, -1], [2, 0]], r"settings\[1\] = \[0, -1\] is outside arm tables of 2 and 2 kets"),
        ([[0, 0], [1, 1], [2, 0]], r"settings\[2\] = \[2, 0\] is outside arm tables of 2 and 2 kets"),
        ([[-2, 5]], r"settings\[0\] = \[-2, 5\] is outside"),
    ):
        with pytest.raises(ValueError, match=message):
            Settings(kets, kets, pairs=np.array(pairs))
    with pytest.raises(TypeError, match="Cannot cast"):  # a float index is not truncated
        Settings(kets, kets, pairs=np.array([[0.5, 0.0]]))
    with pytest.raises(ValueError, match="one row each"):
        Settings(kets, kets, np.array([[0, 0]]), ["x"] * 3)
    with pytest.raises(ValueError, match=r"pairs must be an \(m, 2\) array of index pairs, got shape \(3,\)"):
        Settings(kets, kets, np.array([0, 1, 1]))
    # the first setting that uses a bad ket is named, arm a before arm b
    bad = np.array([[1, 0], [2, 0]], dtype=complex)
    with pytest.raises(ValueError, match=r"settings\[1\].b is not normalized"):
        Settings(bad, bad, pairs=np.array([[0, 0], [0, 1], [1, 0]]))
    with pytest.raises(ValueError, match=r"settings\[0\].a is not normalized"):
        Settings(bad, bad, pairs=np.array([[1, 1]]))
    # a bad ket that no setting uses is kept, so it is refused by its row
    with pytest.raises(ValueError, match=r"^kets_b\[1\] is not normalized; no setting uses it$"):
        Settings(kets, bad, pairs=np.array([[0, 0], [1, 0]]))


def test_record_validation():
    settings = bell_settings()
    with pytest.raises(ValueError, match="counts"):
        TomographyRecord(1e3, 10.0, settings, np.zeros(5))
    with pytest.raises(ValueError, match="at least one setting"):
        TomographyRecord(1e3, 10.0, Settings(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 2), dtype=int)), np.zeros(0))
    with pytest.raises(ValueError, match="nonnegative"):
        TomographyRecord(1e3, 10.0, settings, np.full(36, -1.0))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            TomographyRecord(1e3, 10.0, settings, np.where(np.arange(36) == 4, bad, 1.0))
    for seed in (-1, True, 1.5, "1", [1, "x"]):
        with pytest.raises(ValueError, match="seed must be an integer >= 0 or null"):
            TomographyRecord(1e3, 10.0, settings, np.ones(36), seed=seed)
    obj = record_to_dict(TomographyRecord(1e3, 10.0, settings, np.ones(36)))
    with pytest.raises(ValueError, match=r"arms.a\[0\].ket has 2 entries, expected dimA = 3"):
        record_from_dict({**obj, "dimA": 3})
    with pytest.raises(ValueError, match=r"settings\[0\].a is not normalized"):
        Settings(np.array([[np.nan, 0.0]]), np.array([[1.0, 0.0]]), [[0, 0]])
    # the first unnormalized row is named, arm a before arm b
    kets = np.eye(2)[[0, 1, 0, 1]]
    with pytest.raises(ValueError, match=r"settings\[2\].b is not normalized"):
        Settings(kets, kets * [[1], [1], [1], [2]] + [[0], [0], [1e-9], [0]], row_pairs(4))
    with pytest.raises(ValueError, match="one row each"):
        Settings(kets[0], kets, [[0, 0]])
    with pytest.raises(ValueError, match="one row each"):
        Settings(kets, kets, row_pairs(4), ["x"] * 3)
