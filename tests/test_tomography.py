import itertools
import json
import math

import numpy as np
import pytest

from pconcurrence.measures import uhlmann_fidelity, wootters_concurrence
from pconcurrence.states import (
    BipartiteKet,
    SpdcParams,
    density_from_ket,
    make_max_entangled,
    make_spdc_qudit,
    make_spdc_qutrit,
    validate_density,
)
from pconcurrence.tomography import (
    TomographyRecord,
    born_probability,
    budget,
    budget_to_dict,
    extract_sub_tomography,
    joint_settings,
    mub_kets,
    pairwise_ket_labels,
    pairwise_overcomplete_kets,
    qubit_setting_kets,
    record_from_dict,
    record_to_dict,
    reconstruct_linear,
    reconstruct_mle,
    simulate_counts,
)
from pconcurrence.witness import IndexPair, project_subspace, sector_pairs

BELL = make_max_entangled(2)
QUTRIT = make_max_entangled(3)


def bell_settings():
    kets = qubit_setting_kets()
    return joint_settings(kets, kets, pairwise_ket_labels(2), pairwise_ket_labels(2))


def qutrit_settings():
    kets = pairwise_overcomplete_kets(3)
    labels = pairwise_ket_labels(3)
    return joint_settings(kets, kets, labels, labels)


def noiseless_record(state, settings, scale=1e4):
    return simulate_counts(density_from_ket(state), settings, rate_hz=scale, integration_time_s=1.0, poisson=False)


def test_qubit_setting_kets():
    kets = qubit_setting_kets()
    assert len(kets) == 6
    assert np.allclose(kets[0], [1, 0])
    assert np.allclose(kets[1], [0, 1])
    assert np.allclose(kets[2], np.array([1, 1]) / math.sqrt(2))  # theta = 0
    assert np.allclose(kets[3], np.array([1, 1j]) / math.sqrt(2))  # theta = pi/2
    assert np.allclose(kets[4], np.array([1, -1]) / math.sqrt(2))  # theta = pi
    assert np.allclose(kets[5], np.array([1, -1j]) / math.sqrt(2))  # theta = 3pi/2
    assert len(bell_settings()) == 36


def test_pairwise_counts():
    assert len(pairwise_overcomplete_kets(3)) == 15
    assert len(pairwise_overcomplete_kets(8)) == 120
    assert len(pairwise_overcomplete_kets(8)) ** 2 == 14400
    assert len(qutrit_settings()) == 225
    for got, want in zip(pairwise_overcomplete_kets(2), qubit_setting_kets()):
        assert np.allclose(got, want)


def test_mub_qubit():
    kets = mub_kets(2)
    assert len(kets) == 6  # 3 bases of 2 kets


def test_mub_unbiasedness():
    for d in (2, 3, 5):
        kets = mub_kets(d)
        assert len(kets) == (d + 1) * d
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
    for d in (4, 6, 8, 9):
        with pytest.raises(ValueError, match="prime"):
            mub_kets(d)


def test_mub_joint_setting_count():
    kets = mub_kets(3)
    assert len(joint_settings(kets, kets)) == 144


def test_born_probability_bell_cases():
    rho = density_from_ket(BELL)
    ket0 = np.array([1, 0], dtype=complex)
    ket1 = np.array([0, 1], dtype=complex)
    from pconcurrence.tomography import ProjectorSetting

    assert abs(born_probability(rho, ProjectorSetting(ket0, ket0)) - 0.5) < 1e-12
    assert born_probability(rho, ProjectorSetting(ket0, ket1)) < 1e-12


def test_born_probability_mub_conjugate_pairs():
    rho = density_from_ket(QUTRIT)
    for ket in mub_kets(3):
        from pconcurrence.tomography import ProjectorSetting

        p = born_probability(rho, ProjectorSetting(ket, ket.conj()))
        assert abs(p - 1 / 3) < 1e-12


def test_born_sums_to_one_over_mub_basis_pair():
    rho = density_from_ket(make_spdc_qutrit(SpdcParams(0.4, 0.9)))
    kets = mub_kets(3)
    from pconcurrence.tomography import ProjectorSetting

    for b in range(4):
        basis = kets[b * 3 : (b + 1) * 3]
        total = sum(
            born_probability(rho, ProjectorSetting(ka, kb)) for ka in basis for kb in basis
        )
        assert abs(total - 1.0) < 1e-9


def test_simulate_zero_probability_gives_zero_counts():
    rho = density_from_ket(BELL)
    from pconcurrence.tomography import ProjectorSetting

    ket0 = np.array([1, 0], dtype=complex)
    ket1 = np.array([0, 1], dtype=complex)
    settings = [ProjectorSetting(ket0, ket1)] * 50
    record = simulate_counts(rho, settings, 1e6, 1.0, seed=5)
    assert record.counts.max() == 0.0


def test_simulate_poisson_mean():
    # sample mean over many draws stays within 3 sigma of the expectation
    rho = density_from_ket(BELL)
    settings = bell_settings()[:1] * 1000
    p = born_probability(rho, settings[0])
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
    head = simulate_counts(rho, settings[:10], 1e3, 10.0, seed=4)
    assert np.array_equal(full.counts[:10], head.counts)


def test_simulate_rejects_bad_rate():
    with pytest.raises(ValueError):
        simulate_counts(density_from_ket(BELL), bell_settings(), 0.0, 10.0)


def test_reconstruct_linear_noiseless_bell():
    record = noiseless_record(BELL, bell_settings())
    rho = reconstruct_linear(record)
    assert uhlmann_fidelity(rho, density_from_ket(BELL)) >= 0.9999


def test_reconstruct_linear_uniform_counts_give_maximally_mixed():
    settings = bell_settings()
    counts = np.full(36, 2500.0)
    record = TomographyRecord(2, 2, 1e4, 1.0, tuple(settings), counts)
    rho = reconstruct_linear(record)
    assert np.abs(rho.matrix - np.eye(4) / 4).max() < 1e-6


def test_reconstruct_linear_design_rank():
    from pconcurrence.tomography import _design_matrix, _joint_ket_stack

    design = _design_matrix(_joint_ket_stack(tuple(bell_settings())), 4)
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
    from pconcurrence.tomography import _design_matrix, _joint_ket_stack

    V = _joint_ket_stack(tuple(bell_settings()[:7]))
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


def test_joint_ket_stack_matches_kron():
    from pconcurrence.tomography import _joint_ket_stack

    settings = joint_settings(pairwise_overcomplete_kets(3), mub_kets(3))
    stack = _joint_ket_stack(settings)
    assert stack.tobytes() == np.array([np.kron(s.arm_a, s.arm_b) for s in settings]).tobytes()


def test_reconstruct_linear_rejects_rank_deficient():
    from pconcurrence.tomography import ProjectorSetting

    ket0 = np.array([1, 0], dtype=complex)
    ket1 = np.array([0, 1], dtype=complex)
    basis_only = [
        ProjectorSetting(a, b) for a in (ket0, ket1) for b in (ket0, ket1)
    ]
    record = TomographyRecord(2, 2, 1e4, 1.0, tuple(basis_only), np.full(4, 2500.0))
    with pytest.raises(ValueError, match="rank-deficient"):
        reconstruct_linear(record)


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


def test_reconstruct_mle_nonconvergence_warns():
    record = noiseless_record(BELL, bell_settings())
    with pytest.warns(RuntimeWarning, match="did not converge"):
        reconstruct_mle(record, tol=0.0, max_iter=5)


def likelihood_certificate(record, rho):
    """N (lambda_max(R) - 1), an upper bound on ll* - ll(rho) for any solver.

    ll is concave, so ll(sigma) <= ll(rho) + N Tr(R (sigma - rho)) with
    R = sum_j c_j / (N p_j) |v_j><v_j| and Tr(R rho) = 1; the maximum over
    density matrices sigma of Tr(R sigma) is lambda_max(R).
    """
    seen = record.counts > 0
    kets = np.array([np.kron(s.arm_a, s.arm_b) for s, k in zip(record.settings, seen) if k])
    counts = record.counts[seen]
    total = counts.sum()
    p = np.einsum("ji,ik,jk->j", kets.conj(), rho.matrix, kets).real
    R = (kets.T * (counts / p)) @ kets.conj() / total
    return total * (np.linalg.eigvalsh(R)[-1] - 1.0)


# Decay bands per counting time: near-uniform states at 1 and 10 s, and far
# from uniform at 1000 s, where the fits end on rank-deficient maxima.
MLE_DECAYS = {1.0: (5.5, 6.5), 10.0: (5.5, 6.5), 100.0: (3.5, 4.5), 1000.0: (0.75, 0.85)}


def qutrit_records():
    kets = pairwise_overcomplete_kets(3)
    settings = joint_settings(kets, kets)
    for time_s, (lo, hi) in MLE_DECAYS.items():
        for seed, decay in enumerate((lo, (lo + hi) / 2, hi)):
            rho = density_from_ket(make_spdc_qudit(3, decay))
            yield simulate_counts(rho, settings, 1000.0, time_s, seed=seed)


def ququart_sector_records():
    kets = pairwise_overcomplete_kets(4)
    settings = joint_settings(kets, kets)
    for seed, decay in enumerate((2.5, 2.75, 3.0)):
        record = simulate_counts(density_from_ket(make_spdc_qudit(4, decay)), settings, 1000.0, 10.0, seed=seed)
        for a, b in sector_pairs(4):
            sub = extract_sub_tomography(record, a, b)
            if sub.counts.sum() > 0:
                yield sub


@pytest.mark.parametrize("records", [qutrit_records, ququart_sector_records])
def test_mle_reaches_the_maximum(records):
    for record in records():
        rho, history = reconstruct_mle(record, return_history=True)
        assert len(history) - 1 <= 500
        assert all(history[i + 1] >= history[i] - 1e-9 for i in range(len(history) - 1))
        assert likelihood_certificate(record, rho) <= 1e-3


def test_extract_sub_tomography_counts_and_shape():
    record = noiseless_record(QUTRIT, qutrit_settings())
    for a, b in itertools.product([IndexPair(0, 1), IndexPair(0, 2), IndexPair(1, 2)], repeat=2):
        sub = extract_sub_tomography(record, a, b)
        assert len(sub.settings) == 36
        assert (sub.dim_a, sub.dim_b) == (2, 2)
    # counts pass through unmodified: sum of a subspace extraction is a subset sum
    sub = extract_sub_tomography(record, IndexPair(0, 1), IndexPair(0, 1))
    all_counts = set(np.round(record.counts, 6))
    assert set(np.round(sub.counts, 6)) <= all_counts


def test_extract_round_trip_concurrence():
    record = noiseless_record(QUTRIT, qutrit_settings())
    for pair in (IndexPair(0, 1), IndexPair(0, 2), IndexPair(1, 2)):
        sub = extract_sub_tomography(record, pair, pair)
        rho2 = reconstruct_mle(sub)
        assert abs(wootters_concurrence(rho2) - 1.0) < 1e-4


def test_extract_commutes_with_projection():
    ket = make_spdc_qutrit(SpdcParams(0.7, 0.4))
    record = noiseless_record(ket, qutrit_settings())
    rho_full = density_from_ket(ket)
    for pair in (IndexPair(0, 1), IndexPair(1, 2)):
        sub_record = extract_sub_tomography(record, pair, pair)
        rho2 = reconstruct_mle(sub_record)
        expected, _ = project_subspace(rho_full, pair, pair)
        assert uhlmann_fidelity(rho2, expected) >= 0.999


def test_extract_insufficient_settings():
    # a record holding only basis settings cannot support a subspace fit
    from pconcurrence.tomography import ProjectorSetting

    kets = [np.eye(3, dtype=complex)[i] for i in range(3)]
    settings = tuple(ProjectorSetting(a, b) for a in kets for b in kets)
    record = TomographyRecord(3, 3, 1e3, 1.0, settings, np.full(9, 100.0))
    with pytest.raises(ValueError, match="independent settings"):
        extract_sub_tomography(record, IndexPair(0, 1), IndexPair(0, 1))


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
    obj = budget_to_dict(budget(8, 10.0))
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
    assert set(obj) == {"dimA", "dimB", "rate_hz", "integration_time_s", "seed", "settings", "counts"}
    assert all(isinstance(c, int) for c in obj["counts"])
    back = record_from_dict(obj)
    assert np.array_equal(back.counts, record.counts)
    assert back.seed == 7
    for s1, s2 in zip(back.settings, record.settings):
        assert np.abs(s1.arm_a - s2.arm_a).max() < 1e-15
        assert np.abs(s1.arm_b - s2.arm_b).max() < 1e-15
        assert s1.label_a == s2.label_a


def test_record_validation():
    settings = tuple(bell_settings())
    with pytest.raises(ValueError, match="counts"):
        TomographyRecord(2, 2, 1e3, 10.0, settings, np.zeros(5))
    with pytest.raises(ValueError, match="nonnegative"):
        TomographyRecord(2, 2, 1e3, 10.0, settings, np.full(36, -1.0))
