"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import noiseless_record
from pconcurrence.measures import (
    eof_pure,
    i_concurrence,
    normalize_measure,
    uhlmann_fidelity,
    wootters_concurrence,
)
from pconcurrence.states import (
    BipartiteKet,
    DensityMatrix,
    SpdcParams,
    density_from_ket,
    make_max_entangled,
    make_spdc_qutrit,
    validate_density,
)
from pconcurrence.tomography import (
    budget,
    family_settings,
    reconstruct_linear,
    reconstruct_mle,
    sector_records,
    simulate_counts,
)
from pconcurrence.witness import (
    IndexPair,
    count_subspaces,
    enumerate_pairs,
    identity_pairing,
    pconcurrence_known,
    pconcurrence_search,
    sector_states,
)


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number} ({description}): FAIL")
        raise
    print(f"criterion {number} ({description}): PASS [{time.perf_counter() - start:.1f}s]")


def qutrit_density(alpha, beta):
    return density_from_ket(make_spdc_qutrit(SpdcParams(alpha, beta)))


def closed_form_product(alpha, beta):
    if alpha == 0.0 and beta == 0.0:
        return 0.0
    c1 = 2 * alpha / (1 + alpha**2)
    c2 = 2 * beta / (1 + beta**2)
    c3 = 2 * alpha * beta / (alpha**2 + beta**2)
    return c1 * c2 * c3


def random_ket(rng, d):
    amp = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
    return BipartiteKet(d, d, amp / np.linalg.norm(amp))


def qutrit_settings():
    return family_settings("pairwise", 3, 3)


def test_criterion_1_witness_values_on_state_family():
    with criterion(1, "witness values on the parametric qutrit family"):
        start = time.perf_counter()
        p11 = pconcurrence_known(qutrit_density(1.0, 1.0), identity_pairing(3)).pconcurrence
        assert abs(p11 - 1.0) < 1e-9

        for alpha, beta in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.0), (0.0, 0.25)]:
            p = pconcurrence_known(qutrit_density(alpha, beta), identity_pairing(3)).pconcurrence
            assert p <= 1e-12

        p55 = pconcurrence_known(qutrit_density(0.5, 0.5), identity_pairing(3)).pconcurrence
        assert abs(p55 - 0.64) < 1e-9
        assert abs(p55 - closed_form_product(0.5, 0.5)) < 1e-9

        # the closed forms themselves validated against the eigenvalue route
        rng = np.random.default_rng(1)
        for _ in range(25):
            alpha, beta = rng.uniform(0.05, 1.0, size=2)
            report = pconcurrence_known(qutrit_density(alpha, beta), identity_pairing(3))
            assert abs(report.pconcurrence - closed_form_product(alpha, beta)) < 1e-9
        assert time.perf_counter() - start < 1.0


def test_criterion_2_table_product_consistency():
    with criterion(2, "per-sector values 0.92/0.93/0.93 multiply to the 0.80 footer"):
        product = 0.92 * 0.93 * 0.93
        assert abs(product - 0.7957) < 5e-5
        assert abs(product - 0.80) <= 0.01
        assert f"{product:.2f}" == "0.80"


def test_criterion_3_budget_reproduction():
    with criterion(3, "measurement budget at d = 8"):
        b = budget(8, 10.0)
        assert b.pconc_measurements == 1008
        assert b.qst_measurements == 14400
        assert b.pconc_time_s == 10080.0 and b.pconc_time_s / 3600 == 2.8
        assert b.qst_time_s == 144000.0 and b.qst_time_s / 3600 == 40.0


def test_criterion_4_surface_and_path():
    with criterion(4, "measure surfaces on a 50x50 grid and the beta = 1 path"):
        start = time.perf_counter()
        grid_n = 50
        pairing = identity_pairing(3)
        for i in range(grid_n + 1):
            for j in range(grid_n + 1):
                alpha, beta = i / grid_n, j / grid_n
                ket = make_spdc_qutrit(SpdcParams(alpha, beta))
                p = pconcurrence_known(density_from_ket(ket), pairing).pconcurrence
                e = normalize_measure(eof_pure(ket), "eof", 3)
                c = normalize_measure(i_concurrence(ket), "i_concurrence", 3)
                if alpha == 0.0 or beta == 0.0:
                    assert p <= 1e-12
                if alpha == 0.0 and beta == 0.0:
                    assert e < 1e-10 and c < 1e-10
                else:
                    assert e > 0.0 and c > 0.0
                if alpha == 1.0 and beta == 1.0:
                    assert abs(p - 1.0) < 1e-9
                    assert abs(e - 1.0) < 1e-9
                    assert abs(c - 1.0) < 1e-9

        ket0 = make_spdc_qutrit(SpdcParams(0.0, 1.0))
        p0 = pconcurrence_known(density_from_ket(ket0), pairing).pconcurrence
        e0 = normalize_measure(eof_pure(ket0), "eof", 3)
        c0 = normalize_measure(i_concurrence(ket0), "i_concurrence", 3)
        assert p0 <= 1e-12
        assert abs(e0 - 0.6309) < 1e-4
        assert abs(c0 - 0.8660) < 1e-4

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0


def test_criterion_5_pairing_search_correctness(enumerated_search):
    with criterion(5, "assignment search equals brute force; permutation invariant"):
        start = time.perf_counter()
        rng = np.random.default_rng(5)
        for d in (3, 4):
            pairs = enumerate_pairs(d)
            for n in range(50):
                if n % 2:  # full-rank mixed
                    g = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
                    rho = validate_density(g @ g.conj().T / np.linalg.norm(g) ** 2, (d, d))
                else:
                    rho = density_from_ket(random_ket(rng, d))
                perm, product = enumerated_search(rho)
                found = pconcurrence_search(rho)
                assert abs(found.pconcurrence - product) < 1e-9
                if product > 0:
                    expected = tuple((pairs[i], pairs[j]) for i, j in enumerate(perm))
                    assert found.pairing_used == expected

        for _ in range(10):
            rho = density_from_ket(random_ket(rng, 3))
            base = pconcurrence_search(rho).pconcurrence
            pa = np.eye(3)[rng.permutation(3)]
            pb = np.eye(3)[rng.permutation(3)]
            u = np.kron(pa, pb)
            moved = validate_density(u @ rho.matrix @ u.conj().T, (3, 3))
            assert abs(pconcurrence_search(moved).pconcurrence - base) < 1e-8

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0


def test_criterion_6_noiseless_round_trips():
    with criterion(6, "noiseless tomography round trips"):
        bell = make_max_entangled(2)
        bell_settings = family_settings("pairwise", 2, 2)
        bell_truth = density_from_ket(bell)
        record = noiseless_record(bell_truth, bell_settings)
        assert len(record.settings) == 36
        for method in (reconstruct_linear, reconstruct_mle):
            assert uhlmann_fidelity(method(record), bell_truth) >= 0.9999

        qutrit = make_max_entangled(3)
        qutrit_truth = density_from_ket(qutrit)
        record3 = noiseless_record(qutrit_truth, qutrit_settings())
        assert len(record3.settings) == 225
        for method in (reconstruct_linear, reconstruct_mle):
            assert uhlmann_fidelity(method(record3), qutrit_truth) >= 0.9999

        pairs = enumerate_pairs(3)
        for pair, sub_record in zip(pairs, sector_records(record3, [(pair, pair) for pair in pairs]), strict=True):
            assert len(sub_record.settings) == 36
            rho2 = reconstruct_mle(sub_record)
            expected = DensityMatrix(2, 2, sector_states(qutrit_truth, [(pair, pair)])[0][0])
            assert uhlmann_fidelity(rho2, expected) >= 0.999


def test_criterion_7_noisy_reconstruction_band():
    with criterion(7, "Poisson-noise reconstruction lands near the ideal value"):
        start = time.perf_counter()
        truth = qutrit_density(1.0, 1.0)
        settings = qutrit_settings()
        pairing = identity_pairing(3)
        hits = 0
        for seed in range(20):
            record = simulate_counts(truth, settings, rate_hz=1000.0, integration_time_s=10.0, seed=seed)
            rho, history = reconstruct_mle(record, return_history=True)
            assert all(
                history[i + 1] >= history[i] - 1e-9 for i in range(len(history) - 1)
            ), f"log-likelihood decreased in trial {seed}"
            p = pconcurrence_known(rho, pairing).pconcurrence
            if abs(p - 1.0) <= 0.05:
                hits += 1
        assert hits >= 18, f"only {hits}/20 trials within the band"
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0


def test_criterion_8_measure_cross_validation():
    with criterion(8, "cross-validation of the two-qubit measures"):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            ket = random_ket(rng, 2)
            a, b, c, d = ket.amplitudes
            closed = 2 * abs(a * d - b * c)
            conc = wootters_concurrence(density_from_ket(ket))
            assert abs(conc - closed) < 1e-8
            assert abs(conc - i_concurrence(ket)) < 1e-8

        for da, db in [(2, 2), (3, 3), (2, 4)]:
            for _ in range(100):
                amp = rng.normal(size=da * db) + 1j * rng.normal(size=da * db)
                ket = BipartiteKet(da, db, amp / np.linalg.norm(amp))
                flipped = BipartiteKet(db, da, ket.amplitude_matrix().T.reshape(-1))
                assert abs(eof_pure(ket) - eof_pure(flipped)) < 1e-8
                assert abs(i_concurrence(ket) - i_concurrence(flipped)) < 1e-8

        for _ in range(100):
            ket = random_ket(rng, 2)
            rho = density_from_ket(ket)
            m1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            _, ua = np.linalg.eigh(m1 + m1.conj().T)
            _, ub = np.linalg.eigh(m2 + m2.conj().T)
            u = np.kron(ua, ub)
            rotated = validate_density(u @ rho.matrix @ u.conj().T, (2, 2))
            assert abs(wootters_concurrence(rotated) - wootters_concurrence(rho)) < 1e-8
            rotated_ket = BipartiteKet(2, 2, u @ ket.amplitudes)
            assert abs(eof_pure(rotated_ket) - eof_pure(ket)) < 1e-8
            assert abs(i_concurrence(rotated_ket) - i_concurrence(ket)) < 1e-8


def test_criterion_9_subspace_counts():
    with criterion(9, "subspace combinatorics"):
        assert count_subspaces(2) == 1
        assert count_subspaces(3) == 3
        assert count_subspaces(4) == 6
        assert count_subspaces(8) == 28
