import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pconcurrence.measures import (
    bell_fidelities,
    eof_of_reduced,
    eof_pure,
    i_concurrence,
    i_concurrence_of_reduced,
    purity,
    reduced_a_of_kets,
    spectra,
    uhlmann_fidelity,
    wootters_concurrence,
    wootters_concurrences,
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
from pconcurrence.witness import evaluate_measure, normalize_measure

BELL = make_max_entangled(2)


def random_ket(rng, da, db):
    amp = rng.normal(size=da * db) + 1j * rng.normal(size=da * db)
    return BipartiteKet(da, db, amp / np.linalg.norm(amp))


def random_local_unitary(rng, d):
    # eigenvectors of a random Hermitian matrix form a Haar-ish unitary
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    _, v = np.linalg.eigh(m + m.conj().T)
    return v


def werner(p):
    bell = density_from_ket(BELL).matrix
    return validate_density(p * bell + (1 - p) * np.eye(4) / 4, (2, 2))


def test_concurrence_bell_state():
    assert abs(wootters_concurrence(density_from_ket(BELL)) - 1.0) < 1e-12


def test_concurrence_product_state():
    amp = np.zeros(4, dtype=complex)
    amp[0] = 1.0
    assert wootters_concurrence(density_from_ket(BipartiteKet(2, 2, amp))) < 1e-12


def test_concurrence_pure_closed_form():
    # For a|00>+b|01>+c|10>+d|11> the concurrence is 2|ad - bc|.
    rng = np.random.default_rng(2)
    for _ in range(1000):
        ket = random_ket(rng, 2, 2)
        a, b, c, d = ket.amplitudes
        expected = 2 * abs(a * d - b * c)
        got = wootters_concurrence(density_from_ket(ket))
        assert abs(got - expected) < 1e-8


def test_concurrence_werner_closed_form():
    # Diagonalizing rho rho_tilde in the Bell basis gives C = max(0, (3p-1)/2).
    for p in (0.0, 1 / 3, 0.5, 1.0):
        expected = max(0.0, (3 * p - 1) / 2)
        assert abs(wootters_concurrence(werner(p)) - expected) < 1e-10


def test_concurrence_rejects_wrong_dims():
    rho = density_from_ket(make_max_entangled(3))
    with pytest.raises(ValueError):
        wootters_concurrence(rho)


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(3)
    for _ in range(100):
        ket = random_ket(rng, 2, 2)
        rho = density_from_ket(ket)
        u = np.kron(random_local_unitary(rng, 2), random_local_unitary(rng, 2))
        rotated = validate_density(u @ rho.matrix @ u.conj().T, (2, 2))
        assert abs(wootters_concurrence(rotated) - wootters_concurrence(rho)) < 1e-8


def test_i_concurrence_maximally_entangled_qutrit():
    ket = make_max_entangled(3)
    assert abs(i_concurrence(ket) - math.sqrt(4 / 3)) < 1e-12
    assert abs(normalize_measure(i_concurrence(ket), "i_concurrence", 3) - 1.0) < 1e-12


def test_i_concurrence_product_state():
    amp = np.zeros(9, dtype=complex)
    amp[0] = 1.0
    assert i_concurrence(BipartiteKet(3, 3, amp)) < 1e-12


def test_i_concurrence_matches_concurrence_for_two_qubits():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        ket = random_ket(rng, 2, 2)
        assert abs(i_concurrence(ket) - wootters_concurrence(density_from_ket(ket))) < 1e-8


def test_i_concurrence_rejects_mixed():
    rho = validate_density(np.eye(4, dtype=complex) / 4, (2, 2))
    with pytest.raises(ValueError, match="pure"):
        i_concurrence(rho)


def test_eof_maximally_entangled_qutrit():
    ket = make_max_entangled(3)
    assert abs(eof_pure(ket) - math.log2(3)) < 1e-12
    assert abs(normalize_measure(eof_pure(ket), "eof", 3) - 1.0) < 1e-12


def test_eof_embedded_bell():
    ket = make_spdc_qutrit(SpdcParams(1.0, 0.0))
    raw = eof_pure(ket)
    assert abs(raw - 1.0) < 1e-12
    assert abs(normalize_measure(raw, "eof", 3) - 0.6309297535714574) < 1e-10


def test_eof_product_state():
    ket = make_spdc_qutrit(SpdcParams(0.0, 0.0))
    assert eof_pure(ket) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_eof_of_random_product_kets_is_exactly_zero(d):
    # Their reduced states keep one eigenvalue above the 1e-12 cut, within
    # round-off of 1, whose entropy alone would read e.g. 8e-16.
    rng = np.random.default_rng(0)
    for _ in range(300):
        a, b = (rng.normal(size=d) + 1j * rng.normal(size=d) for _ in "ab")
        ket = BipartiteKet(d, d, np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b)))
        assert eof_pure(ket) == 0.0


def test_eof_keeps_a_schmidt_weight_below_1e_12():
    # Schmidt weights 1 / (1 + 1e-12) and 1e-12 / (1 + 1e-12): the second is
    # above the rank cut (1e-13 of the largest), so it enters the entropy.
    ket = make_spdc_qutrit(SpdcParams(0.0, 1e-6))
    weights = [1.0 / (1.0 + 1e-12), 1e-12 / (1.0 + 1e-12)]
    entropy = -sum(p * math.log2(p) for p in weights)
    assert abs(entropy - 4.1306e-11) < 1e-15
    assert abs(eof_pure(ket) - entropy) <= 1e-6 * entropy


def test_stack_kernels_equal_their_single_state_cases():
    # Mixed ranks and d up to 8 in one stack: the entropy sums run per rank
    # group, so every row equals its N = 1 value exactly.
    rng = np.random.default_rng(17)
    for d in (2, 3, 5, 8):
        kets = []
        for rank in [1, 2, d, *rng.integers(1, d + 1, 6)]:
            c = np.zeros((d, d), dtype=complex)
            c[:rank, :rank] = rng.normal(size=(rank, rank)) + 1j * rng.normal(size=(rank, rank))
            c[rank - 1, rank - 1] *= 10.0 ** -rng.integers(0, 7)
            kets.append(BipartiteKet(d, d, (c / np.linalg.norm(c)).ravel()))
        rho_a = reduced_a_of_kets(np.array([k.amplitudes for k in kets]), d)
        assert eof_of_reduced(rho_a).tolist() == [eof_pure(k) for k in kets]
        assert i_concurrence_of_reduced(rho_a).tolist() == [i_concurrence(k) for k in kets]


def test_pure_density_gives_its_ket_values():
    # A density passes the purity gate and reaches rho_A by a partial trace, not through its ket.
    rng = np.random.default_rng(41)
    for d in (2, 3, 5):
        ket = random_ket(rng, d, d)
        rho = density_from_ket(ket)
        assert abs(eof_pure(rho) - eof_pure(ket)) <= 1e-12
        assert abs(i_concurrence(rho) - i_concurrence(ket)) <= 1e-12


def test_eof_rejects_mixed():
    with pytest.raises(ValueError, match="pure"):
        eof_pure(werner(0.5))


def test_sides_agree():
    rng = np.random.default_rng(7)
    for da, db in [(2, 2), (3, 3), (2, 4), (4, 3)]:
        for _ in range(50):
            ket = random_ket(rng, da, db)
            flipped = BipartiteKet(db, da, ket.amplitude_matrix().T.reshape(-1))
            assert abs(eof_pure(ket) - eof_pure(flipped)) < 1e-8
            assert abs(i_concurrence(ket) - i_concurrence(flipped)) < 1e-8


def test_full_space_local_unitary_invariance():
    rng = np.random.default_rng(9)
    for _ in range(100):
        ket = random_ket(rng, 3, 3)
        u = np.kron(random_local_unitary(rng, 3), random_local_unitary(rng, 3))
        rotated = BipartiteKet(3, 3, u @ ket.amplitudes)
        assert abs(eof_pure(rotated) - eof_pure(ket)) < 1e-8
        assert abs(i_concurrence(rotated) - i_concurrence(ket)) < 1e-8


# amplitudes below ~1e-160 square to exact floating-point zero, so the
# physically meaningful nonzero range starts well above denormal territory
amplitude = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0))


@settings(max_examples=100, deadline=None)
@given(amplitude, amplitude)
def test_vanish_only_for_separable(alpha, beta):
    # EOF and I-concurrence are zero iff the reduced state is pure.
    ket = make_spdc_qutrit(SpdcParams(alpha, beta))
    e = eof_pure(ket)
    c = i_concurrence(ket)
    separable = alpha == 0.0 and beta == 0.0
    if separable:
        assert e < 1e-10 and c < 1e-10
    else:
        assert e > 0.0 and c > 0.0
    psi = ket.amplitude_matrix()
    rho_a = psi @ psi.conj().T
    tr2 = float(np.trace(rho_a @ rho_a).real)
    # S(rho_A) >= (1 - Tr rho_A^2) / ln 2, so a vanishing EOF forces a pure
    # reduced state. Conversely a purity gap delta leaves about delta / 2 of
    # weight off the largest Schmidt coefficient, so the EOF is below about
    # (delta / 2) * log2(4e / delta) < 2e-9 for delta < 1e-10. Equal 1e-10
    # thresholds do not hold: beta = 3.14e-6 gives 1 - Tr rho_A^2 = 2.0e-11
    # but an EOF of 3.8e-10.
    if e < 1e-10:
        assert abs(tr2 - 1.0) < 1e-10
    if abs(tr2 - 1.0) < 1e-10:
        assert e < 1e-8


def test_subspace_concurrence_monotone_along_beta_zero():
    # On the beta = 0 line the first sector concurrence is 2 alpha/(1+alpha^2).
    from pconcurrence.states import IndexPair
    from pconcurrence.witness import sector_states

    last = -1.0
    for alpha in np.linspace(0.02, 1.0, 25):
        rho = density_from_ket(make_spdc_qutrit(SpdcParams(alpha, 0.0)))
        sub = sector_states(rho.matrix, (3, 3), [(IndexPair(0, 1), IndexPair(0, 1))])[0]
        c = float(wootters_concurrences(sub)[0])
        assert abs(c - 2 * alpha / (1 + alpha**2)) < 1e-10
        assert c > last
        last = c


def test_normalize_measure_values():
    assert abs(normalize_measure(math.log2(3), "eof", 3) - 1.0) < 1e-12
    assert abs(normalize_measure(1.0, "eof", 3) - 0.6309297535714574) < 1e-10
    for name in ("concurrence", "i_concurrence", "eof", "pconcurrence"):
        assert normalize_measure(0.0, name, 4) == 0.0


def test_normalize_measure_overshoot():
    assert normalize_measure(1.0 + 5e-10, "concurrence", 2) == 1.0
    with pytest.raises(ValueError, match="overshoot"):
        normalize_measure(1.1, "concurrence", 2)
    with pytest.raises(ValueError):
        normalize_measure(1.0, "eof", 1)


def test_purity_values():
    assert abs(purity(density_from_ket(BELL)) - 1.0) < 1e-12
    assert abs(purity(validate_density(np.eye(4, dtype=complex) / 4, (2, 2))) - 0.25) < 1e-12
    assert abs(purity(werner(0.5)) - 0.4375) < 1e-12


def test_fidelity_to_ket_values():
    # Bell, I/4 and |00><00| against the Bell state, as one stack.
    states = np.stack([density_from_ket(BELL).matrix, np.eye(4) / 4, np.diag([1.0, 0.0, 0.0, 0.0])])
    assert bell_fidelities(states) == pytest.approx([1.0, 0.25, 0.5], abs=1e-12)


def test_uhlmann_self_fidelity():
    rho = werner(0.3)
    assert abs(uhlmann_fidelity(rho, rho) - 1.0) < 1e-10


def test_uhlmann_refuses_mismatched_dims():
    with pytest.raises(ValueError, match=r"^dimension mismatch: \(2, 2\) vs \(3, 3\)$"):
        uhlmann_fidelity(werner(0.3), density_from_ket(make_max_entangled(3)))


def test_uhlmann_commuting_diagonal():
    p = np.array([0.5, 0.3, 0.15, 0.05])
    q = np.array([0.25, 0.25, 0.25, 0.25])
    rho = validate_density(np.diag(p).astype(complex), (2, 2))
    sig = validate_density(np.diag(q).astype(complex), (2, 2))
    expected = float(np.sum(np.sqrt(p * q)) ** 2)
    assert abs(uhlmann_fidelity(rho, sig) - expected) < 1e-10


def test_uhlmann_pure_states_overlap():
    rng = np.random.default_rng(31)
    for _ in range(50):
        k1, k2 = random_ket(rng, 2, 2), random_ket(rng, 2, 2)
        expected = abs(np.vdot(k1.amplitudes, k2.amplitudes)) ** 2
        got = uhlmann_fidelity(density_from_ket(k1), density_from_ket(k2))
        assert abs(got - expected) < 1e-8


def test_uhlmann_symmetric():
    rng = np.random.default_rng(37)
    m1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m2 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = validate_density((m1 @ m1.conj().T) / np.trace(m1 @ m1.conj().T).real, (2, 2))
    sig = validate_density((m2 @ m2.conj().T) / np.trace(m2 @ m2.conj().T).real, (2, 2))
    assert abs(uhlmann_fidelity(rho, sig) - uhlmann_fidelity(sig, rho)) < 1e-8
    assert abs(uhlmann_fidelity(rho, density_from_ket(BELL)) - bell_fidelities(rho.matrix)) < 1e-8


def test_evaluate_measure_dispatch():
    ket = make_max_entangled(3)
    for name, raw in [("eof", math.log2(3)), ("i_concurrence", math.sqrt(4 / 3)), ("pconcurrence", 1.0)]:
        got, normalized = evaluate_measure(ket, name)
        assert abs(got - raw) < 1e-9
        assert abs(normalized - 1.0) < 1e-9
    with pytest.raises(ValueError, match="unknown measure"):
        evaluate_measure(ket, "negativity")


# --- descending spectra and the one density gate --------------------------------

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_spectra_diagonal():
    w, v, rank = spectra(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(w, [3.0, 2.0, 1.0])
    assert np.abs((v * w) @ v.conj().T - np.diag([3.0, 1.0, 2.0])).max() < 1e-12
    assert rank == 3


def test_spectra_sigma_x():
    w, v, rank = spectra(SIGMA_X)
    assert np.allclose(w, [1.0, -1.0])
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    assert abs(abs(np.vdot(plus, v[:, 0])) - 1) < 1e-12
    assert abs(abs(np.vdot(minus, v[:, 1])) - 1) < 1e-12
    assert rank == 1  # the negative eigenvalue is not counted


def test_spectra_reconstruction_random():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(100, 9, 9)) + 1j * rng.normal(size=(100, 9, 9))
    m = (m + m.conj().transpose(0, 2, 1)) / 2
    w, v, _ = spectra(m)  # one stacked call, each matrix on its own
    for mi, wi, vi in zip(m, w, v):
        resid = np.linalg.norm((vi * wi) @ vi.conj().T - mi) / np.linalg.norm(mi)
        assert resid < 1e-9
        assert np.linalg.norm(vi.conj().T @ vi - np.eye(9)) < 1e-9
        assert all(wi[i] >= wi[i + 1] for i in range(8))


def test_eigenvalues_of_density_sum_to_one():
    rng = np.random.default_rng(21)
    for _ in range(20):
        g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        rho = g @ g.conj().T
        rho /= np.trace(rho)
        w, _, _ = spectra(rho)
        assert abs(w.sum() - 1.0) < 1e-10


def test_spectra_rank_drops_round_off():
    pure = density_from_ket(BELL).matrix
    assert spectra(pure)[2] == 1
    assert spectra(pure - 1e-12 * np.eye(4))[2] == 1


def test_fidelity_of_a_gated_state_is_clipped_not_refused():
    # Trace 1 + 5e-10 passes the DensityMatrix gate; <Bell|rho|Bell> is then above 1.
    rho = DensityMatrix(2, 2, density_from_ket(BELL).matrix * (1 + 5e-10))
    assert bell_fidelities(rho.matrix) == 1.0
