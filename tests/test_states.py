import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pconcurrence.states import (
    BipartiteKet,
    DensityMatrix,
    SpdcParams,
    check_kets,
    density_from_ket,
    load_state,
    make_max_entangled,
    make_spdc_qudit,
    make_spdc_qutrit,
    partial_trace,
    save_state,
    spdc_qutrit_amplitudes,
    state_from_dict,
    state_to_dict,
    validate_density,
)

unit = st.floats(min_value=0.0, max_value=1.0)


def random_ket(rng, da, db):
    amp = rng.normal(size=da * db) + 1j * rng.normal(size=da * db)
    return BipartiteKet(da, db, amp / np.linalg.norm(amp))


def test_spdc_qutrit_product_limit():
    ket = make_spdc_qutrit(SpdcParams(0.0, 0.0))
    expected = np.zeros(9)
    expected[4] = 1.0  # |0>_A |0>_B under the (+1,0,-1)/(-1,0,+1) ordering
    assert np.abs(ket.amplitudes - expected).max() < 1e-15


def test_spdc_qutrit_maximally_entangled():
    ket = make_spdc_qutrit(SpdcParams(1.0, 1.0))
    me = make_max_entangled(3)
    assert np.abs(ket.amplitudes - me.amplitudes).max() < 1e-12


def test_spdc_qutrit_embedded_bell():
    ket = make_spdc_qutrit(SpdcParams(1.0, 0.0))
    expected = np.zeros(9)
    expected[[0, 4]] = 1 / math.sqrt(2)
    assert np.abs(ket.amplitudes - expected).max() < 1e-12


def test_spdc_qutrit_rejects_out_of_range():
    for alpha, beta in [(-0.1, 0.5), (1.1, 0.5), (0.5, -0.1), (0.5, 2.0)]:
        with pytest.raises(ValueError):
            make_spdc_qutrit(SpdcParams(alpha, beta))


def test_stacked_ket_check_fails_like_the_single_ket_gate():
    good = spdc_qutrit_amplitudes([0.2, 0.5, 0.9], [0.3, 0.1, 1.0])
    for bad in (np.where(np.arange(9) == 4, np.nan, good[1]), 1.5 * good[1]):
        with pytest.raises(ValueError) as single:
            BipartiteKet(3, 3, bad)
        stack = good.copy()
        stack[1] = bad
        with pytest.raises(ValueError) as stacked:
            check_kets(stack)
        assert str(stacked.value) == str(single.value)
    assert str(single.value).startswith("ket is not normalized: sum |amp|^2 = ")


@pytest.mark.parametrize("alpha, beta", [(1.5, 0.5), (-0.25, 0.5), (math.nan, 0.5), (0.5, 2.0), (0.5, -1e-9)])
def test_stacked_builder_range_fails_like_spdc_params(alpha, beta):
    with pytest.raises(ValueError) as single:
        SpdcParams(alpha, beta)
    with pytest.raises(ValueError) as stacked:
        spdc_qutrit_amplitudes([0.0, alpha, 1.0], [0.0, beta, 1.0])
    assert str(stacked.value) == str(single.value)


@settings(max_examples=200, deadline=None)
@given(unit, unit)
def test_spdc_qutrit_normalization_identity(alpha, beta):
    ket = make_spdc_qutrit(SpdcParams(alpha, beta))
    n2 = abs(ket.amplitudes[4]) ** 2
    assert abs(n2 * (1 + alpha**2 + beta**2) - 1.0) < 1e-12
    assert abs(float(np.vdot(ket.amplitudes, ket.amplitudes).real) - 1.0) < 1e-10


def test_max_entangled_bell():
    ket = make_max_entangled(2)
    assert np.allclose(ket.amplitudes, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])


def test_max_entangled_reduced_is_maximally_mixed():
    for d in (2, 3, 5):
        rho = density_from_ket(make_max_entangled(d))
        red = partial_trace(rho.matrix, (d, d), "B")
        assert np.abs(red - np.eye(d) / d).max() < 1e-12


def test_max_entangled_rejects_small_d():
    with pytest.raises(ValueError):
        make_max_entangled(1)


def test_spdc_qudit_flat_limit():
    for d in (2, 3, 5):
        ket = make_spdc_qudit(d, decay=1e6)
        assert np.abs(ket.amplitudes - make_max_entangled(d).amplitudes).max() < 1e-6


def test_spdc_qudit_gaussian_weights():
    ket = make_spdc_qudit(3, decay=1.0)
    w = np.array([math.exp(-0.5), 1.0, math.exp(-0.5)])
    w /= np.linalg.norm(w)
    assert np.allclose(ket.amplitudes[[0, 4, 8]], w, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.floats(min_value=0.3, max_value=50))
def test_spdc_qudit_normalized(d, decay):
    ket = make_spdc_qudit(d, decay)
    assert abs(float(np.vdot(ket.amplitudes, ket.amplitudes).real) - 1.0) < 1e-10


def test_spdc_qudit_rejects_bad_decay():
    with pytest.raises(ValueError):
        make_spdc_qudit(3, 0.0)
    with pytest.raises(ValueError):
        make_spdc_qudit(3, -1.0)


def test_density_from_ket_corner_cases():
    amp = np.zeros(4, dtype=complex)
    amp[0] = 1.0
    rho = density_from_ket(BipartiteKet(2, 2, amp))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.abs(rho.matrix - expected).max() < 1e-15

    bell = density_from_ket(make_max_entangled(2))
    for i in (0, 3):
        for j in (0, 3):
            assert abs(bell.matrix[i, j] - 0.5) < 1e-12


def test_density_from_ket_purity_and_spectrum():
    rng = np.random.default_rng(17)
    for _ in range(100):
        rho = density_from_ket(random_ket(rng, 3, 3))
        assert abs(np.trace(rho.matrix @ rho.matrix).real - 1.0) < 1e-10
    w = np.linalg.eigvalsh(rho.matrix)[::-1]
    assert abs(w[0] - 1.0) < 1e-10
    assert np.abs(w[1:]).max() < 1e-10


def test_ket_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalized"):
        BipartiteKet(2, 2, np.array([1.0, 1.0, 0.0, 0.0]))


def test_ket_rejects_wrong_length():
    with pytest.raises(ValueError):
        BipartiteKet(2, 2, np.array([1.0, 0.0]))


def test_validate_density_errors_name_the_invariant():
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 1e-3  # breaks Hermiticity
    with pytest.raises(ValueError, match="Hermiticity"):
        validate_density(m, (2, 2))
    with pytest.raises(ValueError, match="trace"):
        validate_density(np.eye(4, dtype=complex), (2, 2))
    bad = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
    with pytest.raises(ValueError, match="positivity"):
        validate_density(bad, (2, 2))


def test_density_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermiticity"):
        DensityMatrix(2, 1, np.array([[0, 1], [0, 0]], dtype=complex))


def test_density_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(2, 1, np.array([[np.nan, 0], [0, 1]], dtype=complex))


def test_validate_density_symmetrizes_and_renormalizes():
    rng = np.random.default_rng(23)
    m = rng.normal(size=(4, 4))
    m = m @ m.T
    m = m / np.trace(m) * (1 + 5e-10)  # within trace tolerance
    m = m + 1e-12 * 1j * np.eye(4)  # within Hermiticity tolerance
    rho = validate_density(m, (2, 2))
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-14
    assert np.abs(rho.matrix - rho.matrix.conj().T).max() == 0.0


def test_validate_density_runs_one_eigendecomposition(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or eigvalsh(m))
    rho = validate_density(np.eye(9, dtype=complex) / 9, (3, 3))
    assert len(calls) == 1
    assert np.abs(rho.matrix - np.eye(9) / 9).max() < 1e-15


def test_density_matrix_type_checks():
    with pytest.raises(ValueError):
        DensityMatrix(2, 2, np.eye(3, dtype=complex) / 3)
    with pytest.raises(ValueError):
        DensityMatrix(2, 2, np.eye(4, dtype=complex))  # trace 4


def test_state_json_round_trip_ket():
    rng = np.random.default_rng(29)
    ket = random_ket(rng, 2, 3)
    back = state_from_dict(json.loads(json.dumps(state_to_dict(ket))))
    assert isinstance(back, BipartiteKet)
    assert (back.dim_a, back.dim_b) == (2, 3)
    assert np.abs(back.amplitudes - ket.amplitudes).max() < 1e-15


def test_state_file_bytes_are_pinned(tmp_path):
    # Each entry is written as an [re, im] pair of floats, -0.0 kept.
    ket = BipartiteKet(1, 2, np.array([complex(0.6, -0.0), complex(-0.0, 0.8)]))
    rho = DensityMatrix(1, 2, np.array([[complex(0.5, -0.0), complex(-0.0, -0.25)], [complex(-0.0, 0.25), 0.5]]))
    expected = [
        (ket, {"type": "ket", "dimA": 1, "dimB": 2, "data": [[0.6, -0.0], [-0.0, 0.8]]}),
        (rho, {
            "type": "density",
            "dimA": 1,
            "dimB": 2,
            "data": [[[0.5, -0.0], [-0.0, -0.25]], [[-0.0, 0.25], [0.5, 0.0]]],
        }),
    ]
    path = tmp_path / "state.json"
    for state, obj in expected:
        save_state(path, state)
        assert path.read_text() == json.dumps(obj, indent=2) + "\n"


def test_state_json_round_trip_density(tmp_path):
    rho = density_from_ket(make_spdc_qutrit(SpdcParams(0.3, 0.8)))
    path = tmp_path / "state.json"
    save_state(path, rho)
    back = load_state(path)
    assert isinstance(back, DensityMatrix)
    assert np.abs(back.matrix - rho.matrix).max() < 1e-15
    # field names are part of the format
    obj = json.loads(path.read_text())
    assert set(obj) == {"type", "dimA", "dimB", "data"}


def test_state_from_dict_rejects_unknown_type():
    with pytest.raises(ValueError, match="unknown state type"):
        state_from_dict({"type": "blob", "dimA": 2, "dimB": 2, "data": []})


def test_global_phase_is_preserved_and_irrelevant():
    ket = make_spdc_qutrit(SpdcParams(0.4, 0.9))
    phased = BipartiteKet(3, 3, np.exp(1j * 0.7) * ket.amplitudes)
    assert abs(phased.amplitudes[4] - ket.amplitudes[4]) > 0.1  # phase kept
    a = density_from_ket(ket).matrix
    b = density_from_ket(phased).matrix
    assert np.abs(a - b).max() < 1e-12  # measures see the same operator


# --- partial trace ------------------------------------------------------------


def random_psd(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m @ m.conj().T


def test_partial_trace_bell():
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    assert np.abs(partial_trace(rho, (2, 2), "A") - np.eye(2) / 2).max() < 1e-12
    assert np.abs(partial_trace(rho, (2, 2), "B") - np.eye(2) / 2).max() < 1e-12


def test_partial_trace_product_state():
    rng = np.random.default_rng(11)
    rho_a = random_psd(rng, 3)
    rho_a /= np.trace(rho_a)
    rho_b = random_psd(rng, 2)
    rho_b /= np.trace(rho_b)
    joint = np.kron(rho_a, rho_b)
    assert np.abs(partial_trace(joint, (3, 2), "A") - rho_a).max() < 1e-12
    assert np.abs(partial_trace(joint, (3, 2), "B") - rho_b).max() < 1e-12


def test_partial_trace_max_entangled_qutrit():
    # |Psi|^2 summed over either side at alpha = beta = 1 gives I/3.
    psi = np.zeros(9, dtype=complex)
    psi[[0, 4, 8]] = 1 / np.sqrt(3)
    rho = np.outer(psi, psi.conj())
    assert np.abs(partial_trace(rho, (3, 3), "B") - np.eye(3) / 3).max() < 1e-12


def test_partial_trace_factorization_property():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        got = partial_trace(np.kron(a, b), (3, 4), "A")
        assert np.linalg.norm(got - np.trace(b) * a) < 1e-10


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(13)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    m = (m + m.conj().T) / 2
    for keep in ("A", "B"):
        assert abs(np.trace(partial_trace(m, (2, 3), keep)) - np.trace(m)) < 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(5), (2, 3), "A")
