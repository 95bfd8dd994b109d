import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gated_edge_density, white_noise_spdc
from pconcurrence.measures import bell_fidelities, wootters_concurrences
from pconcurrence.states import (
    BipartiteKet,
    IndexPair,
    SpdcParams,
    count_subspaces,
    density_from_ket,
    enumerate_pairs,
    make_max_entangled,
    make_spdc_qudit,
    make_spdc_qutrit,
    validate_density,
)
from pconcurrence import tomography, witness
from pconcurrence.tomography import family_settings, sector_estimates, simulate_counts
from pconcurrence.witness import (
    WEIGHT_FLOOR,
    WitnessReport,
    _block_table,
    certified_pairing,
    concurrence_bounds,
    identity_pairing,
    ket_sectors,
    maximize_over_pairings,
    pconcurrence_known,
    pconcurrence_search,
    report_to_dict,
    sector_pairs,
    sector_report,
    sector_states,
    sector_table,
)

unit = st.floats(min_value=0.0, max_value=1.0)
# nonzero amplitudes below ~1e-160 square to floating-point zero; stay physical
amplitude = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0))


def random_ket(rng, d):
    amp = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
    return BipartiteKet(d, d, amp / np.linalg.norm(amp))


def qutrit_density(alpha, beta):
    return density_from_ket(make_spdc_qutrit(SpdcParams(alpha, beta)))


def closed_form_product(alpha, beta):
    c1 = 2 * alpha / (1 + alpha**2)
    c2 = 2 * beta / (1 + beta**2)
    c3 = 2 * alpha * beta / (alpha**2 + beta**2) if alpha + beta > 0 else 0.0
    return c1 * c2 * c3


def test_count_subspaces():
    assert count_subspaces(2) == 1
    assert count_subspaces(3) == 3
    assert count_subspaces(4) == 6
    assert count_subspaces(8) == 28
    with pytest.raises(ValueError):
        count_subspaces(1)


def test_enumerate_pairs_qutrit():
    assert enumerate_pairs(3) == [IndexPair(0, 1), IndexPair(0, 2), IndexPair(1, 2)]


def test_enumerate_pairs_counts():
    for d in range(2, 9):
        assert len(enumerate_pairs(4)) == count_subspaces(4)
        assert len(enumerate_pairs(d)) == count_subspaces(d)


def test_index_pair_ordering_enforced():
    with pytest.raises(ValueError):
        IndexPair(1, 1)
    with pytest.raises(ValueError):
        IndexPair(2, 1)
    with pytest.raises(ValueError):
        IndexPair(-1, 0)


def one_sector(rho, a, b):
    """sector_states of the single sector (a, b): its 4 x 4 state and its weight."""
    states, weights = sector_states(rho.matrix, (rho.dim_a, rho.dim_b), [(a, b)])
    return states[0], float(weights[0])


def concurrence(m):
    return float(wootters_concurrences(m[None])[0])


def test_project_subspace_two_term_sector():
    # (a, b) = (0,1)x(0,1) keeps |0,0> + alpha|1,-1>: a pure two-term state
    # whose concurrence is 2 alpha / (1 + alpha^2).
    rho = qutrit_density(0.5, 0.7)
    sub, weight = one_sector(rho, IndexPair(0, 1), IndexPair(0, 1))
    assert abs(concurrence(sub) - 0.8) < 1e-12
    assert abs(np.trace(sub @ sub).real - 1.0) < 1e-10  # stays pure
    n2 = 1 / (1 + 0.5**2 + 0.7**2)
    assert abs(weight - n2 * (1 + 0.5**2)) < 1e-12


def test_project_subspace_max_entangled():
    rho = density_from_ket(make_max_entangled(3))
    for pair in enumerate_pairs(3):
        sub, weight = one_sector(rho, pair, pair)
        assert abs(weight - 2 / 3) < 1e-12
        assert abs(concurrence(sub) - 1.0) < 1e-10


def test_project_subspace_product_state():
    amp = np.zeros(9, dtype=complex)
    amp[4] = 1.0  # |0,0> at matched index 1 on both sides
    rho = density_from_ket(BipartiteKet(3, 3, amp))
    sub, weight = one_sector(rho, IndexPair(0, 1), IndexPair(0, 1))
    assert abs(weight - 1.0) < 1e-12
    assert concurrence(sub) < 1e-12


def test_project_subspace_no_support():
    amp = np.zeros(9, dtype=complex)
    amp[4] = 1.0
    rho = density_from_ket(BipartiteKet(3, 3, amp))
    _, weight = one_sector(rho, IndexPair(0, 2), IndexPair(0, 2))
    assert weight < WEIGHT_FLOOR


def test_project_subspace_out_of_range():
    rho = qutrit_density(0.5, 0.5)
    with pytest.raises(ValueError):
        one_sector(rho, IndexPair(0, 3), IndexPair(0, 1))


def test_known_max_entangled_is_one():
    report = pconcurrence_known(density_from_ket(make_max_entangled(3)), identity_pairing(3))
    assert abs(report.pconcurrence - 1.0) < 1e-9
    assert report.search_mode == "known"


def test_known_half_half():
    report = pconcurrence_known(qutrit_density(0.5, 0.5), identity_pairing(3))
    assert abs(report.pconcurrence - 0.64) < 1e-9
    assert sorted(round(r.concurrence, 6) for r in report.subspace_rows) == [0.8, 0.8, 1.0]


def test_known_vanishes_on_axes():
    for alpha, beta in [(1.0, 0.0), (0.0, 1.0), (0.7, 0.0), (0.0, 0.0)]:
        report = pconcurrence_known(qutrit_density(alpha, beta), identity_pairing(3))
        assert report.pconcurrence <= 1e-12


def test_known_matches_closed_forms():
    rng = np.random.default_rng(41)
    for _ in range(50):
        alpha, beta = rng.uniform(0.05, 1.0, size=2)
        report = pconcurrence_known(qutrit_density(alpha, beta), identity_pairing(3))
        assert abs(report.pconcurrence - closed_form_product(alpha, beta)) < 1e-9


def test_table_product_consistency():
    # A two-decimal footer stays consistent with the product of the
    # two-decimal sector rows.
    prod = 0.92 * 0.93 * 0.93
    assert abs(prod - 0.7957) < 5e-5
    assert abs(prod - 0.80) < 0.01
    assert f"{prod:.2f}" == "0.80"


def test_report_invariant_enforced():
    rows = pconcurrence_known(qutrit_density(0.5, 0.5), identity_pairing(3)).subspace_rows
    with pytest.raises(ValueError, match="product"):
        WitnessReport(rows, 0.5, "known")


def test_known_rejects_bad_pairing():
    pairs = enumerate_pairs(3)
    broken = tuple((a, pairs[0]) for a in pairs)  # b side repeats
    with pytest.raises(ValueError, match="exactly once"):
        pconcurrence_known(qutrit_density(0.5, 0.5), broken)


def test_search_identity_is_optimal_for_spdc_family():
    rng = np.random.default_rng(43)
    for _ in range(10):
        alpha, beta = rng.uniform(0.05, 1.0, size=2)
        rho = qutrit_density(alpha, beta)
        known = pconcurrence_known(rho, identity_pairing(3))
        found = pconcurrence_search(rho)
        assert abs(found.pconcurrence - known.pconcurrence) < 1e-9
        assert found.pconcurrence >= known.pconcurrence - 1e-9


def test_search_recovers_permuted_basis():
    # Permuting side B scrambles which B-sector matches which A-sector; the
    # search must still find the perfect pairing while the identity pairing
    # scores lower.
    d = 3
    rho = density_from_ket(make_max_entangled(d))
    perm = np.zeros((d, d))
    for i, j in enumerate([1, 2, 0]):
        perm[j, i] = 1.0
    u = np.kron(np.eye(d), perm)
    permuted = validate_density(u @ rho.matrix @ u.conj().T, (d, d))
    found = pconcurrence_search(permuted)
    assert abs(found.pconcurrence - 1.0) < 1e-9
    known = pconcurrence_known(permuted, identity_pairing(d))
    assert known.pconcurrence < found.pconcurrence - 0.5


def _embedded_shifted_qutrit():
    # sum_i |i>|i+1 mod 3> inside d = 4: the positive sectors sit off the
    # identity pairing, and every A-pair holding level 3 scores 0 against
    # all B-pairs, so no bijection has a positive product.
    amp = np.zeros((4, 4))
    for i in range(3):
        amp[i, (i + 1) % 3] = 1 / np.sqrt(3)
    return density_from_ket(BipartiteKet(4, 4, amp.ravel()))


@pytest.mark.parametrize(
    "rho",
    [validate_density(np.eye(9, dtype=complex) / 9, (3, 3)), _embedded_shifted_qutrit()],
    ids=["maximally_mixed_d3", "embedded_qutrit_d4"],
)
def test_zero_maximum_search_reports_identity_pairing(rho):
    report = pconcurrence_search(rho)
    assert report.pconcurrence == 0.0
    assert report.pairing_used == identity_pairing(rho.dim_a)


def test_assignment_equals_brute_force(enumerated_search):
    rng = np.random.default_rng(47)
    for d in (3, 4):
        pairs = enumerate_pairs(d)
        for rank in (1, 2, d * d):  # pure, rank 2, full rank
            for _ in range(20):
                rho = random_density(rng, d, rank, sparse=False)
                perm, product = enumerated_search(rho)
                found = pconcurrence_search(rho)
                assert abs(found.pconcurrence - product) < 1e-9
                # the zero rule makes the pairings agree when the maximum is 0 too
                expected = tuple((pairs[i], pairs[j]) for i, j in enumerate(perm))
                assert found.pairing_used == expected


def test_assignment_equals_scipy_linear_sum_assignment():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(59)
    identical = 0
    for t in range(2400):
        k = t % 28 + 1
        # Every third table draws from {1/4, 1/2, 1}, where ties are common and
        # products are exact; the others are continuous and tie-free.
        tied = t % 3 == 0
        conc = rng.choice([0.25, 0.5, 1.0], size=(k, k)) if tied else rng.uniform(0.01, 1.0, size=(k, k))
        conc[rng.uniform(size=(k, k)) < (1.0 if t % 10 == 9 else rng.uniform())] = 0.0
        perm = maximize_over_pairings(conc)
        log_conc = np.log(np.where(conc > 0.0, conc, 1.0))
        rows, cols = optimize.linear_sum_assignment(np.where(conc > 0.0, log_conc, -1e18), maximize=True)
        if not (conc[rows, cols] > 0.0).all():
            assert perm == tuple(range(k)), t
            continue
        assert math.prod(conc[i, j] for i, j in enumerate(perm)) == math.prod(conc[rows, cols]), t
        if not tied:
            assert perm == tuple(int(j) for j in cols), t
            identical += 1
    assert identical >= 1000


@pytest.mark.parametrize(
    "conc, perm",
    [
        ([[0.3]], (0,)),
        ([[0.0]], (0,)),
        # Only (1, 2, 0) avoids a zero; every row's best column is column 2.
        ([[0.0, 0.5, 0.9], [0.0, 0.0, 0.4], [0.3, 0.0, 0.8]], (1, 2, 0)),
    ],
    ids=["k1", "k1_zero", "only_off_diagonal"],
)
def test_assignment_edge_tables(conc, perm):
    assert maximize_over_pairings(np.array(conc)) == perm


@pytest.mark.parametrize("d", [3, 5])
def test_search_reports_assignment(d):
    rho = density_from_ket(make_max_entangled(d))
    assert pconcurrence_search(rho).search_mode == "assignment"


def test_search_permutation_invariance():
    rng = np.random.default_rng(53)
    d = 3
    for _ in range(10):
        rho = density_from_ket(random_ket(rng, d))
        base = pconcurrence_search(rho).pconcurrence
        pa = np.eye(d)[rng.permutation(d)]
        pb = np.eye(d)[rng.permutation(d)]
        u = np.kron(pa, pb)
        moved = validate_density(u @ rho.matrix @ u.conj().T, (d, d))
        assert abs(pconcurrence_search(moved).pconcurrence - base) < 1e-8


def test_max_entangled_every_sector_is_bell():
    for d in (2, 3, 4, 5):
        rho = density_from_ket(make_max_entangled(d))
        report = pconcurrence_known(rho, identity_pairing(d))
        assert all(abs(r.concurrence - 1.0) < 1e-9 for r in report.subspace_rows)
        assert abs(report.pconcurrence - 1.0) < 1e-8


def test_search_dominates_any_fixed_pairing():
    rng = np.random.default_rng(59)
    pairs = enumerate_pairs(3)
    for _ in range(10):
        rho = density_from_ket(random_ket(rng, 3))
        best = pconcurrence_search(rho).pconcurrence
        for perm in itertools.permutations(range(3)):
            pairing = tuple((pairs[i], pairs[j]) for i, j in enumerate(perm))
            assert best >= pconcurrence_known(rho, pairing).pconcurrence - 1e-9


@settings(max_examples=100, deadline=None)
@given(unit, unit)
def test_product_bounded_by_min_factor(alpha, beta):
    report = pconcurrence_known(qutrit_density(alpha, beta), identity_pairing(3))
    concs = [r.concurrence for r in report.subspace_rows]
    assert -1e-12 <= report.pconcurrence <= min(concs) + 1e-12
    assert report.pconcurrence <= 1.0 + 1e-9


@settings(max_examples=100, deadline=None)
@given(amplitude, amplitude)
def test_dimension_witness_iff(alpha, beta):
    report = pconcurrence_known(qutrit_density(alpha, beta), identity_pairing(3))
    if alpha * beta == 0.0:
        assert report.pconcurrence <= 1e-12
    else:
        assert report.pconcurrence > 0.0


def test_a_nonzero_product_certifies_no_dimension_beyond_schmidt_form():
    # rho = (Phi01 + Phi02 + Phi12) / 3, Phi_ij the projector onto
    # (|ii> + |jj>) / sqrt(2): a mixture of Schmidt-rank-2 kets, so its
    # Schmidt number is at most 2, yet every known sector has concurrence 1/2.
    kets = []
    for i, j in itertools.combinations(range(3), 2):
        c = np.zeros((3, 3))
        c[i, i] = c[j, j] = 1 / math.sqrt(2)
        assert np.linalg.matrix_rank(c) == 2
        kets.append(c.ravel())
    rho = validate_density(sum(np.outer(k, k) for k in kets) / 3, (3, 3))
    assert abs(pconcurrence_known(rho, identity_pairing(3)).pconcurrence - 0.125) < 1e-12
    assert abs(pconcurrence_search(rho).pconcurrence - 0.125) < 1e-12
    # Nor is a pure state outside Schmidt form on matched indices certified:
    # this Schmidt-rank-2 qutrit has every paired 2 x 2 minor nonzero.
    c = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]])
    assert np.linalg.matrix_rank(c) == 2
    ket = BipartiteKet(3, 3, (c / np.linalg.norm(c)).ravel())
    assert pconcurrence_known(ket, identity_pairing(3)).pconcurrence > 0.08


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 8), st.integers(1, 3), st.integers(0, 2**32 - 1), st.floats(1e-7, 1e-5))
def test_ket_kernel_equals_the_wootters_kernel_on_ket_sectors(d, n, seed, tiny):
    # Each amplitude is zero, tiny or of order one, so the sectors of tiny
    # and zero amplitudes have weights on both sides of WEIGHT_FLOOR.
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=(n, d * d)) + 1j * rng.normal(size=(n, d * d))
    amp *= rng.choice([0.0, tiny, 1.0], p=[0.2, 0.5, 0.3], size=amp.shape)
    amp[:, 0] += 1.0
    kets = amp / np.linalg.norm(amp, axis=1, keepdims=True)
    # The reference is the projector |psi><psi|: its blocks, the Wootters
    # kernel and bell_fidelities, gated at WEIGHT_FLOOR as sector_table gates them.
    pairs = sector_pairs(d)
    weights, conc, fid = ket_sectors(kets, (d, d), pairs)
    assert weights.shape == conc.shape == fid.shape == (n, len(pairs))
    for i, ket in enumerate(kets):
        states, ref_weights = sector_states(np.outer(ket, ket.conj()), (d, d), pairs)
        live = ref_weights >= WEIGHT_FLOOR
        assert np.abs(weights[i] - np.where(live, ref_weights, 0.0)).max() <= 1e-15
        assert np.abs(conc[i] - _block_table(states, ref_weights)[1]).max() <= 1e-14
        assert np.abs(fid[i] - np.where(live, bell_fidelities(states), 0.0)).max() <= 1e-14
        assert ((weights[i] > 0) == live).all()


def test_ket_kernel_scores_sectors_below_the_weight_floor_zero():
    # (|00> + |11> + t |01> + t |22>) / norm: the maximally entangled pair in
    # the sector (0,2)_A x (1,2)_B weighs 2 t^2 / (2 + 2 t^2).
    pairs = [(IndexPair(0, 1), IndexPair(0, 1)), (IndexPair(0, 2), IndexPair(1, 2))]
    for weight, expected in ((0.99 * WEIGHT_FLOOR, 0.0), (1.01 * WEIGHT_FLOOR, 1.0)):
        ket = np.zeros(9, dtype=complex)
        ket[[0, 4]] = 1.0
        ket[[1, 8]] = math.sqrt(weight)
        ket /= np.linalg.norm(ket)
        weights, conc, fid = ket_sectors(ket, (3, 3), pairs)
        assert conc == pytest.approx([1.0, expected], abs=1e-12)
        assert fid == pytest.approx([1.0, expected], abs=1e-12)
        assert (weights[1] > 0) == (expected > 0)
    with pytest.raises(ValueError, match=r"sector indices exceed dims \(3, 3\)"):
        ket_sectors(ket, (3, 3), [(IndexPair(0, 3), IndexPair(0, 1))])


def test_a_ket_witness_builds_one_index_and_no_block(monkeypatch):
    # A ket's sectors are scored from one gather of its amplitudes: no 4 x 4
    # block is built, and the sector index is built once per witness.
    def no_blocks(*args):
        raise AssertionError("sector_states was called on a ket")

    index_calls = []
    index = witness._sector_index
    monkeypatch.setattr(witness, "sector_states", no_blocks)
    monkeypatch.setattr(witness, "_sector_index", lambda *args: index_calls.append(1) or index(*args))
    rng = np.random.default_rng(67)
    for d in range(2, 9):
        ket = random_ket(rng, d)
        for run in (lambda: pconcurrence_known(ket, identity_pairing(d)), lambda: pconcurrence_search(ket)):
            index_calls.clear()
            run()
            assert len(index_calls) == 1


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_search_on_a_ket_and_on_its_density_picks_the_same_pairing(d):
    rng = np.random.default_rng(40 + d)
    for _ in range(3):
        ket = random_ket(rng, d)
        on_ket, on_density = pconcurrence_search(ket), pconcurrence_search(density_from_ket(ket))
        assert on_ket.pairing_used == on_density.pairing_used
        for row, ref in zip(on_ket.subspace_rows, on_density.subspace_rows):
            assert abs(row.concurrence - ref.concurrence) <= 1e-12
        assert on_ket.pconcurrence == pytest.approx(on_density.pconcurrence, rel=1e-11, abs=1e-15)


def test_report_json_shape():
    report = pconcurrence_known(qutrit_density(0.5, 0.5), identity_pairing(3))
    obj = report_to_dict(report)
    assert set(obj) == {"pconcurrence", "search_mode", "pairing", "subspaces"}
    assert obj["pairing"] == [[0, 1, 0, 1], [0, 2, 0, 2], [1, 2, 1, 2]]
    assert all(set(s) == {"a", "b", "concurrence", "fidelity", "weight"} for s in obj["subspaces"])
    assert abs(obj["pconcurrence"] - 0.64) < 1e-9


def test_fidelity_column_is_subspace_bell_fidelity():
    report = pconcurrence_known(density_from_ket(make_max_entangled(3)), identity_pairing(3))
    assert all(abs(r.fidelity - 1.0) < 1e-9 for r in report.subspace_rows)
    report = pconcurrence_known(qutrit_density(1.0, 0.0), identity_pairing(3))
    # sector (0,1)x(0,1) holds the embedded Bell state
    assert abs(report.subspace_rows[0].fidelity - 1.0) < 1e-9


# --- batched sector engine ----------------------------------------------------

SPIN_FLIP = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])


def reference_sector(rho, a, b):
    """One sector through a kron selection matrix and a rank-revealing factor.

    Returns (concurrence, fidelity, weight), or None without support.
    """
    pa = np.zeros((2, rho.dim_a))
    pa[0, a.lo] = pa[1, a.hi] = 1.0
    pb = np.zeros((2, rho.dim_b))
    pb[0, b.lo] = pb[1, b.hi] = 1.0
    sel = np.kron(pa, pb)
    raw = sel @ rho.matrix @ sel.T
    raw = (raw + raw.conj().T) / 2
    weight = float(np.trace(raw).real)
    if weight < 1e-12:
        return None
    sub = raw / weight
    w, v = np.linalg.eigh(sub)
    w, v = w[::-1], v[:, ::-1]
    keep = w > max(w[0], 0.0) * 1e-13
    factor = v[:, keep] * np.sqrt(w[keep])
    lam = np.zeros(4)
    sigma = np.linalg.svd(factor.T @ SPIN_FLIP @ factor, compute_uv=False)
    lam[: sigma.shape[0]] = sigma
    bell = make_max_entangled(2).amplitudes
    fidelity = min(1.0, max(0.0, complex(np.vdot(bell, sub @ bell)).real))
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3]), fidelity, weight


def random_density(rng, d, rank, sparse):
    g = rng.normal(size=(d * d, rank)) + 1j * rng.normal(size=(d * d, rank))
    if sparse:
        g[rng.random(d * d) < 0.4] = 0.0  # leaves sectors without support
    m = g @ g.conj().T
    return validate_density(m / np.trace(m).real, (d, d))


def test_search_table_equals_single_sector_results_exactly():
    rng = np.random.default_rng(61)
    zero_support = 0
    for d in range(2, 9):
        for rank in (1, 2, 3, d * d):
            rho = random_density(rng, d, rank, sparse=d >= 4 and rank <= 3)
            pairs = sector_pairs(d)
            rows = sector_report(pairs, *sector_table(rho, pairs)).subspace_rows
            table = {(r.a, r.b): r for r in rows}
            assert len(table) == len(pairs)
            for (a, b), row in table.items():
                ref = reference_sector(rho, a, b)
                if ref is None:
                    zero_support += 1
                    assert (row.concurrence, row.fidelity, row.weight) == (0.0, 0.0, 0.0)
                    assert one_sector(rho, a, b)[1] < WEIGHT_FLOOR
                    continue
                sub, weight = one_sector(rho, a, b)
                assert (row.concurrence, row.weight) == (concurrence(sub), weight) == (ref[0], ref[2])
                # bell_fidelities adds the entries the vdot adds, in another order.
                assert abs(row.fidelity - ref[1]) <= 1e-15
            for row in pconcurrence_search(rho).subspace_rows:
                assert row == table[(row.a, row.b)]
    assert zero_support > 0


# (d, decay, visibility) of white-noise down-conversion states with a closed-form product.
WHITE_NOISE_SPDC = ((6, 4.5, 0.93), (7, 6.0, 0.97), (8, 7.5, 0.91), (8, 5.0, 1.0))


def test_white_noise_spdc_matches_x_state_closed_form():
    for d, decay, v in WHITE_NOISE_SPDC:
        rho, c = white_noise_spdc(d, decay, v)
        q = (1 - v) / (d * d)
        expected = math.prod(
            2 * max(0.0, v * c[i] * c[j] - q) / (v * (c[i] ** 2 + c[j] ** 2) + 4 * q)
            for i, j in itertools.combinations(range(d), 2)
        )
        assert expected > 0.0
        known = pconcurrence_known(rho, identity_pairing(d)).pconcurrence
        found = pconcurrence_search(rho).pconcurrence
        assert known == pytest.approx(expected, rel=1e-9)
        assert found == pytest.approx(expected, rel=1e-9)


def test_kernel_checks_its_inputs():
    bell = density_from_ket(make_max_entangled(2)).matrix
    assert wootters_concurrences(np.zeros((0, 4, 4))).shape == (0,)
    assert wootters_concurrences(np.stack([bell, np.eye(4) / 4])) == pytest.approx([1.0, 0.0], abs=1e-12)
    with pytest.raises(ValueError, match="stack"):
        wootters_concurrences(bell)


def test_kernel_renormalizes_a_block_with_a_dropped_negative_eigenvalue():
    """A unit-trace block 6 rho - 5 |01><01| with rho on span{|00>, |11>} scores C(rho), not 6 C(rho)."""
    bell = density_from_ket(make_max_entangled(2)).matrix
    for rho in (bell, 0.8 * bell + 0.2 * np.diag([1.0, 0.0, 0.0, 0.0])):
        block = 6.0 * rho - 5.0 * np.diag([0.0, 1.0, 0.0, 0.0])
        assert wootters_concurrences(block[None]) == pytest.approx(wootters_concurrences(rho[None]), abs=1e-12)


def test_kernel_values_do_not_depend_on_the_stack():
    # The certified search scores K blocks of the K^2 the full search scores:
    # each value must be the one the whole stack gives, bit for bit.
    rng = np.random.default_rng(71)
    stack = []
    for rank in rng.integers(1, 5, size=300):
        g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        m = g @ g.conj().T
        stack.append(m / np.trace(m).real)
    stack = np.array(stack)
    whole = wootters_concurrences(stack)
    for size in (1, 7, 28, 150):
        rows = np.sort(rng.choice(len(stack), size=size, replace=False))
        assert (wootters_concurrences(stack[rows]) == whole[rows]).all()


# --- the certified pairing search on densities ----------------------------------


def shifted_bell_mixture(d):
    """(Phi + Phi') / 2, Phi = sum_i |i,i> / sqrt(d) and Phi' = sum_i |i,i+1 mod d> / sqrt(d).

    Several pairings reach its positive maximum, so no bound can certify one.
    """
    phi = np.eye(d).ravel() / math.sqrt(d)
    shifted = np.roll(np.eye(d), 1, axis=1).ravel() / math.sqrt(d)
    return validate_density((np.outer(phi, phi) + np.outer(shifted, shifted)) / 2, (d, d))


def search_corpus():
    """White-noise spdc at d = 3..8, the random corpus of the exact-table test, the ties and the gated edge states."""
    corpus = [white_noise_spdc(d, decay, v)[0] for d in range(3, 9) for decay in (1.5, 6.0) for v in (0.9, 1.0)]
    rng = np.random.default_rng(61)  # as in test_search_table_equals_single_sector_results_exactly
    corpus += [random_density(rng, d, rank, sparse=d >= 4 and rank <= 3) for d in range(2, 9) for rank in (1, 2, 3, d * d)]
    corpus += [shifted_bell_mixture(d) for d in (3, 4, 5)]
    corpus += [gated_edge_density(weight, perturb) for weight, perturb in ((2e-4, 0.0), (2e-4, 5e-10), (6e-10, 5e-10))]
    return corpus


def bounds_table(rho):
    """(K, K) lower and upper concurrence bounds of every sector of rho, and its (K, K) Wootters table."""
    d = rho.dim_a
    k = d * (d - 1) // 2
    states, weights = sector_states(rho.matrix, (d, d), sector_pairs(d))
    lower, upper = concurrence_bounds(states, weights)
    return lower.reshape(k, k), upper.reshape(k, k), _block_table(states, weights)[1].reshape(k, k)


def full_table_report(rho):
    pairs = sector_pairs(rho.dim_a)
    return sector_report(pairs, *sector_table(rho, pairs), search=True)


def test_density_search_equals_the_full_table_report():
    corpus = search_corpus()
    certified = 0
    for rho in corpus:
        assert pconcurrence_search(rho) == full_table_report(rho)
        certified += certified_pairing(*bounds_table(rho)[:2]) is not None
    assert 0 < certified < len(corpus)


def test_concurrence_bounds_hold_on_every_live_sector():
    # The bounds are widened by 4 sqrt(x) + 8 x, x = |PSD_ATOL| / weight: the
    # kernel drops block eigenvalues down to PSD_ATOL / weight, as in the
    # gated edge states, and they enter under square roots.
    for rho in search_corpus():
        lower, upper, conc = bounds_table(rho)
        assert (lower <= conc).all() and (conc <= upper).all()
        assert (upper >= 0.0).all()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.booleans())
def test_concurrence_bounds_of_two_qubit_states(rank, seed, x_state):
    # A unit-weight block is widened by 4 sqrt(1e-9) + 8e-9; on an X state the
    # lower bound is the concurrence itself.
    margin = 4 * math.sqrt(1e-9) + 8e-9
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    m = g @ g.conj().T
    if x_state:
        m *= np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]])
    m /= np.trace(m).real
    c = wootters_concurrences(m[None])
    lower, upper = concurrence_bounds(m[None], np.ones(1))
    assert lower <= c <= upper
    assert upper <= 1.0 + margin + 1e-15  # 2 (sqrt(s00 s33) + sqrt(s11 s22)) <= Tr sigma = 1
    if x_state:
        assert max(0.0, lower[0] + margin) == pytest.approx(c[0], abs=1e-12)


def test_concurrence_bounds_read_the_separable_ball():
    # Tr sigma^2 <= 1/3 leaves only the margin above; the maximally mixed
    # block has populations of 1/4, whose product bound alone is 1.
    lower, upper = concurrence_bounds(np.eye(4)[None] / 4, np.ones(1))
    assert upper == pytest.approx(4 * math.sqrt(1e-9) + 8e-9, abs=1e-15)
    assert lower < 0.0


@pytest.mark.parametrize(
    "lower, upper, perm",
    [
        ([[0.3]], [[0.4]], (0,)),
        ([[0.0]], [[0.4]], None),
        # The best other bijection's upper product 0.5 * 0.5 is below 0.8 * 0.8.
        ([[0.8, 0.0], [0.0, 0.8]], [[0.9, 0.5], [0.5, 0.9]], (0, 1)),
        # ... and here it is not.
        ([[0.5, 0.0], [0.0, 0.5]], [[0.9, 0.6], [0.6, 0.9]], None),
        # Both rows peak in column 0: no bijection to certify.
        ([[0.8, 0.1], [0.8, 0.1]], [[0.9, 0.2], [0.9, 0.2]], None),
        # A tie in the upper bounds cannot certify.
        ([[0.9, 0.9], [0.9, 0.9]], [[0.9, 0.9], [0.9, 0.9]], None),
        # A sector scored 0 (upper 0) is no rival.
        ([[0.1, 0.0], [0.0, 0.1]], [[0.2, 0.0], [0.0, 0.2]], (0, 1)),
    ],
)
def test_certified_pairing_tables(lower, upper, perm):
    found = certified_pairing(np.array(lower), np.array(upper))
    assert (found is None) if perm is None else tuple(found) == perm


def test_white_noise_spdc_search_scores_only_the_pairing_sectors(monkeypatch):
    # The bounds certify these states' pairings, so the kernel scores K
    # sectors, not K^2; a noisier one falls back to all K^2.
    scored = []
    kernel = witness.wootters_concurrences
    monkeypatch.setattr(witness, "wootters_concurrences", lambda states: scored.append(len(states)) or kernel(states))
    for d, decay, v in WHITE_NOISE_SPDC + ((5, 1.5, 0.6),):
        scored.clear()
        pconcurrence_search(white_noise_spdc(d, decay, v)[0])
        k = d * (d - 1) // 2
        assert sum(scored) == (k * k if v == 0.6 else k)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_tied_density_search_falls_back_to_the_full_table(d):
    rho = shifted_bell_mixture(d)
    report = full_table_report(rho)
    assert report.pconcurrence > 0.1
    # Another pairing reaches the same product: forbid one chosen sector and solve again.
    lower, upper, conc = bounds_table(rho)
    conc[0, enumerate_pairs(d).index(report.subspace_rows[0].b)] = 0.0
    rival = maximize_over_pairings(conc)
    assert math.prod(conc[i, j] for i, j in enumerate(rival)) == pytest.approx(report.pconcurrence, rel=1e-12)
    assert certified_pairing(lower, upper) is None
    assert pconcurrence_search(rho) == report


# --- records take the same two entry points ------------------------------------


@pytest.fixture(scope="module")
def noisy_qutrit_record():
    """0.9 x a d = 3 down-conversion state + 0.1 x white noise, so every sector has counts."""
    rho, _ = white_noise_spdc(3, 1.5, 0.9)
    return simulate_counts(rho, family_settings("pairwise", 3, 3), 1000.0, 1.0, seed=5)


def test_known_on_a_record_scores_the_record_estimates_of_any_bijection(noisy_qutrit_record):
    pairs = enumerate_pairs(3)
    pairing = tuple((pairs[i], pairs[j]) for i, j in enumerate((1, 2, 0)))
    report = pconcurrence_known(noisy_qutrit_record, pairing)
    assert report.pairing_used == pairing
    states, weights = sector_estimates(noisy_qutrit_record, pairing)
    assert (weights >= WEIGHT_FLOOR).all()
    table = weights, _block_table(states, weights)[1], bell_fidelities(states)
    assert report.subspace_rows == sector_report(pairing, *table).subspace_rows


def test_known_on_a_record_checks_the_pairing(noisy_qutrit_record):
    pairs = enumerate_pairs(3)
    broken = tuple((a, pairs[0]) for a in pairs)  # b side repeats
    with pytest.raises(ValueError, match="^pairing does not cover each side-B index pair exactly once$"):
        pconcurrence_known(noisy_qutrit_record, broken)


def test_sectors_below_the_weight_floor_are_not_fitted(monkeypatch):
    # A rate * time far above the counts puts every sector weight below
    # WEIGHT_FLOOR. sector_table scores such a sector 0 whatever its state,
    # so it is not fitted, and the report is the all-zero one.
    rho = density_from_ket(make_spdc_qudit(3, 1.5))
    record = simulate_counts(rho, family_settings("pairwise", 3, 3), 1000.0, 10.0, seed=0)
    faint = dataclasses.replace(record, rate_hz=1e17)
    fits = []
    mle = tomography.reconstruct_mle
    monkeypatch.setattr(tomography, "reconstruct_mle", lambda sub: fits.append(1) or mle(sub))
    for report in (pconcurrence_search(faint), pconcurrence_known(faint, identity_pairing(3))):
        assert report.pairing_used == identity_pairing(3)
        assert all(r.concurrence == r.fidelity == r.weight == 0.0 for r in report.subspace_rows)
        assert report.pconcurrence == 0.0
    assert fits == []
    pconcurrence_search(record)
    assert len(fits) == 9
