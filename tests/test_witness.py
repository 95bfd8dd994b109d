import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pconcurrence.measures import ket_fidelity, wootters_concurrences
from pconcurrence.states import (
    BipartiteKet,
    SpdcParams,
    density_from_ket,
    make_max_entangled,
    make_spdc_qudit,
    make_spdc_qutrit,
    validate_density,
)
from pconcurrence.tomography import family_settings, sector_estimates, simulate_counts
from pconcurrence.witness import (
    WEIGHT_FLOOR,
    IndexPair,
    WitnessReport,
    count_subspaces,
    enumerate_pairs,
    identity_pairing,
    pconcurrence_known,
    pconcurrence_search,
    report_to_dict,
    sector_pairs,
    sector_report,
    sector_states,
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
    states, weights = sector_states(rho, [(a, b)])
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
    bell = make_max_entangled(2).amplitudes
    zero_support = 0
    for d in range(2, 9):
        for rank in (1, 2, 3, d * d):
            rho = random_density(rng, d, rank, sparse=d >= 4 and rank <= 3)
            pairs = sector_pairs(d)
            table = {(r.a, r.b): r for r in sector_report(pairs, *sector_states(rho, pairs)).subspace_rows}
            assert len(table) == len(pairs)
            for (a, b), row in table.items():
                ref = reference_sector(rho, a, b)
                if ref is None:
                    zero_support += 1
                    assert (row.concurrence, row.fidelity, row.weight) == (0.0, 0.0, 0.0)
                    assert one_sector(rho, a, b)[1] < WEIGHT_FLOOR
                    continue
                sub, weight = one_sector(rho, a, b)
                single = (concurrence(sub), ket_fidelity(sub, bell), weight)
                assert (row.concurrence, row.fidelity, row.weight) == single == ref
            for row in pconcurrence_search(rho).subspace_rows:
                assert row == table[(row.a, row.b)]
    assert zero_support > 0


def white_noise_spdc(d, decay, visibility):
    psi = make_spdc_qudit(d, decay).amplitudes
    m = visibility * np.outer(psi, psi.conj()) + (1 - visibility) * np.eye(d * d) / (d * d)
    return validate_density(m, (d, d)), np.abs(psi[:: d + 1])


def test_white_noise_spdc_matches_x_state_closed_form():
    for d, decay, v in ((6, 4.5, 0.93), (7, 6.0, 0.97), (8, 7.5, 0.91), (8, 5.0, 1.0)):
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
    assert report.subspace_rows == sector_report(pairing, *sector_estimates(noisy_qutrit_record, pairing)).subspace_rows


def test_known_on_a_record_checks_the_pairing(noisy_qutrit_record):
    pairs = enumerate_pairs(3)
    broken = tuple((a, pairs[0]) for a in pairs)  # b side repeats
    with pytest.raises(ValueError, match="^pairing does not cover each side-B index pair exactly once$"):
        pconcurrence_known(noisy_qutrit_record, broken)
