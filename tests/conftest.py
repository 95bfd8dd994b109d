import itertools
import math

import numpy as np
import pytest

from pconcurrence.measures import wootters_concurrences
from pconcurrence.states import DensityMatrix, as_density, make_spdc_qudit, validate_density
from pconcurrence.tomography import TomographyRecord, born_probabilities
from pconcurrence.witness import WEIGHT_FLOOR, sector_pairs, sector_states


def _enumerated_search(rho):
    """Reference pairing search over all K! bijections of A-sectors to B-sectors.

    Returns (perm, product) for the first bijection, in itertools order, with
    the largest concurrence product; perm[i] is the B-pair of A-pair i. When
    the maximum is 0 that is the identity.
    """
    table = sector_pairs(rho.dim_a)
    states, weights = sector_states(rho.matrix, (rho.dim_a, rho.dim_b), table)
    live = weights >= WEIGHT_FLOOR
    conc = np.zeros(len(table))
    conc[live] = wootters_concurrences(states[live])
    k = math.isqrt(len(table))
    conc = conc.reshape(k, k)

    def product(perm):
        return math.prod(conc[i, j] for i, j in enumerate(perm))

    best = max(itertools.permutations(range(k)), key=product)
    return best, product(best)


def noiseless_record(state, settings, rate_hz=1e4, time_s=1.0):
    """A record whose counts are the exact means rate_hz * time_s * p_Born, multiplied as simulate_counts does."""
    return TomographyRecord(rate_hz, time_s, settings, rate_hz * time_s * born_probabilities(as_density(state), settings))


def white_noise_spdc(d, decay, visibility):
    """visibility x make_spdc_qudit(d, decay) + (1 - visibility) x white noise, and that ket's Schmidt coefficients."""
    psi = make_spdc_qudit(d, decay).amplitudes
    m = visibility * np.outer(psi, psi.conj()) + (1 - visibility) * np.eye(d * d) / (d * d)
    return validate_density(m, (d, d)), np.abs(psi[:: d + 1])


def gated_edge_density(weight, perturb):
    """A d = 3 state with one eigenvalue at -perturb, inside its (1,2)x(1,2) sector.

    It is sqrt(1 - weight) |0,0> + sqrt(weight / 2) (|1,1> + |2,2>), with
    perturb moved from |1,2> to |1,0>. The eigenvector of -perturb is |1,2>,
    so that sector, of weight weight - perturb, has a block eigenvalue of
    -perturb / (weight - perturb).
    """
    psi = np.zeros(9)
    psi[[0, 4, 8]] = np.sqrt([1 - weight, weight / 2, weight / 2])
    m = np.outer(psi, psi).astype(complex)
    m[5, 5] -= perturb  # |1,2>
    m[3, 3] += perturb  # |1,0> keeps the trace
    return DensityMatrix(3, 3, m)


@pytest.fixture()
def enumerated_search():
    return _enumerated_search


def per_setting_dict(obj):
    """A record object in the per-setting layout that records were written in before the arm tables.

    Each setting spells out both kets and both labels; json.dumps(..., indent=2)
    plus a newline of the result is that older writer's file, byte for byte.
    """
    arms = obj["arms"]
    settings = [
        {"a": arms["a"][ia]["ket"], "b": arms["b"][ib]["ket"], "label_a": arms["a"][ia]["label"], "label_b": arms["b"][ib]["label"]}
        for ia, ib in obj["settings"]
    ]
    head = {k: v for k, v in obj.items() if k not in ("arms", "settings", "counts")}
    return {**head, "settings": settings, "counts": obj["counts"]}
