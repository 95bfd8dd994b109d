import itertools
import math

import numpy as np
import pytest

from pconcurrence.measures import wootters_concurrences
from pconcurrence.states import as_density
from pconcurrence.tomography import TomographyRecord, born_probabilities
from pconcurrence.witness import WEIGHT_FLOOR, sector_pairs, sector_states


def _enumerated_search(rho):
    """Reference pairing search over all K! bijections of A-sectors to B-sectors.

    Returns (perm, product) for the first bijection, in itertools order, with
    the largest concurrence product; perm[i] is the B-pair of A-pair i. When
    the maximum is 0 that is the identity.
    """
    table = sector_pairs(rho.dim_a)
    states, weights = sector_states(rho, table)
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


@pytest.fixture()
def enumerated_search():
    return _enumerated_search
