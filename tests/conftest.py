import itertools
import math

import numpy as np
import pytest

from pconcurrence.measures import wootters_concurrences
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


@pytest.fixture()
def enumerated_search():
    return _enumerated_search
