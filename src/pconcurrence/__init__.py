"""Subspace-concurrence entanglement witness toolkit for bipartite qudits.

Quantifies high-dimensional entanglement as the product of two-qubit
concurrences over all qubit subspaces of a d x d state, alongside
reference measures (Wootters concurrence, I-concurrence, entanglement of
formation), a simulated two-photon tomography pipeline with Poisson
noise, and a measurement-budget calculator.
"""

from .measures import (
    eof_pure,
    i_concurrence,
    purity,
    uhlmann_fidelity,
    wootters_concurrence,
)
from .states import (
    BipartiteKet,
    DensityMatrix,
    IndexPair,
    SpdcParams,
    as_density,
    count_subspaces,
    density_from_ket,
    enumerate_pairs,
    load_state,
    make_max_entangled,
    make_spdc_qudit,
    make_spdc_qutrit,
    partial_trace,
    save_state,
    validate_density,
)
from .tomography import (
    Budget,
    Settings,
    TomographyRecord,
    arm_kets,
    budget,
    family_settings,
    joint_settings,
    load_record,
    reconstruct_linear,
    reconstruct_mle,
    save_record,
    simulate_counts,
)
from .witness import (
    WitnessReport,
    evaluate_measure,
    identity_pairing,
    normalize_measure,
    pconcurrence_known,
    pconcurrence_search,
)

__version__ = "0.1.0"
