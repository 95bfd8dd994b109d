"""Subspace-concurrence entanglement witness toolkit for bipartite qudits.

Quantifies high-dimensional entanglement as the product of two-qubit
concurrences over all qubit subspaces of a d x d state, alongside
reference measures (Wootters concurrence, I-concurrence, entanglement of
formation), a simulated two-photon tomography pipeline with Poisson
noise, and a measurement-budget calculator.
"""

from .measures import (
    MEASURE_NAMES,
    MeasureValue,
    eof_pure,
    evaluate_measure,
    i_concurrence,
    normalize_measure,
    purity,
    uhlmann_fidelity,
    wootters_concurrence,
)
from .states import (
    BipartiteKet,
    DensityMatrix,
    SpdcParams,
    as_density,
    density_from_ket,
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
    IndexPair,
    WitnessReport,
    count_subspaces,
    enumerate_pairs,
    identity_pairing,
    pconcurrence_known,
    pconcurrence_search,
)

__version__ = "0.1.0"
