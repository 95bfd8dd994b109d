#!/usr/bin/env python3
"""End-to-end simulated two-photon experiment.

Builds a down-conversion qudit state, simulates an overcomplete joint
tomography with Poisson counting noise, reconstructs the full state and
every qubit sector (tomography filter + maximum likelihood), and prints
the per-sector concurrence/fidelity table with the product value,
followed by the measurement-budget comparison.
"""

import argparse

import numpy as np

from pconcurrence.measures import purity, uhlmann_fidelity
from pconcurrence.states import density_from_ket, make_spdc_qudit
from pconcurrence.tomography import (
    budget,
    joint_settings,
    pairwise_ket_labels,
    pairwise_overcomplete_kets,
    reconstruct_mle,
    sector_estimates,
    simulate_counts,
)
from pconcurrence.witness import identity_pairing, pconcurrence_known, sector_report


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=3)
    parser.add_argument("--decay", type=float, default=1.5, help="spectral width of the pair source")
    parser.add_argument("--rate-hz", type=float, default=1000.0)
    parser.add_argument("--time-s", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    ket = make_spdc_qudit(args.dim, args.decay)
    truth = density_from_ket(ket)
    print(f"source: {args.dim}-dimensional pair state, decay {args.decay}")
    print(f"amplitudes: {np.round(ket.amplitude_matrix().diagonal().real, 4)}")

    kets = pairwise_overcomplete_kets(args.dim)
    labels = pairwise_ket_labels(args.dim)
    settings = joint_settings(kets, kets, labels, labels)
    record = simulate_counts(truth, settings, args.rate_hz, args.time_s, seed=args.seed)
    print(f"simulated {len(settings)} joint settings at {args.rate_hz:g} Hz x {args.time_s:g} s")

    rho_full = reconstruct_mle(record)
    print(f"full reconstruction: purity {purity(rho_full):.4f}, "
          f"fidelity to truth {uhlmann_fidelity(rho_full, truth):.4f}")

    pairs = identity_pairing(args.dim).pairs
    report = sector_report(pairs, *sector_estimates(record, pairs))
    print(f"\n{'sector':<20} {'concurrence':>11} {'fidelity':>9}")
    for row in report.subspace_rows:
        print(f"{{{row.a.lo},{row.a.hi}}}_A x {{{row.b.lo},{row.b.hi}}}_B".ljust(20)
              + f" {row.concurrence:>11.3f} {row.fidelity:>9.3f}")
    print(f"{'product (sectors)':<20} {report.pconcurrence:>11.3f}")

    ideal = pconcurrence_known(truth, identity_pairing(args.dim)).pconcurrence
    print(f"{'product (ideal)':<20} {ideal:>11.3f}")

    b = budget(args.dim, args.time_s)
    print(f"\nbudget: {b.pconc_measurements} sector measurements "
          f"({b.pconc_time_s / 3600:.2f} h) vs {b.qst_measurements} for full QST "
          f"({b.qst_time_s / 3600:.2f} h)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
