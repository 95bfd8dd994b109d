"""Command-line frontend.

Subcommands: measure, sweep, path, simulate, reconstruct, witness, budget.
States, tomography records and witness reports travel as JSON; sweeps are
CSV. Every command is deterministic given its arguments (including the
seed), so re-runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .measures import (
    MEASURE_NAMES,
    eof_pure,
    evaluate_measure,
    i_concurrence,
    normalize_measure,
    purity,
    uhlmann_fidelity,
)
from .states import (
    BipartiteKet,
    DensityMatrix,
    SpdcParams,
    as_density,
    load_state,
    make_spdc_qutrit,
    save_state,
    state_from_dict,
)
from .tomography import (
    FAMILIES,
    TomographyRecord,
    budget,
    family_settings,
    load_record,
    reconstruct_linear,
    reconstruct_mle,
    record_from_dict,
    save_record,
    simulate_counts,
)
from .witness import (
    WitnessReport,
    identity_pairing,
    pconcurrence_known,
    pconcurrence_search,
    report_to_dict,
    side_dim,
)

SWEEP_HEADER = "alpha,beta,pconcurrence,eof_norm,iconcurrence_norm"


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form (lossless to re-parse)."""
    return repr(float(x))


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _load_input(path: str) -> BipartiteKet | DensityMatrix | TomographyRecord:
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(obj, dict) and "settings" in obj:
        return record_from_dict(obj)
    return state_from_dict(obj)


def _sweep_row(alpha: float, beta: float) -> tuple[float, float, float]:
    ket = make_spdc_qutrit(SpdcParams(alpha, beta))
    report = pconcurrence_known(ket, identity_pairing(3))
    eof_n = normalize_measure(eof_pure(ket), "eof", 3)
    iconc_n = normalize_measure(i_concurrence(ket), "i_concurrence", 3)
    return report.pconcurrence, eof_n, iconc_n


def cmd_measure(args: argparse.Namespace) -> int:
    state = _load_input(args.state_file)
    if isinstance(state, TomographyRecord):
        raise ValueError("measure expects a state file, not a tomography record")
    value = evaluate_measure(state, args.measure, args.normalize_dim)
    payload = {
        "measure": value.measure_name,
        "raw": value.raw,
        "normalized": value.normalized,
        "normalize_dim": args.normalize_dim or min(state.dim_a, state.dim_b),
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"{value.measure_name}: raw = {value.raw:.12g}, normalized = {value.normalized:.12g}")
    if args.out:
        _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


def _write_grid(args: argparse.Namespace, path: bool) -> int:
    """CSV of the alpha-beta grid at spacing 1/grid-n; the path is its beta = 1 column."""
    if args.grid_n < 2:
        raise ValueError(f"grid-n must be >= 2, got {args.grid_n}")
    steps = [i / args.grid_n for i in range(args.grid_n + 1)]
    rows = [(a, b, *_sweep_row(a, b)) for a in steps for b in ([1.0] if path else steps)]
    lines = [SWEEP_HEADER] + [",".join(_fmt(v) for v in row) for row in rows]
    _write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    return _write_grid(args, path=False)


def cmd_path(args: argparse.Namespace) -> int:
    return _write_grid(args, path=True)


def cmd_simulate(args: argparse.Namespace) -> int:
    state = _load_input(args.state_file)
    if isinstance(state, TomographyRecord):
        raise ValueError("simulate expects a state file, not a tomography record")
    rho = as_density(state)
    family = args.settings
    if family == "qubit36":  # the pairwise set of a 2 x 2 state
        if (rho.dim_a, rho.dim_b) != (2, 2):
            raise ValueError("qubit36 settings need a 2x2 state")
        family = "pairwise"
    settings = family_settings(family, rho.dim_a, rho.dim_b)
    record = simulate_counts(rho, settings, args.rate_hz, args.time_s, seed=args.seed)
    save_record(args.out, record)
    print(f"wrote {len(settings)} settings with counts to {args.out}")
    return 0


def cmd_reconstruct(args: argparse.Namespace) -> int:
    record = load_record(args.record_file)
    target = as_density(load_state(args.target)) if args.target else None
    dims = (record.dim_a, record.dim_b)
    if target is not None and (target.dim_a, target.dim_b) != dims:
        raise ValueError(f"target dims {(target.dim_a, target.dim_b)} do not match the record's dims {dims}")
    rho = reconstruct_linear(record) if args.method == "linear" else reconstruct_mle(record)
    save_state(args.out, rho)
    print(f"reconstructed ({args.method}) -> {args.out}")
    print(f"purity: {purity(rho):.6f}")
    if target is not None:
        print(f"fidelity to target: {uhlmann_fidelity(rho, target):.6f}")
    return 0


def _print_report(report: WitnessReport) -> None:
    print(f"{'subspace':<26} {'concurrence':>11} {'fidelity':>9} {'weight':>8}")
    for row in report.subspace_rows:
        label = f"{{{row.a.lo},{row.a.hi}}}_A x {{{row.b.lo},{row.b.hi}}}_B"
        print(f"{label:<26} {row.concurrence:>11.2f} {row.fidelity:>9.2f} {row.weight:>8.3f}")
    print(f"{'pconcurrence (' + report.search_mode + ')':<26} {report.pconcurrence:>11.2f}")


def cmd_witness(args: argparse.Namespace) -> int:
    source = _load_input(args.input_file)
    d = side_dim(source.dim_a, source.dim_b)
    if args.pairing == "search":
        report = pconcurrence_search(source)
    else:
        report = pconcurrence_known(source, identity_pairing(d))
    _print_report(report)
    if args.out:
        _write_text(args.out, json.dumps(report_to_dict(report), indent=2) + "\n")
    return 0


def cmd_budget(args: argparse.Namespace) -> int:
    b = budget(args.d, args.time_s)
    payload = asdict(b)
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"d = {b.d}, K = {b.k} qubit subspaces")
        print(
            f"subspace route: {b.pconc_measurements:>6} measurements, "
            f"{b.pconc_time_s / 3600:.1f} h at {args.time_s:g} s each"
        )
        print(
            f"full QST:       {b.qst_measurements:>6} measurements, "
            f"{b.qst_time_s / 3600:.1f} h at {args.time_s:g} s each"
        )
    if args.out:
        _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pconc",
        description="Subspace-concurrence entanglement witness toolkit for bipartite qudits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="evaluate an entanglement measure on a state file")
    p.add_argument("state_file")
    p.add_argument("--measure", choices=MEASURE_NAMES, required=True)
    p.add_argument("--normalize-dim", type=int, default=None, dest="normalize_dim")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("sweep", help="alpha-beta grid of the qutrit family measures (CSV)")
    p.add_argument("--grid-n", type=int, required=True, dest="grid_n")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("path", help="alpha path at beta = 1 (CSV)")
    p.add_argument("--grid-n", type=int, required=True, dest="grid_n")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("simulate", help="simulate coincidence counts for a state")
    p.add_argument("state_file")
    p.add_argument("--settings", choices=("qubit36", *FAMILIES), default="pairwise")
    p.add_argument("--rate-hz", type=float, default=1000.0, dest="rate_hz")
    p.add_argument("--time-s", type=float, default=10.0, dest="time_s")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", help="fit a density matrix to a tomography record")
    p.add_argument("record_file")
    p.add_argument("--method", choices=("linear", "mle"), default="mle")
    p.add_argument("--target", default=None, help="state file to report fidelity against")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("witness", help="per-subspace concurrence table and product")
    p.add_argument("input_file", help="state file, or tomography record for the full pipeline")
    p.add_argument("--pairing", choices=("known", "search"), default="known")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("budget", help="measurement budget: subspace route vs full QST")
    p.add_argument("d", type=int)
    p.add_argument("--time-s", type=float, default=10.0, dest="time_s")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_budget)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
