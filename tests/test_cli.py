import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from pconcurrence.cli import SWEEP_HEADER, main
from pconcurrence.states import (
    BipartiteKet,
    DensityMatrix,
    SpdcParams,
    density_from_ket,
    load_state,
    make_max_entangled,
    make_spdc_qudit,
    make_spdc_qutrit,
    save_state,
)
from pconcurrence.witness import pconcurrence_search, report_to_dict
from pconcurrence.tomography import load_record


@pytest.fixture()
def qutrit_file(tmp_path):
    path = tmp_path / "qutrit.json"
    save_state(path, make_spdc_qutrit(SpdcParams(0.5, 0.5)))
    return str(path)


@pytest.fixture()
def max_qutrit_file(tmp_path):
    path = tmp_path / "max3.json"
    save_state(path, make_max_entangled(3))
    return str(path)


def parse_csv(path):
    lines = path.read_text().splitlines()
    header, rows = lines[0], lines[1:]
    return header, [tuple(float(x) for x in line.split(",")) for line in rows]


def test_measure_pconcurrence(qutrit_file, capsys):
    assert main(["measure", qutrit_file, "--measure", "pconcurrence"]) == 0
    out = capsys.readouterr().out
    assert "0.64" in out


def test_measure_max_entangled(max_qutrit_file, capsys):
    assert main(["measure", max_qutrit_file, "--measure", "pconcurrence"]) == 0
    assert "raw = 1" in capsys.readouterr().out


def test_measure_eof_json(tmp_path, capsys):
    path = tmp_path / "state.json"
    save_state(path, make_spdc_qutrit(SpdcParams(1.0, 0.0)))
    assert main(["measure", str(path), "--measure", "eof", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["raw"] - 1.0) < 1e-9
    assert abs(payload["normalized"] - 0.6309297535714574) < 1e-6
    assert payload["normalize_dim"] == 3


def test_measure_invalid_file_nonzero_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "ket", "dimA": 2, "dimB": 2, "data": [[1, 0], [1, 0], [0, 0], [0, 0]]}')
    assert main(["measure", str(bad), "--measure", "eof"]) == 1
    assert "error" in capsys.readouterr().err


def test_witness_malformed_density_entry_is_an_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "density", "dimA": 2, "dimB": 2, "data": [[1, 2]]}')
    assert main(["witness", str(bad)]) == 1
    assert capsys.readouterr().err == "error: data[0] must be a list of [re, im] pairs\n"


def test_witness_non_object_file_is_an_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert main(["witness", str(bad)]) == 1
    assert capsys.readouterr().err == "error: a state must be a JSON object, got a list\n"


def test_witness_malformed_record_setting_is_an_error(tmp_path, max_qutrit_file, capsys):
    record = tmp_path / "record.json"
    assert main(["simulate", max_qutrit_file, "--time-s", "1", "--out", str(record)]) == 0
    obj = json.loads(record.read_text())
    obj["settings"][3]["a"] = 5
    record.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["witness", str(record)]) == 1
    assert capsys.readouterr().err == "error: settings[3].a must be a list of [re, im] pairs\n"


def _drop_ket_a(obj):
    del obj["settings"][3]["a"]


def _short_ket_a(obj):
    obj["settings"][3]["a"] = [[1.0, 0.0], [0.0, 0.0]]


def _unnormalized_ket_a(obj):
    obj["settings"][3]["a"] = [[2, 0], [0, 0], [0, 0]]


def _boolean_ket_a(obj):
    obj["settings"][3]["a"] = [[True, False], [0, 0], [0, 0]]  # the ket it replaces, as booleans


def _ragged_ket_b(obj):
    obj["settings"][3]["b"].append([0.0, 0.0])


def _no_settings(obj):
    obj["settings"], obj["counts"] = [], []


def _scalar_counts(obj):
    obj["counts"] = 5


def _nested_counts(obj):
    obj["counts"] = [[c] for c in obj["counts"]]


def _nan_count(obj):
    obj["counts"][5] = float("nan")


def _infinite_count(obj):
    obj["counts"][5] = float("inf")


HUGE = 10**400  # a JSON integer too large for a float


def _huge_count(obj):
    obj["counts"][0] = HUGE


def _huge_rate(obj):
    obj["rate_hz"] = HUGE


def _set(key, value):
    def edit(obj):
        obj[key] = value

    edit.__name__ = f"_{key}_{value}"
    return edit


def _drop(key):
    def edit(obj):
        del obj[key]

    edit.__name__ = f"_drop_{key}"
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop_ket_a, "settings[3] has no ket 'a'"),
        (_short_ket_a, "settings[3].a has 2 entries, expected dimA = 3"),
        (_ragged_ket_b, "settings[3].b has 4 entries, expected dimB = 3"),
        (_no_settings, "a record needs at least one setting"),
        (_scalar_counts, "counts must be a flat list of numbers"),
        (_nested_counts, "counts must be a flat list of numbers"),
        (_nan_count, "counts must be finite and nonnegative"),
        (_infinite_count, "counts must be finite and nonnegative"),
        (_set("rate_hz", 0), "rate_hz must be finite and positive, got 0.0"),
        (_set("rate_hz", -1000), "rate_hz must be finite and positive, got -1000.0"),
        (_set("rate_hz", float("nan")), "rate_hz must be finite and positive, got nan"),
        (_set("integration_time_s", -10), "integration_time_s must be finite and positive, got -10.0"),
        (_set("dimA", 3.7), "field 'dimA' must be an integer >= 1, got 3.7"),
        (_drop("counts"), "field 'counts' is missing"),
        (_drop("rate_hz"), "field 'rate_hz' is missing"),
        (_set("rate_hz", True), "field 'rate_hz' is malformed: True"),
        (_set("integration_time_s", "1"), "field 'integration_time_s' is malformed: '1'"),
        (_unnormalized_ket_a, "settings[3].a is not normalized"),
        (_boolean_ket_a, "settings[3].a must be a list of [re, im] pairs"),
        (_set("seed", [1, "x"]), "seed must be an integer >= 0 or null, got [1, 'x']"),
        (_set("seed", -1), "seed must be an integer >= 0 or null, got -1"),
        (_huge_count, f"field 'counts' is malformed: [{str(HUGE)[:59]}"),
        (_huge_rate, f"field 'rate_hz' is malformed: {str(HUGE)[:60]}"),
    ],
)
@pytest.mark.parametrize("command", ["witness", "reconstruct"])
def test_malformed_record_is_an_error(tmp_path, max_qutrit_file, capsys, edit, message, command):
    record = tmp_path / "record.json"
    assert main(["simulate", max_qutrit_file, "--time-s", "1", "--out", str(record)]) == 0
    obj = json.loads(record.read_text())
    edit(obj)
    record.write_text(json.dumps(obj))  # NaN and Infinity are written as json reads them
    capsys.readouterr()
    argv = [command, str(record)] + (["--out", str(tmp_path / "out.json")] if command == "reconstruct" else [])
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("text, kind", [("[1, 2]", "list"), ('"x"', "str"), ("null", "NoneType")])
def test_reconstruct_non_object_record_is_an_error(tmp_path, capsys, text, kind):
    record = tmp_path / "record.json"
    record.write_text(text)
    assert main(["reconstruct", str(record), "--out", str(tmp_path / "out.json")]) == 1
    assert capsys.readouterr() == ("", f"error: a record must be a JSON object, got a {kind}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "ket.json", "--pairing", "known"],
        ["witness", "ket.json", "--pairing", "search"],
        ["witness", "record.json", "--pairing", "known"],
        ["witness", "record.json", "--pairing", "search"],
        ["measure", "ket.json", "--measure", "pconcurrence"],
    ],
)
def test_unequal_sides_are_an_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    amp = np.zeros(6)
    amp[[0, 4]] = 1 / np.sqrt(2)  # (|00> + |11>) / sqrt(2) in 2 x 3
    save_state("ket.json", BipartiteKet(2, 3, amp))
    assert main(["simulate", "ket.json", "--time-s", "1", "--out", "record.json"]) == 0
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: need equal side dimensions, got (2, 3)\n")


@pytest.mark.parametrize("pairing", ["known", "search"])
def test_one_by_two_ket_is_refused_by_its_shape(tmp_path, capsys, pairing):
    # Both pairings check the side dimensions before anything else, so the
    # known pairing no longer reports "d must be >= 2, got 1" here.
    path = tmp_path / "ket.json"
    save_state(path, BipartiteKet(1, 2, np.array([1.0, 0.0])))
    assert main(["witness", str(path), "--pairing", pairing]) == 1
    assert capsys.readouterr() == ("", "error: need equal side dimensions, got (1, 2)\n")


@pytest.mark.parametrize(
    "factor, message",
    [
        (1e300, "rate_hz * integration_time_s = inf is not finite"),
        (1e-300, "rate_hz * integration_time_s = 0.0 underflows to zero"),
        (1e-160, "rate_hz * integration_time_s = 1e-320 is too small for the count {top:g}"),
    ],
    ids=["overflow", "underflow", "count-overflow"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "--pairing", "known"],
        ["witness", "--pairing", "search"],
        ["reconstruct", "--method", "linear", "--out", "rho.json"],
        ["reconstruct", "--method", "mle", "--out", "rho.json"],
    ],
    ids=["witness-known", "witness-search", "reconstruct-linear", "reconstruct-mle"],
)
def test_record_header_whose_frequencies_are_not_finite_is_an_error(
    tmp_path, monkeypatch, max_qutrit_file, capsys, factor, message, argv
):
    # Each factor is finite and positive; their product overflows, underflows
    # to 0, or is so small that a count divided by it overflows.
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", max_qutrit_file, "--time-s", "1", "--out", "record.json"]) == 0
    obj = json.loads(Path("record.json").read_text())
    obj["rate_hz"] = obj["integration_time_s"] = factor
    Path("record.json").write_text(json.dumps(obj))
    capsys.readouterr()
    assert main([argv[0], "record.json", *argv[1:]]) == 1
    assert capsys.readouterr() == ("", f"error: {message.format(top=max(obj['counts']))}\n")
    assert not Path("rho.json").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set("dimA", 3.7), "field 'dimA' must be an integer >= 1, got 3.7"),
        (_set("dimA", "3"), "field 'dimA' must be an integer >= 1, got '3'"),
        (_set("dimB", True), "field 'dimB' must be an integer >= 1, got True"),
        (_set("dimB", 0), "field 'dimB' must be an integer >= 1, got 0"),
        (_drop("dimA"), "field 'dimA' is missing"),
        (_drop("data"), "field 'data' is missing"),
    ],
)
@pytest.mark.parametrize("kind", ["ket", "density"])
def test_malformed_state_header_is_an_error(tmp_path, capsys, edit, message, kind):
    path = tmp_path / "state.json"
    ket = make_max_entangled(3)
    save_state(path, ket if kind == "ket" else density_from_ket(ket))
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))
    assert main(["witness", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_simulate_rejects_non_finite_rate(tmp_path, max_qutrit_file, capsys):
    argv = ["simulate", max_qutrit_file, "--rate-hz", "nan", "--out", str(tmp_path / "r.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: rate_hz must be finite and positive, got nan\n"


@pytest.mark.parametrize(
    "rate_hz, time_s, message",
    [
        ("1e10", "1e10", "rate_hz * integration_time_s = 1e+20 gives a Poisson mean of "),
        ("1e300", "1e300", "rate_hz * integration_time_s = inf is not finite\n"),
    ],
)
def test_simulate_refuses_counts_too_large_to_draw(tmp_path, max_qutrit_file, capsys, rate_hz, time_s, message):
    out = tmp_path / "r.json"
    argv = ["simulate", max_qutrit_file, "--rate-hz", rate_hz, "--time-s", time_s, "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {message}")
    assert not out.exists()


def test_simulate_rejects_negative_seed(tmp_path, max_qutrit_file, capsys):
    argv = ["simulate", max_qutrit_file, "--seed", "-1", "--out", str(tmp_path / "r.json")]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: seed must be an integer >= 0 or null, got -1\n")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("kind", ["ket", "density"])
def test_boolean_state_entries_are_an_error(tmp_path, capsys, kind):
    path = tmp_path / "state.json"
    ket = make_max_entangled(2)
    save_state(path, ket if kind == "ket" else density_from_ket(ket))
    obj = json.loads(path.read_text())
    if kind == "ket":  # a zero entry, as [0, false]
        obj["data"][1], message = [0, False], "data must be a list of [re, im] pairs"
    else:
        obj["data"][1][1], message = [0, False], "data[1] must be a list of [re, im] pairs"
    path.write_text(json.dumps(obj))
    assert main(["witness", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("kind", ["ket", "density"])
def test_state_entry_too_large_for_a_float_is_an_error(tmp_path, capsys, kind):
    path = tmp_path / "state.json"
    ket = make_max_entangled(2)
    save_state(path, ket if kind == "ket" else density_from_ket(ket))
    obj = json.loads(path.read_text())
    if kind == "ket":
        obj["data"][0], message = [HUGE, 0], "data must be a list of [re, im] pairs"
    else:
        obj["data"][0][0], message = [HUGE, 0], "data[0] must be a list of [re, im] pairs"
    path.write_text(json.dumps(obj))
    assert main(["witness", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


# --- states at the edge of the DensityMatrix gate ------------------------------


def edge_state_file(tmp_path, perturb):
    """A d = 3 state whose (1,2)x(1,2) sector has weight 2e-4, with one eigenvalue at -perturb.

    The eigenvector of -perturb is |1,2>, inside that sector, so the sector
    block divided by its weight has an eigenvalue of -perturb / 2e-4.
    """
    psi = np.zeros(9)
    psi[[0, 4, 8]] = np.sqrt([1 - 2e-4, 1e-4, 1e-4])
    m = np.outer(psi, psi).astype(complex)
    m[5, 5] -= perturb  # |1,2>
    m[3, 3] += perturb  # |1,0> keeps the trace
    path = tmp_path / f"edge_{perturb}.json"
    save_state(path, DensityMatrix(3, 3, m))
    return str(path)


@pytest.mark.parametrize("pairing", ["known", "search"])
def test_witness_accepts_every_gated_state(tmp_path, pairing):
    products = []
    for perturb in (0.0, 5e-10):  # -5e-10 passes the gate (PSD_ATOL = -1e-9)
        out = tmp_path / "report.json"
        assert main(["witness", edge_state_file(tmp_path, perturb), "--pairing", pairing, "--out", str(out)]) == 0
        products.append(json.loads(out.read_text())["pconcurrence"])
    assert products[0] == pytest.approx(4e-4, rel=1e-3)
    assert abs(products[1] - products[0]) < 1e-6


@pytest.mark.parametrize("pairing", ["known", "search"])
def test_witness_concurrences_of_gated_states_stay_in_unit_interval(tmp_path, pairing):
    """A sector of weight 1e-10 whose block has eigenvalues {6, 0, 0, -5} scores the concurrence 1 of its positive part."""
    psi = np.zeros(9)
    psi[[0, 4, 8]] = np.sqrt([1 - 6e-10, 3e-10, 3e-10])
    m = np.outer(psi, psi).astype(complex)
    m[5, 5] -= 5e-10  # |1,2>
    m[3, 3] += 5e-10  # |1,0> keeps the trace
    weak = tmp_path / "weak.json"
    save_state(weak, DensityMatrix(3, 3, m))
    for path in (str(weak), edge_state_file(tmp_path, 5e-10)):
        out = tmp_path / "report.json"
        assert main(["witness", path, "--pairing", pairing, "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["subspaces"]
        assert all(0.0 <= row["concurrence"] <= 1.0 and 0.0 <= row["fidelity"] <= 1.0 for row in rows)
        assert rows[-1]["a"] == [1, 2] and rows[-1]["concurrence"] == pytest.approx(1.0, abs=1e-9)


def test_measure_accepts_every_gated_state(tmp_path, capsys):
    raws = []
    for perturb in (0.0, 5e-10):
        argv = ["measure", edge_state_file(tmp_path, perturb), "--measure", "pconcurrence", "--format", "json"]
        assert main(argv) == 0
        raws.append(json.loads(capsys.readouterr().out)["raw"])
    assert abs(raws[1] - raws[0]) < 1e-6


def test_reconstruct_target_accepts_every_gated_state(tmp_path, max_qutrit_file, capsys):
    record = tmp_path / "record.json"
    assert main(["simulate", max_qutrit_file, "--time-s", "1", "--out", str(record)]) == 0
    target = edge_state_file(tmp_path, 5e-10)
    argv = ["reconstruct", str(record), "--target", target, "--out", str(tmp_path / "rho.json")]
    assert main(argv) == 0
    assert "fidelity to target:" in capsys.readouterr().out


@pytest.mark.parametrize(
    "target, message",
    [
        ("bell.json", "target dims (2, 2) do not match the record's dims (3, 3)"),
        ("no_data.json", "field 'data' is missing"),
        ("missing.json", "[Errno 2] No such file or directory: 'missing.json'"),
    ],
    ids=["other_dims", "malformed", "missing"],
)
@pytest.mark.parametrize("method", ["linear", "mle"])
def test_reconstruct_bad_target_writes_nothing(tmp_path, monkeypatch, max_qutrit_file, capsys, target, message, method):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", max_qutrit_file, "--time-s", "1", "--out", "record.json"]) == 0
    save_state("bell.json", make_max_entangled(2))
    Path("no_data.json").write_text(json.dumps({"type": "ket", "dimA": 3, "dimB": 3}))
    capsys.readouterr()
    argv = ["reconstruct", "record.json", "--method", method, "--target", target, "--out", "rho.json"]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not Path("rho.json").exists()


def test_reconstruct_refuses_a_record_without_counts(tmp_path, monkeypatch, max_qutrit_file, capsys):
    # both fits share one check, so both methods print the same error line
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", max_qutrit_file, "--time-s", "1", "--out", "record.json"]) == 0
    obj = json.loads(Path("record.json").read_text())
    Path("record.json").write_text(json.dumps({**obj, "counts": [0] * len(obj["counts"])}))
    capsys.readouterr()
    for method in ("linear", "mle"):
        assert main(["reconstruct", "record.json", "--method", method, "--out", f"{method}.json"]) == 1
        assert capsys.readouterr() == ("", "error: record has no counts; there is nothing to fit\n")
        assert not Path(f"{method}.json").exists()


def test_sweep_endpoints_and_header(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--grid-n", "4", "--out", str(out)]) == 0
    header, rows = parse_csv(out)
    assert header == SWEEP_HEADER
    assert len(rows) == 25
    by_ab = {(r[0], r[1]): r for r in rows}
    assert by_ab[(0.0, 0.0)][2:] == (0.0, 0.0, 0.0)
    assert all(abs(v - 1.0) < 1e-9 for v in by_ab[(1.0, 1.0)][2:])
    for (a, b), row in by_ab.items():
        if a == 0.0 or b == 0.0:
            assert row[2] == 0.0
            if max(a, b) > 0:
                assert row[3] > 0.0


def test_sweep_rejects_small_grid(tmp_path):
    assert main(["sweep", "--grid-n", "1", "--out", str(tmp_path / "x.csv")]) == 1


def test_sweep_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["sweep", "--grid-n", "3", "--out", str(out1)])
    main(["sweep", "--grid-n", "3", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_round_trips_at_full_precision(tmp_path):
    out = tmp_path / "sweep.csv"
    main(["sweep", "--grid-n", "3", "--out", str(out)])
    header, rows = parse_csv(out)
    text = out.read_text().splitlines()[1:]
    for line, row in zip(text, rows):
        assert line == ",".join(repr(v) for v in row)  # shortest round-trip form


def test_path_endpoints(tmp_path):
    out = tmp_path / "path.csv"
    assert main(["path", "--grid-n", "10", "--out", str(out)]) == 0
    header, rows = parse_csv(out)
    assert header == SWEEP_HEADER
    assert len(rows) == 11
    first, last = rows[0], rows[-1]
    assert first[0] == 0.0 and first[1] == 1.0
    assert first[2] == 0.0
    assert abs(first[3] - 0.6309) < 1e-4
    assert abs(first[4] - 0.8660) < 1e-4
    assert all(abs(v - 1.0) < 1e-9 for v in last[2:])
    pvals = [r[2] for r in rows]
    assert all(pvals[i] <= pvals[i + 1] + 1e-12 for i in range(len(pvals) - 1))


def test_simulate_reconstruct_witness_pipeline(tmp_path, max_qutrit_file, capsys):
    record_path = tmp_path / "record.json"
    assert (
        main(
            [
                "simulate",
                max_qutrit_file,
                "--settings",
                "pairwise",
                "--rate-hz",
                "1000",
                "--time-s",
                "10",
                "--seed",
                "1",
                "--out",
                str(record_path),
            ]
        )
        == 0
    )
    record = load_record(record_path)
    assert len(record.settings) == 225

    rho_path = tmp_path / "rho.json"
    assert (
        main(
            [
                "reconstruct",
                str(record_path),
                "--method",
                "mle",
                "--target",
                max_qutrit_file,
                "--out",
                str(rho_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "purity" in out and "fidelity" in out
    rho = load_state(rho_path)
    assert (rho.dim_a, rho.dim_b) == (3, 3)

    report_path = tmp_path / "report.json"
    assert main(["witness", str(rho_path), "--pairing", "known", "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert abs(report["pconcurrence"] - 1.0) < 0.05


def test_simulate_deterministic(tmp_path, qutrit_file):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["simulate", qutrit_file, "--settings", "pairwise", "--seed", "9", "--out", str(p1)])
    main(["simulate", qutrit_file, "--settings", "pairwise", "--seed", "9", "--out", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()


# SHA-256 of `simulate --time-s 1 --seed 7` records of make_spdc_qudit(d, 1.5),
# at the default 1000 Hz; qubit36 is pairwise at d = 2.
RECORD_DIGESTS = {
    ("pairwise", 2): "a9c1a55cccad7b339f77488fe8021f9a9e80f9284089d6fe9dc6ae34254eed00",
    ("pairwise", 3): "f8e3c2216a6578c6db3d9c446b247507c9cf73c2f87681899da30621d6e3d0f5",
    ("pairwise", 4): "4886f4dfeee29763eb00f1d0a411a4cf92dee180f6f984d33e3349a5be6b79c3",
    ("pairwise", 5): "c56291eee05c6b264363284a8132052c9d5f4f4712ca52ea02b8b5579ff1f6de",
    ("mub", 2): "d944ad1f58b18378d06cc4dde7e82f0dfddb605f2182a0d63a0742f2a4a3dbb9",
    ("mub", 3): "a07895eb8abdfbe8b15c7762cb78cbff2161a7fcc277d94932a8ad57608d9f0d",
    ("mub", 5): "a1c3c1462eb0a4a8e76eefa49d2b47db589214765be24edfc6a817b108c493d8",
    ("qubit36", 2): "a9c1a55cccad7b339f77488fe8021f9a9e80f9284089d6fe9dc6ae34254eed00",
}


@pytest.mark.parametrize("family, d", list(RECORD_DIGESTS))
def test_simulate_record_bytes_are_pinned(tmp_path, family, d):
    state, record = tmp_path / "state.json", tmp_path / "record.json"
    save_state(state, make_spdc_qudit(d, 1.5))
    argv = ["simulate", str(state), "--settings", family, "--time-s", "1", "--seed", "7", "--out", str(record)]
    assert main(argv) == 0
    assert hashlib.sha256(record.read_bytes()).hexdigest() == RECORD_DIGESTS[family, d]


@pytest.mark.parametrize(
    "state, family, message",
    [
        (BipartiteKet(1, 1, [1.0]), "pairwise", "d must be >= 2, got 1"),
        (make_spdc_qudit(4, 1.5), "mub", "d must be prime, got 4"),
        (make_spdc_qudit(3, 1.5), "qubit36", "qubit36 settings need a 2x2 state"),
    ],
)
def test_simulate_refuses_a_family_the_state_does_not_fit(tmp_path, capsys, state, family, message):
    path, record = tmp_path / "state.json", tmp_path / "record.json"
    save_state(path, state)
    assert main(["simulate", str(path), "--settings", family, "--out", str(record)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not record.exists()


def test_witness_table_from_density(tmp_path, capsys):
    path = tmp_path / "state.json"
    save_state(path, density_from_ket(make_spdc_qutrit(SpdcParams(0.5, 0.5))))
    assert main(["witness", str(path)]) == 0
    out = capsys.readouterr().out
    assert "{0,1}_A x {0,1}_B" in out
    assert "0.64" in out


def test_witness_search_mode(tmp_path, capsys):
    path = tmp_path / "state.json"
    save_state(path, make_max_entangled(3))
    assert main(["witness", str(path), "--pairing", "search"]) == 0
    assert capsys.readouterr().out.endswith("\npconcurrence (assignment)         1.00\n")


def test_witness_from_record_pipeline(tmp_path, max_qutrit_file, capsys):
    record_path = tmp_path / "record.json"
    main(
        [
            "simulate",
            max_qutrit_file,
            "--settings",
            "pairwise",
            "--rate-hz",
            "1000",
            "--time-s",
            "10",
            "--seed",
            "2",
            "--out",
            str(record_path),
        ]
    )
    report_path = tmp_path / "report.json"
    assert main(["witness", str(record_path), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert abs(report["pconcurrence"] - 1.0) < 0.05
    assert len(report["subspaces"]) == 3
    for row in report["subspaces"]:
        assert abs(row["weight"] - 2 / 3) < 0.05

    search_path = tmp_path / "search.json"
    assert main(["witness", str(record_path), "--pairing", "search", "--out", str(search_path)]) == 0
    search = json.loads(search_path.read_text())
    # the max over pairings dominates the known pairing
    assert search["pconcurrence"] >= report["pconcurrence"] - 1e-9


def test_witness_record_search_with_zero_count_sectors(tmp_path):
    # Off-pairing sectors such as (0,1)x(2,3) of a d = 4 anticorrelated
    # state collect no counts; they score 0 instead of failing the fit.
    ket = make_spdc_qudit(4, 1.5)
    state_path, record_path = tmp_path / "ket.json", tmp_path / "record.json"
    save_state(state_path, ket)
    assert main(["simulate", str(state_path), "--seed", "4", "--out", str(record_path)]) == 0
    known_path, search_path = tmp_path / "known.json", tmp_path / "search.json"
    assert main(["witness", str(record_path), "--out", str(known_path)]) == 0
    assert main(["witness", str(record_path), "--pairing", "search", "--out", str(search_path)]) == 0
    known = json.loads(known_path.read_text())
    search = json.loads(search_path.read_text())
    assert search["pconcurrence"] >= known["pconcurrence"]
    exact = pconcurrence_search(density_from_ket(ket)).pconcurrence
    assert abs(search["pconcurrence"] - exact) < 0.03


def test_library_search_on_a_record_equals_the_cli_report(tmp_path):
    ket_path, record_path, report_path = tmp_path / "ket.json", tmp_path / "record.json", tmp_path / "report.json"
    save_state(ket_path, make_spdc_qudit(4, 1.5))
    assert main(["simulate", str(ket_path), "--time-s", "1", "--seed", "3", "--out", str(record_path)]) == 0
    assert main(["witness", str(record_path), "--pairing", "search", "--out", str(report_path)]) == 0
    report = pconcurrence_search(load_record(record_path))
    assert json.dumps(report_to_dict(report), indent=2) + "\n" == report_path.read_text()


def test_witness_parses_its_input_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "state.json"
    save_state(path, density_from_ket(make_spdc_qutrit(SpdcParams(0.5, 0.5))))
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **k: calls.append(1) or loads(*a, **k))
    assert main(["witness", str(path)]) == 0
    assert len(calls) == 1
    assert "0.64" in capsys.readouterr().out


def test_budget_text_and_json(tmp_path, capsys):
    assert main(["budget", "8"]) == 0
    out = capsys.readouterr().out
    assert "1008" in out and "14400" in out and "2.8 h" in out and "40.0 h" in out

    json_out = tmp_path / "budget.json"
    assert main(["budget", "3", "--format", "json", "--out", str(json_out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pconc_measurements"] == 108
    assert payload["qst_measurements"] == 225
    assert json.loads(json_out.read_text()) == payload


@pytest.mark.parametrize("time_s, shown", [("-5", "-5.0"), ("nan", "nan"), ("0", "0.0")])
def test_budget_rejects_non_positive_time(capsys, time_s, shown):
    assert main(["budget", "3", "--time-s", time_s]) == 1
    assert capsys.readouterr() == ("", f"error: integration_time_s must be finite and positive, got {shown}\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_budget_refuses_a_total_time_that_overflows(tmp_path, capsys, fmt):
    out = tmp_path / "budget.json"
    assert main(["budget", "3", "--time-s", "1e308", "--format", fmt, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: integration_time_s = 1e+308 overflows the total time of 225 settings\n")
    assert not out.exists()


def test_footer_rounding_two_decimals():
    # Sector rows of 0.92/0.93/0.93 produce a 0.80 footer at two decimals.
    assert f"{0.92 * 0.93 * 0.93:.2f}" == "0.80"


def test_missing_file_is_an_error(capsys):
    assert main(["measure", "/nonexistent.json", "--measure", "eof"]) == 1
    assert "error" in capsys.readouterr().err
