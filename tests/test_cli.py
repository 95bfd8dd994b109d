import json

import pytest

from pconcurrence.cli import SWEEP_HEADER, main
from pconcurrence.states import (
    SpdcParams,
    density_from_ket,
    load_state,
    make_max_entangled,
    make_spdc_qudit,
    make_spdc_qutrit,
    save_state,
)
from pconcurrence.witness import pconcurrence_search
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
    args = ["simulate", qutrit_file, "--settings", "qubit36", "--seed", "9"]
    main(["simulate", qutrit_file, "--settings", "pairwise", "--seed", "9", "--out", str(p1)])
    main(["simulate", qutrit_file, "--settings", "pairwise", "--seed", "9", "--out", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()


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
    assert "1.00" in capsys.readouterr().out


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


def test_footer_rounding_two_decimals():
    # Sector rows of 0.92/0.93/0.93 produce a 0.80 footer at two decimals.
    assert f"{0.92 * 0.93 * 0.93:.2f}" == "0.80"


def test_missing_file_is_an_error(capsys):
    assert main(["measure", "/nonexistent.json", "--measure", "eof"]) == 1
    assert "error" in capsys.readouterr().err
