import hashlib
import json
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import gated_edge_density, per_setting_dict
from pconcurrence import measures, witness
from pconcurrence.cli import SWEEP_HEADER, _fmt, main
from pconcurrence.measures import eof_pure, i_concurrence
from pconcurrence.states import (
    BipartiteKet,
    SpdcParams,
    density_from_ket,
    load_state,
    make_max_entangled,
    make_spdc_qudit,
    make_spdc_qutrit,
    save_state,
    validate_density,
)
from pconcurrence.witness import identity_pairing, normalize_measure, pconcurrence_known, pconcurrence_search, report_to_dict
from pconcurrence.tomography import Settings, arm_kets, joint_settings, load_record, save_record, simulate_counts


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


def test_measure_concurrence_of_a_two_qubit_ket_is_its_pconcurrence(tmp_path, capsys):
    rng = np.random.default_rng(5)
    for _ in range(20):
        amp = rng.normal(size=4) + 1j * rng.normal(size=4)
        ket = BipartiteKet(2, 2, amp / np.linalg.norm(amp))
        save_state(tmp_path / "ket.json", ket)
        save_state(tmp_path / "rho.json", density_from_ket(ket))
        capsys.readouterr()
        payloads = {}
        for state, measure in (("ket", "concurrence"), ("ket", "pconcurrence"), ("rho", "concurrence")):
            argv = ["measure", str(tmp_path / f"{state}.json"), "--measure", measure, "--format", "json"]
            assert main(argv) == 0
            payloads[state, measure] = json.loads(capsys.readouterr().out)
        on_ket, product = payloads["ket", "concurrence"], payloads["ket", "pconcurrence"]
        assert (on_ket["raw"], on_ket["normalized"]) == (product["raw"], product["normalized"])
        # A density goes through the Wootters kernel, which agrees to round-off.
        assert payloads["rho", "concurrence"]["raw"] == pytest.approx(on_ket["raw"], abs=1e-12)
    # On a mixed 2 x 2 density too, concurrence is its pconcurrence, to the last bit.
    for i in range(40):
        rank = 1 + i % 4
        g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        m = g @ g.conj().T
        save_state(tmp_path / "rho.json", validate_density(m / np.trace(m).real, (2, 2)))
        payloads = {}
        for measure in ("concurrence", "pconcurrence"):
            assert main(["measure", str(tmp_path / "rho.json"), "--measure", measure, "--format", "json"]) == 0
            payloads[measure] = {**json.loads(capsys.readouterr().out), "measure": None}
        assert payloads["concurrence"] == payloads["pconcurrence"], rank


def test_measure_max_entangled(max_qutrit_file, capsys):
    assert main(["measure", max_qutrit_file, "--measure", "pconcurrence"]) == 0
    assert "raw = 1" in capsys.readouterr().out


def test_measure_eof_json(tmp_path, capsys):
    path = tmp_path / "state.json"
    save_state(path, make_spdc_qutrit(SpdcParams(1.0, 0.0)))
    out = tmp_path / "eof.json"
    assert main(["measure", str(path), "--measure", "eof", "--format", "json", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert out.read_text() == printed
    payload = json.loads(printed)
    assert abs(payload["raw"] - 1.0) < 1e-9
    assert abs(payload["normalized"] - 0.6309297535714574) < 1e-6
    assert payload["normalize_dim"] == 3


def product_kets(rng, d, n):
    """The basis product |0,0> and n random complex product kets a x b of a d x d system."""
    kets = [np.eye(d * d)[0]]
    for _ in range(n):
        a, b = (rng.normal(size=d) + 1j * rng.normal(size=d) for _ in "ab")
        kets.append(np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b)))
    return [BipartiteKet(d, d, v) for v in kets]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_measure_eof_of_product_kets_is_non_negative(tmp_path, capsys, d):
    # The entropy of a reduced state whose one eigenvalue rounds near 1 is
    # a round-off of either sign; it reads 0, never a negative, -0 or 8e-16.
    path = tmp_path / "product.json"
    for i, ket in enumerate(product_kets(np.random.default_rng(0), d, 8)):
        save_state(path, ket)
        assert main(["measure", str(path), "--measure", "eof"]) == 0
        assert capsys.readouterr().out == "eof: raw = 0, normalized = 0\n"
        assert main(["measure", str(path), "--measure", "eof", "--format", "json"]) == 0
        raw = json.loads(capsys.readouterr().out)["raw"]
        assert raw == 0.0 and math.copysign(1.0, raw) == 1.0, (i, raw)


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
    bad.write_text('{"type": "density", "dimA": 2, "dimB": 2, "data": {"re": 1}}')
    assert main(["witness", str(bad)]) == 1
    assert capsys.readouterr().err == "error: data must be a list of rows of [re, im] pairs\n"


@pytest.mark.parametrize(
    "kind, data, message",
    [
        ("density", "[[[0.5, 0]], [[0, 0], [0.5, 0]]]", "data[0] has 1 entries, expected dimA * dimB = 2"),
        ("density", "[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0], [0, 0]]]", "data[1] has 3 entries, expected dimA * dimB = 2"),
        ("ket", "[[1, 0]]", "data has 1 entries, expected dimA * dimB = 2"),
    ],
    ids=["density_short_first_row", "density_long_second_row", "ket_short"],
)
def test_state_entries_of_the_wrong_count_are_an_error(tmp_path, capsys, kind, data, message):
    bad = tmp_path / "bad.json"
    bad.write_text(f'{{"type": "{kind}", "dimA": 1, "dimB": 2, "data": {data}}}')
    assert main(["witness", str(bad)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "{deep}"],
        ["measure", "{deep}", "--measure", "eof"],
        ["simulate", "{deep}", "--out", "{out}"],
        ["reconstruct", "{deep}", "--out", "{out}"],
        ["reconstruct", "{record}", "--target", "{deep}", "--out", "{out}"],
    ],
)
def test_deeply_nested_json_is_an_error(tmp_path, max_qutrit_file, capsys, argv):
    deep, record, out = tmp_path / "deep.json", tmp_path / "record.json", tmp_path / "out.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["simulate", max_qutrit_file, "--time-s", "1", "--out", str(record)]) == 0
    capsys.readouterr()
    assert main([a.format(deep=deep, record=record, out=out) for a in argv]) == 1
    assert capsys.readouterr() == ("", f"error: {deep} is nested too deeply to parse as JSON\n")
    assert not out.exists()


def test_witness_unnormalized_ket_is_an_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "ket", "dimA": 2, "dimB": 2, "data": [[1, 0], [0, 0], [0, 0], [1, 0]]}))
    assert main(["witness", str(bad)]) == 1
    assert capsys.readouterr() == ("", "error: ket is not normalized: sum |amp|^2 = 2.0\n")


def test_witness_non_object_file_is_an_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert main(["witness", str(bad)]) == 1
    assert capsys.readouterr().err == "error: a state must be a JSON object, got a list\n"


def test_witness_malformed_record_setting_is_an_error(tmp_path, max_qutrit_file, capsys):
    record = tmp_path / "record.json"
    assert main(["simulate", max_qutrit_file, "--time-s", "1", "--out", str(record)]) == 0
    obj = json.loads(record.read_text())
    obj["arms"]["a"][3]["ket"] = 5
    record.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["witness", str(record)]) == 1
    assert capsys.readouterr().err == "error: arms.a[3].ket must be a list of [re, im] pairs\n"


# Arm-table edits of the same d = 3 pairwise record: 15 kets per arm, and
# settings[5] = [0, 5].
def _index_pair(value):
    def edit(obj):
        obj["settings"][5] = value

    edit.__name__ = f"_settings_5_{value}"
    return edit


def _drop_arm_b(obj):
    del obj["arms"]["b"]


def _drop_arm_ket_a(obj):
    del obj["arms"]["a"][3]["ket"]


def _unnormalized_arm_ket_a(obj):
    obj["arms"]["a"][3]["ket"] = [[2, 0], [0, 0], [0, 0]]


def _boolean_arm_ket_a(obj):
    obj["arms"]["a"][0]["ket"] = [[True, False], [0, 0], [0, 0]]  # the ket it replaces, as booleans


def _ragged_arm_ket_b(obj):
    obj["arms"]["b"][3]["ket"].append([0.0, 0.0])


def _short_arm_ket_a(obj):
    obj["arms"]["a"][3]["ket"] = [[1.0, 0.0], [0.0, 0.0]]


def _number_label_b(obj):
    obj["arms"]["b"][2]["label"] = 7


def _unused_unnormalized_arm_ket(obj):
    obj["arms"]["a"].append({"ket": [[2, 0], [0, 0], [0, 0]], "label": "unused"})


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


def _boolean_count(obj):
    obj["counts"][0] = True


def _string_count(obj):
    obj["counts"][1] = "7"


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
        (_drop_arm_ket_a, "arms.a[3] must be an object with a 'ket'"),
        (_ragged_arm_ket_b, "arms.b[3].ket has 4 entries, expected dimB = 3"),
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
        (_unnormalized_arm_ket_a, "arms.a[3].ket is not normalized"),
        (_boolean_arm_ket_a, "arms.a[0].ket must be a list of [re, im] pairs"),
        (_set("seed", [1, "x"]), "seed must be an integer >= 0 or null, got [1, 'x']"),
        (_set("seed", -1), "seed must be an integer >= 0 or null, got -1"),
        (_huge_count, f"field 'counts' is malformed: [{str(HUGE)[:59]}"),
        (_huge_rate, f"field 'rate_hz' is malformed: {str(HUGE)[:60]}"),
        # The message shows the first 60 characters of the edited counts of the seed-0 record.
        (_boolean_count, "field 'counts' is malformed: [True, 0, 0, 161, 172, 157, 149, 159, 180, 167, 185, 0, 0, 0"),
        (_string_count, "field 'counts' is malformed: [371, '7', 0, 161, 172, 157, 149, 159, 180, 167, 185, 0, 0, "),
        (_index_pair([0, 15]), "settings[5] must be [ia, ib] with 0 <= ia < 15 and 0 <= ib < 15, got [0, 15]"),
        (_index_pair([-1, 5]), "settings[5] must be [ia, ib] with 0 <= ia < 15 and 0 <= ib < 15, got [-1, 5]"),
        (_index_pair([False, 5]), "settings[5] must be [ia, ib] with 0 <= ia < 15 and 0 <= ib < 15, got [False, 5]"),
        (_index_pair([0, 5.0]), "settings[5] must be [ia, ib] with 0 <= ia < 15 and 0 <= ib < 15, got [0, 5.0]"),
        (_index_pair([0, 5, 5]), "settings[5] must be [ia, ib] with 0 <= ia < 15 and 0 <= ib < 15, got [0, 5, 5]"),
        (_drop_arm_b, "field 'arms.b' must be a list of {ket, label} objects"),
        (_set("arms", []), "field 'arms' must be an object with arm lists 'a' and 'b'"),
        (_short_arm_ket_a, "arms.a[3].ket has 2 entries, expected dimA = 3"),
        (_number_label_b, "arms.b[2].label must be a string"),
        (_unused_unnormalized_arm_ket, "arms.a[15].ket is not normalized"),
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


@pytest.mark.parametrize("argv", [["measure", "--measure", "eof"], ["simulate", "--out", "out.json"]])
def test_state_commands_refuse_a_record(tmp_path, monkeypatch, max_qutrit_file, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", max_qutrit_file, "--time-s", "1", "--out", "record.json"]) == 0
    capsys.readouterr()
    assert main([argv[0], "record.json", *argv[1:]]) == 1
    assert capsys.readouterr() == ("", f"error: {argv[0]} expects a state file, not a tomography record\n")
    assert not Path("out.json").exists()


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
    """The gated_edge_density whose (1,2)x(1,2) sector has weight 2e-4, saved to a file."""
    path = tmp_path / f"edge_{perturb}.json"
    save_state(path, gated_edge_density(2e-4, perturb))
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
    weak = tmp_path / "weak.json"
    save_state(weak, gated_edge_density(6e-10, 5e-10))
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


def grid_lines_one_point_at_a_time(n, path):
    """The sweep or path CSV built point by point from the public single-state functions."""
    steps = [i / n for i in range(n + 1)]
    lines = [SWEEP_HEADER]
    for a in steps:
        for b in [1.0] if path else steps:
            ket = make_spdc_qutrit(SpdcParams(a, b))
            row = (
                a,
                b,
                pconcurrence_known(ket, identity_pairing(3)).pconcurrence,
                normalize_measure(eof_pure(ket), "eof", 3),
                normalize_measure(i_concurrence(ket), "i_concurrence", 3),
            )
            lines.append(",".join(_fmt(v) for v in row))
    return lines


@pytest.mark.parametrize("command", ["sweep", "path"])
@pytest.mark.parametrize("n", [*range(2, 13), 50])
def test_stacked_grid_equals_rows_built_one_point_at_a_time(tmp_path, capsys, command, n):
    out = tmp_path / "grid.csv"
    assert main([command, "--grid-n", str(n), "--out", str(out)]) == 0
    expected = grid_lines_one_point_at_a_time(n, command == "path")
    assert capsys.readouterr().out == f"wrote {len(expected) - 1} rows to {out}\n"
    assert out.read_text().splitlines() == expected


def exact_qutrit_product(alpha, beta):
    """The known-pairing product of the qutrit family at the binary values alpha, beta, as a fraction."""
    amps = (Fraction(alpha), Fraction(1), Fraction(beta))
    product = Fraction(1)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        x, y = amps[i], amps[j]
        product *= 2 * x * y / (x * x + y * y) if x * y else 0
    return product


@pytest.mark.parametrize("command", ["sweep", "path"])
def test_grid_pconcurrence_matches_the_exact_product_to_1e_15(tmp_path, command):
    out = tmp_path / "grid.csv"
    assert main([command, "--grid-n", "50", "--out", str(out)]) == 0
    for alpha, beta, p, *_ in parse_csv(out)[1]:
        exact = exact_qutrit_product(alpha, beta)
        if exact == 0:
            assert p == 0.0
        else:
            assert abs(Fraction(p) - exact) <= 1e-15 * exact, f"({alpha}, {beta}): {p!r} vs {float(exact)!r}"


@pytest.mark.parametrize("command", ["sweep", "path"])
def test_grid_runs_no_wootters_kernel(tmp_path, monkeypatch, command):
    calls = []
    for module in (measures, witness):
        kernel = module.wootters_concurrences
        monkeypatch.setattr(module, "wootters_concurrences", lambda m, kernel=kernel: calls.append(1) or kernel(m))
    assert main([command, "--grid-n", "4", "--out", str(tmp_path / "grid.csv")]) == 0
    assert calls == []


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
    ("pairwise", 2): "9e3179204e89f218fbe933c3435492fb2006230f4a1af8191298cb224736ae38",
    ("pairwise", 3): "f7c587fe1a0e284c60844ad9bbef4297e98923ebfb1f0526198146684ff6a98f",
    ("pairwise", 4): "ce14eded2cbfb92d91dcc64a906f2f529e8c0c3ce2813833b1e481e2d5bbdcf0",
    ("pairwise", 5): "6f41407dbd9fa3d9e74bf01a2710974e9610075cb6c5bb29bae63168628e3c36",
    ("mub", 2): "8c9b4788879d6af94e300374de2f5f343bed1ee7aadb2b89eb8baeefe670a69d",
    ("mub", 3): "07ebdb2dc18f193a11398defd7a1ed675134561ed679fa87d8196b3fbaff0a46",
    ("mub", 5): "ad32355a4a84f76091453d054fbf425899814b355cd9742698cd0c0114d2fb8b",
    ("qubit36", 2): "9e3179204e89f218fbe933c3435492fb2006230f4a1af8191298cb224736ae38",
}


def _simulate_pinned(tmp_path, family, d):
    state, record = tmp_path / "state.json", tmp_path / "record.json"
    save_state(state, make_spdc_qudit(d, 1.5))
    argv = ["simulate", str(state), "--settings", family, "--time-s", "1", "--seed", "7", "--out", str(record)]
    assert main(argv) == 0
    return record


@pytest.mark.parametrize("family, d", list(RECORD_DIGESTS))
def test_simulate_record_bytes_are_pinned(tmp_path, family, d):
    record = _simulate_pinned(tmp_path, family, d)
    assert hashlib.sha256(record.read_bytes()).hexdigest() == RECORD_DIGESTS[family, d]


# SHA-256 of the same records in the per-setting layout, as the writer before
# the arm tables wrote them (json.dumps(..., indent=2) and a newline): each
# setting spelled out both kets. That layout is no longer read.
PER_SETTING_DIGESTS = {
    ("pairwise", 2): "a9c1a55cccad7b339f77488fe8021f9a9e80f9284089d6fe9dc6ae34254eed00",
    ("pairwise", 3): "f8e3c2216a6578c6db3d9c446b247507c9cf73c2f87681899da30621d6e3d0f5",
    ("pairwise", 4): "4886f4dfeee29763eb00f1d0a411a4cf92dee180f6f984d33e3349a5be6b79c3",
    ("pairwise", 5): "c56291eee05c6b264363284a8132052c9d5f4f4712ca52ea02b8b5579ff1f6de",
    ("mub", 2): "d944ad1f58b18378d06cc4dde7e82f0dfddb605f2182a0d63a0742f2a4a3dbb9",
    ("mub", 3): "a07895eb8abdfbe8b15c7762cb78cbff2161a7fcc277d94932a8ad57608d9f0d",
    ("mub", 5): "a1c3c1462eb0a4a8e76eefa49d2b47db589214765be24edfc6a817b108c493d8",
    ("qubit36", 2): "a9c1a55cccad7b339f77488fe8021f9a9e80f9284089d6fe9dc6ae34254eed00",
}


@pytest.mark.parametrize("family, d", list(PER_SETTING_DIGESTS))
def test_per_setting_record_gives_the_same_outputs(tmp_path, capsys, family, d):
    # Every command gives a per-setting file the same output: exit 1, one error
    # line naming the missing arm tables, and no --out file. `simulate` with the
    # same state and seed writes its counts again: the per-setting form of the
    # record it draws is that file byte for byte.
    record = _simulate_pinned(tmp_path, family, d)
    old = tmp_path / "per_setting.json"
    old.write_text(json.dumps(per_setting_dict(json.loads(record.read_text())), indent=2) + "\n")
    assert hashlib.sha256(old.read_bytes()).hexdigest() == PER_SETTING_DIGESTS[family, d]
    capsys.readouterr()
    out = tmp_path / "out.json"
    for command in (["witness"], ["witness", "--pairing", "search"],
                    ["reconstruct", "--method", "linear"], ["reconstruct", "--method", "mle"],
                    ["measure", "--measure", "eof"], ["simulate"]):
        assert main([command[0], str(old), *command[1:], "--out", str(out)]) == 1, command
        assert capsys.readouterr() == ("", "error: field 'arms' is missing\n"), command
        assert not out.exists(), command


@pytest.mark.parametrize("d", [3, 5])
def test_witness_refuses_a_mub_record_that_reconstruct_reads(tmp_path, capsys, d):
    # Every mub ket outside the computational basis has all d entries
    # nonzero, so only the 2 x 2 basis settings restrict to a qubit sector.
    record = _simulate_pinned(tmp_path, "mub", d)
    capsys.readouterr()
    for pairing in ("known", "search"):
        assert main(["witness", str(record), "--pairing", pairing]) == 1
        assert capsys.readouterr() == (
            "", "error: only 4 settings (rank 4) remain on subspace (0,1)x(0,1); 16 independent settings are needed\n"
        )
    assert main(["reconstruct", str(record), "--method", "linear", "--out", str(tmp_path / "rho.json")]) == 0


def test_witness_names_a_sector_that_keeps_no_setting(tmp_path, capsys):
    # One Fourier basis per arm: each ket has all three entries nonzero, so no setting lives on a qubit sector.
    kets = arm_kets("mub", 3)[0][3:6]
    record = simulate_counts(density_from_ket(make_spdc_qudit(3, 1.5)), joint_settings(kets, kets), 1e3, 10.0, seed=0)
    path = tmp_path / "fourier.json"
    save_record(path, record)
    for pairing in ("known", "search"):
        assert main(["witness", str(path), "--pairing", pairing]) == 1
        assert capsys.readouterr() == (
            "", "error: only 0 settings (rank 0) remain on subspace (0,1)x(0,1); 16 independent settings are needed\n"
        )


def test_sector_only_record_witnesses_its_pairing_and_refuses_the_search(tmp_path, capsys):
    # A d = 4 pairwise record cut down, by index selection, to the settings of
    # the known-pairing sectors: 32 K + d^2 = 208 of its 784.
    state, full = tmp_path / "state.json", tmp_path / "full.json"
    save_state(state, make_spdc_qudit(4, 1.5))
    assert main(["simulate", str(state), "--seed", "0", "--out", str(full)]) == 0
    record = load_record(full)
    s = record.settings

    def on(kets, pair):
        """Which arm kets have no amplitude outside the index pair."""
        return ~np.delete(kets, [pair.lo, pair.hi], axis=1).any(axis=1)

    keep = np.zeros(len(s), dtype=bool)
    for a, b in identity_pairing(4):
        keep |= on(s.kets_a, a)[s.pairs[:, 0]] & on(s.kets_b, b)[s.pairs[:, 1]]
    assert keep.sum() == 208
    cut = Settings(s.kets_a, s.kets_b, s.pairs[keep], s.labels_a, s.labels_b)
    path = tmp_path / "sectors.json"
    save_record(path, replace(record, settings=cut, counts=record.counts[keep]))
    capsys.readouterr()
    # The known-pairing sectors keep the same settings, in the same order, so the report is the full record's.
    assert main(["witness", str(full)]) == 0
    expected = capsys.readouterr()
    assert main(["witness", str(path)]) == 0
    assert capsys.readouterr() == expected
    assert main(["witness", str(path), "--pairing", "search"]) == 1
    assert capsys.readouterr() == (
        "", "error: only 12 settings (rank 8) remain on subspace (0,1)x(0,2); 16 independent settings are needed\n"
    )


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
