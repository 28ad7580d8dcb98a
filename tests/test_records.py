"""CSV and manifest persistence: exact round trips, header checks, golden bytes."""

import hashlib
import json

import numpy as np
import pytest

from blgisim.cli import main
from blgisim.prediction import (
    PredictionTable,
    SequentialReadoutParams,
    prediction_batch,
    prediction_settings,
)
from blgisim.qubits import NoiseModel
from blgisim.records import (
    PREDICTION_HEADER,
    SWEEP_HEADER,
    TRIAL_HEADER,
    RunManifest,
    emit_manifest,
    emit_predictions,
    emit_records,
    emit_sweep,
    read_manifest,
    read_predictions,
    read_records,
    read_sweep,
)
from blgisim.trials import TrialTable, default_settings, simulate_trials
from reference import empty_table


@pytest.mark.parametrize("table", [TrialTable, PredictionTable])
def test_table_field_names_are_the_schema_names(table):
    # one column order: the schema's, which is the CSV's and the constructor's
    names = [name for name, _ in table.schema]
    assert len(names) == len(set(names))
    assert table.field_names == tuple(names)
    assert names[:2] == ["trial_index", "settings_id"]


def _table_columns(table_cls, n):
    """Valid columns of an n-row table of table_cls, in schema order."""
    return ["one;experiment" if kind == "str" else np.arange(n, dtype=kind) for _, kind in table_cls.schema]


@pytest.mark.parametrize("table_cls", [TrialTable, PredictionTable])
def test_table_rejects_columns_that_do_not_match_trial_index(table_cls):
    assert len(table_cls(*_table_columns(table_cls, 3))) == 3
    for k, name in enumerate(table_cls.field_names):
        if name == "settings_id":
            continue
        for bad in (np.arange(2), np.arange(4), np.zeros((3, 1)), 0):
            columns = _table_columns(table_cls, 3)
            columns[k] = bad
            with pytest.raises(ValueError, match="1-D and match trial_index"):
                table_cls(*columns)


@pytest.mark.parametrize("table_cls", [TrialTable, PredictionTable])
def test_table_holds_one_settings_id(table_cls):
    columns = _table_columns(table_cls, 2)
    k = table_cls.field_names.index("settings_id")
    for bad in (np.array(["a", "b"], dtype=object), np.array(["a", "a"], dtype=object), ["a", "a"], None):
        columns[k] = bad
        with pytest.raises(TypeError, match="one str per table"):
            table_cls(*columns)
    columns[k] = "a"
    one = table_cls(*columns)
    columns[k] = "b"
    with pytest.raises(ValueError, match="malformed records: 2 distinct settings ids in one record set"):
        table_cls.concat([one, table_cls(*columns)])
    assert table_cls.concat([one, one]).settings_id == "a"


def test_trial_round_trip_is_bit_exact(tmp_path):
    settings = default_settings(0.3, NoiseModel(bias=0.05, sigma=0.25))
    table = simulate_trials(settings, 50, master_seed=5)
    path = tmp_path / "trials.csv"
    emit_records(table, str(path))
    back = read_records(str(path))
    for name in ("trial_index", "raw1", "raw2", "alpha1", "alpha2", "beta1", "beta2", "seed"):
        assert np.array_equal(getattr(back, name), getattr(table, name)), name
    assert back.settings_id == table.settings_id
    assert isinstance(back.settings_id, str)


def test_trial_round_trip_handles_extreme_floats(tmp_path):
    # %.17g must reproduce every double exactly, including denormals
    raws = [0.1, -1.0 / 3.0, 1e300, 5e-324, 0.0, 123456789.123456789]
    n = len(raws)
    table = TrialTable(
        range(n), "edge;case", raws, raws, raws, raws, [1] * n, [-1] * n, range(n)
    )
    path = tmp_path / "edge.csv"
    emit_records(table, str(path))
    back = read_records(str(path))
    assert np.array_equal(back.raw1, np.asarray(raws))
    assert np.array_equal(back.alpha2, np.asarray(raws))


def test_concat_rejects_two_experiments():
    a = simulate_trials(default_settings(0.4), 3, master_seed=1)
    b = simulate_trials(default_settings(0.9), 2, master_seed=1)
    with pytest.raises(ValueError, match="malformed records: 2 distinct settings ids in one record set"):
        TrialTable.concat([a, b])


def test_empty_trial_set_writes_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_records(empty_table(TrialTable), str(path))
    assert path.read_text() == ",".join(TRIAL_HEADER) + "\n"
    with pytest.raises(ValueError, match="no records"):
        read_records(str(path))


def test_trial_read_rejects_foreign_files(tmp_path):
    wrong = tmp_path / "wrong.csv"
    wrong.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_records(str(wrong))

    truncated = tmp_path / "short.csv"
    truncated.write_text(",".join(TRIAL_HEADER) + "\n" + "0,id,1.0\n")
    with pytest.raises(ValueError, match="malformed"):
        read_records(str(truncated))


def _trial_table(settings_id, n):
    return TrialTable([0] * n, settings_id, [1.0] * n, [1.0] * n, [1.0] * n, [1.0] * n, [1] * n, [1] * n, [0] * n)


def test_emit_rejects_delimiters_inside_settings_id(tmp_path):
    bad = _trial_table("has,comma", 2)
    with pytest.raises(ValueError, match="delimiter"):
        emit_records(bad, str(tmp_path / "bad.csv"))


def test_emit_rejects_quotes_inside_settings_id(tmp_path):
    bad = _trial_table('say "hi"', 1)
    with pytest.raises(ValueError, match="quote"):
        emit_records(bad, str(tmp_path / "bad.csv"))


@pytest.mark.parametrize("emit, other", [(emit_records, PredictionTable), (emit_predictions, TrialTable)])
def test_emitters_reject_the_other_table_kind_before_opening_the_file(tmp_path, emit, other):
    path = tmp_path / "wrong_kind.csv"
    wanted = "PredictionTable" if other is TrialTable else "TrialTable"
    with pytest.raises(TypeError, match=f"{wanted}.*got {other.__name__}"):
        emit(empty_table(other), str(path))
    assert not path.exists()


def test_prediction_round_trip_is_bit_exact(tmp_path):
    table = prediction_batch(
        prediction_settings(0.6), SequentialReadoutParams(v=0.3, steps=30), 40, master_seed=2
    )
    path = tmp_path / "pred.csv"
    emit_predictions(table, str(path))
    back = read_predictions(str(path))
    for name in (
        "trial_index",
        "trajectory_mean1",
        "trajectory_mean2",
        "predicted1",
        "predicted2",
        "actual1",
        "actual2",
        "seed",
    ):
        assert np.array_equal(getattr(back, name), getattr(table, name)), name
    assert back.settings_id == table.settings_id


def test_prediction_empty_and_header_checks(tmp_path):
    path = tmp_path / "pred_empty.csv"
    emit_predictions(empty_table(PredictionTable), str(path))
    assert path.read_text() == ",".join(PREDICTION_HEADER) + "\n"
    with pytest.raises(ValueError, match="no records"):
        read_predictions(str(path))
    wrong = tmp_path / "trials_not_predictions.csv"
    wrong.write_text(",".join(TRIAL_HEADER) + "\n")
    with pytest.raises(ValueError, match="header"):
        read_predictions(str(wrong))


@pytest.mark.parametrize("verdict", ["RE,JECT", 'say "hi"', "REJECT\n", "REJECT\r"])
def test_emit_sweep_rejects_delimiters_inside_a_verdict(tmp_path, verdict):
    # such a row would not read back; nothing is written
    columns = {name: [1.0] for name in SWEEP_HEADER[:-1]}
    path = tmp_path / "bad_sweep.csv"
    with pytest.raises(ValueError, match="verdict .* contains CSV delimiter or quote characters"):
        emit_sweep({**columns, "verdict": [verdict]}, str(path))
    assert not path.exists()


def test_sweep_round_trip(tmp_path):
    columns = {
        "v": [0.1, 0.95],
        "exact_chsh": [2.82, 1.85],
        "empirical_chsh": [2.81, 1.86],
        "chsh_stderr": [0.01, 0.02],
        "verdict": ["REJECT", "CONSISTENT"],
    }
    path = tmp_path / "sweep.csv"
    emit_sweep(columns, str(path))
    assert path.read_text().splitlines() == [
        ",".join(SWEEP_HEADER),
        "0.10000000000000001,2.8199999999999998,2.8100000000000001,0.01,REJECT",
        "0.94999999999999996,1.8500000000000001,1.8600000000000001,0.02,CONSISTENT",
    ]
    assert read_sweep(str(path)) == columns
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert read_sweep(str(crlf)) == columns
    with pytest.raises(ValueError, match="equally long"):
        emit_sweep({**columns, "verdict": ["REJECT"]}, str(tmp_path / "short.csv"))
    assert not (tmp_path / "short.csv").exists()
    empty = {name: [] for name in SWEEP_HEADER}
    emit_sweep(empty, str(path))
    assert path.read_text() == ",".join(SWEEP_HEADER) + "\n"
    assert read_sweep(str(path)) == empty
    wrong = tmp_path / "bad_sweep.csv"
    wrong.write_text("nope\n")
    with pytest.raises(ValueError, match="header"):
        read_sweep(str(wrong))


def test_read_sweep_names_the_line_of_a_malformed_row(tmp_path):
    path = tmp_path / "sweep.csv"
    good = "0.1,2.82,2.81,0.01,REJECT"
    path.write_text(",".join(SWEEP_HEADER) + f"\n{good}\n0.5,2.5,abc,0.01,REJECT\n")
    with pytest.raises(ValueError, match=r"^malformed sweep CSV row at line 3: .*'abc'"):
        read_sweep(str(path))
    path.write_text(",".join(SWEEP_HEADER) + f"\n{good}\n{good}\n0.5,2.5\n")
    with pytest.raises(ValueError, match="^malformed sweep CSV row at line 4"):
        read_sweep(str(path))
    for rows, error in [
        (f"{good}\n\n{good}\n", "at line 3: '': expected 5 fields"),  # blank line
        (f"{good}\n{good},9\n", "at line 3: .*: expected 5 fields"),  # extra field
        (f'{good}\n0.5,2.5,2.4,0.01,"REJECT"\n', "at line 3: quoted verdict"),
        (f"{good}\n{good.replace('2.81', '')}\n", "at line 3: "),  # empty field
    ]:
        path.write_text(",".join(SWEEP_HEADER) + "\n" + rows)
        with pytest.raises(ValueError, match=f"^malformed sweep CSV row {error}"):
            read_sweep(str(path))


def test_manifest_round_trip(tmp_path):
    manifest = RunManifest(
        tool_version="0.1.0",
        command="simulate --v 0.5 --out x.csv",
        master_seed=42,
        parameters={"v": 0.5, "trials": 100},
        started="2026-01-01T00:00:00+00:00",
        finished="2026-01-01T00:00:05+00:00",
        output_paths=["x.csv"],
    )
    path = tmp_path / "run.manifest.json"
    emit_manifest(manifest, str(path))
    data = json.loads(path.read_text())
    assert data["master_seed"] == 42
    assert read_manifest(str(path)) == manifest


# every key of a manifest written before layout versions were recorded
MANIFEST_FIELDS = {
    "tool_version": "0.1.0",
    "command": "predict --v 0.5 --out x.csv",
    "master_seed": 3,
    "parameters": {"v": 0.5},
    "started": "2026-01-01T00:00:00+00:00",
    "finished": "2026-01-01T00:00:05+00:00",
    "output_paths": ["x.csv"],
}


def test_manifest_without_layout_version_reads_as_layout_1(tmp_path):
    path = tmp_path / "old.manifest.json"
    path.write_text(json.dumps(MANIFEST_FIELDS))
    assert read_manifest(str(path)).layout_version == 1



@pytest.mark.parametrize(
    "data",
    [["not", "an", "object"], {"tool_version": "0.1.0"}, {**MANIFEST_FIELDS, "extra": 1}],
    ids=["non-object", "missing key", "unknown key"],
)
def test_read_manifest_names_the_file_of_a_malformed_manifest(tmp_path, data):
    path = tmp_path / "bad.manifest.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=f"^malformed manifest {path}: "):
        read_manifest(str(path))


# ------------------------------------------------------------- golden bytes

# SHA-256 of the record CSVs as the format stands; a change that moves these
# bytes must bump the layout version and say so.
GOLDEN = [
    (
        # draw layout 3: each trial's branch is drawn from the exact 16-branch law
        "simulate --v 0.2 --noise-sigma 0.3 --trials 140000 --seed 3",
        "a4b375cb8ca3c0b4f6b8dec12b84e6492cb23e64ec975f46a67e2fdd7f6f289e",
    ),
    (
        # draw layout 4: one block per trial, the branch drawn from the 16-branch law
        "predict --v 0.5 --readout-v 0.3 --steps 300 --trials 500 --seed 3",
        "f635af306399befdf1ae5d8219be7fa7e2d1730f652986b54bfa983c23b9ff20",
    ),
    # two chunks per grid point: the only output that goes through the process pool
    (
        "sweep --v-grid 0.3,1.0 --trials 70000 --seed 3 --workers 1",
        "f50b9b9ce8a95096b86ed01b07b65f0093f8ac61d32a805fb418d098d71b53e4",
    ),
    (
        "sweep --v-grid 0.3,1.0 --trials 70000 --seed 3 --workers 2",
        "f50b9b9ce8a95096b86ed01b07b65f0093f8ac61d32a805fb418d098d71b53e4",
    ),
]


@pytest.mark.parametrize("command, digest", GOLDEN)
def test_cli_record_bytes_match_golden_hashes(tmp_path, capsys, command, digest):
    out = tmp_path / "records.csv"
    assert main([*command.split(), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# ----------------------------------------------------------- hostile inputs


def _trial_row(i, sid="s"):
    return f"{i},{sid},0.5,-0.25,2.5,-1.25,1,-1,{i + 7}"


def _prediction_row(i, sid="s"):
    return f"{i},{sid},0.5,-0.25,1,-1,-1,1,{i + 7}"


READERS = {
    "trial": (TRIAL_HEADER, _trial_row, read_records, emit_records),
    "prediction": (PREDICTION_HEADER, _prediction_row, read_predictions, emit_predictions),
}


def _with_seed(row, seed):
    return row.rsplit(",", 1)[0] + "," + seed


# Each case maps (header line, row maker) to (file text, outcome). The outcome
# is an error pattern, or the text that emitting the table read back must give.
HOSTILE = {
    "extra field": lambda h, row: (f"{h}\n{row(0)},9\n", "malformed"),
    "short row": lambda h, row: (f"{h}\n0,s,0.5\n", "malformed"),
    "blank line inside": lambda h, row: (f"{h}\n{row(0)}\n\n{row(1)}\n", "malformed"),
    "blank line at end": lambda h, row: (f"{h}\n{row(0)}\n{row(1)}\n\n", "malformed"),
    # as many commas as two good rows, so only the row count can tell
    "blank line after a doubled row": lambda h, row: (f"{h}\n{row(0)}{',1' * 8}\n\n", "malformed"),
    "non-numeric field": lambda h, row: (f"{h}\n{row(0).replace('0.5', 'abc')}\n", "malformed"),
    "empty field": lambda h, row: (f"{h}\n{row(0).replace('0.5', '')}\n", "malformed"),
    "seed of 2**64": lambda h, row: (f"{h}\n{_with_seed(row(0), str(2**64))}\n", "malformed"),
    "negative seed": lambda h, row: (f"{h}\n{_with_seed(row(0), '-1')}\n", "malformed"),
    "non-integer int field": lambda h, row: (f"{h}\n{row(0).replace(',1,', ',1.5,')}\n", "malformed"),
    "index past int64": lambda h, row: (f"{h}\n{row(0).replace('0,', str(2**63) + ',', 1)}\n", "malformed"),
    "quoted settings id": lambda h, row: (f'{h}\n{row(0, chr(34) + "s" + chr(34))}\n', "malformed"),
    "quoted number": lambda h, row: (f"{h}\n{row(0).replace('0.5', chr(34) + '0.5' + chr(34))}\n", "malformed"),
    "foreign header": lambda h, row: (f"a,b,c\n{row(0)}\n", "header"),
    "empty file": lambda h, row: ("", "header"),
    "header only": lambda h, row: (f"{h}\n", "no records"),
    "hash in settings id": lambda h, row: (f"{h}\n{row(0, 'a#b')}\n", f"{h}\n{row(0, 'a#b')}\n"),
    "CRLF line endings": lambda h, row: (f"{h}\r\n{row(0)}\r\n{row(1)}\r\n", f"{h}\n{row(0)}\n{row(1)}\n"),
    "no final newline": lambda h, row: (f"{h}\n{row(0)}\n{row(1)}", f"{h}\n{row(0)}\n{row(1)}\n"),
}


@pytest.mark.parametrize("case", list(HOSTILE))
@pytest.mark.parametrize("kind", list(READERS))
def test_readers_round_trip_or_reject_hostile_input(tmp_path, kind, case):
    header, row, read, emit = READERS[kind]
    text, outcome = HOSTILE[case](",".join(header), row)
    path = tmp_path / "hostile.csv"
    path.write_bytes(text.encode())
    if outcome in ("malformed", "header", "no records"):
        with pytest.raises(ValueError, match=outcome):
            read(str(path))
        return
    back = tmp_path / "back.csv"
    emit(read(str(path)), str(back))
    assert back.read_bytes() == outcome.encode()


@pytest.mark.parametrize("line", [7, 65540])
def test_trial_reader_names_the_file_line_of_a_bad_field(tmp_path, line):
    # the second case sits in the second block of rows
    rows = [_trial_row(i) for i in range(line)]
    rows[line - 2] = rows[line - 2].replace("0.5", "abc")
    path = tmp_path / "bad.csv"
    path.write_text(",".join(TRIAL_HEADER) + "\n" + "".join(r + "\n" for r in rows))
    with pytest.raises(ValueError, match=f"^malformed trial CSV row at line {line}: '{line - 2},s,abc,.*': raw1 'abc' does not parse as float64$"):
        read_records(str(path))


@pytest.mark.parametrize("switch", [65530, 65536])
@pytest.mark.parametrize("kind", list(READERS))
def test_mixed_settings_ids_across_a_block_boundary(tmp_path, kind, switch):
    # a second id is malformed at the line where it first appears, inside a
    # block or at the first row of the next one
    header, row, read, _ = READERS[kind]
    ids = ["a" if i < switch else "b" for i in range(65540)]
    text = ",".join(header) + "\n" + "".join(row(i, sid) + "\n" for i, sid in enumerate(ids))
    path = tmp_path / "mixed.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"malformed records: 2 distinct settings ids .* line {switch + 2} "):
        read(str(path))

