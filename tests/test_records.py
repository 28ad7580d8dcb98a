"""CSV and manifest persistence: exact round trips, header checks, golden bytes.

Record files are written in format 2; format-1 files come from the
reference writer, ``reference.emit_format1``, and must still read."""

import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from blgisim.audit import decomposition_test
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
    PREDICTION_ROW_SCHEMA,
    SWEEP_HEADER,
    TRIAL_HEADER,
    TRIAL_ROW_SCHEMA,
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
from blgisim.streams import derived_seed
from blgisim.trials import TrialTable, default_settings, simulate_trials
from reference import emit_format1, empty_table


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
    emit_records(table, str(path), 0.3, 5)
    back = read_records(str(path))
    for name in ("trial_index", "raw1", "raw2", "alpha1", "alpha2", "beta1", "beta2", "seed"):
        assert np.array_equal(getattr(back, name), getattr(table, name)), name
    assert back.settings_id == table.settings_id
    assert isinstance(back.settings_id, str)
    assert read_records(str(path), v=0.3).settings_id == table.settings_id


def test_trial_round_trip_handles_extreme_floats(tmp_path):
    # %.17g must reproduce every double exactly, including denormals, in both formats
    raws = [0.1, -1.0 / 3.0, 1e300, 5e-324, 0.0, 123456789.123456789]
    n = len(raws)
    format_2 = (derived_seed(0, np.arange(n)), lambda table, path: emit_records(table, path, 1.0, 0))
    for seeds, emit in ((range(n), emit_format1), format_2):
        table = TrialTable(range(n), "edge;case", raws, raws, raws, raws, [1] * n, [-1] * n, seeds)
        path = tmp_path / "edge.csv"
        emit(table, str(path))
        back = read_records(str(path))
        assert np.array_equal(back.raw1, np.asarray(raws))
        assert np.array_equal(back.alpha2, np.asarray(raws))
        assert np.array_equal(back.seed, table.seed)


def test_concat_rejects_two_experiments():
    a = simulate_trials(default_settings(0.4), 3, master_seed=1)
    b = simulate_trials(default_settings(0.9), 2, master_seed=1)
    with pytest.raises(ValueError, match="malformed records: 2 distinct settings ids in one record set"):
        TrialTable.concat([a, b])


def test_empty_trial_set_writes_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_records(empty_table(TrialTable), str(path), 0.5, 9)
    assert path.read_text().splitlines() == [
        '# {"format": 2, "master_seed": 9, "settings_id": "s", "v": 0.5}',
        ",".join(name for name, _ in TRIAL_ROW_SCHEMA),
    ]
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
    # a table that format 2 holds at v = 1 and master seed 0
    seeds = [derived_seed(0, 0)] * n
    return TrialTable([0] * n, settings_id, [1.0] * n, [1.0] * n, [1.0] * n, [1.0] * n, [1] * n, [1] * n, seeds)


def test_emit_rejects_delimiters_inside_settings_id(tmp_path):
    bad = _trial_table("has,comma", 2)
    with pytest.raises(ValueError, match="delimiter"):
        emit_records(bad, str(tmp_path / "bad.csv"), 1.0, 0)
    emit_records(_trial_table("no;comma", 2), str(tmp_path / "good.csv"), 1.0, 0)


def test_emit_rejects_quotes_inside_settings_id(tmp_path):
    bad = _trial_table('say "hi"', 1)
    with pytest.raises(ValueError, match="quote"):
        emit_records(bad, str(tmp_path / "bad.csv"), 1.0, 0)


@pytest.mark.parametrize("emit, other", [(emit_records, PredictionTable), (emit_predictions, TrialTable)])
def test_emitters_reject_the_other_table_kind_before_opening_the_file(tmp_path, emit, other):
    path = tmp_path / "wrong_kind.csv"
    wanted = "PredictionTable" if other is TrialTable else "TrialTable"
    with pytest.raises(TypeError, match=f"{wanted}.*got {other.__name__}"):
        emit(empty_table(other), str(path), 1, 0)  # v = 1 or steps = 1, master seed 0
    assert not path.exists()


def test_prediction_round_trip_is_bit_exact(tmp_path):
    table = prediction_batch(
        prediction_settings(0.6), SequentialReadoutParams(v=0.3, steps=30), 40, master_seed=2
    )
    path = tmp_path / "pred.csv"
    emit_predictions(table, str(path), 30, 2)
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
    emit_predictions(empty_table(PredictionTable), str(path), 40, 2**64 - 1)
    assert path.read_text().splitlines() == [
        f'# {{"format": 2, "master_seed": {2**64 - 1}, "settings_id": "s", "steps": 40}}',
        "trial_index,K1,K2,actual1,actual2",
    ]
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


def test_manifest_without_record_format_reads_as_format_1(tmp_path):
    path = tmp_path / "old.manifest.json"
    path.write_text(json.dumps({**MANIFEST_FIELDS, "layout_version": 5}))
    manifest = read_manifest(str(path))
    assert (manifest.layout_version, manifest.record_format) == (5, 1)


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

# SHA-256 of the CSVs in record format 1: a simulate or predict file is read
# back and rewritten through the format-1 writer, a sweep file is hashed as
# written. A change that moves these bytes must bump the layout version and
# say so.
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


RECORD_READERS = {"simulate": read_records, "predict": read_predictions}


@pytest.mark.parametrize("command, digest", GOLDEN)
def test_cli_record_bytes_match_golden_hashes(tmp_path, capsys, command, digest):
    out = tmp_path / "records.csv"
    assert main([*command.split(), "--out", str(out)]) == 0
    read = RECORD_READERS.get(command.split()[0])
    if read is not None:
        emit_format1(read(str(out)), str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# SHA-256 of the record CSVs as the CLI writes them, in record format 2
GOLDEN_FORMAT_2 = [
    (
        "simulate --v 0.2 --noise-sigma 0.3 --trials 140000 --seed 3",
        "549d8d1d8383d42f8e315f7048e38f95bf4bf4803b617d1637bae536e035fce9",
    ),
    (
        "predict --v 0.5 --readout-v 0.3 --steps 300 --trials 500 --seed 3",
        "c193b78d446cd4b07adffdec6ffd02b004748fc47852f51c2e0b8802bcd71971",
    ),
]


@pytest.mark.parametrize("command, digest", GOLDEN_FORMAT_2)
def test_cli_format_2_record_bytes_match_golden_hashes(tmp_path, capsys, command, digest):
    out = tmp_path / "records.csv"
    assert main([*command.split(), "--out", str(out)]) == 0
    assert out.read_text().startswith('# {"format": 2, "master_seed": 3, "settings_id": ')
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_format_1_and_format_2_files_of_one_run_audit_alike(tmp_path, capsys):
    two, one = tmp_path / "two.csv", tmp_path / "one.csv"
    assert main(["simulate", "--v", "0.4", "--noise-sigma", "0.2", "--trials", "3000", "--seed", "8",
                 "--out", str(two)]) == 0
    emit_format1(read_records(str(two)), str(one))
    assert not one.read_text().startswith("#") and two.read_text().startswith("#")
    verdicts = []
    for path in (one, two):
        capsys.readouterr()
        assert main(["audit", "--in", str(path), "--v", "0.4"]) == 0
        summary = json.loads(capsys.readouterr().out)
        verdict = decomposition_test(read_records(str(path)), 0.4)
        assert summary == dataclasses.asdict(verdict)
        verdicts.append(verdict)
    assert dataclasses.astuple(verdicts[0]) == dataclasses.astuple(verdicts[1])


# ----------------------------------------------------------- hostile inputs


def _trial_row(i, sid="s"):
    return f"{i},{sid},0.5,-0.25,2.5,-1.25,1,-1,{i + 7}"


def _prediction_row(i, sid="s"):
    return f"{i},{sid},0.5,-0.25,1,-1,-1,1,{i + 7}"


# format-1 files: the round-trip cases rewrite them through the format-1 writer
READERS = {
    "trial": (TRIAL_HEADER, _trial_row, read_records, emit_format1),
    "prediction": (PREDICTION_HEADER, _prediction_row, read_predictions, emit_format1),
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


# ------------------------------------------------- format-2 headers and rows


READOUT_30 = SequentialReadoutParams(v=0.3, steps=30)


def _format_2_file(kind, rows=3):
    """(table, its comment line, emitter, parameter) of a format-2 file of `kind` at master seed 4."""
    if kind == "trial":
        table = simulate_trials(default_settings(0.2), rows, master_seed=4)
        emit, param, field = emit_records, 0.2, '"v": 0.20000000000000001'
    else:
        table = prediction_batch(prediction_settings(0.6), READOUT_30, rows, master_seed=4)
        emit, param, field = emit_predictions, 30, '"steps": 30'
    comment = f'# {{"format": 2, "master_seed": 4, "settings_id": "{table.settings_id}", {field}}}'
    return table, comment, emit, param


FORMAT_2_READERS = {"trial": read_records, "prediction": read_predictions}
PARAM_FIELDS = {"trial": '"v": 0.20000000000000001', "prediction": '"steps": 30'}


def _sub(old, new):
    """The file lines with one substitution in the comment line."""
    return lambda comment, rest: [comment.replace(old, new, 1), *rest]


# Each case maps (comment line, the lines after it) to the edited file lines
# and the error they must raise.
HOSTILE_HEADERS = {
    "missing comment line": (lambda c, rest: rest, "no header comment at line 1"),
    "garbled comment line": (lambda c, rest: [c[:-5], *rest], "line 1: header comment is not JSON"),
    "comment not an object": (lambda c, rest: ["# [2]", *rest], "not a JSON object"),
    "duplicated comment line": (lambda c, rest: [c, c, *rest], "second header comment at line 2"),
    "format 3": (_sub('"format": 2', '"format": 3'), "record format 3; this version reads formats 1 and 2"),
    "format true": (_sub('"format": 2', '"format": true'), "record format True"),
    "missing key": (_sub('"master_seed": 4, ', ""), "header keys"),
    "unknown key": (_sub("{", '{"extra": 1, '), "header keys"),
    "master seed of 2**64": (_sub('"master_seed": 4', f'"master_seed": {2**64}'), "master_seed must be"),
    "negative master seed": (_sub('"master_seed": 4', '"master_seed": -1'), "master_seed must be"),
    "settings id with a comma": (_sub("phi_plus;", "phi_plus,"), "delimiter"),
    "settings id not a string": (
        lambda c, rest: [re.sub('"settings_id": "[^"]*"', '"settings_id": 7', c), *rest],
        "settings_id must be a string, got 7",
    ),
    "no rows": (lambda c, rest: [c, rest[0]], "holds no records"),
    "blank line before the rows": (lambda c, rest: [c, rest[0], "", *rest[1:]], "malformed .* CSV row at line 3: ''"),
}
# the kind's own parameter: each value is out of range or of the wrong type
HOSTILE_PARAMS = {
    "trial": ['"v": NaN', '"v": Infinity', '"v": 1e999', '"v": 0', '"v": -0.2', '"v": 1.5', '"v": "0.2"', '"v": true'],
    "prediction": ['"steps": 0', '"steps": 2.5', '"steps": 10000001', '"steps": "30"', '"steps": null'],
}


def _read_edited(tmp_path, kind, edit):
    """Read back a valid format-2 file of `kind` whose lines went through edit(comment line, other lines)."""
    table, comment, emit, param = _format_2_file(kind)
    path = tmp_path / "hostile.csv"
    emit(table, str(path), param, 4)
    first, *rest = path.read_text().splitlines()
    assert first == comment
    path.write_text("\n".join(edit(first, rest)) + "\n")
    return FORMAT_2_READERS[kind](str(path))


@pytest.mark.parametrize("case", list(HOSTILE_HEADERS))
@pytest.mark.parametrize("kind", list(FORMAT_2_READERS))
def test_format_2_readers_reject_hostile_headers(tmp_path, kind, case):
    edit, error = HOSTILE_HEADERS[case]
    with pytest.raises(ValueError, match=error) as info:
        _read_edited(tmp_path, kind, edit)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("kind, field", [(k, f) for k, fields in HOSTILE_PARAMS.items() for f in fields])
def test_format_2_readers_reject_a_bad_header_parameter(tmp_path, kind, field):
    with pytest.raises(ValueError, match=r"^malformed .* line 1: (coupling strength|steps) must") as info:
        _read_edited(tmp_path, kind, _sub(PARAM_FIELDS[kind], field))
    assert "\n" not in str(info.value)


def test_read_records_refuses_another_v_and_names_both(tmp_path):
    table, _, _, _ = _format_2_file("trial")
    path = tmp_path / "run.csv"
    emit_records(table, str(path), 0.2, 4)
    assert len(read_records(str(path), v=0.2)) == 3
    with pytest.raises(ValueError, match=r"written at v=0\.2, not at the given v=0\.20000000000000004$"):
        read_records(str(path), v=0.20000000000000004)
    # a format-1 file has no header v; audit checks alpha * v == raw instead
    emit_format1(table, str(path))
    assert len(read_records(str(path), v=0.7)) == 3


@pytest.mark.parametrize("kind", list(FORMAT_2_READERS))
def test_format_2_round_trip_survives_crlf_and_a_missing_final_newline(tmp_path, kind):
    table, _, emit, param = _format_2_file(kind)
    path = tmp_path / "run.csv"
    emit(table, str(path), param, 4)
    good = path.read_bytes()
    for text in (good.replace(b"\n", b"\r\n"), good[:-1]):
        path.write_bytes(text)
        emit(FORMAT_2_READERS[kind](str(path)), str(path), param, 4)
        assert path.read_bytes() == good


@pytest.mark.parametrize("line", [5, 65540])
@pytest.mark.parametrize("kind", list(FORMAT_2_READERS))
def test_format_2_reader_names_the_file_line_of_a_bad_field(tmp_path, kind, line):
    # line 1 is the header comment and line 2 the column header; the second
    # case sits in the second block of rows
    table, _, emit, param = _format_2_file(kind, rows=line - 2)
    path = tmp_path / "bad.csv"
    emit(table, str(path), param, 4)
    lines = path.read_text().splitlines()
    fields = lines[line - 1].split(",")
    fields[2] = "abc"
    lines[line - 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    name, kind_of = (TRIAL_ROW_SCHEMA if kind == "trial" else PREDICTION_ROW_SCHEMA)[2]
    pattern = f"^malformed {kind} CSV row at line {line}: '{line - 3},.*': {name} 'abc' does not parse as {kind_of}$"
    with pytest.raises(ValueError, match=pattern):
        FORMAT_2_READERS[kind](str(path))


def test_emitters_refuse_tables_that_format_2_cannot_reproduce(tmp_path):
    path = tmp_path / "refused.csv"
    trials = simulate_trials(default_settings(0.3, NoiseModel(sigma=0.2)), 20, master_seed=1)
    for args, error in [
        ((0.30000000000000004, 1), "alpha1 is not raw / v"),
        ((0.3, 2), r"seed is not derived_seed\(2, trial_index\)"),
        ((0.0, 1), "coupling strength must lie in"),
        ((0.3, -1), "master_seed must be"),
        ((0.3, 2**64), "master_seed must be"),
        ((0.3, 1.0), "master_seed must be an integer, got 1.0"),
    ]:
        with pytest.raises(ValueError, match=error):
            emit_records(trials, str(path), *args)
        assert not path.exists()
    predictions = prediction_batch(prediction_settings(0.6), READOUT_30, 20, master_seed=2)

    def replaced(name, column):
        return PredictionTable(*(column if n == name else getattr(predictions, n) for n in PredictionTable.field_names))

    mean = predictions.trajectory_mean1.copy()
    mean[3] = np.nextafter(mean[3], 2.0)
    huge = np.where(predictions.trajectory_mean2 < 0, -1e308, 1e308)  # the sign rule holds
    for table, steps, error in [
        (predictions, 31, "^trajectory_mean1 is not"),
        (predictions, 0, "^steps must be an integer in"),
        (predictions, 2.5, "^steps must be an integer, got 2.5"),
        (replaced("trajectory_mean1", mean), 30, "^trajectory_mean1 is not"),
        (replaced("predicted2", -predictions.predicted2), 30, "^predicted2 is not"),
        (replaced("trajectory_mean2", huge), 30, "^trajectory_mean2 is not"),
    ]:
        with pytest.raises(ValueError, match=error):
            emit_predictions(table, str(path), steps, 2)
        assert not path.exists()
    emit_predictions(predictions, str(path), 30, 2)
    assert path.exists()
