"""CSV and manifest persistence: exact round trips, header checks, golden bytes.

Record files are written and read in format 2.  Format-1 files come from
the reference writer, ``reference.emit_format1``, which keeps the format-1
golden bytes pinned; the readers refuse them."""

import hashlib
import json
import os
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest

from blgisim.cli import main
from blgisim.prediction import (
    MAX_STEPS,
    PREDICTION_SCHEMA,
    PredictionTable,
    SequentialReadoutParams,
    prediction_accuracy,
    prediction_settings,
)
from blgisim.records import (
    SWEEP_HEADER,
    RunManifest,
    emit_manifest,
    emit_predictions,
    emit_records,
    emit_sweep,
    read_manifest,
    read_prediction_blocks,
    read_record_blocks,
    read_sweep,
)
from blgisim.trials import TRIAL_SCHEMA, NoiseModel, Settings, TrialTable, estimate_chsh
from reference import concat, emit_format1, empty_table, with_scalars
from reference import prediction_batch, read_predictions, read_records, simulate_trials


@pytest.mark.parametrize("table", [TrialTable, PredictionTable])
def test_table_field_names_are_the_schema_names(table):
    # one column order: the schema's, which is the CSV's and the constructor's
    names = [name for name, _ in table.schema]
    assert len(names) == len(set(names))
    assert table.field_names == tuple(names)
    assert names[0] == "trial_index" and table.scalars[0] == "settings_id"
    assert not set(names) & set(table.scalars)


def _table_columns(table_cls, n):
    """Valid columns of an n-row table of table_cls, in schema order."""
    return [np.arange(n, dtype=kind) for _, kind in table_cls.schema]


def _scalars(table_cls, **changes):
    """Valid scalars of a table_cls table, with the given changes."""
    valid = {"settings_id": "one;experiment", "v": 0.5, "steps": 3, "master_seed": 1}
    return {name: changes.get(name, valid[name]) for name in table_cls.scalars}


@pytest.mark.parametrize("table_cls", [TrialTable, PredictionTable])
def test_table_rejects_columns_that_do_not_match_trial_index(table_cls):
    assert len(table_cls(*_table_columns(table_cls, 3), **_scalars(table_cls))) == 3
    for k in range(len(table_cls.field_names)):
        for bad in (np.arange(2), np.arange(4), np.zeros((3, 1)), 0):
            columns = _table_columns(table_cls, 3)
            columns[k] = bad
            with pytest.raises(ValueError, match="1-D and match trial_index"):
                table_cls(*columns, **_scalars(table_cls))


@pytest.mark.parametrize("table_cls", [TrialTable, PredictionTable])
def test_table_takes_one_column_per_schema_name(table_cls):
    for n in (len(table_cls.schema) - 1, len(table_cls.schema) + 1):
        columns = (_table_columns(table_cls, 2) * 2)[:n]
        with pytest.raises(TypeError, match=f"^{table_cls.__name__} takes 5 columns, got {n}$"):
            table_cls(*columns, **_scalars(table_cls))


@pytest.mark.parametrize("table_cls", [TrialTable, PredictionTable])
def test_table_holds_one_settings_id(table_cls):
    columns = _table_columns(table_cls, 2)
    for bad in (np.array(["a", "b"], dtype=object), np.array(["a", "a"], dtype=object), ["a", "a"], None):
        with pytest.raises(TypeError, match="one str per table"):
            table_cls(*columns, **_scalars(table_cls, settings_id=bad))
    one = table_cls(*columns, **_scalars(table_cls, settings_id="a"))
    with pytest.raises(ValueError, match="^malformed records: a block of settings_id 'b' in a stream of settings_id 'a'$"):
        concat([one, table_cls(*columns, **_scalars(table_cls, settings_id="b"))])
    assert concat([one, one]).settings_id == "a"


@pytest.mark.parametrize(
    "table_cls, name, other",
    [
        (TrialTable, "settings_id", "b"),
        (TrialTable, "v", 0.5000000000000001),
        (TrialTable, "master_seed", 2),
        (PredictionTable, "settings_id", "b"),
        (PredictionTable, "steps", 4),
        (PredictionTable, "master_seed", 2),
    ],
)
def test_concat_rejects_tables_that_differ_in_one_scalar(table_cls, name, other):
    columns = _table_columns(table_cls, 2)
    one, two = (table_cls(*columns, **_scalars(table_cls, **change)) for change in ({}, {name: other}))
    error = f"malformed records: a block of {name} {other!r} in a stream of {name} {getattr(one, name)!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        concat([one, two])
    assert len(concat([two, two])) == 4


@pytest.mark.parametrize(
    "table_cls, name, bad, error",
    [
        (TrialTable, "v", 0.0, "^coupling strength must lie in"),
        (TrialTable, "v", 1.5, "^coupling strength must lie in"),
        (TrialTable, "v", float("nan"), "^coupling strength must lie in"),
        (TrialTable, "v", "0.3", "^coupling strength must be a number, got '0.3'$"),
        (TrialTable, "master_seed", -5, "^master_seed must be a 64-bit unsigned integer, got -5$"),
        (TrialTable, "master_seed", 2**64, "^master_seed must be a 64-bit unsigned integer"),
        (TrialTable, "master_seed", 1.0, "^master_seed must be an integer, got 1.0$"),
        (PredictionTable, "steps", 0, rf"^steps must be an integer in \[1, {MAX_STEPS}\], got 0$"),
        (PredictionTable, "steps", MAX_STEPS + 1, r"^steps must be an integer in \[1, "),
        (PredictionTable, "steps", 2.5, "^steps must be an integer, got 2.5$"),
        (PredictionTable, "steps", True, "^steps must be an integer, got True$"),
        (PredictionTable, "master_seed", 2**70, "^master_seed must be a 64-bit unsigned integer"),
    ],
)
def test_table_rejects_a_bad_scalar_at_construction(table_cls, name, bad, error):
    # the same checks, and messages, as a record header's
    with pytest.raises(ValueError, match=error):
        table_cls(*_table_columns(table_cls, 2), **_scalars(table_cls, **{name: bad}))


def test_table_stores_its_scalars_as_python_numbers():
    table = TrialTable(*_table_columns(TrialTable, 2), settings_id="s", v=np.float64(0.5), master_seed=np.uint64(7))
    assert (type(table.v), type(table.master_seed)) == (float, int)
    table = PredictionTable(*_table_columns(PredictionTable, 2), settings_id="s", steps=np.int64(3), master_seed=7)
    assert type(table.steps) is int


@pytest.mark.parametrize("table_cls", [TrialTable, PredictionTable])
def test_table_takes_exactly_its_scalars(table_cls):
    columns = _table_columns(table_cls, 2)
    scalars = _scalars(table_cls)
    missing = dict(list(scalars.items())[1:])
    for bad in (missing, {**scalars, "seed": 1}):
        with pytest.raises(TypeError, match="takes the scalars"):
            table_cls(*columns, **bad)


def test_trial_round_trip_is_bit_exact(tmp_path):
    settings = Settings(v=0.3, noise=NoiseModel(bias=0.05, sigma=0.25))
    table = simulate_trials(settings, 50, master_seed=5)
    path = tmp_path / "trials.csv"
    emit_records(table, str(path))
    back = read_records(str(path))
    for name in ("trial_index", "raw1", "raw2", "alpha1", "alpha2", "beta1", "beta2"):
        assert np.array_equal(getattr(back, name), getattr(table, name)), name
    assert (back.settings_id, back.v, back.master_seed) == (table.settings_id, 0.3, 5)
    assert isinstance(back.settings_id, str)
    assert read_records(str(path), v=0.3).settings_id == table.settings_id


@pytest.mark.parametrize("table_cls", [TrialTable, PredictionTable])
def test_streamed_read_holds_a_block_not_the_table(tmp_path, table_cls):
    # numpy reports its buffers to tracemalloc, so the traced peak covers
    # every parsed block and every temporary of the fold: a reader that
    # kept its blocks, or parsed the file whole, would peak at the table
    n, path = 300_000, str(tmp_path / "run.csv")
    if table_cls is TrialTable:
        table = simulate_trials(Settings(v=0.2, noise=NoiseModel(sigma=0.3)), n, master_seed=4)
        emit, read, fold = emit_records, read_record_blocks, estimate_chsh
    else:
        rng = np.random.default_rng(4)
        columns = [np.arange(n), rng.integers(0, 4, n), rng.integers(0, 4, n), *rng.choice([-1, 1], (2, n))]
        table = PredictionTable(*columns, **_scalars(PredictionTable))
        emit, read, fold = emit_predictions, read_prediction_blocks, prediction_accuracy
    emit(table, path)
    assert sum(getattr(table, name).nbytes for name in table.field_names) == 12_000_000  # the columns' bytes
    tracemalloc.start()
    try:
        streamed = fold(read(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert streamed == fold(table)
    assert peak < 12_000_000 / 4


def test_trial_round_trip_handles_extreme_floats(tmp_path):
    # %.17g must reproduce every double exactly, including denormals
    raws = [0.1, -1.0 / 3.0, 1e300, 5e-324, 0.0, 123456789.123456789]
    n = len(raws)
    table = TrialTable(range(n), raws, raws, [1] * n, [-1] * n, settings_id="edge;case", v=1.0, master_seed=2**64 - 1)
    path = tmp_path / "edge.csv"
    emit_records(table, str(path))
    back = read_records(str(path))
    assert np.array_equal(back.raw1, np.asarray(raws))
    assert np.array_equal(back.alpha2, np.asarray(raws))
    assert back.master_seed == 2**64 - 1


def test_concat_rejects_two_experiments():
    a = simulate_trials(Settings(v=0.4), 3, master_seed=1)
    b = simulate_trials(Settings(v=0.9), 2, master_seed=1)
    error = f"malformed records: a block of settings_id {b.settings_id!r} in a stream of settings_id {a.settings_id!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        concat([a, b])


def test_a_stream_of_blocks_writes_the_bytes_of_their_table(tmp_path):
    # a table is a stream of one block; blocks that cut the writer's
    # 16,384-row passes anywhere give the same bytes
    settings = Settings(v=0.3, noise=NoiseModel(sigma=0.2))
    edges = [0, 7, 7, 16_384 + 3, 40_000]
    blocks = (simulate_trials(settings, b - a, 4, start=a) for a, b in zip(edges, edges[1:]) if b > a)
    emit_records(blocks, str(tmp_path / "stream.csv"))
    emit_records(simulate_trials(settings, 40_000, 4), str(tmp_path / "table.csv"))
    assert (tmp_path / "stream.csv").read_bytes() == (tmp_path / "table.csv").read_bytes()
    with pytest.raises(ValueError, match="malformed records: a stream of no TrialTable blocks"):
        emit_records(iter([]), str(tmp_path / "none.csv"))
    assert not (tmp_path / "none.csv").exists()


def _failing_second_block(kind):
    """A stream whose first block is fine and whose second one fails as `kind`."""
    yield simulate_trials(Settings(v=0.2), 20_000, 1)
    if kind == "settings_id":
        yield simulate_trials(Settings(v=0.2, noise=NoiseModel(sigma=0.1)), 5, 1, start=20_000)
    elif kind == "master_seed":
        yield simulate_trials(Settings(v=0.2), 5, 2, start=20_000)
    else:
        raise RuntimeError("the sampler failed")


@pytest.mark.parametrize("before", [None, b"an earlier run\n"], ids=["no_file", "earlier_file"])
@pytest.mark.parametrize(
    "kind, error",
    [
        ("settings_id", (ValueError, "malformed records: a block of settings_id")),
        ("master_seed", (ValueError, "malformed records: a block of master_seed 2 in a stream of master_seed 1")),
        ("sampler", (RuntimeError, "the sampler failed")),
    ],
)
def test_a_stream_that_fails_mid_file_leaves_no_file_behind(tmp_path, kind, error, before):
    # the rows go to a temporary file that replaces the path only at the
    # end, so no file cut short at a row boundary (which audit would pass) is left
    path = tmp_path / "run.csv"
    if before is not None:
        path.write_bytes(before)
    with pytest.raises(error[0], match=error[1]):
        emit_records(_failing_second_block(kind), str(path))
    assert [p.name for p in tmp_path.iterdir()] == ([] if before is None else ["run.csv"])
    if before is not None:
        assert path.read_bytes() == before


def test_a_write_keeps_what_the_path_names(tmp_path):
    # the temporary file goes beside the symlink's target, takes the mode of
    # the file it replaces, and one a dead process of this pid left is no bar;
    # a hard-linked file is written in place, so its other name sees the rows
    table = simulate_trials(Settings(v=0.2), 3, 1)
    emit_records(table, str(tmp_path / "expected.csv"))
    expected = (tmp_path / "expected.csv").read_bytes()
    (tmp_path / "data").mkdir()
    target = tmp_path / "data" / "run.csv"
    target.write_bytes(b"an earlier run\n")
    target.chmod(0o640)
    (tmp_path / "data" / f".run.csv.{os.getpid()}.part").write_bytes(b"left by a killed run\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    emit_records(table, str(link))
    assert link.is_symlink() and target.read_bytes() == expected
    assert target.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in (tmp_path / "data").iterdir()) == ["run.csv"]
    other = tmp_path / "other.csv"
    os.link(target, other)
    emit_records(simulate_trials(Settings(v=0.2), 4, 1), str(target))
    assert other.read_bytes() == target.read_bytes() != expected
    # in place, a stream that fails part way leaves an empty file, not one cut short
    with pytest.raises(RuntimeError, match="the sampler failed"):
        emit_records(_failing_second_block("sampler"), str(target))
    assert other.read_bytes() == target.read_bytes() == b""


def test_empty_trial_set_writes_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_records(empty_table(TrialTable, v=0.5, master_seed=9), str(path))
    assert path.read_text().splitlines() == [
        '# {"format": 2, "master_seed": 9, "settings_id": "s", "v": 0.5}',
        ",".join(name for name, _ in TRIAL_SCHEMA),
    ]
    with pytest.raises(ValueError, match="no records"):
        read_records(str(path))


def test_trial_read_rejects_foreign_files(tmp_path):
    wrong = tmp_path / "wrong.csv"
    wrong.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_records(str(wrong))

    truncated = tmp_path / "short.csv"
    truncated.write_text(_head("trial") + "\n" + "0,1.0\n")
    with pytest.raises(ValueError, match="malformed"):
        read_records(str(truncated))


def _trial_table(settings_id, n):
    return TrialTable([0] * n, [1.0] * n, [1.0] * n, [1] * n, [1] * n, settings_id=settings_id, v=1.0, master_seed=0)


def test_emit_rejects_delimiters_inside_settings_id(tmp_path):
    bad = _trial_table("has,comma", 2)
    with pytest.raises(ValueError, match="delimiter"):
        emit_records(bad, str(tmp_path / "bad.csv"))
    emit_records(_trial_table("no;comma", 2), str(tmp_path / "good.csv"))


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
    # a dict of sweep columns is an iterable of its keys, so it is named by its first key's type
    for wrong, named in ((None, "NoneType"), ({"v": [0.5]}, "str"), (["v"], "str")):
        with pytest.raises(TypeError, match=f"expected a {wanted}, got {named}"):
            emit(wrong, str(path))
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
        "K1",
        "K2",
        "trajectory_mean1",
        "trajectory_mean2",
        "predicted1",
        "predicted2",
        "actual1",
        "actual2",
    ):
        assert np.array_equal(getattr(back, name), getattr(table, name)), name
    assert (back.settings_id, back.steps, back.master_seed) == (table.settings_id, 30, 2)


def test_prediction_empty_and_header_checks(tmp_path):
    path = tmp_path / "pred_empty.csv"
    emit_predictions(empty_table(PredictionTable, steps=40, master_seed=2**64 - 1), str(path))
    assert path.read_text().splitlines() == [
        f'# {{"format": 2, "master_seed": {2**64 - 1}, "settings_id": "s", "steps": 40}}',
        "trial_index,K1,K2,actual1,actual2",
    ]
    with pytest.raises(ValueError, match="no records"):
        read_predictions(str(path))
    wrong = tmp_path / "trials_not_predictions.csv"
    wrong.write_text(_head("prediction", columns=",".join(name for name, _ in TRIAL_SCHEMA)) + "\n")
    with pytest.raises(ValueError, match="^unexpected prediction CSV header"):
        read_predictions(str(wrong))


@pytest.mark.parametrize("verdict", ["RE,JECT", 'say "hi"', "REJECT\n", "REJECT\r"])
def test_emit_sweep_rejects_delimiters_inside_a_verdict(tmp_path, verdict):
    # such a row would not read back; nothing is written
    columns = {name: [1.0] for name in SWEEP_HEADER[:-1]}
    path = tmp_path / "bad_sweep.csv"
    with pytest.raises(ValueError, match="verdict .* contains CSV delimiter or quote characters"):
        emit_sweep({**columns, "verdict": [verdict]}, str(path))
    assert not path.exists()


@pytest.mark.parametrize("verdict", [None, ["REJECT"]], ids=["None", "list"])
def test_emit_sweep_refuses_a_verdict_that_is_not_a_str(tmp_path, verdict):
    columns = {name: [1.0] for name in SWEEP_HEADER[:-1]}
    path = tmp_path / "bad_sweep.csv"
    with pytest.raises(ValueError) as info:
        emit_sweep({**columns, "verdict": [verdict]}, str(path))
    assert str(info.value) == f"verdict must be a string, got {verdict!r}"
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


def test_non_ascii_sweep_text_reads_as_a_text_file_reads_it(tmp_path):
    # a verdict is decoded as open(path) decodes it; a numeric field with a
    # non-ASCII byte is named on its decoded line
    columns = {
        "v": [0.1, 0.95],
        "exact_chsh": [2.82, 1.85],
        "empirical_chsh": [2.81, 1.86],
        "chsh_stderr": [0.01, 0.02],
        "verdict": ["RÉJECT", "CONSISTENT ±"],
    }
    path = tmp_path / "sweep.csv"
    emit_sweep(columns, str(path))
    assert path.read_text().splitlines()[1:] == [
        "0.10000000000000001,2.8199999999999998,2.8100000000000001,0.01,RÉJECT",
        "0.94999999999999996,1.8500000000000001,1.8600000000000001,0.02,CONSISTENT ±",
    ]
    assert read_sweep(str(path)) == columns
    path.write_text(",".join(SWEEP_HEADER) + "\n0.1,2.82,2.8é,0.01,REJECT\n")
    with pytest.raises(ValueError) as info:
        read_sweep(str(path))
    assert str(info.value) == (
        "malformed sweep CSV row at line 2: '0.1,2.82,2.8é,0.01,REJECT': empirical_chsh '2.8é' does not parse as float64"
    )


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
        "40f55ef77d60c3ed1d0b4c3eac70b538db8ffbb3e7da5d0a61b0bd125adb2cd8",
    ),
    (
        # draw layout 4: one block per trial, the branch drawn from the 16-branch law
        "predict --v 0.5 --readout-v 0.3 --steps 300 --trials 500 --seed 3",
        "f635af306399befdf1ae5d8219be7fa7e2d1730f652986b54bfa983c23b9ff20",
    ),
    # with --workers 2 the two points run in one process pool, each whole in
    # its worker.  S is the count-weighted mean of the per-trial term over
    # the point's 16 branch counts, and its stderr the term's.
    # Draw layout 6: exact_chsh comes from the real bilinear law and moved in
    # its last bits (2.7632873186962996 at V = 0.3, 1.4142135623730949 at V = 1).
    # Draw layout 7: the branch counts are drawn, not the trials, so
    # empirical_chsh and chsh_stderr moved (2.7358095238095239 +- 0.022978 to
    # 2.8076190476190472 +- 0.022854 at V = 0.3, 1.4099999999999999 +- 0.005361
    # to 1.4169714285714285 +- 0.005335 at V = 1) and the verdicts did not
    (
        "sweep --v-grid 0.3,1.0 --trials 70000 --seed 3 --workers 1",
        "59ab3c0cffd0dacfe6ac5fff7fc43347853235c3219588562fc8da072d084218",
    ),
    (
        "sweep --v-grid 0.3,1.0 --trials 70000 --seed 3 --workers 2",
        "59ab3c0cffd0dacfe6ac5fff7fc43347853235c3219588562fc8da072d084218",
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
        "a04ee05cf62d8ad6d1bc4fabeb43fa4aca3a1785b172d95ef21b3143c836a88e",
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


READOUT_30 = SequentialReadoutParams(v=0.3, steps=30)


def test_a_format_1_file_is_refused_with_one_line_naming_the_manifest(tmp_path, capsys):
    path = tmp_path / "old.csv"
    emit_format1(simulate_trials(Settings(v=0.4), 300, 8), str(path))
    message = (
        f"trial CSV {path} has no header comment at line 1: record format 1 is no longer read; "
        "rerun the command in its manifest"
    )
    capsys.readouterr()
    assert main(["audit", "--in", str(path), "--v", "0.4"]) == 1
    assert capsys.readouterr() == ("", f"blgisim: error: {message}\n")
    emit_format1(prediction_batch(prediction_settings(0.6), READOUT_30, 5, master_seed=2), str(path))
    with pytest.raises(ValueError) as info:
        read_predictions(str(path))
    assert str(info.value) == message.replace("trial", "prediction", 1)


def test_an_empty_record_file_is_refused_with_one_line_naming_it(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_bytes(b"")
    assert main(["audit", "--in", str(path), "--v", "0.2"]) == 1
    assert capsys.readouterr() == ("", f"blgisim: error: trial CSV {path} is empty\n")
    with pytest.raises(ValueError) as info:
        read_predictions(str(path))
    assert str(info.value) == f"prediction CSV {path} is empty"


# ----------------------------------------------------------- hostile inputs


def _trial_row(i):
    return f"{i},0.5,-0.25,1,-1"


def _prediction_row(i):
    return f"{i},5,25,-1,1"


# (schema, header parameter, row maker, reader, emitter) per kind
READERS = {
    "trial": (TRIAL_SCHEMA, '"v": 0.5', _trial_row, read_records, emit_records),
    "prediction": (PREDICTION_SCHEMA, '"steps": 30', _prediction_row, read_predictions, emit_predictions),
}


def _head(kind, sid='"s"', seed=7, columns=None):
    """The header comment and column header of a `kind` record file, as emitted; sid is JSON text."""
    schema, param = READERS[kind][:2]
    columns = ",".join(name for name, _ in schema) if columns is None else columns
    return f'# {{"format": 2, "master_seed": {seed}, "settings_id": {sid}, {param}}}\n{columns}'


def _put(row, k, text):
    """row with field k replaced by text."""
    fields = row.split(",")
    fields[k] = text
    return ",".join(fields)


Q = chr(34)  # a double quote

# Each case maps (header maker, row maker) to (file text, outcome). The outcome
# is an error pattern, or the text that emitting the table read back must give.
HOSTILE = {
    "extra field": lambda h, row: (f"{h()}\n{row(0)},9\n", "malformed"),
    "short row": lambda h, row: (f"{h()}\n{row(0).rsplit(',', 3)[0]}\n", "malformed"),
    "blank line inside": lambda h, row: (f"{h()}\n{row(0)}\n\n{row(1)}\n", "malformed"),
    "blank line at end": lambda h, row: (f"{h()}\n{row(0)}\n{row(1)}\n\n", "malformed"),
    # as many commas as two good rows, so only the row count can tell
    "blank line after a doubled row": lambda h, row: (f"{h()}\n{row(0)}{',1' * 4}\n\n", "malformed"),
    "non-numeric field": lambda h, row: (f"{h()}\n{_put(row(0), 1, 'abc')}\n", "malformed"),
    "empty field": lambda h, row: (f"{h()}\n{_put(row(0), 1, '')}\n", "malformed"),
    # the master seed, from which every per-trial seed derives, is in the header comment
    "seed of 2**64": lambda h, row: (f"{h(seed=2**64)}\n{row(0)}\n", "malformed"),
    "negative seed": lambda h, row: (f"{h(seed=-1)}\n{row(0)}\n", "malformed"),
    "non-integer int field": lambda h, row: (f"{h()}\n{_put(row(0), 4, '1.5')}\n", "malformed"),
    "index past int64": lambda h, row: (f"{h()}\n{_put(row(0), 0, str(2**63))}\n", "malformed"),
    "quoted settings id": lambda h, row: (f"{h(sid=json.dumps(Q + 's' + Q))}\n{row(0)}\n", "malformed"),
    "quoted number": lambda h, row: (f"{h()}\n{_put(row(0), 1, Q + '5' + Q)}\n", "malformed"),
    "foreign header": lambda h, row: (f"{h(columns='a,b,c')}\n{row(0)}\n", "header"),
    "empty file": lambda h, row: ("", "is empty"),
    "header only": lambda h, row: (f"{h()}\n", "no records"),
    "hash in settings id": lambda h, row: (f"{h(sid=Q + 'a#b' + Q)}\n{row(0)}\n",) * 2,
    "CRLF line endings": lambda h, row: (
        f"{h()}\n{row(0)}\n{row(1)}\n".replace("\n", "\r\n"), f"{h()}\n{row(0)}\n{row(1)}\n"
    ),
    "no final newline": lambda h, row: (f"{h()}\n{row(0)}\n{row(1)}", f"{h()}\n{row(0)}\n{row(1)}\n"),
}


@pytest.mark.parametrize("case", list(HOSTILE))
@pytest.mark.parametrize("kind", list(READERS))
def test_readers_round_trip_or_reject_hostile_input(tmp_path, kind, case):
    _, _, row, read, emit = READERS[kind]
    text, outcome = HOSTILE[case](partial(_head, kind), row)
    path = tmp_path / "hostile.csv"
    path.write_bytes(text.encode())
    if outcome in ("malformed", "header", "is empty", "no records"):
        with pytest.raises(ValueError, match=outcome):
            read(str(path))
        return
    back = tmp_path / "back.csv"
    emit(read(str(path)), str(back))
    assert back.read_bytes() == outcome.encode()


@pytest.mark.parametrize("line", [7, 65540])
def test_trial_reader_names_the_file_line_of_a_bad_field(tmp_path, line):
    # rows start at line 3; the second case sits in a later block of rows
    rows = [_trial_row(i) for i in range(line - 2)]
    rows[-1] = _put(rows[-1], 1, "abc")
    path = tmp_path / "bad.csv"
    path.write_text(_head("trial") + "\n" + "".join(r + "\n" for r in rows))
    with pytest.raises(ValueError, match=f"^malformed trial CSV row at line {line}: '{line - 3},abc,.*': raw1 'abc' does not parse as float64$"):
        read_records(str(path))


@pytest.mark.parametrize("switch", [65530, 65536])
@pytest.mark.parametrize("kind", list(READERS))
def test_mixed_settings_ids_across_a_block_boundary(tmp_path, kind, switch):
    # two experiments joined into one file: the second one's header comment
    # is malformed at its line, inside a block or at the first row of the next one
    row, read = READERS[kind][2:4]
    text = _head(kind, sid='"a"') + "\n" + "".join(row(i) + "\n" for i in range(switch))
    text += _head(kind, sid='"b"') + "\n" + "".join(row(i) + "\n" for i in range(switch, 65540))
    path = tmp_path / "mixed.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^malformed {kind} CSV row at line {switch + 3}: '# "):
        read(str(path))


# ------------------------------------------------- format-2 headers and rows


def _format_2_file(kind, rows=3):
    """(table, its comment line, emitter) of a format-2 file of `kind` at master seed 4."""
    if kind == "trial":
        table = simulate_trials(Settings(v=0.2), rows, master_seed=4)
        emit, field = emit_records, '"v": 0.20000000000000001'
    else:
        table = prediction_batch(prediction_settings(0.6), READOUT_30, rows, master_seed=4)
        emit, field = emit_predictions, '"steps": 30'
    comment = f'# {{"format": 2, "master_seed": 4, "settings_id": "{table.settings_id}", {field}}}'
    return table, comment, emit


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
    "format 3": (_sub('"format": 2', '"format": 3'), "record format 3; this version reads format 2 only"),
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
    table, comment, emit = _format_2_file(kind)
    path = tmp_path / "hostile.csv"
    emit(table, str(path))
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
    table, _, _ = _format_2_file("trial")
    path = tmp_path / "run.csv"
    emit_records(table, str(path))
    assert len(read_records(str(path), v=0.2)) == 3
    with pytest.raises(ValueError, match=r"written at v=0\.2, not at the given v=0\.20000000000000004$"):
        read_records(str(path), v=0.20000000000000004)


@pytest.mark.parametrize("kind", list(FORMAT_2_READERS))
def test_format_2_round_trip_survives_crlf_and_a_missing_final_newline(tmp_path, kind):
    table, _, emit = _format_2_file(kind)
    path = tmp_path / "run.csv"
    emit(table, str(path))
    good = path.read_bytes()
    for text in (good.replace(b"\n", b"\r\n"), good[:-1]):
        path.write_bytes(text)
        emit(FORMAT_2_READERS[kind](str(path)), str(path))
        assert path.read_bytes() == good


@pytest.mark.parametrize("line", [5, 65540])
@pytest.mark.parametrize("kind", list(FORMAT_2_READERS))
def test_format_2_reader_names_the_file_line_of_a_bad_field(tmp_path, kind, line):
    # line 1 is the header comment and line 2 the column header; the second
    # case sits in a later block of rows
    table, _, emit = _format_2_file(kind, rows=line - 2)
    path = tmp_path / "bad.csv"
    emit(table, str(path))
    lines = path.read_text().splitlines()
    fields = lines[line - 1].split(",")
    fields[2] = "abc"
    lines[line - 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    name, kind_of = (TRIAL_SCHEMA if kind == "trial" else PREDICTION_SCHEMA)[2]
    pattern = f"^malformed {kind} CSV row at line {line}: '{line - 3},.*': {name} 'abc' does not parse as {kind_of}$"
    with pytest.raises(ValueError, match=pattern):
        FORMAT_2_READERS[kind](str(path))


def test_emitters_refuse_tables_that_format_2_cannot_reproduce(tmp_path):
    # a scalar that the reader would refuse in the header is refused before the file is opened
    path = tmp_path / "refused.csv"
    trials = simulate_trials(Settings(v=0.3, noise=NoiseModel(sigma=0.2)), 20, master_seed=1)
    predictions = prediction_batch(prediction_settings(0.6), READOUT_30, 20, master_seed=2)
    for table, emit, error in [
        (with_scalars(trials, v=0.0), emit_records, "coupling strength must lie in"),
        (with_scalars(trials, v=1.5), emit_records, "coupling strength must lie in"),
        (with_scalars(trials, v="0.3"), emit_records, "coupling strength must be a number"),
        (with_scalars(trials, master_seed=-1), emit_records, "master_seed must be"),
        (with_scalars(trials, master_seed=2**64), emit_records, "master_seed must be"),
        (with_scalars(trials, master_seed=1.0), emit_records, "master_seed must be an integer, got 1.0"),
        (with_scalars(predictions, steps=0), emit_predictions, "^steps must be an integer in"),
        (with_scalars(predictions, steps=2.5), emit_predictions, "^steps must be an integer, got 2.5"),
        (with_scalars(predictions, master_seed=True), emit_predictions, "^master_seed must be an integer, got True"),
    ]:
        with pytest.raises(ValueError, match=error):
            emit(table, str(path))
        assert not path.exists()
    emit_predictions(predictions, str(path))
    assert path.exists()
