"""Property tests for the record codec.

The numpy row formatter writes every float as ``'%.17g' % x`` and every int
as ``'%d' % n`` would, byte for byte, over hypothesis values, random bit
patterns and a pinned list of edges, and on each side of every slice of
rows it compacts.  The numpy row parser reads those cells back as
``float(text)`` and ``int(text)`` do, bit for bit, over the same values;
its exact division is checked against correctly rounded decimals, ties
included; a file is cut into blocks of FOLD_ROWS rows, and read whole
into a table of its counted rows, whatever its line ends; and text the
writer never writes reads as int() and float() read it, or fails naming
its line and its field count or field, and the forms np.loadtxt once read
and no writer writes are refused.  Random tables of both kinds are
written in record format 2, match a plain per-row writer, and read back
bit for bit, every column and every scalar; so do sampler tables that
span several formatting blocks with extreme raws spliced in.  Tables the
samplers build, over random v, noise, seed and start, read back bit for
bit too, and emit -> read -> emit gives the same bytes."""

import io
import json
import math
import re
import string
import tempfile
from fractions import Fraction
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest

from blgisim import records
from blgisim.audit import hidden_variable_config, hidden_variable_source
from blgisim.cli import main
from blgisim.prediction import MAX_STEPS, PredictionTable, SequentialReadoutParams, prediction_settings
from blgisim.records import SWEEP_HEADER, emit_predictions, emit_records, emit_sweep, read_sweep
from blgisim.trials import FOLD_ROWS, NoiseModel, Settings, TrialTable
from reference import concat, crlf_split_at, table_rows
from reference import prediction_batch, read_predictions, read_records, simulate_trials

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

CODECS = {
    "trial": (TrialTable, emit_records, read_records),
    "prediction": (PredictionTable, emit_predictions, read_predictions),
}
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308, math.inf, -math.inf]
SEEDS = st.integers(0, 2**64 - 1)
STARTS = st.integers(0, 2**40)
STRENGTHS = st.floats(1e-3, 1.0)
ELEMENTS = {
    "int64": st.integers(-(2**63), 2**63 - 1),
    "float64": st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False)),
}
SCALARS = {
    "settings_id": st.text(alphabet=string.ascii_letters + string.digits + ";=.-_#% ", max_size=12),
    "v": st.one_of(st.sampled_from([5e-324, 1e-300, 1.0]), st.floats(0.0, 1.0, exclude_min=True)),
    "steps": st.integers(1, MAX_STEPS),
    "master_seed": SEEDS,
}


@st.composite
def tables(draw, kind):
    cls = CODECS[kind][0]
    n = draw(st.integers(1, 12))
    columns = (draw(st.lists(ELEMENTS[k], min_size=n, max_size=n)) for _, k in cls.schema)
    return cls(*columns, **{name: draw(SCALARS[name]) for name in cls.scalars})


PRINTF = {"int64": "%d", "float64": "%.17g"}


def reference_csv(table) -> str:
    """The record file written one header key, one row and one field at a time."""
    header = []
    for name in sorted(["format", *table.scalars]):
        value = 2 if name == "format" else getattr(table, name)
        header.append(f'"{name}": ' + ("%.17g" % value if isinstance(value, float) else json.dumps(value)))
    lines = ["# {" + ", ".join(header) + "}", ",".join(table.field_names)]
    for row in table_rows(table):
        lines.append(",".join(PRINTF[kind] % value for (_, kind), value in zip(table.schema, row)))
    return "\n".join(lines) + "\n"


def _assert_same_table(back, table):
    assert type(back) is type(table)
    for name in table.scalars:
        got, want = getattr(back, name), getattr(table, name)
        assert type(got) is type(want) and got == want, name
    for name in table.field_names:
        got, want = getattr(back, name), getattr(table, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name


@pytest.mark.parametrize("kind", list(CODECS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_emit_read_is_bit_exact_and_matches_per_row_reference(kind, data):
    _, emit, read = CODECS[kind]
    table = data.draw(tables(kind))
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "records.csv")
        emit(table, path)
        assert Path(path).read_text() == reference_csv(table)
        _assert_same_table(read(path), table)


# ------------------------------------------------------------ sampler tables


@st.composite
def sampled_trials(draw):
    """A table from simulate_trials, of a quantum or a hidden-variable source."""
    v, seed = draw(STRENGTHS), draw(SEEDS)
    noise = NoiseModel(bias=draw(st.floats(-1.0, 1.0)), sigma=draw(st.floats(0.0, 2.0)))
    if draw(st.booleans()):
        angles = draw(st.lists(st.floats(-math.pi, math.pi), min_size=4, max_size=4))
        source = Settings(*angles, v=v, noise=noise, bell_kind=draw(st.sampled_from(["phi_plus", "psi_minus"])))
    else:
        source = hidden_variable_source(hidden_variable_config(draw(SEEDS), draw(st.integers(0, 99))), v, noise)
    return simulate_trials(source, draw(st.integers(1, 40)), seed, start=draw(STARTS))


@st.composite
def sampled_predictions(draw):
    """A table from prediction_batch."""
    readout = SequentialReadoutParams(v=draw(STRENGTHS), steps=draw(st.integers(1, 3000)))
    seed = draw(SEEDS)
    n, start = draw(st.integers(1, 40)), draw(STARTS)
    return prediction_batch(prediction_settings(draw(STRENGTHS)), readout, n, seed, start=start)


SAMPLED = {"trial": sampled_trials, "prediction": sampled_predictions}
# columns each kind computes from its stored columns and scalars
DERIVED = {
    "trial": ("alpha1", "alpha2"),
    "prediction": ("trajectory_mean1", "trajectory_mean2", "predicted1", "predicted2"),
}


@pytest.mark.parametrize("kind", list(SAMPLED))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sampler_tables_round_trip_bit_for_bit(kind, data):
    _, emit, read = CODECS[kind]
    table = data.draw(SAMPLED[kind]())
    with tempfile.TemporaryDirectory() as tmp:
        first, second = str(Path(tmp) / "first.csv"), str(Path(tmp) / "second.csv")
        emit(table, first)
        back = read(first)
        _assert_same_table(back, table)
        for name in DERIVED[kind]:
            got, want = getattr(back, name), getattr(table, name)
            assert got.dtype == want.dtype and np.array_equal(got.view(np.uint64), want.view(np.uint64)), name
        emit(back, second)
        assert Path(second).read_bytes() == Path(first).read_bytes()


# ------------------------------------------------------------- row formatter


def formatted(values, kind: str) -> list:
    """The cells the block formatter writes for one column, one per row."""
    text = records._rows_text([np.asarray(values, kind)], [kind], "utf-8").tobytes().decode("ascii")
    return text.split("\n")[1:]


def _powers_of_ten_and_neighbours(low: int, high: int) -> list:
    values = []
    for k in range(low, high + 1):
        x = 10.0**k
        values += [np.nextafter(x, 0.0), x, np.nextafter(x, math.inf)]
    return values


def _ties() -> list:
    # m / 4 for odd m in [4e15, 9e15): the 17th digit is a tenth, and .25
    # and .75 are exact halves between two 17-digit values
    odd = np.random.default_rng(4).integers(2 * 10**15, 9 * 10**15 // 2, 4000) * 2 + 1
    return (odd / 4.0).tolist() + [1250000000000000.25, 1250000000000000.75, 4e15 / 4 + 0.25]


EDGE_LIST = (
    EDGE_FLOATS
    + [math.nan, -math.nan, 1e-4, -1e-4, 1e17, -1e17, 2.0**53, 2.0**53 + 2, 0.1, 1.0 / 3.0, 2.0 / 3.0, 0.5]
    + [np.nextafter(1e17, 0.0) - 16.0 * j for j in range(4)]  # just below 10**17
    + [99999999999999999e-17, 9999999999999999e-20, 0.00099999999999999999]
    + _powers_of_ten_and_neighbours(-6, 22)
    + _ties()
)


def test_float_cells_equal_percent_17g_on_the_edge_list():
    values = EDGE_LIST + [-x for x in EDGE_LIST]
    assert formatted(values, "float64") == ["%.17g" % x for x in values]


def test_float_cells_equal_percent_17g_on_random_bit_patterns():
    bits = np.random.default_rng(15).integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64).tolist()
    assert formatted(values, "float64") == ["%.17g" % x for x in values]


def _from_bits(bits: int) -> float:
    return float(np.array(bits, np.uint64).view(np.float64))


# every float (nan, infinities, zeros and subnormals included), floats of
# the fixed-notation range and its edges, and uniform bit patterns
FLOATS = st.one_of(st.floats(), st.floats(1e-5, 1e18), st.integers(0, 2**64 - 1).map(_from_bits))


@settings(max_examples=200, deadline=None)
@given(values=st.lists(FLOATS, min_size=1, max_size=40))
def test_float_cells_equal_percent_17g(values):
    assert formatted(values, "float64") == ["%.17g" % x for x in values]


INT_EDGES = [-(2**63), 2**63 - 1, -(2**63) + 1, 0, -1, 1] + [
    sign * (10**j + d) for j in range(1, 19) for d in (-1, 0, 1) for sign in (1, -1)
]


def test_int_cells_equal_percent_d_at_every_digit_count():
    assert formatted(INT_EDGES, "int64") == ["%d" % n for n in INT_EDGES]
    for n in INT_EDGES:  # alone, each sets its block's cell width
        assert formatted([n], "int64") == ["%d" % n]


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=40))
def test_int_cells_equal_percent_d(values):
    assert formatted(values, "int64") == ["%d" % n for n in values]


SLICE = records._SLICE_ROWS


@pytest.mark.parametrize("rows", [1, SLICE - 1, SLICE, SLICE + 1, 3 * SLICE + 5])
@pytest.mark.parametrize("block", ["narrow", "wide", "str"])
def test_rows_text_is_per_row_formatting_at_every_slice_edge(rows, block):
    # the cells of a block are compacted SLICE rows at a time, and each
    # slice's text must go on where the one before it stopped
    rng = np.random.default_rng(rows)
    edges = np.resize(EDGE_FLOATS + EDGE_LIST, rows)
    columns, kinds, formats = {
        # one-word ints and floats below 10 (4-word cells)
        "narrow": ([rng.integers(-1, 2, rows), rng.normal(size=rows)], ["int64", "float64"], "%d,%.17g"),
        # three-word ints, 6-word floats, and floats that '%' formats
        "wide": (
            [rng.integers(-(2**63), 2**63 - 1, rows, endpoint=True), rng.normal(size=rows) * 1e15, edges],
            ["int64", "float64", "float64"],
            "%d,%.17g,%.17g",
        ),
        # a sweep's columns: a str cell of any width
        "str": (
            [rng.normal(size=rows), rng.choice(["REJECT", "CONSISTENT", "INCONCLUSIVE – ü" * 3], rows).tolist()],
            ["float64", "str"],
            "%.17g,%s",
        ),
    }[block]
    text = records._rows_text(columns, kinds, "utf-8").tobytes().decode("utf-8")
    lists = [np.asarray(column).tolist() for column in columns]
    assert text == "".join("\n" + formats % row for row in zip(*lists))


def test_multi_block_sampler_file_matches_per_row_formatting(tmp_path):
    table = simulate_trials(Settings(v=0.3, noise=NoiseModel(bias=0.0, sigma=0.3)), 2 * 65536 + 7, 21)
    raw1, raw2 = table.raw1.copy(), table.raw2.copy()
    rows = np.random.default_rng(8).choice(len(table), len(EDGE_LIST), replace=False)
    raw1[rows] = EDGE_LIST
    raw2[rows[::-1]] = [-x for x in EDGE_LIST]
    raw1[[0, records._WRITE_ROWS - 1, records._WRITE_ROWS, len(table) - 1]] = [-0.0, math.inf, 5e-324, 1e300]
    scalars = {name: getattr(table, name) for name in table.scalars}
    spliced = TrialTable(table.trial_index, raw1, raw2, table.beta1, table.beta2, **scalars)
    for kept in (spliced, table):
        path = tmp_path / "trials.csv"
        emit_records(kept, str(path))
        assert path.read_text() == reference_csv(kept)


def test_exponent_notation_raws_match_per_row_formatting(tmp_path):
    # a noiseless hidden-variable source at v = 1e-5 reports raws of +-1e-5,
    # which %.17g writes in exponent notation
    source = hidden_variable_source(hidden_variable_config(3, 0), 1e-5, NoiseModel())
    table = simulate_trials(source, 3000, 9)
    assert set(np.abs(table.raw1).tolist()) == {1e-5}
    path = tmp_path / "hidden.csv"
    emit_records(table, str(path))
    assert path.read_text() == reference_csv(table)
    assert "1.0000000000000001e-05" in path.read_text()


def test_non_ascii_settings_id_round_trips(tmp_path):
    table = TrialTable(
        [0, 1], [0.5, -2.0], [1.0, 3e-7], [1, -1], [-1, 1], settings_id="phi_plus;θ=0.5;Δ", v=0.25, master_seed=3
    )
    path = tmp_path / "trials.csv"
    emit_records(table, str(path))
    assert path.read_text() == reference_csv(table)
    _assert_same_table(read_records(str(path)), table)


def test_sweep_text_is_the_text_file_of_per_row_formatting(tmp_path):
    columns = {
        "v": [0.1, 0.95, 1e-5],
        "exact_chsh": [2.82, 1.85, math.nan],
        "empirical_chsh": [2.81, -1.86, 2.0],
        "chsh_stderr": [0.01, 0.0, math.inf],
        "verdict": ["REJECT", "CONSISTENT", "INCONCLUSIVE – ünïcode"],
    }
    path, reference = tmp_path / "sweep.csv", tmp_path / "reference.csv"
    emit_sweep(columns, str(path))
    with open(reference, "w", newline="") as f:
        f.write(",".join(SWEEP_HEADER) + "\n")
        for row in zip(*(columns[name] for name in SWEEP_HEADER)):
            f.write("%.17g,%.17g,%.17g,%.17g,%s\n" % row)
    assert path.read_bytes() == reference.read_bytes()
    back = read_sweep(str(path))
    assert back["verdict"] == columns["verdict"]
    assert back["v"] == columns["v"] and back["empirical_chsh"] == columns["empirical_chsh"]


# ---------------------------------------------------------------- row parser


def parsed(values, kind: str):
    """(cells, column): the cells the block formatter writes for one column,
    and the column the block parser reads back from them.  Every block is
    read by the numpy parser, none refused."""
    text = records._rows_text([np.asarray(values, kind)], [kind], "utf-8").tobytes()
    blocks = []
    for store, newlines in records._line_blocks(io.BytesIO(text[1:] + b"\n"), repeat(records._BLOCK_ROWS)):
        block = records._parse_rows(store, newlines, [("x", kind)])
        assert block is not None
        blocks.append(block["x"])
    return text.decode("ascii").split("\n")[1:], np.concatenate(blocks)


def assert_reads_as_float(values):
    cells, column = parsed(values, "float64")
    want = np.array([float(cell) for cell in cells])
    assert np.array_equal(column.view(np.uint64), want.view(np.uint64))


def test_parser_equals_float_on_the_edge_list():
    assert_reads_as_float(EDGE_LIST + [-x for x in EDGE_LIST])


def test_parser_equals_float_on_random_bit_patterns():
    bits = np.random.default_rng(20).integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
    assert_reads_as_float(bits.view(np.float64).tolist())


def test_parser_reads_fixed_notation_without_float(monkeypatch):
    # %.17g writes 1e-4 <= |x| < 1e17 in fixed notation, which the exact
    # division reads: with no float field left to float(), every block
    # still parses in numpy
    rng = np.random.default_rng(21)
    fixed = (1.0 + 9.0 * rng.random(200_000)) * 10.0 ** rng.integers(-4, 17, 200_000)
    edges = _powers_of_ten_and_neighbours(-4, 16)[1:] + [np.nextafter(1e17, 0.0) - 16.0 * j for j in range(4)]
    fixed = np.concatenate([fixed, edges])
    fixed = fixed[(fixed >= 1e-4) & (fixed < 1e17)]
    monkeypatch.setattr(records, "_FLOAT_TOKEN", re.compile(b"(?!)"))
    assert_reads_as_float(np.concatenate([fixed, -fixed]).tolist())


@settings(max_examples=200, deadline=None)
@given(values=st.lists(FLOATS, min_size=1, max_size=40))
def test_parser_equals_float(values):
    assert_reads_as_float(values)


def test_parser_equals_int_at_every_digit_count():
    cells, column = parsed(INT_EDGES, "int64")
    assert column.tolist() == [int(cell) for cell in cells] == INT_EDGES
    for n in INT_EDGES:  # alone, each sets its block's window width
        assert parsed([n], "int64")[1].tolist() == [n]


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=40))
def test_parser_equals_int(values):
    assert parsed(values, "int64")[1].tolist() == values


def _halfway_cases() -> list:
    """(m, f) with m / 10**f exactly halfway between two doubles: below
    10**17, only k + 1/2 with 2**52 <= k < 2**53, where the doubles are 1
    apart, as m = 10k + 5 and f = 1."""
    return [(10 * k + 5, 1) for k in np.random.default_rng(6).integers(2**52, 2**53, 600).tolist()]


def test_quotients_are_correctly_rounded_or_left_to_float():
    rng = np.random.default_rng(11)
    m = np.concatenate([
        rng.integers(0, 10**17, 100_000, dtype=np.uint64),
        rng.integers(2**53 - 1000, 2**53 + 1000, 2000, dtype=np.uint64),  # the edge of Clinger's path
        rng.integers(10**16, 10**17, 100_000, dtype=np.uint64),  # 17 digits, as %.17g writes
        np.array([m for m, _ in _halfway_cases()], np.uint64),
    ])
    f = np.concatenate([rng.integers(0, 23, len(m) - 600), [f for _, f in _halfway_cases()]])
    values, unsure = records._quotients(m, f)
    want = np.array([float(f"{a}e-{b}") for a, b in zip(m.tolist(), f.tolist())])
    sure = ~unsure
    assert np.array_equal(values[sure].view(np.uint64), want[sure].view(np.uint64))
    assert unsure[len(m) - 600:].all()  # a tie is always left to float()
    for a, b, x in zip(m[unsure].tolist(), f[unsure].tolist(), want[unsure].tolist()):  # and nothing else is
        halfway = {(Fraction(x) + Fraction(math.nextafter(x, side))) / 2 for side in (0.0, math.inf)}
        assert Fraction(a, 10**b) in halfway


@pytest.mark.parametrize("rows", [records._BLOCK_ROWS - 1, records._BLOCK_ROWS, 2 * records._BLOCK_ROWS + 1])
@pytest.mark.parametrize("ending", ["lf", "crlf", "cr", "no final newline"])
def test_blocks_hold_fold_rows_whatever_the_line_ends(tmp_path, rows, ending):
    # the block reader ends lines in binary (records._line_ends), so it must
    # find the line ends that a text reader finds, in blocks of FOLD_ROWS rows
    table = simulate_trials(Settings(v=0.3, noise=NoiseModel(sigma=0.2)), rows, 5)
    path = tmp_path / "trials.csv"
    emit_records(table, str(path))
    text = path.read_bytes()
    endings = {"lf": text, "crlf": text.replace(b"\n", b"\r\n"), "cr": text.replace(b"\n", b"\r")}
    path.write_bytes(endings.get(ending, text[:-1]))
    blocks = list(records.read_record_blocks(str(path)))
    assert [len(block) for block in blocks] == [min(FOLD_ROWS, rows - at) for at in range(0, rows, FOLD_ROWS)]
    _assert_same_table(concat(blocks), table)
    _assert_same_table(read_records(str(path)), table)


def test_table_read_counts_a_crlf_split_between_binary_reads_once(tmp_path):
    table = simulate_trials(Settings(v=0.3, noise=NoiseModel(sigma=0.2)), 3 * FOLD_ROWS + 3, 5)
    path = str(tmp_path / "trials.csv")
    table = crlf_split_at(path, table, records._COUNT_BYTES)
    _assert_same_table(read_records(path), table)


def _end_lines(path, ending: str) -> None:
    """Rewrite the LF line ends of the file at path as `ending`."""
    text = path.read_bytes()
    endings = {"lf": text, "crlf": text.replace(b"\n", b"\r\n"), "cr": text.replace(b"\n", b"\r")}
    path.write_bytes(endings.get(ending, text[:-1]))


@pytest.mark.parametrize("ending", ["lf", "crlf", "cr", "no final newline"])
def test_prediction_and_sweep_files_read_the_same_whatever_the_line_ends(tmp_path, ending):
    # every reader ends lines where records._line_ends does: the header
    # lines and the block reader alike
    rows = 2 * FOLD_ROWS + 1
    table = prediction_batch(prediction_settings(0.5), SequentialReadoutParams(v=0.3, steps=5), rows, 3)
    path = tmp_path / "predictions.csv"
    emit_predictions(table, str(path))
    _end_lines(path, ending)
    _assert_same_table(read_predictions(str(path)), table)
    values = np.random.default_rng(8).random((4, rows)).tolist()
    verdicts = ["REJECT", "CONSISTENT", "ÉTÉ"] * rows
    columns = dict(zip(SWEEP_HEADER, [*values, verdicts[:rows]]))
    path = tmp_path / "sweep.csv"
    emit_sweep(columns, str(path))
    _end_lines(path, ending)
    assert read_sweep(str(path)) == columns


@pytest.mark.parametrize("edge", [records._COUNT_BYTES, 5 * records._COUNT_BYTES])
def test_block_reader_and_row_count_take_a_crlf_split_at_a_read_edge_once(tmp_path, edge):
    # the CR is the last byte of one read and its LF the first of the next:
    # the block reader drops the CR and ends the line at the LF, and the
    # count and the cuts see one line end
    table = simulate_trials(Settings(v=0.3, noise=NoiseModel(sigma=0.2)), 3 * FOLD_ROWS + 3, 5)
    path = str(tmp_path / "trials.csv")
    table = crlf_split_at(path, table, edge)
    blocks = list(records.read_record_blocks(path))
    assert [len(block) for block in blocks] == [FOLD_ROWS] * 3 + [3]
    _assert_same_table(concat(blocks), table)
    with open(path, "rb") as f:
        assert sum(np.count_nonzero(ends) for _, ends, _ in records._line_ends(f)) == len(table) + 2
    cuts = records._block_cuts(path, 4)
    assert [row for _, row in cuts] == [0, FOLD_ROWS, 2 * FOLD_ROWS, 3 * FOLD_ROWS]
    for k, cut in enumerate(cuts):
        _assert_same_table(concat(list(records._table_blocks(path, TrialTable, cut=cut))), concat(blocks[k:]))


# -------------------------------------------- text the writer never writes

TRIAL_HEAD = '# {"format": 2, "master_seed": 7, "settings_id": "s", "v": 0.5}\ntrial_index,raw1,raw2,beta1,beta2\n'
CANONICAL_ROW = ("0", "0.5", "-0.25", "1", "-1")
NONCANONICAL = [
    " 1.5", "1.5 ", "+1", "1.", ".5", "-.5", "1E5", "1e5", "1e+5", "Infinity", "-inf", "NaN", "nan", "0x10",
    "1_0", "", "-", "-0", "007", "00.5", "1.2.3", "1e", "--1", str(2**63), str(-(2**63) - 1), "9" * 30,
    # more digits than %.17g writes, past the exact division's 10**17
    "0.123456789012345678", "0.00012345678901234567", "12345678901234567.8", "1.00000000000000000001", "9" * 18,
    "0." + "9" * 19, "0.0" + "9" * 19, "9" * 19, "-0." + "9" * 19,
    # 22 digits after the point, the exact division's last power of ten, and more
    "0." + "0" * 21 + "1", "1." + "0" * 22, "0.1" + "0" * 22, "-0." + "1" * 23, "0." + "3" * 30,
]
TOKENS = st.text(alphabet=string.digits + ".-+eE " + string.ascii_letters, max_size=12)
PYTHON = {"int64": int, "float64": float}


def _write_rows(tmp: str, rows, newline: str = "\n") -> str:
    path = Path(tmp) / "rows.csv"
    path.write_bytes((TRIAL_HEAD + "".join(row + "\n" for row in rows)).replace("\n", newline).encode())
    return str(path)


def assert_reads_as_python_or_names_the_row(rows, newline="\n") -> bool:
    """A trial file of these rows, with these line ends, reads every field
    bit for bit as int() or float() reads it, or fails naming one row
    (its file line and text) and its field count or the field it does
    not read, never the block's lines alone; whether it read."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            got = read_records(_write_rows(tmp, rows, newline))
        except ValueError as exc:
            message = str(exc)
        else:
            message = None
    if message is not None:
        line = re.match(r"malformed trial CSV row at line (\d+): ", message)
        assert line, message
        row = rows[int(line[1]) - 3]
        fields, head = row.split(","), f"{line[0]}{row!r}: "
        if len(fields) != len(TrialTable.schema):
            assert message == head + "expected 5 fields"
        else:
            named = zip(TrialTable.schema, fields)
            assert message in {head + f"{name} {field!r} does not parse as {kind}" for (name, kind), field in named}
        return False
    assert len(got) == len(rows)
    for (name, kind), column in zip(TrialTable.schema, zip(*(row.split(",") for row in rows))):
        want = np.array([PYTHON[kind](field) for field in column], kind)
        assert np.array_equal(getattr(got, name).view(np.uint64), want.view(np.uint64)), name
    return True


@pytest.mark.parametrize("token", NONCANONICAL)
@pytest.mark.parametrize("field", range(5))
def test_text_the_writer_never_writes_reads_as_python_reads_it_or_names_the_row(field, token):
    row = list(CANONICAL_ROW)
    row[field] = token
    assert_reads_as_python_or_names_the_row([",".join(CANONICAL_ROW), ",".join(row), ",".join(CANONICAL_ROW)])


# forms that no writer writes, which the reader refuses
# (a point needs a digit after it, whatever the digits before it)
REFUSED = [
    ("trial_index", "+1"), ("beta2", "+1"), ("raw1", "1."), ("raw2", "-0."), ("raw1", "123456789012345678.")
] + [
    (name, token)
    for token in (" 1.5", "1.5 ", "+1", ".5", "-.5", "1E5", "1e5", "Infinity", "NaN")
    for name in ("raw1", "raw2")
]


@pytest.mark.parametrize("name, token", REFUSED)
def test_a_form_no_writer_writes_is_refused_naming_its_line_and_field(name, token, capsys):
    row = list(CANONICAL_ROW)
    row[TrialTable.field_names.index(name)] = token
    kind = dict(TrialTable.schema)[name]
    error = f"malformed trial CSV row at line 4: {','.join(row)!r}: {name} {token!r} does not parse as {kind}"
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_rows(tmp, [",".join(CANONICAL_ROW), ",".join(row), ",".join(CANONICAL_ROW)])
        with pytest.raises(ValueError) as info:
            read_records(path)
        assert str(info.value) == error
        assert main(["audit", "--in", path, "--v", "0.5"]) == 1
    assert capsys.readouterr() == ("", f"blgisim: error: {error}\n")


@pytest.mark.parametrize(
    "name, token, value",
    [("raw1", "007", 7.0), ("raw2", "-0", -0.0), ("raw2", "00.5", 0.5), ("trial_index", "007", 7), ("beta1", "-0", 0)],
)
def test_the_kernel_reads_these_forms_the_writer_never_writes(name, token, value):
    row = list(CANONICAL_ROW)
    row[TrialTable.field_names.index(name)] = token
    with tempfile.TemporaryDirectory() as tmp:
        table = read_records(_write_rows(tmp, [",".join(row)]))
    assert repr(getattr(table, name).tolist()) == repr([value])


def test_float_fields_of_every_digit_count_read_as_float_reads_them():
    """1-30 digits before the point and 0-30 after it, in both float
    columns: past %.17g's 17 digits and the exact division's 22.  Each is
    the exact kernel's or a form %.17g may write, so every row reads."""
    rng = np.random.default_rng(20)
    rows = []
    for whole in range(1, 31):
        for fraction in range(31):
            token = "".join(rng.choice(list(string.digits), whole + fraction))
            token = token[:whole] + ("." + token[whole:] if fraction else "")
            rows.append(",".join((CANONICAL_ROW[0], token, "-" + token) + CANONICAL_ROW[3:]))
    assert assert_reads_as_python_or_names_the_row(rows)


@settings(max_examples=300, deadline=None)
@given(
    fields=st.lists(st.one_of(TOKENS, st.sampled_from(CANONICAL_ROW + tuple(NONCANONICAL))), min_size=5, max_size=6),
    newline=st.sampled_from(["\n", "\r\n"]),
)
def test_any_row_reads_as_python_reads_it_or_names_the_row(fields, newline):
    assert_reads_as_python_or_names_the_row([",".join(CANONICAL_ROW), ",".join(fields)], newline)
