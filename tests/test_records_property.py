"""Property tests for the record codec.

Random tables of both kinds are written in record format 2, match a plain
per-row ``%.17g`` writer, and read back bit for bit, every column and
every scalar.  Tables the samplers build, over random v, noise, seed and
start, read back bit for bit too, and emit -> read -> emit gives the same
bytes."""

import json
import math
import string
import tempfile
from pathlib import Path

import numpy as np
import pytest

from blgisim.audit import hidden_variable_config, hidden_variable_source
from blgisim.prediction import MAX_STEPS, PredictionTable, SequentialReadoutParams, prediction_batch, prediction_settings
from blgisim.qubits import NoiseModel
from blgisim.records import emit_predictions, emit_records, read_predictions, read_records
from blgisim.trials import Settings, TrialTable, simulate_trials

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


def reference_csv(table) -> str:
    """The record file written one header key, one row and one field at a time."""
    header = []
    for name in sorted(["format", *table.scalars]):
        value = 2 if name == "format" else getattr(table, name)
        header.append(f'"{name}": ' + (f"{value:.17g}" if isinstance(value, float) else json.dumps(value)))
    lines = ["# {" + ", ".join(header) + "}", ",".join(table.field_names)]
    for i in range(len(table)):
        fields = []
        for name, kind in table.schema:
            value = getattr(table, name)[i]
            fields.append(f"{float(value):.17g}" if kind == "float64" else str(int(value)))
        lines.append(",".join(fields))
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
