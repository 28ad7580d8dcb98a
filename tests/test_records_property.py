"""Property tests for the record codec.

Format 1: random tables written by the format-1 writer match a plain
per-row ``%.17g`` formatter and read back bit for bit.  Format 2: tables
the samplers build, over random v, noise, seed and start, read back bit for
bit from both formats, and a table with one perturbed recomputable field is
refused with no file left behind."""

import math
import string
import tempfile
from pathlib import Path

import numpy as np
import pytest

from blgisim.audit import hidden_variable_config, hidden_variable_source
from blgisim.prediction import PredictionTable, SequentialReadoutParams, prediction_batch, prediction_settings
from blgisim.qubits import NoiseModel
from blgisim.records import (
    PREDICTION_SCHEMA,
    TRIAL_SCHEMA,
    emit_predictions,
    emit_records,
    read_predictions,
    read_records,
)
from blgisim.trials import Settings, TrialTable, simulate_trials
from reference import emit_format1

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

CODECS = {
    "trial": (TRIAL_SCHEMA, TrialTable, emit_format1, read_records),
    "prediction": (PREDICTION_SCHEMA, PredictionTable, emit_format1, read_predictions),
}
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308, math.inf, -math.inf]
ELEMENTS = {
    "int64": st.integers(-(2**63), 2**63 - 1),
    "uint64": st.integers(0, 2**64 - 1),
    "float64": st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False)),
    "str": st.text(alphabet=string.ascii_letters + string.digits + ";=.-_#% ", max_size=12),
}


@st.composite
def tables(draw, kind):
    schema, cls, _, _ = CODECS[kind]
    n = draw(st.integers(1, 12))
    columns = {}
    for name, k in schema:
        if k == "str":
            columns[name] = draw(ELEMENTS[k])  # one id for the whole table
        else:
            columns[name] = draw(st.lists(ELEMENTS[k], min_size=n, max_size=n))
    return cls(*(columns[name] for name in cls.field_names))


def reference_csv(schema, table) -> str:
    """The record CSV written one row and one field at a time."""
    lines = [",".join(name for name, _ in schema)]
    for i in range(len(table)):
        fields = []
        for name, kind in schema:
            if kind == "str":
                fields.append(table.settings_id)
            elif kind == "float64":
                fields.append(f"{float(getattr(table, name)[i]):.17g}")
            else:
                fields.append(str(int(getattr(table, name)[i])))
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def _round_trip(kind, table):
    schema, _, emit, read = CODECS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "records.csv")
        emit(table, path)
        return Path(path).read_text(), read(path)


def _assert_same_table(back, table):
    assert back.settings_id == table.settings_id
    for name, kind in table.schema:
        if kind == "str":
            continue
        got, want = getattr(back, name), getattr(table, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name


@pytest.mark.parametrize("kind", list(CODECS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_emit_read_is_bit_exact_and_matches_per_row_reference(kind, data):
    schema = CODECS[kind][0]
    table = data.draw(tables(kind))
    text, back = _round_trip(kind, table)
    assert text == reference_csv(schema, table)
    _assert_same_table(back, table)


# ---------------------------------------------------------------- format 2

SEEDS = st.integers(0, 2**64 - 1)
STARTS = st.integers(0, 2**40)
STRENGTHS = st.floats(1e-3, 1.0)


@st.composite
def sampled_trials(draw):
    """(table, v, master seed) from simulate_trials, of a quantum or a hidden-variable source."""
    v, seed = draw(STRENGTHS), draw(SEEDS)
    noise = NoiseModel(bias=draw(st.floats(-1.0, 1.0)), sigma=draw(st.floats(0.0, 2.0)))
    if draw(st.booleans()):
        angles = draw(st.lists(st.floats(-math.pi, math.pi), min_size=4, max_size=4))
        source = Settings(*angles, v=v, noise=noise, bell_kind=draw(st.sampled_from(["phi_plus", "psi_minus"])))
    else:
        source = hidden_variable_source(hidden_variable_config(draw(SEEDS), draw(st.integers(0, 99))), v, noise)
    return simulate_trials(source, draw(st.integers(1, 40)), seed, start=draw(STARTS)), v, seed


@st.composite
def sampled_predictions(draw):
    """(table, steps, master seed) from prediction_batch."""
    readout = SequentialReadoutParams(v=draw(STRENGTHS), steps=draw(st.integers(1, 3000)))
    seed = draw(SEEDS)
    n, start = draw(st.integers(1, 40)), draw(STARTS)
    table = prediction_batch(prediction_settings(draw(STRENGTHS)), readout, n, seed, start=start)
    return table, readout.steps, seed


SAMPLED = {
    "trial": (sampled_trials, emit_records, read_records),
    "prediction": (sampled_predictions, emit_predictions, read_predictions),
}


@pytest.mark.parametrize("kind", list(SAMPLED))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sampler_tables_round_trip_bit_for_bit_in_both_formats(kind, data):
    strategy, emit, read = SAMPLED[kind]
    table, param, seed = data.draw(strategy())
    with tempfile.TemporaryDirectory() as tmp:
        two, one = str(Path(tmp) / "two.csv"), str(Path(tmp) / "one.csv")
        emit(table, two, param, seed)
        emit_format1(table, one)
        for path in (two, one):
            _assert_same_table(read(path), table)
        emit(read(one), one, param, seed)  # format 1 read back writes the same format-2 bytes
        assert Path(one).read_bytes() == Path(two).read_bytes()


# one recomputable column per kind that format 2 does not store, and a perturbation of one of its entries
PERTURBED = {
    "trial": {
        "alpha1": lambda x: np.nextafter(x, math.inf),
        "alpha2": lambda x: -x if x else 1.0,
        "seed": lambda x: x ^ np.uint64(1),
    },
    "prediction": {
        "trajectory_mean1": lambda x: np.nextafter(x, -math.inf),
        "trajectory_mean2": lambda x: np.nextafter(x, math.inf),
        "predicted1": lambda x: -x,
        "seed": lambda x: x ^ np.uint64(1 << 63),
    },
}


@pytest.mark.parametrize("kind", list(SAMPLED))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_perturbed_recomputable_field_is_refused_before_any_file(kind, data):
    strategy, emit, _ = SAMPLED[kind]
    table, param, seed = data.draw(strategy())
    name = data.draw(st.sampled_from(sorted(PERTURBED[kind])))
    row = data.draw(st.integers(0, len(table) - 1))
    column = getattr(table, name).copy()
    column[row] = PERTURBED[kind][name](column[row])
    bad = type(table)(*(column if n == name else getattr(table, n) for n in table.field_names))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "refused.csv"
        with pytest.raises(ValueError, match=f"^{name} is not"):
            emit(bad, str(path), param, seed)
        assert not path.exists()
