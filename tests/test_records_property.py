"""Property tests for the record codec: bit-exact round trips and the exact bytes
of a plain per-row ``%.17g`` formatter, on random tables."""

import math
import string
import tempfile
from pathlib import Path

import numpy as np
import pytest

from blgisim.prediction import PredictionTable
from blgisim.records import (
    PREDICTION_SCHEMA,
    TRIAL_SCHEMA,
    emit_predictions,
    emit_records,
    read_predictions,
    read_records,
)
from blgisim.trials import TrialTable

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

CODECS = {
    "trial": (TRIAL_SCHEMA, TrialTable, emit_records, read_records),
    "prediction": (PREDICTION_SCHEMA, PredictionTable, emit_predictions, read_predictions),
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
        if k == "str" and draw(st.booleans()):
            columns[name] = draw(ELEMENTS[k])  # one id for the whole table
        else:
            columns[name] = draw(st.lists(ELEMENTS[k], min_size=n, max_size=n))
    sid = columns.pop("settings_id")
    numeric = list(columns.values())
    if not isinstance(sid, str):
        sid = np.array(sid, dtype=object)
    return cls(*numeric[:-1], sid, numeric[-1])


def reference_csv(schema, table) -> str:
    """The record CSV written one row and one field at a time."""
    sids = table.settings_ids()
    lines = [",".join(name for name, _ in schema)]
    for i in range(len(table)):
        fields = []
        for name, kind in schema:
            if kind == "str":
                fields.append(str(sids[i]))
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


@pytest.mark.parametrize("kind", list(CODECS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_emit_read_is_bit_exact_and_matches_per_row_reference(kind, data):
    schema = CODECS[kind][0]
    table = data.draw(tables(kind))
    text, back = _round_trip(kind, table)
    assert text == reference_csv(schema, table)
    for name, k in schema:
        if k == "str":
            assert list(back.settings_ids()) == list(table.settings_ids())
            continue
        got, want = getattr(back, name), getattr(table, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name
