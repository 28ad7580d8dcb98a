"""CSV persistence for trial and prediction tables and sweeps, plus JSON run manifests.

One columnar codec, driven by a schema of ``(name, kind)`` columns, writes
and reads every CSV a block of rows at a time, and names the file line of a
malformed row. Real fields are serialized with ``%.17g``, which round-trips
float64 exactly, so reruns can be compared byte for byte. Fields are never
quoted: a ``"`` is rejected on write and on read.

A record file holds one experiment, like the table it is written from.
Record format 2 (``RECORD_FORMAT``) writes only what the reader cannot
recompute. Line 1 is ``# `` and a JSON object with sorted keys: ``format``,
``master_seed``, ``settings_id`` and the one parameter the reader needs,
``v`` for trials or ``steps`` for predictions (a float as ``%.17g``). Then
come the column header and rows of ``TRIAL_ROW_SCHEMA`` or
``PREDICTION_ROW_SCHEMA``. The reader recomputes alpha_i = raw_i / v, the
trajectory means (2K - steps)/steps with their sign predictions, and every
seed as streams.derived_seed(master_seed, trial_index): bit for bit what
the samplers produce. The emitters refuse, before opening the file, a table
for which that would not hold, so the format is an exact inverse of every
table it accepts. Format-1 files, whose rows hold every table column and
the settings id, still read; every row must carry the first row's id.

A sweep is a dict of plain column lists keyed by ``SWEEP_HEADER``, as
``cli.run_sweep`` returns it, written with no comment line.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import partial
from itertools import islice, repeat
from typing import Callable

import numpy as np

from .prediction import PREDICTION_SCHEMA, PredictionTable, _readout_columns, check_steps
from .qubits import check_strength
from .streams import derived_seed
from .trials import TRIAL_SCHEMA, TrialTable

# Version of the record file format that run manifests record.
#   1: every table column on every row, settings id included; no comment line.
#   2: a JSON comment line, then only the columns that cannot be recomputed.
RECORD_FORMAT = 2

_BLOCK_ROWS = 65536
# printf format per column kind; "str" is unquoted text, the rest are numpy dtypes
_FORMATS = {"int64": "%d", "uint64": "%d", "float64": "%.17g", "str": "%s"}

_I, _F = "int64", "float64"
SWEEP_SCHEMA = (("v", _F), ("exact_chsh", _F), ("empirical_chsh", _F), ("chsh_stderr", _F), ("verdict", "str"))
TRIAL_ROW_SCHEMA = (("trial_index", _I), ("raw1", _F), ("raw2", _F), ("beta1", _I), ("beta2", _I))
PREDICTION_ROW_SCHEMA = (("trial_index", _I), ("K1", _I), ("K2", _I), ("actual1", _I), ("actual2", _I))
# format-1 headers: every table column, in schema order
TRIAL_HEADER = tuple(name for name, _ in TRIAL_SCHEMA)
PREDICTION_HEADER = tuple(name for name, _ in PREDICTION_SCHEMA)
SWEEP_HEADER = tuple(name for name, _ in SWEEP_SCHEMA)


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a run's record outputs byte for byte
    (timestamps are informational only)."""

    tool_version: str
    command: str
    master_seed: int
    parameters: dict
    started: str
    finished: str
    output_paths: list
    layout_version: int = 1  # streams.LAYOUT_VERSION of the run; absent (1) in older manifests
    record_format: int = 1  # RECORD_FORMAT of the run; absent (1) in older manifests


def _check_text(text: str, name: str = "settings_id") -> None:
    """Reject a str field that would split or quote its CSV row."""
    if any(ch in text for ch in (",", '"', "\n", "\r")):
        raise ValueError(f"{name} {text!r} contains CSV delimiter or quote characters")


_INTEGER, _NUMBER = (int, np.integer), (int, float)


def _typed(value, kinds: tuple, name: str):
    """value, if it is one of kinds and not a bool (JSON's true and false read as Python ints)."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"{name} must be {'an integer' if kinds is _INTEGER else 'a number'}, got {value!r}")
    return value


def _check_seed(master_seed) -> int:
    if not 0 <= _typed(master_seed, _INTEGER, "master_seed") < 2**64:
        raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {master_seed!r}")
    return int(master_seed)


def _check_v(v) -> float:
    return check_strength(_typed(v, _NUMBER, "coupling strength"))


def _check_steps(steps) -> int:
    return int(check_steps(_typed(steps, _INTEGER, "steps")))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _trial_rows(table: TrialTable, v: float) -> dict:
    """The stored columns of a trial table; each alpha must be what the reader recomputes."""
    for alpha, raw in (("alpha1", table.raw1), ("alpha2", table.raw2)):
        with np.errstate(over="ignore"):  # an alpha past the float range is inf, as the sampler makes it
            recomputed = raw / v
        if not _same_bits(getattr(table, alpha), recomputed):
            raise ValueError(f"{alpha} is not raw / v at v={v!r} bit for bit, so record format 2 cannot hold it")
    return {name: getattr(table, name) for name, _ in TRIAL_ROW_SCHEMA}


def _trial_columns(rows: dict, v: float) -> dict:
    with np.errstate(over="ignore"):  # inf, which audit then rejects as non-finite
        return {**rows, "alpha1": rows["raw1"] / v, "alpha2": rows["raw2"] / v}


_READOUT_NAMES = ("trajectory_mean1", "trajectory_mean2", "predicted1", "predicted2")


def _prediction_rows(table: PredictionTable, steps: int) -> dict:
    """The stored columns of a prediction table; each mean and prediction must be what the reader recomputes."""
    # the nearest count in [0, steps]; a mean it does not reproduce fails below
    with np.errstate(over="ignore"):
        k1, k2 = (
            np.clip(np.nan_to_num(np.rint((getattr(table, name) + 1.0) * (steps / 2.0))), 0, steps).astype(np.int64)
            for name in _READOUT_NAMES[:2]
        )
    for name, column in zip(_READOUT_NAMES, _readout_columns(k1, k2, steps)):
        if not _same_bits(getattr(table, name), column):
            raise ValueError(
                f"{name} is not (2K - steps)/steps, or its sign, for an integer K in [0, {steps}] bit for bit, "
                "so record format 2 cannot hold it"
            )
    return {"trial_index": table.trial_index, "K1": k1, "K2": k2, "actual1": table.actual1, "actual2": table.actual2}


def _prediction_columns(rows: dict, steps: int) -> dict:
    return {**rows, **dict(zip(_READOUT_NAMES, _readout_columns(rows["K1"], rows["K2"], steps)))}


@dataclass(frozen=True)
class _Codec:
    """How one table kind maps to format-2 rows and back."""

    cls: type
    what: str
    rows: tuple  # the row schema
    param: str  # the header key the reader needs besides the master seed
    check_param: Callable
    encode: Callable  # (table, param) -> stored columns; raises if they cannot reproduce the table
    decode: Callable  # (stored columns, param) -> every column but seed and settings_id


_TRIALS = _Codec(TrialTable, "trial", TRIAL_ROW_SCHEMA, "v", _check_v, _trial_rows, _trial_columns)
_PREDICTIONS = _Codec(
    PredictionTable, "prediction", PREDICTION_ROW_SCHEMA, "steps", _check_steps, _prediction_rows, _prediction_columns
)


def _comment(header: dict) -> str:
    """Line 1 of a record file: '# ' and JSON with sorted keys, a float written as %.17g."""
    values = {k: "%.17g" % x if isinstance(x, float) else json.dumps(x) for k, x in header.items()}
    return "# {" + ", ".join(f"{json.dumps(k)}: {values[k]}" for k in sorted(values)) + "}\n"


def _write_csv(path: str, schema, blocks, comment: str = "") -> str:
    """Write the comment, the header, then each block (a list of columns in schema order)."""
    template = ",".join(_FORMATS[kind] for _, kind in schema) + "\n"
    with open(path, "w", newline="") as f:
        f.write(comment + ",".join(name for name, _ in schema) + "\n")
        for columns in blocks:
            f.write("".join(map(template.__mod__, zip(*columns))))
    return path


def _emit_table(table, codec: _Codec, path: str, param, master_seed) -> str:
    """Write a table in record format 2, _BLOCK_ROWS rows at a time, after
    checking everything; no rows writes the two header lines only."""
    if not isinstance(table, codec.cls):
        raise TypeError(f"expected a {codec.cls.__name__} to write, got {type(table).__name__}")
    _check_text(table.settings_id)
    param, master_seed = codec.check_param(param), _check_seed(master_seed)
    rows = codec.encode(table, param)
    if not np.array_equal(table.seed, derived_seed(master_seed, table.trial_index)):
        raise ValueError(f"seed is not derived_seed({master_seed}, trial_index), so record format 2 cannot hold it")
    header = {"format": RECORD_FORMAT, "master_seed": master_seed, "settings_id": table.settings_id, codec.param: param}

    def blocks():
        for start in range(0, len(table), _BLOCK_ROWS):
            yield [rows[name][start:start + _BLOCK_ROWS].tolist() for name, _ in codec.rows]

    return _write_csv(path, codec.rows, blocks(), _comment(header))


def _parses(line: str, col: int, kind: str) -> bool:
    try:
        np.loadtxt([line], delimiter=",", comments=None, dtype=kind, usecols=[col])
    except ValueError:
        return False
    return True


def _row_error(lines, first: int, what: str, schema) -> ValueError:
    """The error for the first of lines (file line `first` on) that does not parse."""
    for i, line in enumerate(lines):
        row = line.rstrip("\n")
        fields = row.split(",")
        if len(fields) != len(schema):
            reason = f"expected {len(schema)} fields"
        else:
            bad = (c for c, (_, kind) in enumerate(schema) if kind != "str" and not _parses(line, c, kind))
            if (col := next(bad, None)) is None:
                continue
            reason = f"{schema[col][0]} {fields[col]!r} does not parse as {schema[col][1]}"
        return ValueError(f"malformed {what} CSV row at line {first + i}: {row!r}: {reason}")
    return ValueError(f"malformed {what} CSV rows in lines {first}-{first + len(lines) - 1}")


def _check_header(line: str, schema, what: str) -> None:
    header = line.rstrip("\n")
    if tuple(header.split(",")) != tuple(name for name, _ in schema):
        raise ValueError(f"unexpected {what} CSV header {header!r}")


def _read_blocks(f, schema, what: str, first: int):
    """Yield (first file line, numeric rows, str column) per block of the rows of f.

    f's next line is file line `first`.
    The numeric rows are one structured array; the str column is a list, or
    None for a schema without one. A blank line, a wrong field count, a
    field that does not parse as its kind and a quoted str field raise
    ``malformed <what> CSV row at line N``; only then is the block parsed
    again, line by line, to find N.
    """
    kinds = [kind for _, kind in schema]
    k = kinds.index("str") if "str" in kinds else None
    usecols = [i for i, kind in enumerate(kinds) if kind != "str"]
    dtype = np.dtype([schema[i] for i in usecols])
    # without usecols loadtxt rejects a row of the wrong field count itself
    usecols = usecols if k is not None else None
    load = partial(np.loadtxt, delimiter=",", comments=None, dtype=dtype, usecols=usecols, ndmin=1)
    commas = len(schema) - 1
    while lines := list(islice(f, _BLOCK_ROWS)):
        try:
            data = load(lines)
        except ValueError:
            raise _row_error(lines, first, what, schema) from None
        # loadtxt skips blank lines and, given usecols, ignores extra fields, so count both here
        extra = k is not None and sum(map(str.count, lines, repeat(","))) != commas * len(lines)
        if len(data) != len(lines) or extra:
            raise _row_error(lines, first, what, schema)
        texts = None
        if k is not None:
            texts = [line.split(",", k + 1)[k] for line in lines]
            if k == commas:  # the last field keeps its line end
                texts = [text.rstrip("\n") for text in texts]
            for text in set(texts):
                if '"' in text:
                    at = first + texts.index(text)
                    raise ValueError(f"malformed {what} CSV row at line {at}: quoted {schema[k][0]} {text!r}")
        yield first, data, texts
        first += len(lines)


def _read_comment(line: str, codec: _Codec, path: str) -> dict:
    """The checked header of a format-2 file from its line 1."""
    where = f"{codec.what} CSV {path} line 1"
    try:
        header = json.loads(line[1:])
    except ValueError as exc:
        raise ValueError(f"malformed {where}: header comment is not JSON ({exc})") from None
    if not isinstance(header, dict):
        raise ValueError(f"malformed {where}: header comment is not a JSON object")
    fmt = header.get("format")
    if fmt != RECORD_FORMAT or isinstance(fmt, bool):
        raise ValueError(
            f"unsupported {where}: record format {fmt!r}; this version reads formats 1 and {RECORD_FORMAT}"
        )
    keys = {"format", "master_seed", "settings_id", codec.param}
    if set(header) != keys:
        raise ValueError(f"malformed {where}: header keys {sorted(header)}, expected {sorted(keys)}")
    try:
        if not isinstance(header["settings_id"], str):
            raise ValueError(f"settings_id must be a string, got {header['settings_id']!r}")
        _check_text(header["settings_id"])
        header["master_seed"] = _check_seed(header["master_seed"])
        header[codec.param] = codec.check_param(header[codec.param])
    except ValueError as exc:
        raise ValueError(f"malformed {where}: {exc}") from None
    return header


def _read_table(path: str, codec: _Codec, param=None):
    """Read a record CSV of either format into a codec.cls table.

    Given param, a format-2 header must hold that value of codec.param.
    """
    what, parts, header = codec.what, [], None
    with open(path, "r") as f:
        line = f.readline()
        if line.startswith("#"):
            header = _read_comment(line, codec, path)
            key, written = codec.param, header[codec.param]
            if param is not None and written != param:
                raise ValueError(
                    f"{what} CSV {path} was written at {key}={written!r}, not at the given {key}={param!r}"
                )
            line = f.readline()
            if line.startswith("#"):
                raise ValueError(f"malformed {what} CSV {path}: a second header comment at line 2")
            _check_header(line, codec.rows, what)
            parts = [data for _, data, _ in _read_blocks(f, codec.rows, what, 3)]
            sid = header["settings_id"]
        else:
            if tuple(line.rstrip("\n").split(",")) == tuple(name for name, _ in codec.rows):
                raise ValueError(f"malformed {what} CSV {path}: record format 2 rows with no header comment at line 1")
            _check_header(line, codec.cls.schema, what)
            sid = None
            for first, data, ids in _read_blocks(f, codec.cls.schema, what, 2):
                sid = ids[0] if sid is None else sid
                if ids.count(sid) != len(ids):
                    at = next(i for i, s in enumerate(ids) if s != sid)
                    raise ValueError(
                        f"malformed records: 2 distinct settings ids in one record set; "
                        f"line {first + at} of {path} carries {ids[at]!r} after {sid!r}"
                    )
                parts.append(data)
    if not parts:
        raise ValueError(f"{what} CSV {path} holds no records")
    columns = {name: np.concatenate([p[name] for p in parts]) for name in parts[0].dtype.names}
    del parts  # before the recomputed columns are allocated
    if header is not None:
        columns = codec.decode(columns, header[codec.param])
        columns["seed"] = derived_seed(header["master_seed"], columns["trial_index"])
    return codec.cls(*(sid if name == "settings_id" else columns[name] for name in codec.cls.field_names))


def emit_records(records, path: str, v: float, master_seed: int) -> str:
    """Write a TrialTable in record format 2; a table of no rows yields the two header lines only.

    v is the coupling strength and master_seed the seed of the run. Before
    the file is opened, alpha_i must equal raw_i / v and seed
    derived_seed(master_seed, trial_index), bit for bit, or a ValueError
    names the column.
    """
    return _emit_table(records, _TRIALS, path, v, master_seed)


def read_records(path: str, v: float | None = None) -> TrialTable:
    """Read a trial CSV of format 1 or 2 back into a table; exact inverse of emit_records.

    Given v, a format-2 file must have been written at that v.
    """
    return _read_table(path, _TRIALS, None if v is None else check_strength(v))


def emit_predictions(records, path: str, steps: int, master_seed: int) -> str:
    """Write a PredictionTable in record format 2; a table of no rows yields the two header lines only.

    steps is the readout length and master_seed the seed of the run. Before
    the file is opened, each trajectory mean must be (2K - steps)/steps for
    an integer K in [0, steps], each prediction its sign rule, and seed
    derived_seed(master_seed, trial_index), bit for bit, or a ValueError
    names the column.
    """
    return _emit_table(records, _PREDICTIONS, path, steps, master_seed)


def read_predictions(path: str) -> PredictionTable:
    """Read a prediction CSV of format 1 or 2 back into a table; exact inverse of emit_predictions."""
    return _read_table(path, _PREDICTIONS)


def emit_sweep(columns: dict, path: str) -> str:
    """Write sweep columns keyed by SWEEP_HEADER, as run_sweep returns them, as CSV."""
    lengths = {name: len(columns[name]) for name in SWEEP_HEADER}
    if len(set(lengths.values())) > 1:  # writing would silently drop the longer columns' tails
        raise ValueError(f"sweep columns must be equally long, got lengths {lengths}")
    for verdict in set(columns["verdict"]):
        _check_text(verdict, "verdict")
    return _write_csv(path, SWEEP_SCHEMA, [[columns[name] for name in SWEEP_HEADER]])


def read_sweep(path: str) -> dict:
    """Read a sweep CSV back into columns keyed by SWEEP_HEADER; exact inverse of emit_sweep."""
    columns = {name: [] for name in SWEEP_HEADER}
    with open(path, "r") as f:
        _check_header(f.readline(), SWEEP_SCHEMA, "sweep")
        for _, data, verdicts in _read_blocks(f, SWEEP_SCHEMA, "sweep", 2):
            for name in data.dtype.names:
                columns[name] += data[name].tolist()
            columns["verdict"] += verdicts
    return columns


def emit_manifest(manifest: RunManifest, path: str) -> str:
    """Write the manifest as a single JSON object."""
    with open(path, "w") as f:
        json.dump(asdict(manifest), f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def read_manifest(path: str) -> RunManifest:
    """Read a manifest; one written without a layout version or record format reads as 1 for each."""
    with open(path, "r") as f:
        data = json.load(f)
    try:
        return RunManifest(**data)
    except TypeError as exc:  # not a JSON object, or a key missing or unknown
        raise ValueError(f"malformed manifest {path}: {exc}") from None
