"""CSV persistence for trial and prediction tables and sweeps, plus JSON run manifests.

One columnar codec, driven by a schema of ``(name, kind)`` columns, writes
and reads every CSV a block of rows at a time, and names the file line of a
malformed row. Each record emitter writes a table of its own kind and each
record reader returns one; a sweep is a dict of plain column lists keyed by
``SWEEP_HEADER``, as ``cli.run_sweep`` returns it. Real fields are serialized
with ``%.17g``, which round-trips float64 exactly, so reruns can be compared
byte for byte. Fields are never quoted: a ``"`` is rejected on write and on read.
A record file holds one experiment, like the table it is written from: every
row carries the same settings id, and a second id is rejected on read.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import partial
from itertools import islice, repeat

import numpy as np

from .prediction import PREDICTION_SCHEMA, PredictionTable
from .trials import TRIAL_SCHEMA, TrialTable

_BLOCK_ROWS = 65536
# printf format per column kind; "str" is unquoted text, the rest are numpy dtypes
_FORMATS = {"int64": "%d", "uint64": "%d", "float64": "%.17g", "str": "%s"}

_F = "float64"
SWEEP_SCHEMA = (("v", _F), ("exact_chsh", _F), ("empirical_chsh", _F), ("chsh_stderr", _F), ("verdict", "str"))
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


def _check_text(text: str, name: str = "settings_id") -> None:
    """Reject a str field that would split or quote its CSV row."""
    if any(ch in text for ch in (",", '"', "\n", "\r")):
        raise ValueError(f"{name} {text!r} contains CSV delimiter or quote characters")


def _write_csv(path: str, schema, blocks) -> str:
    """Write the header, then each block (a list of columns in schema order)."""
    template = ",".join(_FORMATS[kind] for _, kind in schema) + "\n"
    with open(path, "w", newline="") as f:
        f.write(",".join(name for name, _ in schema) + "\n")
        for columns in blocks:
            f.write("".join(map(template.__mod__, zip(*columns))))
    return path


def _emit_table(table, cls, path: str) -> str:
    """Write a cls table column-wise, _BLOCK_ROWS rows at a time; no rows writes the header only."""
    if not isinstance(table, cls):
        raise TypeError(f"expected a {cls.__name__} to write, got {type(table).__name__}")
    sid, schema = table.settings_id, cls.schema
    _check_text(sid)

    def blocks():
        for start in range(0, len(table), _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            yield [repeat(sid) if kind == "str" else getattr(table, name)[rows].tolist() for name, kind in schema]

    return _write_csv(path, schema, blocks())


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


def _read_blocks(path: str, schema, what: str):
    """Yield (first file line, numeric rows, str column) per block of a CSV of this schema.

    The numeric rows are one structured array, the one str column a list. A
    blank line, a wrong field count, a field that does not parse as its kind
    and a quoted str field raise ``malformed <what> CSV row at line N``; only
    then is the block parsed again, line by line, to find N.
    """
    k = [kind for _, kind in schema].index("str")
    usecols = [i for i, (_, kind) in enumerate(schema) if kind != "str"]
    dtype = np.dtype([schema[i] for i in usecols])
    load = partial(np.loadtxt, delimiter=",", comments=None, dtype=dtype, usecols=usecols, ndmin=1)
    commas = len(schema) - 1
    with open(path, "r") as f:
        header = f.readline().rstrip("\n")
        if tuple(header.split(",")) != tuple(name for name, _ in schema):
            raise ValueError(f"unexpected {what} CSV header {header!r}")
        first = 2
        while lines := list(islice(f, _BLOCK_ROWS)):
            try:
                data = load(lines)
            except ValueError:
                raise _row_error(lines, first, what, schema) from None
            # loadtxt skips blank lines and ignores extra fields, so count both here
            if len(data) != len(lines) or sum(map(str.count, lines, repeat(","))) != commas * len(lines):
                raise _row_error(lines, first, what, schema)
            texts = [line.split(",", k + 1)[k] for line in lines]
            if k == commas:  # the last field keeps its line end
                texts = [text.rstrip("\n") for text in texts]
            for text in set(texts):
                if '"' in text:
                    at = first + texts.index(text)
                    raise ValueError(f"malformed {what} CSV row at line {at}: quoted {schema[k][0]} {text!r}")
            yield first, data, texts
            first += len(lines)


def _read_table(path: str, cls, what: str):
    """Read a record CSV into a cls table; every row must carry the first row's settings id."""
    parts, sid = [], None
    for first, data, ids in _read_blocks(path, cls.schema, what):
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
    return cls(*(columns.get(name, sid) for name in cls.field_names))


def emit_records(records, path: str) -> str:
    """Write a TrialTable as CSV; a table of no rows yields a header-only file."""
    return _emit_table(records, TrialTable, path)


def read_records(path: str) -> TrialTable:
    """Read a trial CSV back into a table; exact inverse of emit_records."""
    return _read_table(path, TrialTable, "trial")


def emit_predictions(records, path: str) -> str:
    """Write a PredictionTable as CSV; a table of no rows yields a header-only file."""
    return _emit_table(records, PredictionTable, path)


def read_predictions(path: str) -> PredictionTable:
    """Read a prediction CSV back into a table; exact inverse of emit_predictions."""
    return _read_table(path, PredictionTable, "prediction")


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
    for _, data, verdicts in _read_blocks(path, SWEEP_SCHEMA, "sweep"):
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
    """Read a manifest; one written without a layout version reads as layout 1."""
    with open(path, "r") as f:
        data = json.load(f)
    try:
        return RunManifest(**data)
    except TypeError as exc:  # not a JSON object, or a key missing or unknown
        raise ValueError(f"malformed manifest {path}: {exc}") from None
