"""CSV persistence for trial and prediction tables and sweeps, plus JSON run manifests.

One columnar codec, driven by a schema of ``(name, kind)`` columns, writes
and reads every CSV a block of rows at a time, and names the file line of a
malformed row. Real fields are serialized with ``%.17g``, which round-trips
float64 exactly, so reruns can be compared byte for byte. Fields are never
quoted: a ``"`` is rejected on write and on read.

A record file holds one experiment, like the table it is written from, and
holds exactly what the table holds. Line 1 (record format 2,
``RECORD_FORMAT``) is ``# `` and a JSON object with sorted keys: ``format``
and the table's scalars, ``master_seed``, ``settings_id`` and ``v`` for
trials or ``steps`` for predictions (a float as ``%.17g``). Then come the
column header and rows of the table's schema. The emitters check the
scalars and write the columns; the readers check the header and parse the
columns; nothing is recomputed either way. A file with no header comment,
such as one of the retired record format 1, is refused: rerun the command
in its manifest.

A sweep is a dict of plain column lists keyed by ``SWEEP_HEADER``, as
``cli.run_sweep`` returns it, written with no comment line.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import partial
from itertools import islice, repeat

import numpy as np

from .prediction import PredictionTable
from .qubits import check_strength
from .trials import TrialTable

# Version of the record file format that run manifests record.
#   1: every column on every row, settings id and derived ones included; no
#      comment line.  No longer read.
#   2: a JSON comment line of the table's scalars, then the table's columns.
RECORD_FORMAT = 2

_BLOCK_ROWS = 65536
# printf format per column kind; "str" is unquoted text, the rest are numpy dtypes
_FORMATS = {"int64": "%d", "float64": "%.17g", "str": "%s"}

_F = "float64"
SWEEP_SCHEMA = (("v", _F), ("exact_chsh", _F), ("empirical_chsh", _F), ("chsh_stderr", _F), ("verdict", "str"))
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


def _check_id(settings_id) -> str:
    if not isinstance(settings_id, str):
        raise ValueError(f"settings_id must be a string, got {settings_id!r}")
    _check_text(settings_id)
    return settings_id


def _scalar_checks(cls: type) -> dict:
    """The check of each scalar of a cls record header: the table's own, and a settings id fit for CSV."""
    return {**cls.scalar_checks, "settings_id": _check_id}


_KIND_NAMES = {TrialTable: "trial", PredictionTable: "prediction"}


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


def _emit_table(table, cls: type, path: str) -> str:
    """Write a table in record format 2, _BLOCK_ROWS rows at a time, after
    checking its scalars; no rows writes the two header lines only."""
    if not isinstance(table, cls):
        raise TypeError(f"expected a {cls.__name__} to write, got {type(table).__name__}")
    checks = _scalar_checks(cls)
    header = {"format": RECORD_FORMAT, **{name: check(getattr(table, name)) for name, check in checks.items()}}

    def blocks():
        for start in range(0, len(table), _BLOCK_ROWS):
            yield [getattr(table, name)[start:start + _BLOCK_ROWS].tolist() for name in cls.field_names]

    return _write_csv(path, cls.schema, blocks(), _comment(header))


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


def _read_comment(line: str, cls: type, where: str) -> dict:
    """The checked scalars of a cls table from line 1 of its file."""
    try:
        header = json.loads(line[1:])
    except ValueError as exc:
        raise ValueError(f"malformed {where}: header comment is not JSON ({exc})") from None
    if not isinstance(header, dict):
        raise ValueError(f"malformed {where}: header comment is not a JSON object")
    fmt = header.get("format")
    if fmt != RECORD_FORMAT or isinstance(fmt, bool):
        raise ValueError(f"unsupported {where}: record format {fmt!r}; this version reads format {RECORD_FORMAT} only")
    keys = {"format", *cls.scalars}
    if set(header) != keys:
        raise ValueError(f"malformed {where}: header keys {sorted(header)}, expected {sorted(keys)}")
    try:
        return {name: check(header[name]) for name, check in _scalar_checks(cls).items()}
    except ValueError as exc:
        raise ValueError(f"malformed {where}: {exc}") from None


def _read_table(path: str, cls: type, v: float | None = None):
    """Read a record CSV into a cls table; given v, the header must hold that v."""
    what = _KIND_NAMES[cls]
    with open(path, "r") as f:
        line = f.readline()
        if not line.startswith("#"):
            raise ValueError(
                f"{what} CSV {path} has no header comment at line 1: record format 1 is no longer read; "
                "rerun the command in its manifest"
            )
        scalars = _read_comment(line, cls, f"{what} CSV {path} line 1")
        if v is not None and scalars["v"] != v:
            raise ValueError(f"{what} CSV {path} was written at v={scalars['v']!r}, not at the given v={v!r}")
        line = f.readline()
        if line.startswith("#"):
            raise ValueError(f"malformed {what} CSV {path}: a second header comment at line 2")
        _check_header(line, cls.schema, what)
        parts = [data for _, data, _ in _read_blocks(f, cls.schema, what, 3)]
    if not parts:
        raise ValueError(f"{what} CSV {path} holds no records")
    return cls(*(np.concatenate([p[name] for p in parts]) for name in cls.field_names), **scalars)


def emit_records(records, path: str) -> str:
    """Write a TrialTable in record format 2; a table of no rows yields the two header lines only.

    Before the file is opened, the table's settings id, v and master seed
    must be what the reader accepts, or a ValueError names the scalar.
    """
    return _emit_table(records, TrialTable, path)


def read_records(path: str, v: float | None = None) -> TrialTable:
    """Read a trial CSV back into a table; exact inverse of emit_records.

    Given v, the file must have been written at that v.
    """
    return _read_table(path, TrialTable, None if v is None else check_strength(v))


def emit_predictions(records, path: str) -> str:
    """Write a PredictionTable in record format 2; a table of no rows yields the two header lines only.

    Before the file is opened, the table's settings id, steps and master
    seed must be what the reader accepts, or a ValueError names the scalar.
    """
    return _emit_table(records, PredictionTable, path)


def read_predictions(path: str) -> PredictionTable:
    """Read a prediction CSV back into a table; exact inverse of emit_predictions."""
    return _read_table(path, PredictionTable)


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
