"""CSV persistence for trial and prediction tables, plus JSON run manifests.

One columnar codec, driven by a table's schema of ``(name, kind)`` columns,
writes and reads every CSV a block of rows at a time. Each emitter writes a
table of its own kind and each reader returns one. Real fields are serialized
with ``%.17g``, which round-trips float64 exactly, so reruns can be compared
byte for byte. Fields are never quoted: a ``"`` is rejected on write and on read.
A record file holds one experiment, like the table it is written from: every
row carries the same settings id, and a second id is rejected on read.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
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
class SweepRow:
    v: float
    exact_chsh: float
    empirical_chsh: float
    chsh_stderr: float
    verdict: str


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


def _check_id(sid: str) -> None:
    if any(ch in sid for ch in (",", '"', "\n", "\r")):
        raise ValueError(f"settings_id {sid!r} contains CSV delimiter or quote characters")


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
    _check_id(sid)

    def blocks():
        for start in range(0, len(table), _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            yield [repeat(sid) if kind == "str" else getattr(table, name)[rows].tolist() for name, kind in schema]

    return _write_csv(path, schema, blocks())


def _read_header(f, schema, what: str) -> None:
    header = f.readline().rstrip("\n")
    if tuple(header.split(",")) != tuple(name for name, _ in schema):
        raise ValueError(f"unexpected {what} CSV header {header!r}")


def _read_table(path: str, cls, what: str):
    """Read a record CSV into a cls table; every row must carry the first row's settings id."""
    schema = cls.schema
    k = [kind for _, kind in schema].index("str")
    usecols = [i for i, (_, kind) in enumerate(schema) if kind != "str"]
    dtype = np.dtype([(schema[i][0], schema[i][1]) for i in usecols])
    commas = len(schema) - 1
    parts, sid, first = [], None, 2
    with open(path, "r") as f:
        _read_header(f, schema, what)
        while lines := list(islice(f, _BLOCK_ROWS)):
            try:
                data = np.loadtxt(lines, delimiter=",", comments=None, dtype=dtype, usecols=usecols, ndmin=1)
            except ValueError as exc:
                where = f"lines {first}-{first + len(lines) - 1}"
                raise ValueError(f"malformed {what} CSV row in {where}: {exc}") from None
            # loadtxt skips blank lines and ignores extra fields, so count both here
            if len(data) != len(lines) or sum(map(str.count, lines, repeat(","))) != commas * len(lines):
                bad = next(ln for ln in lines if ln.count(",") != commas)
                raise ValueError(f"malformed {what} CSV row: {bad!r}")
            ids = [ln.split(",", k + 1)[k] for ln in lines]
            distinct = set(ids)
            for s in distinct:
                if '"' in s:
                    raise ValueError(f"malformed {what} CSV row: quoted settings_id {s!r}")
            sid = ids[0] if sid is None else sid
            if distinct != {sid}:
                at = next(i for i, s in enumerate(ids) if s != sid)
                raise ValueError(
                    f"malformed records: 2 distinct settings ids in one record set; "
                    f"line {first + at} of {path} carries {ids[at]!r} after {sid!r}"
                )
            parts.append(data)
            first += len(lines)
    if not parts:
        raise ValueError(f"{what} CSV {path} holds no records")
    columns = {name: np.concatenate([p[name] for p in parts]) for name in dtype.names}
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


def emit_sweep(rows, path: str) -> str:
    rows = list(rows)
    return _write_csv(path, SWEEP_SCHEMA, [[[getattr(r, name) for r in rows] for name, _ in SWEEP_SCHEMA]])


def read_sweep(path: str) -> list:
    with open(path, "r") as f:
        _read_header(f, SWEEP_SCHEMA, "sweep")
        rows = [ln.rstrip("\n").split(",") for ln in f]
    out = []
    for line, r in enumerate(rows, start=2):
        try:
            if len(r) != len(SWEEP_SCHEMA) or '"' in r[4]:
                raise ValueError(f"expected {len(SWEEP_SCHEMA)} unquoted fields")
            out.append(SweepRow(float(r[0]), float(r[1]), float(r[2]), float(r[3]), r[4]))
        except ValueError as exc:
            raise ValueError(f"malformed sweep CSV row at line {line}: {r!r}: {exc}") from None
    return out


def emit_manifest(manifest: RunManifest, path: str) -> str:
    """Write the manifest as a single JSON object."""
    with open(path, "w") as f:
        json.dump(asdict(manifest), f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def read_manifest(path: str) -> RunManifest:
    with open(path, "r") as f:
        data = json.load(f)
    return RunManifest(**data)
