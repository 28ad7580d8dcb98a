"""CSV persistence for trial and prediction tables and sweeps, plus JSON run manifests.

One columnar codec, driven by a schema of ``(name, kind)`` columns, writes
and reads every CSV a block of rows at a time, and names the file line of a
malformed row. Real fields are serialized with ``%.17g``, which round-trips
float64 exactly, so reruns can be compared byte for byte. Fields are never
quoted: a ``"`` is rejected on write and on read.

The writer formats a block of rows in numpy, with no Python call per row:
each column becomes fixed-width byte cells and a mask of the bytes to keep,
and the kept bytes, gathered a slice of rows at a time so that the
temporaries stay a few MB, are the rows' text (see ``_rows_text``). Floats that
``%.17g`` writes in fixed notation take an exact integer route; the rest
(zeros, subnormals, inf, nan, exponent notation) are formatted by ``%``
one at a time. The bytes equal those of formatting each field of each row
with ``'%d'``, ``'%.17g'`` or ``'%s'`` in a text file.

The reader reads bytes, ends lines where _line_ends does, and parses a
block of rows in numpy too (see _parse_rows), and that kernel is the one
grammar a record or sweep CSV may hold.  An int field is ``-?[0-9]+``, at
most 19 digits, in the int64 range.  A float field ``-?[0-9]+(.[0-9]+)?``
of at most 17 digits before the point and 22 after it, whose digits M <
10**17, f of them after the point, is M / 10**f rounded once, exactly
(Clinger's fast path, or a remainder from Dekker's two-product; see
_quotients), so it equals ``float(text)`` bit for bit; that takes
``007``, ``-0`` and ``00.5`` too, which the writer never writes.  Any other
float field must match _FLOAT_TOKEN, ``-?(inf|nan|D(.D)?(e[+-]D)?)`` with
D = ``[0-9]+``, the forms %.17g may write (exponent notation, inf, nan,
more digits), and is parsed by ``float()``.  Every other field, such as
`` 1.5``, ``+1``, ``.5``, ``1.``, ``1E5`` or ``NaN``, and a line of another
field count, a blank one among them, is malformed: the block's lines are
decoded as ``open(path)`` decodes them, and the error names the first bad
line and field (_row_error).

A record file holds one experiment, like the table it is written from, and
holds exactly what the table holds. Line 1 (record format 2,
``RECORD_FORMAT``) is ``# `` and a JSON object with sorted keys: ``format``
and the table's scalars, ``master_seed``, ``settings_id`` and ``v`` for
trials or ``steps`` for predictions (a float as ``%.17g``). Then come the
column header and rows of the table's schema. The emitters check the
scalars and write the columns; the readers check the header and parse the
columns; nothing is recomputed either way. An empty file is refused as
empty, and a file with no header comment, such as one of the retired
record format 1, is refused: rerun the command in its manifest.

A sweep is a dict of plain column lists keyed by ``SWEEP_HEADER``, as
``cli.run_sweep`` returns it, written with no comment line.
"""

from __future__ import annotations

import io
import json
import os
import re
from bisect import bisect_left
from dataclasses import asdict, dataclass
from itertools import chain, islice, repeat

import numpy as np

from .prediction import PredictionTable
from .trials import FOLD_ROWS, TrialTable, _filled, _one_experiment, check_strength

# Version of the record file format that run manifests record.
#   1: every column on every row, settings id and derived ones included; no
#      comment line.  No longer read.
#   2: a JSON comment line of the table's scalars, then the table's columns.
RECORD_FORMAT = 2

# rows read per block: a trial file's blocks are estimate_chsh's fold blocks,
# so a streamed audit gives the bits of an audit of the whole table
_BLOCK_ROWS = FOLD_ROWS
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


def _encoding() -> str:
    """The encoding that open(path) reads and writes text in, and so str cells."""
    return io.TextIOWrapper(io.BytesIO()).encoding


def _check_text(text, name: str = "settings_id") -> str:
    """text, once it is a str that would neither split nor quote its CSV row."""
    if not isinstance(text, str):
        raise ValueError(f"{name} must be a string, got {text!r}")
    if any(ch in text for ch in (",", '"', "\n", "\r")):
        raise ValueError(f"{name} {text!r} contains CSV delimiter or quote characters")
    return text


def _scalar_checks(cls: type) -> dict:
    """The check of each scalar of a cls record header: the table's own, and a settings id fit for CSV."""
    return {**cls.scalar_checks, "settings_id": _check_text}


_KIND_NAMES = {TrialTable: "trial", PredictionTable: "prediction"}


def _comment(header: dict) -> str:
    """Line 1 of a record file: '# ' and JSON with sorted keys, a float written as %.17g."""
    values = {k: "%.17g" % x if isinstance(x, float) else json.dumps(x) for k, x in header.items()}
    return "# {" + ", ".join(f"{json.dumps(k)}: {values[k]}" for k in sorted(values)) + "}\n"


# ---------------------------------------------------------------------------
# Row text.  Each column of a block becomes a matrix of cells, a few
# little-endian 8-byte words per row, and a keep mask of the same shape;
# the kept bytes, read row by row, are the CSV text.  A pad byte may sit
# anywhere in a cell, as the mask drops it, so a cell's layout is the same
# on every row and only its mask depends on the value.  Byte 0 of every
# cell holds the separator before it: a newline before a row's first cell
# (ending the line before it), else a comma.  The cells of a block are
# joined and compacted a slice at a time: np.compress builds an 8-byte
# index per kept byte, 6.2 MB for a 16384-row block, 0.8 MB for a slice.

_WRITE_ROWS = 16384  # rows formatted per numpy pass; of 4096 to 65536, the fastest on a 2-core box
_SLICE_ROWS = 2048  # a slice's text, mask and index fit in a core's L2 cache
# glibc's malloc (see mallopt(3)) serves a request above its mmap threshold,
# 128 KiB at first, with a fresh mapping, and when it frees such a mapping
# it raises that threshold to the mapping's size and its heap trim
# threshold to twice that.  Freeing one untouched array of a hint's size
# before the first block keeps the heap that every block's temporaries
# reuse, about 5 MB written and 1 MB read, from being trimmed and faulted
# in again at each block: a 1M-trial simulate took 63k minor faults with a
# 1 MiB hint, 7.3k with 4 MiB; a 1M-row read 44k with none, under 1k with 1 MiB.
_WRITE_HEAP_HINT = 4 << 20
_READ_HEAP_HINT = 1 << 20
_ASCII_ZEROS = 0x3030303030303030  # b"0" in each byte of a uint64


def _digits8(x: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each uint64 x < 10**8, leading zeros
    included, as the ASCII bytes of one little-endian uint64 per x, the
    most significant digit in the first byte."""
    hi = x // 10000
    v = hi | ((x - hi * 10000) << 32)  # two 4-digit lanes
    top = ((v * 10486) >> 20) & 0x0000007F0000007F  # lane // 100, exact below 10**4
    v = top | ((v - top * 100) << 16)  # four 2-digit lanes
    top = ((v * 103) >> 10) & 0x000F000F000F000F  # lane // 10, exact below 100
    v = top | ((v - top * 10) << 8)  # eight 1-digit lanes
    return (v + _ASCII_ZEROS).astype("<u8", copy=False)


def _as_words(keep: np.ndarray) -> np.ndarray:
    """A bool mask over bytes, viewed as one uint64 per 8 bytes of its last axis."""
    return keep.reshape(*keep.shape[:-1], keep.shape[-1] // 8, 8).view("<u8")[..., 0]


def _int_keep(width: int) -> np.ndarray:
    """The keep mask of an int cell of `width` words for each (negative, digit count)."""
    keep = np.arange(8 * width) >= 8 * width - np.arange(21)[:, None]
    keep = np.stack([keep, keep])
    keep[..., :2] = False
    keep[1, :, 1] = True
    return _as_words(keep).reshape(-1, width)


# An int cell of w words is: separator, '-', then the digits right-aligned
# in 8w - 2 slots.  One word holds up to 6 digits, three any int64.
_INT_KEEP = {width: _int_keep(width) for width in (1, 2, 3)}


def _int_cells(column):
    """'%d' cells of an int64 column."""
    x = np.asarray(column, np.int64)
    mag = x.view(np.uint64)
    mag = np.where(x < 0, -mag, mag)  # uint64 negation wraps, so int64 min is exact
    top = int(mag.max(initial=0))
    width = 1 + (top >= 10**6) + (top >= 10**14)
    words = np.empty((len(x), width), "<u8")
    rest = mag
    for j in range(width - 1, 0, -1):
        words[:, j] = _digits8(rest % 10**8)
        rest = rest // 10**8
    words[:, 0] = (_digits8(rest) & 0xFFFFFFFFFFFF0000) | (ord("-") << 8)
    ndigits = np.ones(len(x), np.intp)
    for j in range(1, len(str(top))):
        ndigits += mag >= 10**j
    return words, np.take(_INT_KEEP[width], (x < 0) * 21 + ndigits, axis=0)


# A float cell in fixed notation is 6 words: separator, '-', pad, '0' (the
# integer part below 1), the 17 digits, '.', three '0's (the fraction's
# leading zeros below 0.1), pad, the 17 digits again.  Digit i is kept in
# the first copy when it is in the integer part, in the second when it is
# in the fraction and not a trailing zero.  Below 10, the integer part is
# at most digit 0, and words 1 and 2 are left out.
_K_MIN, _K_MAX = -4, 16  # the decimal exponents that %.17g writes in fixed notation
_PREFIX = np.frombuffer(b"\0-\0\0\0\0" + b"0\0" + b".000\0\0\0\0", "<u8")


def _float_keep() -> np.ndarray:
    """The keep mask of a float cell for each (negative, exponent k, last nonzero digit)."""
    k = np.arange(_K_MIN, _K_MAX + 1)[:, None, None]
    last = np.arange(17)[:, None]
    digit = np.arange(1, 17)
    keep = np.zeros((2, len(k), 17, 48), bool)
    keep[1, ..., 1] = True
    keep[..., 6] = keep[..., 31] = k[..., 0] < 0
    keep[..., 7] = k[..., 0] >= 0
    keep[..., 8:24] = digit <= k
    keep[..., 24] = last[..., 0] > k[..., 0]
    keep[..., 25:28] = np.arange(3) < -k - 1
    keep[..., 32:48] = (digit > k) & (digit <= last)
    return _as_words(keep).reshape(-1, 6)


_FLOAT_KEEP = _float_keep()
_FLOAT_KEEP_NARROW = _FLOAT_KEEP[:, [0, 3, 4, 5]]  # words 1 and 2 left out
_SPLIT = 2.0**27 + 1  # Veltkamp's constant for float64
_POW10 = 10.0 ** np.arange(23)  # exact: 10**p is a double for p <= 22; the writer takes p <= 20


def _halves(a):
    """Veltkamp's split of a into a high part of 26 bits and the rest."""
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _halves(_POW10)


def _last_digit(words: np.ndarray) -> np.ndarray:
    """Index (0-7) of the last nonzero digit of each word of _digits8, -1 where all 8 are 0."""
    bits = np.frexp((words - _ASCII_ZEROS).astype(np.float64))[1]  # bit length; exact, as every byte is < 10
    return (bits - 1) >> 3


def _float_cells(column):
    """'%.17g' cells of a float64 column, byte for byte.

    Where 1e-4 <= |x| < 1e17, %.17g writes fixed notation.  With k =
    floor(log10|x|), its digits are N = |x| * 10**(16 - k) rounded half to
    even.  Dekker's two-product forms that product exactly as hi + lo
    (numpy fuses no multiply-add), and hi is an even integer, so N = hi +
    rint(lo).  Every other x (zero, subnormal, inf, nan, exponent
    notation), and every x whose log10 was off by one or whose N rounds up
    to 10**17, is formatted by '%.17g' itself and spliced in.
    """
    x = np.asarray(column, np.float64)
    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 1e17)
    ax = np.where(fast, ax, 1.0)
    k = np.clip(np.floor(np.log10(ax)), _K_MIN, _K_MAX).astype(np.intp)
    p = _K_MAX - k
    prod = ax * _POW10[p]
    ah, al = _halves(ax)
    lo = al * _POW10_LO[p] - (((prod - ah * _POW10_HI[p]) - al * _POW10_HI[p]) - ah * _POW10_LO[p])
    n = prod.astype(np.int64) + np.rint(lo).astype(np.int64)
    fast &= ((prod > 1e16) | ((prod == 1e16) & (lo >= 0))) & (n < 10**17)
    n = np.where(fast, n, 10**16).view(np.uint64)
    first = n // 10**16
    rest = n - first * 10**16
    middle = rest // 10**8
    high, low = _digits8(middle), _digits8(rest - middle * 10**8)  # digits 1-8 and 9-16
    first_byte = (first + ord("0")) << 56  # digit 0 as the last byte of a word
    last = 9 + _last_digit(low)
    short = np.flatnonzero(last < 9)  # digits 9-16 all 0
    last[short] = _last_digit(high[short]) + 1
    code = ((x < 0) * (_K_MAX - _K_MIN + 1) + k - _K_MIN) * 17 + last
    if np.max(k, where=fast, initial=0) > 0:
        words = np.stack([_PREFIX[0] | first_byte, high, low, _PREFIX[1] | first_byte, high, low], axis=1)
        keep = np.take(_FLOAT_KEEP, code, axis=0)
    else:
        words = np.stack([_PREFIX[0] | first_byte, _PREFIX[1] | first_byte, high, low], axis=1)
        keep = np.take(_FLOAT_KEEP_NARROW, code, axis=0)
    slow = np.flatnonzero(~fast)
    if len(slow):
        texts = [b"%.17g" % value for value in x[slow].tolist()]
        words.view(np.uint8)[slow, 1:25] = np.array(texts, "S24").view(np.uint8).reshape(len(slow), 24)
        lengths = np.array([len(text) for text in texts])
        keep.view(bool)[slow] = np.arange(8 * words.shape[1]) <= lengths[:, None]
    return words, keep


def _str_cells(column, encoding: str):
    """'%s' cells of a column of str, each encoded as the text file encodes it."""
    texts = [b"\0" + text.encode(encoding) for text in column]
    width = -(-max(map(len, texts), default=1) // 8)
    words = np.array(texts, f"S{8 * width}").view("<u8").reshape(len(texts), width)
    lengths = np.array([len(text) for text in texts], np.intp)
    return words, _as_words(np.arange(8 * width) < lengths[:, None])


_CELLS = {"int64": _int_cells, "float64": _float_cells}


def _rows_text(columns, kinds, encoding: str) -> np.ndarray:
    """The text of one block of rows, each led by a newline, as a uint8 array."""
    cells = [_str_cells(col, encoding) if kind == "str" else _CELLS[kind](col) for col, kind in zip(columns, kinds)]
    starts = 8 * np.cumsum([0] + [words.shape[1] for words, _ in cells[:-1]])
    parts = [np.empty(0, np.uint8)]
    for first in range(0, len(cells[0][0]), _SLICE_ROWS):
        rows = slice(first, first + _SLICE_ROWS)
        text = np.concatenate([words[rows] for words, _ in cells], axis=1).view(np.uint8)
        kept = np.concatenate([keep[rows] for _, keep in cells], axis=1).view(bool)
        text[:, starts] = ord(",")
        text[:, 0] = ord("\n")
        kept[:, starts] = True
        parts.append(np.compress(kept.ravel(), text.ravel()))
    return np.concatenate(parts)


def _write_csv(path: str, schema, blocks, comment: str = "") -> str:
    """Write the comment, the header, then each block (a list of columns in schema order).

    The bytes equal those of per-row '%d', '%.17g' and '%s' formatting in a
    text file, the header and str cells encoded as open(path, "w") encodes them.
    A new file, or a regular file of ours with no other name, is written
    to a temporary file beside it, which takes the file's mode and replaces
    it only once the last block is written: an error in any block leaves
    no temporary file and the file as it was.  Anything else (a device, a
    FIFO, another owner's file, a hard-linked one) is written in place, as
    open(path, "w") writes it, and a regular one is emptied on an error.
    So no file is left cut short at a row boundary.  A symlink's target is
    written, not the link.
    """
    kinds, encoding = [kind for _, kind in schema], _encoding()
    np.empty(_WRITE_HEAP_HINT, np.uint8)  # allocated and freed untouched: see _WRITE_HEAP_HINT
    target = os.path.realpath(path)
    old = os.stat(target) if os.path.exists(target) else None
    staged = old is None or (os.path.isfile(target) and old.st_uid == os.getuid() and old.st_nlink == 1)
    out = path
    if staged:
        if old is not None:
            open(target, "ab").close()  # a file we may not write raises PermissionError here, as in place
        head, tail = os.path.split(target)
        out = os.path.join(head, f".{tail}.{os.getpid()}.part")  # only a dead process of this pid left one
    f = open(out, "wb")
    try:
        with f:
            if staged and old is not None:
                os.chmod(out, old.st_mode & 0o7777)
            f.write((comment + ",".join(name for name, _ in schema)).encode(encoding))
            for columns in blocks:
                f.write(_rows_text(columns, kinds, encoding))
            f.write(b"\n")
        if staged:
            os.replace(out, target)
    except BaseException:
        if staged:
            os.unlink(out)
        elif os.path.isfile(out):
            os.truncate(out, 0)
        raise
    return path


def _emit_table(records, cls: type, path: str) -> str:
    """Write a cls table, or a stream of the cls blocks of one experiment,
    in record format 2, _WRITE_ROWS rows at a time.

    The blocks pass through _one_experiment, which names anything but a
    cls.  The header holds the first block's checked scalars, which are
    checked before the file is opened; every later block must hold the
    same ones.  A table of no rows writes the two header lines only.
    """
    blocks = _one_experiment(records, cls)
    first = next(blocks, None)
    if first is None:
        raise ValueError(f"malformed records: a stream of no {cls.__name__} blocks has no header to write")
    scalars = {name: check(getattr(first, name)) for name, check in _scalar_checks(cls).items()}
    blocks = chain((first,), blocks)
    del first  # let go once written, as every later block is

    def rows():
        for block in blocks:
            for start in range(0, len(block), _WRITE_ROWS):
                yield [getattr(block, name)[start:start + _WRITE_ROWS] for name in cls.field_names]

    return _write_csv(path, cls.schema, rows(), _comment({"format": RECORD_FORMAT, **scalars}))


def _parses(text: str, schema) -> bool:
    """Whether _parse_rows reads text, lines each ended by a newline, as rows of schema."""
    store = np.frombuffer(bytes(_PAD) + text.encode(_encoding()), np.uint8)
    return _parse_rows(store, np.flatnonzero(store == _LF), schema) is not None


def _row_error(lines, first: int, what: str, schema) -> ValueError:
    """The error for the first of lines (file line `first` on) that _parse_rows does not read.

    The lines do not parse together.  A line that does not parse makes
    every run of lines that holds it fail, so the first such line is found
    by bisecting the runs from the first line on, and then its field count
    or the first field that does not parse alone is named.
    """
    at = bisect_left(range(1, len(lines)), True, key=lambda k: not _parses("".join(lines[:k]), schema))
    row = lines[at].rstrip("\n")
    fields = row.split(",")
    if len(fields) != len(schema):
        reason = f"expected {len(schema)} fields"
    else:
        cols = (c for c, (_, kind) in enumerate(schema) if kind != "str" and not _parses(fields[c] + "\n", [schema[c]]))
        if (col := next(cols, None)) is None:
            return ValueError(f"malformed {what} CSV rows in lines {first}-{first + len(lines) - 1}")
        reason = f"{schema[col][0]} {fields[col]!r} does not parse as {schema[col][1]}"
    return ValueError(f"malformed {what} CSV row at line {first + at}: {row!r}: {reason}")


def _check_header(line: str, schema, what: str) -> None:
    header = line.rstrip("\n")
    if tuple(header.split(",")) != tuple(name for name, _ in schema):
        raise ValueError(f"unexpected {what} CSV header {header!r}")


# ---------------------------------------------------------------------------
# Row parsing, the mirror of the row text.  The file's bytes are cut into
# blocks of _BLOCK_ROWS lines, each parsed in numpy; only header lines, str
# fields and the lines of a malformed block are decoded.  A numeric field
# is read as the little-endian 8-byte words that end where its digits end:
# the bytes before its digits are zeroed, and the 8 digits of each word are
# summed inside the word (SWAR).  An int is its digits and sign.  A float
# is the integer M of its digits, the point left out, over 10**f, f the
# digits after the point; where M < 10**17 and f <= 22 that quotient is
# rounded once, exactly (_quotients).  Any other float field must match
# _FLOAT_TOKEN, the forms %.17g may write (exponent notation, inf, nan, a
# longer mantissa), and is parsed by float().  A field of any other form,
# or a line of another field count, makes the block malformed, and
# _row_error asks this same kernel about runs of lines and about each
# field alone to name the first bad line and field.

_COUNT_BYTES = 1 << 16  # bytes read at a time; 256 KiB held 0.5 MB more at a streamed audit's peak, no faster
_LF, _CR = ord("\n"), ord("\r")
_PAD = 24  # bytes before a block, so that every 3-word window that ends in a field lies in the buffer
_NOT_DIGIT = 0x7676767676767676  # added to a byte of at most 0x7F, sets its bit 7 iff the byte is above 9
_BIT7 = 0x8080808080808080
# _KEEP[k, j]: the bytes of word j of a 3-word window that its last k bytes
# cover; a w-word window is the last w words
_KEEP = np.array([[2**64 - 2 ** (64 - 8 * min(max(k - 8 * j, 0), 8)) for j in (2, 1, 0)] for k in range(25)], np.uint64)
_POW10_INT = np.array([10**k if k < 20 else 0 for k in range(24)], np.uint64)
# I * 10**f + F < 10**17 iff I < _INT_LIMIT[f], for F < 10**min(f, 17); f = 23 stands for f > 22
_INT_LIMIT = np.array([10 ** max(17 - k, 0) if k <= 22 else 0 for k in range(24)], np.uint64)
_FLOAT_TOKEN = re.compile(rb"-?(?:inf|nan|[0-9]+(?:\.[0-9]+)?(?:e[+-][0-9]+)?)")  # what %.17g writes


def _line_ends(f):
    """Yield the rest of the binary file f, _COUNT_BYTES at a time,
    as (text, ends, cr): a uint8 array of the bytes read, whether a line
    ends with each, and whether text holds a CR.  A line ends at LF, at CR
    LF (with its LF, also where two reads split it) and at a lone CR; a
    last line with no end gets an LF.  Every reader ends lines here."""
    buffer = bytearray(1 + _COUNT_BYTES)  # a byte held back from the read before, then a read
    data = np.frombuffer(buffer, np.uint8)
    mask = np.empty(_COUNT_BYTES, bool)
    held = 0
    while got := f.readinto(memoryview(buffer)[held:]):
        n = held + got  # the last byte waits for the next read: a CR ends a line only if no LF follows it
        ends = np.equal(data[:n - 1], _LF, out=mask[:n - 1])
        cr = buffer.find(b"\r", 0, n - 1) >= 0
        if cr:
            ends |= (data[:n - 1] == _CR) & (data[1:n] != _LF)
        yield data[:n - 1], ends, cr
        buffer[0], held = buffer[n - 1], 1
    if held:
        last = bytes(buffer[:1]) + (b"" if buffer[0] in b"\r\n" else b"\n")
        yield np.frombuffer(last, np.uint8), np.arange(len(last)) == len(last) - 1, buffer[0] == _CR


def _line_blocks(f, sizes):
    """Yield the rest of the binary file f in blocks of lines, one
    of each size in sizes, the last one maybe shorter, as (store, newlines):
    a uint8 array that holds the block from offset _PAD on, and the offset
    in it of each line's end, an LF as a text file reads it.  The store is
    reused: the text that follows a block moves to its front, and the store
    grows only if a block and what follows do not fit."""
    np.empty(_READ_HEAP_HINT, np.uint8)  # allocated and freed untouched: see _READ_HEAP_HINT
    store = np.zeros(_PAD + 4 * _COUNT_BYTES, np.uint8)
    used, newlines = _PAD, np.empty(0, np.intp)
    reads = _line_ends(f)
    for size in sizes:
        while len(newlines) < size and (read := next(reads, None)):
            text, ends, cr = read
            if cr:  # the CR of a CR LF goes, and a lone CR becomes an LF
                keep = (text != _CR) | ends
                text, ends = text[keep], ends[keep]
                text[ends] = _LF
            if used + len(text) > len(store):
                store = np.concatenate((store[:used], np.zeros(max(used, len(text)), np.uint8)))
            store[used:used + len(text)] = text
            newlines = np.concatenate((newlines, np.flatnonzero(ends) + used))
            used += len(text)
        if not len(newlines):
            return
        block, newlines = newlines[:size], newlines[size:]
        yield store, block
        stop = int(block[-1]) + 1
        store[_PAD:_PAD + used - stop] = store[stop:used]
        newlines -= stop - _PAD
        used -= stop - _PAD


def _lines(store, newlines) -> list:
    """The lines of a block of _line_blocks as text, each with its end."""
    return [line + "\n" for line in store[_PAD:newlines[-1]].tobytes().decode(_encoding()).split("\n")]


def _header_line(blocks) -> str:
    """The line of the next block of blocks, a block of one line, with its end; '' past the file's end."""
    return next((_lines(*block)[0] for block in blocks), "")


def _digits(store, ends, counts, width: int):
    """The decimal value of the `counts` (at most 24) bytes that end at each
    of `ends` in store, read as `width` words, and whether all those bytes
    are digits; a value of 10**19 or more counts as not all digits."""
    windows = np.ndarray((len(store) - 8 * width + 1,), f"V{8 * width}", store, 0, (1,))  # one at every offset
    d = windows[ends - 8 * width].view("<u8").reshape(-1, width)
    d ^= _ASCII_ZEROS
    d &= np.take(_KEEP[:, 3 - width:], counts, axis=0)
    bad = d + _NOT_DIGIT
    bad |= d
    bad &= _BIT7
    d *= 2561  # 2-digit values in bytes 0, 2, 4 and 6, after the shift
    d >>= 8
    d &= 0x00FF00FF00FF00FF
    d *= 6553601  # 4-digit values in bytes 0-1 and 4-5
    d >>= 16
    d &= 0x0000FFFF0000FFFF
    d *= 42949672960001  # the 8-digit value
    d >>= 32
    if width == 3:
        bad[:, 0] |= d[:, 0] >= 1000
    value = d[:, 0]
    for j in range(1, width):
        value = value * 10**8 + d[:, j]
        bad[:, 0] |= bad[:, j]
    return value, bad[:, 0] == 0


def _int_fields(store, starts, ends):
    """The int64 of each field '-?[0-9]+' in store[starts:ends], or None if
    a field is not of that form or is out of the int64 range."""
    negative = store[starts] == ord("-")
    counts = ends - starts
    counts -= negative
    longest = int(counts.max())
    if counts.min() < 1 or longest > 19:
        return None
    magnitude, clean = _digits(store, ends, counts, -(-longest // 8))
    if not clean.all() or longest == 19 and np.any((magnitude > 2**63 - 1) & ~(negative & (magnitude == 2**63))):
        return None
    return np.where(negative, -magnitude, magnitude).view(np.int64)  # uint64 negation wraps, so int64 min is exact


def _quotients(m, f):
    """m / 10**f rounded to the nearest double, for m < 10**17 and f <= 22,
    and a mask of where that is not certain.

    Where m < 2**53 both operands are doubles, so the one division is
    correctly rounded (Clinger's fast path); so is the conversion of m
    where f = 0.  Elsewhere q = fl(fl(m) / 10**f) is within 1.5 ulp of
    m / 10**f.  Dekker's two-product gives q * 10**f = hi + lo exactly, and
    hi is an integer, so the remainder r = m - q * 10**f is (m - hi) - lo,
    to within 2**-47.  The gap from q to its neighbour on r's side, times
    10**f, is an exact double of at least 1/2: |r| past half of it steps
    to that neighbour.  An |r| that is half a gap to within a 2**-20 share
    of it (a tie), or 1.5 gaps or more, is not certain.
    """
    scale = _POW10[f]
    q = m.view(np.int64).astype(np.float64)
    q /= scale
    hi = q * scale
    qh, ql = _halves(q)
    lo = qh * _POW10_HI[f]  # ((qh * HI - hi) + qh * LO + ql * HI) + ql * LO, each step exact
    lo -= hi
    lo += qh * _POW10_LO[f]
    lo += ql * _POW10_HI[f]
    lo += ql * _POW10_LO[f]
    del qh, ql
    r = (m.view(np.int64) - hi.astype(np.int64)).astype(np.float64)
    r -= lo
    del hi, lo
    neighbour = q.view(np.int64) + np.where(r > 0, 1, -1)  # q > 0: its bits step to the next double
    neighbour = neighbour.view(np.float64)
    steps = neighbour - q  # then |m / 10**f - q| in half gaps
    np.abs(steps, out=steps)
    steps *= scale
    steps *= 0.5
    np.divide(np.abs(r), steps, out=steps)
    certain = (m < 2**53) | (f == 0)
    np.copyto(q, neighbour, where=~certain & (steps > 1))
    return q, ~certain & ((np.abs(steps - 1) <= 2.0**-20) | (steps >= 3 - 2.0**-20))


def _float_fields(store, starts, ends, points):
    """The float64 of each field in store[starts:ends], whose one '.' is at
    points (at ends for a field with none), or None if a field is not one
    that %.17g may write."""
    negative = store[starts] == ord("-")
    whole = points - starts  # digits before the point
    whole -= negative
    f = ends - points  # digits after it, 23 for any more than 22
    f -= points < ends
    longest, width = int(whole.max()), -(-min(int(f.max()), 22) // 8)
    np.minimum(f, 23, out=f)
    i, ok = _digits(store, points, np.minimum(whole, 24), max(1, -(-min(longest, 17) // 8)))
    ok &= i < _INT_LIMIT[f]
    ok &= (f > 0) | (points == ends)  # a point has a digit after it
    if longest > 17 or whole.min() < 1:
        ok &= (whole - 1).view(np.uint64) < 17
    del whole  # each array goes once used, so a block's temporaries stay near 1 MB
    m = i * _POW10_INT[f]
    del i
    if width:
        fraction, clean = _digits(store, ends, f, width)
        ok &= clean
        ok &= fraction < 10**17
        m += fraction
        del fraction, clean
    m *= ok
    values, unsure = _quotients(m, np.minimum(f, 22, out=f))  # m = 0 where f = 23
    values.view(np.uint64)[:] |= negative.astype(np.uint64) << 63  # values >= 0: the sign bit negates
    for j in np.flatnonzero(~ok | unsure):
        token = store[starts[j]:ends[j]].tobytes()
        if not _FLOAT_TOKEN.fullmatch(token):
            return None
        values[j] = float(token)
    return values


def _parse_rows(store, newlines, schema):
    """The numeric columns of the block of lines in store that end at
    newlines, one structured array, parsed in numpy; None where a line has
    not the schema's field count or a numeric field is not one the writer
    may write."""
    n, c = len(newlines), len(schema)
    block = store[_PAD:newlines[-1]]
    commas = np.flatnonzero(block == ord(",")) + _PAD
    if len(commas) != n * (c - 1):
        return None
    commas = commas.reshape(n, c - 1)
    firsts = np.concatenate(([_PAD], newlines[:-1] + 1))  # where each line starts
    if c > 1 and (np.any(commas[:, 0] < firsts) or np.any(commas[:, -1] > newlines)):  # another comma count
        return None
    floats = [j for j, (_, kind) in enumerate(schema) if kind == "float64"]
    if floats:
        dots = np.flatnonzero(block == ord(".")) + _PAD
        points = dots.reshape(n, len(floats)).T if len(dots) == n * len(floats) else None
    data = np.empty(n, [(name, kind) for name, kind in schema if kind != "str"])
    for j, (name, kind) in enumerate(schema):
        if kind == "str":
            continue
        starts = firsts if j == 0 else commas[:, j - 1] + 1
        ends = newlines if j == c - 1 else commas[:, j]
        if kind == "int64":
            values = _int_fields(store, starts, ends)
        else:
            at = points[floats.index(j)] if points is not None else None
            if at is None or np.any((at < starts) | (at > ends)):  # not one '.' in each field
                at = _points(dots, starts, ends)
            values = None if at is None else _float_fields(store, starts, ends, at)
        if values is None:
            return None
        data[name] = values
    return data


def _points(dots, starts, ends):
    """Where the '.' of each field in [starts, ends) is, among dots (at ends
    for a field with none); None if a field has two."""
    if not len(dots):
        return ends
    first = np.searchsorted(dots, starts)
    count = np.searchsorted(dots, ends) - first
    if np.any(count > 1):
        return None
    return np.where(count == 1, dots[np.minimum(first, len(dots) - 1)], ends)


def _read_blocks(blocks, schema, what: str, first: int):
    """Yield (numeric rows, str column) per block of _line_blocks, the
    first of them file line `first`: one structured array, and a list or
    None for a schema without a str column, parsed in numpy (_parse_rows).
    A blank line, a wrong field count, a field that _parse_rows does not
    read and a quoted str field raise ``malformed <what> CSV row at line
    N``; only then is the block decoded line by line to find N.
    """
    kinds = [kind for _, kind in schema]
    k = kinds.index("str") if "str" in kinds else None
    for store, newlines in blocks:
        data = _parse_rows(store, newlines, schema)
        if data is None:
            raise _row_error(_lines(store, newlines), first, what, schema)
        texts = None
        if k is not None:
            rows, encoding = store[_PAD:newlines[-1]].tobytes().split(b"\n"), _encoding()
            texts = [row.split(b",", k + 1)[k].decode(encoding) for row in rows]
            for field in set(texts):
                if '"' in field:
                    at = first + texts.index(field)
                    raise ValueError(f"malformed {what} CSV row at line {at}: quoted {schema[k][0]} {field!r}")
        yield data, texts
        first += len(newlines)


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


def _table_blocks(path: str, cls: type, v: float | None = None, cut: tuple = (0, 0)):
    """Yield a record CSV as cls tables of _BLOCK_ROWS rows, the last one
    shorter, once its header is checked; given v, the header must hold that v.
    Given a cut (byte offset, row) of _block_cuts, the rows are read from
    that row on, which starts at that offset, a malformed row still named by its file line.
    """
    what = _KIND_NAMES[cls]
    with open(path, "rb") as f:
        blocks = _line_blocks(f, chain((1, 1), repeat(_BLOCK_ROWS)))
        line = _header_line(blocks)
        if not line:
            raise ValueError(f"{what} CSV {path} is empty")
        if not line.startswith("#"):
            raise ValueError(
                f"{what} CSV {path} has no header comment at line 1: record format 1 is no longer read; "
                "rerun the command in its manifest"
            )
        scalars = _read_comment(line, cls, f"{what} CSV {path} line 1")
        if v is not None and scalars["v"] != v:
            raise ValueError(f"{what} CSV {path} was written at v={scalars['v']!r}, not at the given v={v!r}")
        line = _header_line(blocks)
        if line.startswith("#"):
            raise ValueError(f"malformed {what} CSV {path}: a second header comment at line 2")
        _check_header(line, cls.schema, what)
        offset, row = cut
        if offset:  # just past a line end
            f.seek(offset)
            blocks = _line_blocks(f, repeat(_BLOCK_ROWS))
        empty = True
        for data, _ in _read_blocks(blocks, cls.schema, what, 3 + row):
            empty = False
            yield cls(*(data[name] for name in cls.field_names), **scalars)
    if empty:
        raise ValueError(f"{what} CSV {path} holds no records")


def _block_cuts(path: str, parts: int) -> list:
    """Where each of at most `parts` ranges of a record file's rows begins,
    as (byte offset, row): the first at (0, 0), each other one at the first
    end of a _BLOCK_ROWS block of rows at or past its share of the file's
    bytes, short of the file's end.

    So every range but the last holds whole blocks, and the blocks that
    the ranges read are those of one read of the file.  Lines end where
    _line_ends ends them, in one pass that stops at the last cut; fewer
    ranges come back where the rows end first.
    """
    size = os.path.getsize(path)
    targets = [size * k // parts for k in range(1, parts)]
    cuts, lines, at = [(0, 0)], 0, 0  # lines and bytes before the read
    with open(path, "rb") as f:
        for _, ends, _ in _line_ends(f) if targets else ():
            count = int(np.count_nonzero(ends))
            if at + len(ends) >= targets[len(cuts) - 1]:
                past = np.flatnonzero(ends) + (at + 1)
                # line lines + 1 + i, which ends at past[i], ends a block when
                # the rows it closes, lines + i - 1 (two header lines), are whole blocks
                for i in range((1 - lines) % _BLOCK_ROWS, count, _BLOCK_ROWS):
                    row, offset = lines + i - 1, int(past[i])
                    if len(cuts) < parts and row > cuts[-1][1] and targets[len(cuts) - 1] <= offset < size:
                        cuts.append((offset, row))
            lines += count
            at += len(ends)
            if len(cuts) == parts:
                break
    return cuts


def _read_table(path: str, blocks):
    """One table of the blocks of the record CSV at path, copied into columns
    of the file's row count, counted first, each block let go once copied (trials._filled)."""
    with open(path, "rb") as f:
        lines = sum(np.count_nonzero(ends) for _, ends, _ in _line_ends(f))
    return _filled(blocks, lines - 2)


def emit_records(records, path: str) -> str:
    """Write a TrialTable, or a stream of the TrialTable blocks of one
    experiment (such as trials.trial_chunks), in record format 2.

    A table is a stream of one block, so both take one path, the one
    check of trials._one_experiment: anything but a TrialTable raises
    TypeError, named by its type, before the file is opened, and a later
    block with other scalars raises ``malformed records``.  The header
    holds the first block's settings id, v and master seed, which must be
    what the reader accepts, or a ValueError names the scalar before the
    file is opened.  Each block is written and let go before the next one
    is taken, and the file appears at path only once the stream has ended.
    A table of no rows yields the two header lines only.
    """
    return _emit_table(records, TrialTable, path)


@dataclass(frozen=True)
class RecordFile:
    """A trial CSV, and the v it must have been written at (None: any v).

    Each iteration reads the file anew as TrialTables of trials.FOLD_ROWS
    rows, the last one shorter.  audit.decomposition_test audits such a
    file in the byte ranges that ranges gives, on every usable CPU.
    """

    path: str
    v: float | None

    def ranges(self, parts: int) -> list:
        """At most `parts` contiguous ranges of the file's rows, in file
        order, each as (cut, count) for blocks: every range but the last
        is count whole blocks, and the last, of count None, runs to the
        file's end, so the ranges' blocks are those of one iteration."""
        cuts = _block_cuts(self.path, parts)
        return [(cut, (end[1] - cut[1]) // _BLOCK_ROWS) for cut, end in zip(cuts, cuts[1:])] + [(cuts[-1], None)]

    def blocks(self, cut: tuple = (0, 0), count: int | None = None):
        """The file's blocks from cut, a (byte offset, row) of ranges, on:
        count of them, or all for None, once the header is checked."""
        return islice(_table_blocks(self.path, TrialTable, self.v, cut), count)

    __iter__ = blocks


def read_record_blocks(path: str, v: float | None = None) -> RecordFile:
    """A trial CSV as an iterable of TrialTables of trials.FOLD_ROWS rows, the last one shorter.

    It is a RecordFile, not an iterator, so each iteration reads the file
    again: it checks the header before the first block and parses each
    block as it is taken, so the file is never held whole: a malformed
    row raises when its block is reached, naming its file line.  Given v,
    the file must have been written at that v, which is checked here.
    estimate_chsh folds the blocks as they come; audit.decomposition_test
    audits the file in byte ranges, and also holds its rows to trials
    0, 1, 2, ... in order.
    """
    return RecordFile(path, None if v is None else check_strength(v))


def read_records(path: str, v: float | None = None) -> TrialTable:
    """Read a trial CSV back into a table; exact inverse of emit_records.

    The blocks of read_record_blocks, each copied into the table's columns
    as it is parsed, so the read holds the table and one block.  Given v,
    the file must have been written at that v.
    """
    return _read_table(path, iter(read_record_blocks(path, v)))


def emit_predictions(records, path: str) -> str:
    """Write a PredictionTable, or a stream of its blocks, in record format 2,
    as emit_records writes trials; a table of no rows yields the two header lines only.

    Before the file is opened, the table's settings id, steps and master
    seed must be what the reader accepts, or a ValueError names the scalar.
    """
    return _emit_table(records, PredictionTable, path)


def read_predictions(path: str) -> PredictionTable:
    """Read a prediction CSV back into a table; exact inverse of emit_predictions."""
    return _read_table(path, _table_blocks(path, PredictionTable))


def emit_sweep(columns: dict, path: str) -> str:
    """Write sweep columns keyed by SWEEP_HEADER, as run_sweep returns them, as CSV."""
    lengths = {name: len(columns[name]) for name in SWEEP_HEADER}
    if len(set(lengths.values())) > 1:  # writing would silently drop the longer columns' tails
        raise ValueError(f"sweep columns must be equally long, got lengths {lengths}")
    for verdict in columns["verdict"]:
        _check_text(verdict, "verdict")
    return _write_csv(path, SWEEP_SCHEMA, [[columns[name] for name in SWEEP_HEADER]])


def read_sweep(path: str) -> dict:
    """Read a sweep CSV back into columns keyed by SWEEP_HEADER; exact inverse of emit_sweep."""
    columns = {name: [] for name in SWEEP_HEADER}
    with open(path, "rb") as f:
        blocks = _line_blocks(f, chain((1,), repeat(_BLOCK_ROWS)))
        _check_header(_header_line(blocks), SWEEP_SCHEMA, "sweep")
        for data, verdicts in _read_blocks(blocks, SWEEP_SCHEMA, "sweep", 2):
            for name in data.dtype.names:
                columns[name] += data[name].tolist()
            columns["verdict"] += verdicts
    return columns


def emit_manifest(manifest: RunManifest, path: str) -> str:
    """Write the manifest as a single JSON object."""
    with open(path, "wb") as f:
        f.write(json.dumps(asdict(manifest), indent=2, sort_keys=True).encode() + b"\n")
    return path


def read_manifest(path: str) -> RunManifest:
    """Read a manifest; one written without a layout version or record format reads as 1 for each."""
    with open(path, "r") as f:
        data = json.load(f)
    try:
        return RunManifest(**data)
    except TypeError as exc:  # not a JSON object, or a key missing or unknown
        raise ValueError(f"malformed manifest {path}: {exc}") from None
