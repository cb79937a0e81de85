"""Relational telco schema and CSV persistence.

Four tables joined by billing ID (service requests join via customer ID):
subscribers, monthly billing, monthly usage, service requests. Monetary
amounts are integer cents so that file round-trips are exact. Each table
is held a column at a time (``Table``); the record classes are its rows.
"""

from __future__ import annotations

import array
import csv
import dataclasses
import datetime as dt
import io
import operator
import os
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .months import Month

SEGMENTS = ("consumer", "sme")
SERVICE_TYPES = ("voice", "voice_broadband")


class DatasetFormatError(ValueError):
    """Raised for unreadable or invariant-violating table files."""


@dataclass(slots=True)
class SubscriberRecord:
    customer_id: str
    billing_id: str
    service_id: str
    segment: str
    service_type: str
    activation_date: dt.date
    customer_since: dt.date
    contract_period: int  # months
    price_start: int  # cents
    t_location: str
    hsbb_area: int  # 0/1
    termination_date: dt.date | None = None
    comeback_date: dt.date | None = None


@dataclass(slots=True)
class BillingMonthRecord:
    billing_id: str
    month: Month
    current_bill_amt: int
    last_bill_amt: int
    amt_2pay: int
    outstanding: int
    payment: int  # may be negative (reversals)
    credit_adj: int  # may be negative (credits)


@dataclass(slots=True)
class UsageMonthRecord:
    billing_id: str
    month: Month
    download_mb: float
    upload_mb: float
    voice_minutes: float
    voice_calls: int


@dataclass(slots=True)
class ServiceRequestRecord:
    customer_id: str
    request_date: dt.date
    request_code: str


# numeric fields, held as numpy arrays (``month`` as month indexes); every
# other field is held as a list of str or dates
_ARRAYS = {
    "contract_period": np.int64, "price_start": np.int64, "hsbb_area": np.int64,
    "month": np.int64, "current_bill_amt": np.int64, "last_bill_amt": np.int64,
    "amt_2pay": np.int64, "outstanding": np.int64, "payment": np.int64,
    "credit_adj": np.int64, "download_mb": np.float64, "upload_mb": np.float64,
    "voice_minutes": np.float64, "voice_calls": np.int64,
}


def _column(name: str, values):
    """``values`` (a list, tuple or array) in the storage of field ``name``."""
    if name in _ARRAYS:
        return np.asarray(values, dtype=_ARRAYS[name])
    return values if isinstance(values, list) else list(values)


def _concat(a, b):
    return np.concatenate([a, b]) if isinstance(a, np.ndarray) else a + b


def _key_order(columns: list[np.ndarray]) -> np.ndarray | None:
    """The stable order of the rows sorted by ``columns`` (first key
    first), or None when they are in that order already."""
    in_order = np.ones(max(len(columns[0]) - 1, 0), dtype=bool)
    for column in reversed(columns):  # row i vs i+1, from the last key to the first
        in_order = (column[:-1] < column[1:]) | ((column[:-1] == column[1:]) & in_order)
    return None if in_order.all() else np.lexsort(columns[::-1])


class Table(Sequence):
    """The rows of one table, held as one column per field of ``record``.

    Numeric fields are numpy arrays (``month`` holds month indexes); the
    others are lists of str or dates. Indexing and iteration build record
    objects from the columns: rows are copies, so changing one leaves the
    table as it was. ``append`` and ``extend`` take records, or a Table of
    the same record type. Columns returned by ``column`` must not be
    modified.
    """

    def __init__(self, record: type, rows: Iterable = (), columns: dict | None = None):
        self.record = record
        self.names = [f.name for f in dataclasses.fields(record)]
        columns = columns or dict.fromkeys(self.names, ())
        self._columns = {n: _column(n, columns[n]) for n in self.names}
        self._pending = list(rows)  # records appended since the columns were built

    def column(self, name: str):
        """Field ``name``'s column, with any appended records moved in."""
        if self._pending:
            rows, self._pending = self._pending, []
            values = dict(zip(self.names, zip(*map(operator.attrgetter(*self.names), rows))))
            if "month" in values:
                values["month"] = [m.index for m in values["month"]]
            self._columns = {n: _concat(c, _column(n, values[n]))
                             for n, c in self._columns.items()}
        return self._columns[name]

    def __len__(self) -> int:
        return len(self._columns[self.names[0]]) + len(self._pending)

    def _values(self, name: str, rows=slice(None)) -> list:
        """Field ``name``'s values at ``rows`` as row fields: ints, floats, Months."""
        column = self.column(name)[rows]
        if name == "month":
            indexes = column.tolist()
            months = {i: Month.from_index(i) for i in set(indexes)}
            return [months[i] for i in indexes]
        return column.tolist() if isinstance(column, np.ndarray) else column

    def __iter__(self):
        return map(self.record, *map(self._values, self.names))

    def __getitem__(self, i: int):
        return self.record(*(self._values(n, slice(i, i + 1 or None))[0] for n in self.names))

    def append(self, row) -> None:
        self._pending.append(row)

    def extend(self, rows: Iterable) -> None:
        if isinstance(rows, Table):
            self._columns = {n: _concat(self.column(n), rows.column(n)) for n in self.names}
        else:
            self._pending += rows

    def take(self, rows) -> "Table":
        """The rows at the given positions, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        at = rows.tolist()
        return Table(self.record, columns={
            n: c[rows] if isinstance(c, np.ndarray) else list(map(c.__getitem__, at))
            for n, c in ((n, self.column(n)) for n in self.names)})

    def key_order(self, keys) -> list[int] | None:
        """The stable row order sorted by the ``keys`` fields, or None when
        the rows are in that order already."""
        order = _key_order([c if isinstance(c, np.ndarray) else _distinct(c, sort=True)[1]
                            for c in map(self.column, keys)])
        return None if order is None else order.tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return (self.record is other.record and len(self) == len(other) and all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in ((self.column(n), other.column(n)) for n in self.names)))


RECORDS = {
    "subscribers": SubscriberRecord,
    "billing": BillingMonthRecord,
    "usage": UsageMonthRecord,
    "service_requests": ServiceRequestRecord,
}


@dataclass
class TelcoDataset:
    """The four tables. Each may be given as a Table or as its records."""

    subscribers: Table = ()
    billing: Table = ()
    usage: Table = ()
    service_requests: Table = ()

    def __post_init__(self):
        for name, record in RECORDS.items():
            rows = getattr(self, name)
            if not isinstance(rows, Table):
                setattr(self, name, Table(record, rows))


def check_integrity(dataset: TelcoDataset) -> None:
    """Validate cross-table referential integrity and per-record invariants."""
    subs = dataset.subscribers
    act, since, term, back = (subs.column(c) for c in (
        "activation_date", "customer_since", "termination_date", "comeback_date"))
    defects = [  # per row, in the order a row's checks apply
        (list(map(operator.gt, since, act)), "customer_since after activation_date"),
        ([t is not None and a > t for a, t in zip(act, term)], "activation after termination"),
        ([c is not None and (t is None or c <= t) for c, t in zip(back, term)],
         "comeback without prior termination"),
    ]
    firsts = [(flags.index(True), k) for k, (flags, _) in enumerate(defects) if True in flags]
    if firsts:
        i, k = min(firsts)
        raise ValueError(f"{subs.column('service_id')[i]}: {defects[k][1]}")
    billing_ids, customer_ids = set(subs.column("billing_id")), set(subs.column("customer_id"))
    for what, table, key, known in (
            ("billing row", dataset.billing, "billing_id", billing_ids),
            ("usage row", dataset.usage, "billing_id", billing_ids),
            ("service request", dataset.service_requests, "customer_id", customer_ids)):
        column = table.column(key)
        if not known.issuperset(column):
            unknown = next(v for v in column if v not in known)
            raise ValueError(f"{what} references unknown {key} {unknown}")


# ---------------------------------------------------------------------------
# CSV round-trip
# ---------------------------------------------------------------------------

FILENAMES = {name: f"{name}.csv" for name in RECORDS}
SORT_KEYS = {  # the row order of each file
    "subscribers": ("customer_id", "billing_id", "service_id"),
    "billing": ("billing_id", "month"),
    "usage": ("billing_id", "month"),
    "service_requests": ("customer_id", "request_date", "request_code"),
}
_DATES = {"activation_date", "customer_since", "termination_date", "comeback_date",
          "request_date"}
# a plain file is split into fields this many bytes (of whole lines) at a
# time, which bounds the masks and offsets the split makes
_SPLIT_BYTES = 1 << 20
# widest text field gathered into a byte matrix; a column with a longer
# one is decoded field by field
_GATHER_BYTES = 64


# fields formatted and assembled at a time (16,384 rows of billing, 4,519 of
# a 29-column matrix): bounds the writer's temporaries to a few MB. On the
# cli-ingest benchmark (2-vCPU host), 2**15 and 2**16 read a peak RSS
# 1.5-2 MB above the csv.writer code's and 2**17 the same; smaller blocks
# are also slower
_WRITE_FIELDS = 1 << 17
_POW10 = np.array([float(10**k) for k in range(19)])
_POW10_INT = np.uint64(10) ** np.arange(19, dtype=np.uint64)


def _chunk_tables():
    """The text, length and trailing zeros of each int of up to 4 digits."""
    chunks = np.arange(10000)
    text = np.stack([np.repeat(np.tile(np.arange(48, 58, dtype=np.uint8), 10**(3 - j)), 10**j)
                     for j in (3, 2, 1, 0)], axis=1)
    length = 1 + (chunks >= 10) + (chunks >= 100) + (chunks >= 1000)
    zeros = sum(chunks % 10**j == 0 for j in range(1, 5))
    return text, length.astype(np.uint8), zeros.astype(np.uint8)


_DIGITS4, _LENGTH4, _ZEROS4 = _chunk_tables()
_TEXT4 = _DIGITS4.view(np.uint32).ravel()  # each as one 4-byte item
_RUNS = np.tri(65, 64, -1, dtype=bool)  # row i: i flags set, then clear

# A field writer is (width, fill): ``fill(cells, keep)`` writes a column's
# fields into byte matrices of ``width`` columns, one row per field, whose
# text is ``cells[i][keep[i]]``.


def _runs(lengths: np.ndarray, width: int, right: bool = False) -> np.ndarray:
    """Rows of ``width`` flags, the first (``right``: last) ``lengths[i]`` set."""
    table = _RUNS[:width + 1, :width] if width < len(_RUNS) else np.tri(
        width + 1, width, -1, dtype=bool)
    return np.take(table[:, ::-1] if right else table, lengths, axis=0)


def _write_whole(cells, keep, values: np.ndarray, neg: np.ndarray) -> None:
    """Write non-negative ints ``values`` right-aligned into all columns of
    ``cells`` and ``keep``, "-" before those of the ``neg`` rows."""
    width = cells.shape[1]
    if values.max(initial=0) < 2**32:
        values = values.astype(np.uint32)  # faster division
    size = np.empty(len(values), np.intp)
    digits = np.empty((len(values), 2), np.uint32)  # two 4-digit texts
    rows = slice(None)
    for end in range(width, 0, -8):  # eight digits at a time, from the last
        quotient = values // 10**8
        low = values - quotient * 10**8
        high = low // 10000
        low -= high * 10000
        digits[:, 0], digits[:, 1] = _TEXT4[high], _TEXT4[low]
        cells[rows, max(end - 8, 0):end] = digits.view(np.uint8)[:, max(8 - end, 0):]
        size[rows] = width - end + np.where(high > 0, 4 + _LENGTH4[high], _LENGTH4[low])
        more = quotient > 0
        if not more.any():
            break
        rows = np.flatnonzero(more) if isinstance(rows, slice) else rows[more]
        values, digits = quotient[more], digits[more]
    size += neg
    keep[:] = _runs(size, width, right=True)
    rows = np.flatnonzero(neg)
    cells[rows, width - size[rows]] = 45


def _int_field(values: np.ndarray):
    """The field writer of ints as ``str`` writes them."""
    neg = values < 0
    u = values.astype(np.uint64)
    np.negative(u, out=u, where=neg)  # |value|, -2**63 included
    return (len(str(u.max(initial=0))) + bool(neg.any()),
            lambda cells, keep: _write_whole(cells, keep, u, neg))


def _float_field(values: np.ndarray, nan: str):
    """The field writer of floats as ``repr`` writes them, NaN as ``nan``.

    A value that is m / 10**k for an int m < 10**15 (at most 15
    significant digits) in fixed notation (zero or 1e-4 <= |value| <
    1e15) is written from its digits, k of them after the point (the
    least such k; "0" if it is 0): no other string of at most 15 digits
    reads back as the same float, so it is the shortest that does, which
    is ``repr``'s. Every other value goes through ``repr``.
    """
    a = np.abs(values)
    fixed = (a >= 1e-4) & (a < 1e15)
    # scaled by 10**e, e = 15 - its integer digits, a value of at most 15
    # significant digits is an int m < 10**15 with m / 10**e == value
    e = 14 - np.floor(np.log10(a, where=fixed, out=np.zeros(len(a))))
    e = np.minimum(np.maximum(e, 0), 18).astype(np.intp)
    scale = _POW10[e]
    m = np.rint(np.multiply(a, scale, where=fixed, out=np.zeros(len(a))))
    exact = (a == 0) | (fixed & (m < 1e15) & (m / scale == a))
    # the integer part is floor(value): m / 10**e is the only decimal of at
    # most 15 digits that reads back as the value, so no integer lies between
    whole = np.floor(a, where=exact, out=np.zeros(len(a)))
    e[~exact] = 0
    top = int(e.max(initial=0))
    # the digits after the point, as a ``top``-digit int (below 2**63)
    frac = np.where(exact, m - whole * scale, 0).astype(np.uint64) * _POW10_INT[top - e]
    k = np.zeros(len(a), np.intp)  # digits after the point up to the last nonzero one
    chunks, rows = [], slice(None)
    for start in range(0, top, 4):  # four digits at a time, from the first
        shift = top - start - 4
        chunk = frac // _POW10_INT[max(shift, 0)] * _POW10_INT[max(-shift, 0)]
        k[rows] = np.where(chunk > 0, start + 4 - _ZEROS4[chunk], k[rows])
        chunks.append((rows, start, chunk))
        frac = frac - chunk // _POW10_INT[max(-shift, 0)] * _POW10_INT[max(shift, 0)]
        more = frac > 0
        if not more.any():
            break
        rows = np.flatnonzero(more) if isinstance(rows, slice) else rows[more]
        frac = frac[more]
    neg = np.signbit(values) & exact
    dot = len(str(int(whole.max(initial=0)))) + bool(neg.any())
    point = max(int(k.max(initial=0)), 1)
    rest = np.flatnonzero(~exact)
    texts = list(map(repr, values[rest].tolist()))
    for i in np.flatnonzero(np.isnan(values[rest])).tolist():
        texts[i] = nan
    texts, size = _text_table(texts)

    def fill(cells, keep):
        _write_whole(cells[:, :dot], keep[:, :dot], whole.astype(np.uint64), neg)
        cells[:, dot] = 46
        cells[:, dot + 1] = 48  # "0" after the point of an integer
        keep[:, dot] = True
        for rows, start, chunk in chunks:
            if start < point:
                cells[rows, dot + 1 + start:dot + 1 + min(start + 4, point)] = np.take(
                    _DIGITS4, chunk, axis=0)[:, :point - start]
        keep[:, dot + 1:dot + 1 + point] = _runs(np.maximum(k, 1), point)
        keep[:, dot + 1 + point:] = False
        if len(rest):
            cells[rest, :texts.shape[1]] = texts
            keep[rest] = _runs(size, cells.shape[1])
    return max(dot + 1 + point, texts.shape[1]), fill


def _text_table(texts: list[str]):
    """(table, sizes): row i of the byte matrix ``table`` holds the UTF-8
    of ``texts[i]``, ``sizes[i]`` bytes long."""
    if not "".join(texts).isascii():
        texts = [t.encode() for t in texts]
    size = np.fromiter(map(len, texts), np.int64, len(texts))
    width = max(int(size.max(initial=0)), 1)
    return np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(len(texts), width), size


def _fields(texts: list[str], alone: bool) -> list[str]:
    """``texts`` as ``csv.writer`` writes them as fields; ``alone``: each is
    the only field of its row, where an empty text is written quoted."""
    if not any(c in "".join(texts) for c in ',"\r\n') and not (alone and "" in texts):
        return texts
    quoted = []
    for text in texts:
        if any(c in text for c in ',"\r\n') or (alone and not text):
            out = io.StringIO()
            csv.writer(out, lineterminator="\n").writerow([text])
            text = out.getvalue()[:-1]
        quoted.append(text)
    return quoted


def _distinct(values, text=None, sort=False) -> tuple[list, np.ndarray]:
    """The distinct ``values`` (as ``text(value)``, if given), in order of
    first appearance or, with ``sort``, sorted, and each value's index
    into them."""
    index = dict.fromkeys(values)
    index = {v: i for i, v in enumerate(sorted(index) if sort else index)}
    codes = np.fromiter(map(index.__getitem__, values), np.intp, len(values))
    return list(map(text, index) if text else index), codes


def _write_csv(path: str, header: list[str], columns: list, rows: np.ndarray,
               nan: str = "nan") -> None:
    """Write ``header`` and the ``rows`` (positions, in order) of ``columns``
    as ``csv.writer`` writes them, with LF line ends.

    A column is an int or float array, or ``(texts, codes)``: its distinct
    texts and each row's index into them. Ints are written as ``str`` and
    floats as ``repr`` writes them (NaN as ``nan``), formatted with numpy;
    a text holding a comma, quote, CR or LF is quoted by ``csv.writer``,
    once per distinct text. Lines are assembled as bytes, about
    ``_WRITE_FIELDS`` fields at a time.
    """
    texts = {}  # column -> (bytes, mask) of each distinct text
    for j, column in enumerate(columns):
        if isinstance(column, tuple):
            table, size = _text_table(_fields(column[0], len(columns) == 1))
            texts[j] = table, _runs(size, table.shape[1])

    def text_field(table, mask, codes):
        def fill(cells, keep):
            cells[:], keep[:] = np.take(table, codes, axis=0), np.take(mask, codes, axis=0)
        return table.shape[1], fill

    with open(path, "wb") as f:
        f.write((",".join(_fields(header, len(header) == 1)) + "\n").encode())
        block = max(_WRITE_FIELDS // len(columns), 1)
        for start in range(0, len(rows), block):
            at = rows[start:start + block]
            fields = [text_field(*texts[j], column[1][at]) if j in texts
                      else _float_field(column[at], nan) if column.dtype.kind == "f"
                      else _int_field(column[at]) for j, column in enumerate(columns)]
            width = sum(w + 1 for w, _ in fields)
            line, keep = np.empty((len(at), width), np.uint8), np.empty((len(at), width), bool)
            p = 0
            for w, fill in fields:  # each field, then a comma
                fill(line[:, p:p + w], keep[:, p:p + w])
                line[:, p + w], keep[:, p + w] = 44, True
                p += w + 1
            line[:, -1] = 10  # the last comma ends the line
            f.write(line.ravel()[keep.ravel()])


def write_tables(dataset: TelcoDataset, directory: str) -> None:
    """Write the four tables as CSV, rows sorted by primary key.

    Output is byte-deterministic for a given dataset: fixed header order,
    sorted rows, LF line endings, UTF-8, ints as ``str`` and floats as
    ``repr`` writes them, fields quoted as ``csv.writer`` quotes them.
    Columns are formatted whole (ids, codes, dates and months once per
    distinct text) and rows written a block at a time (``_write_csv``).
    """
    os.makedirs(directory, exist_ok=True)
    for name, keys in SORT_KEYS.items():
        table = getattr(dataset, name)
        columns = []
        for field in table.names:
            column = table.column(field)
            if field == "month":
                indexes, codes = np.unique(column, return_inverse=True)
                columns.append(([str(Month.from_index(i)) for i in indexes.tolist()], codes))
            elif isinstance(column, np.ndarray):
                columns.append(column)
            else:
                text = (lambda d: "" if d is None else d.isoformat()) if field in _DATES else None
                columns.append(_distinct(column, text, sort=field in keys))
        order = _key_order([columns[table.names.index(k)][1] for k in keys])
        _write_csv(os.path.join(directory, FILENAMES[name]), table.names, columns,
                   np.arange(len(table)) if order is None else order)


def _plain_fields(raw: bytes):
    """(header, buffer, row widths, separator offsets, None) of a file with no
    quote, CR or NUL, split as ``csv.reader`` splits it: on commas and LFs,
    an empty line being a row of no fields. Field k of the rows spans
    ``bounds[k] + 1 .. bounds[k + 1]``. None when a line is longer than
    ``csv.reader``'s field limit, which only it can apply."""
    if raw and not raw.endswith(b"\n"):
        raw += b"\n"
    first = raw.find(b"\n") + 1
    header = raw[:first - 1].decode().split(",") if first > 1 else [] if raw else None
    buf = np.frombuffer(raw, np.uint8)
    offset = np.int32 if len(raw) < 2**31 else np.int64
    widths, bounds = [np.zeros(0, offset)], [np.array([first - 1], offset)]
    start = first
    while start < len(raw):
        stop = raw.find(b"\n", start + _SPLIT_BYTES) + 1 or len(raw)
        part = buf[start:stop]
        seps = np.flatnonzero((part == 44) | (part == 10)).astype(offset)
        lf = np.flatnonzero(part.take(seps) == 10)  # each line's LF, as an index into seps
        lengths = np.diff(seps[lf], prepend=-1) - 1
        if lengths.max() > csv.field_size_limit():
            return None
        widths.append(np.where(lengths > 0, np.diff(lf, prepend=-1), 0))
        bounds.append(seps + start)
        start = stop
    return header, buf, np.concatenate(widths), np.concatenate(bounds), None


def _csv_fields(path: str):
    """The same for any file, read by ``csv.reader``: each field is packed
    into the buffer followed by one comma. A row ``csv.reader`` rejects
    (a field over its limit) ends the rows, and its message is returned
    last; None when every row was read."""
    buf, widths, lengths = bytearray(), array.array("q"), array.array("q")
    header = error = None
    with open(path, encoding="utf-8", newline="") as f:
        rows = csv.reader(f)
        try:
            header = next(rows, None)
            for row in rows:
                widths.append(len(row))
                if row:
                    fields = [field.encode() for field in row]
                    lengths.extend(map(len, fields))
                    buf += b",".join(fields) + b","
        except csv.Error as exc:
            if header is None:
                raise DatasetFormatError(f"{path}:1: {exc}") from None
            error = str(exc)
    bounds = np.cumsum(np.concatenate([[-1], np.asarray(lengths) + 1]))
    return (header, np.frombuffer(buf, np.uint8), np.asarray(widths),
            bounds.astype(np.int32 if len(buf) < 2**31 else np.int64), error)


def _numbers(cells: np.ndarray, lengths: np.ndarray, point: bool):
    """(values, canonical) of a column's cells (position x row bytes).
    Canonical cells are ints written as ``str`` writes one of at most 18
    digits ("0", or an optional "-" and no leading zero) or, with
    ``point``, floats of at most 15 digits written
    ``(0|[1-9][0-9]*)\\.[0-9]+``. Those convert exactly: a float is its
    digits m < 2**53 over 10**k, one correctly rounded division, which is
    what ``float`` gives."""
    width, n = cells.shape
    digit = cells - np.uint8(48)
    is_digit = (digit < 10) & (np.arange(width)[:, None] < lengths)
    mantissa = np.zeros(n, np.int64)
    for p in range(width):
        mantissa = np.where(is_digit[p], mantissa * 10 + digit[p], mantissa)
    n_digits = is_digit.sum(axis=0)
    lead_zero = (cells[0] == 48) & (n_digits > 1)
    if point:
        dot = np.argmax(cells == 46, axis=0)
        frac = lengths - 1 - dot
        ok = ((cells[dot, np.arange(n)] == 46) & (n_digits == lengths - 1) & (dot > 0)
              & (frac > 0) & ~(lead_zero & (dot > 1)))
        return mantissa / _POW10[np.where(ok, frac, 0)], ok
    minus = cells[0] == 45
    ok = ((n_digits == lengths - minus) & (n_digits > 0) & (n_digits <= 18) & ~lead_zero
          & ~(minus & (cells[1] == 48)))
    return np.where(minus, -mantissa, mantissa), ok


def _months(cells: np.ndarray, lengths: np.ndarray):
    """(month indexes, canonical) of a column's cells written ``YYYY-MM``."""
    width, n = cells.shape
    if width < 7:
        return np.zeros(n, np.int64), np.zeros(n, dtype=bool)
    digit = cells[[0, 1, 2, 3, 5, 6]] - np.uint8(48)
    y0, y1, y2, y3, m0, m1 = digit.astype(np.int64)
    month = m0 * 10 + m1
    ok = ((lengths == 7) & (cells[4] == 45) & (digit < 10).all(axis=0)
          & (month >= 1) & (month <= 12))
    return (y0 * 1000 + y1 * 100 + y2 * 10 + y3) * 12 + month - 1, ok


def _month_index(text: str) -> int:
    return Month.parse(text).index


# parse function -> (converter of canonical cells, widest canonical cell);
# a longer cell is not canonical, which keeps a float to 15 digits
_CANONICAL = {
    int: (lambda cells, lengths: _numbers(cells, lengths, False), 19),
    float: (lambda cells, lengths: _numbers(cells, lengths, True), 16),
    _month_index: (_months, 7),
}


class _TableReader:
    """One CSV file (a table, a feature matrix or its ``.kinds`` file) as a
    byte buffer plus the span of every field, converted a whole column at
    a time; a column is given by name or position. The header names the
    columns (``names``) and, if ``record`` is given, must name its fields.

    A plain file (no quote, CR or NUL) is split with numpy; any other is
    read by ``csv.reader``, whose fields fill the same kind of buffer. A
    check records a defect only at a row before every defect found so far,
    and later checks look only at the rows before it. Checks run in the
    order a row-by-row reader applies them within a row, so the error
    raised names the defect that reader would have met first, with file
    and line.
    """

    def __init__(self, path: str, record: type | None = None):
        if not os.path.exists(path):
            raise DatasetFormatError(f"missing file: {path}")
        self.path = path
        self.record = record
        with open(path, "rb") as f:
            raw = f.read()
        if not raw.isascii():
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = len((raw[:exc.start] + b"x").splitlines())
                raise DatasetFormatError(f"{path}:{line}: byte {raw[exc.start]:#04x} "
                                         f"is not UTF-8 text") from None
        fields = None
        if not (b'"' in raw or b"\r" in raw or b"\0" in raw):
            fields = _plain_fields(raw)
        header, self.buf, widths, bounds, error = fields or _csv_fields(path)
        self.names = header or []
        if record is not None and header != [f.name for f in dataclasses.fields(record)]:
            raise DatasetFormatError(f"{path}:1: bad header {header!r}")
        width = len(self.names)
        self.n = len(widths)  # rows still to check
        self.error: DatasetFormatError | None = None
        if error is not None:  # the row csv.reader rejected, unless an earlier one fails
            self.fail(self.n, error)
        self.check(widths == width, lambda i: f"expected {width} fields, got {widths[i]}")
        self.bounds = bounds[:self.n * width + 1]  # the fields of the rows of the right width

    def fail(self, i: int, message: str) -> None:
        """Record a defect in row ``i``; check no row from it on."""
        self.n = i
        self.error = DatasetFormatError(f"{self.path}:{i + 2}: {message}")

    def check(self, ok, message) -> None:
        """Fail the first checked row whose ``ok`` flag is false: ``message(row)``."""
        bad = np.flatnonzero(~np.asarray(ok[:self.n], dtype=bool))
        if len(bad):
            self.fail(int(bad[0]), message(int(bad[0])))

    def _fields(self, column) -> np.ndarray:
        """The indexes of a column's fields; a column is a name or a position."""
        j = column if isinstance(column, int) else self.names.index(column)
        return np.arange(j, len(self.bounds) - 1, len(self.names))

    def _cells(self, fields: np.ndarray, cap: int):
        """The ``fields`` as a position x field byte matrix, zero past each
        field's end (positions: the longest field's, at most ``cap``, at
        least 2), and the fields' lengths."""
        starts = self.bounds[fields] + 1
        lengths = self.bounds[fields + 1] - starts
        cells = np.empty((min(cap, max(int(lengths.max(initial=0)), 2)), len(starts)), np.uint8)
        for p, row in enumerate(cells):
            self.buf.take(starts + p, out=row, mode="clip")
        cells *= np.arange(len(cells))[:, None] < lengths
        return cells, lengths

    def texts(self, fields: np.ndarray) -> list[str]:
        """The text of each of ``fields``, gathered and decoded at once."""
        starts = self.bounds[fields] + 1
        lengths = self.bounds[fields + 1] - starts + 1  # each with the byte after it
        ends = np.cumsum(lengths, dtype=lengths.dtype)  # int32 below 2 GiB: no upcast
        # take, not [], gathers through an int32 index at int64 speed
        data = self.buf.take(np.arange(lengths.sum(), dtype=lengths.dtype)
                             + np.repeat(starts - ends + lengths, lengths))
        data[ends - 1] = 255  # a byte UTF-8 text never holds
        return data.tobytes().decode(errors="surrogateescape").split("\udcff")[:-1]

    def distinct(self, column) -> tuple[list[str], np.ndarray]:
        """A column's distinct texts, and each row's index into them."""
        fields = self._fields(column)
        cells, lengths = self._cells(fields, _GATHER_BYTES + 1)
        n = len(lengths)
        if n and lengths.max() > _GATHER_BYTES:
            return _distinct(self.texts(fields))
        rows = np.zeros((n, len(cells) + 1), dtype=np.uint8)
        rows[:, :-1] = cells.T
        rows[np.arange(n), lengths] = 1  # an end mark: numpy drops trailing NULs
        rows = rows.view(f"S{len(cells) + 1}").ravel()
        head = np.ones(n, dtype=bool)  # where a run of equal texts starts
        head[1:] = rows[1:] != rows[:-1]
        texts, codes = np.unique(rows[head], return_inverse=True)
        return [t[:-1].decode() for t in texts.tolist()], codes[np.cumsum(head) - 1]

    def strings(self, name: str) -> list[str]:
        """Column ``name``'s texts; rows with equal texts share one ``str``."""
        texts, codes = self.distinct(name)
        return np.array(texts, dtype=object)[codes].tolist()

    def convert(self, column, parse, missing=None) -> tuple[np.ndarray, tuple | None]:
        """A column as an array: canonical cells converted with numpy, every
        other cell decoded (all at once) and converted by ``parse``, and an
        empty cell read as ``missing`` if that is given. Also None or the
        (row, text) of the first checked cell that does not convert (or
        fit the array)."""
        fields = self._fields(column)
        convert, cap = _CANONICAL.get(parse, (None, 0))  # any other parse: no cell is canonical
        cells, lengths = self._cells(fields, cap)
        values, ok = convert(cells, lengths) if convert else (
            np.empty(len(fields), object), np.zeros(len(fields), bool))
        if missing is not None:
            values[lengths == 0] = missing
            ok |= lengths == 0
        rows = np.flatnonzero(~ok[:self.n])
        texts = self.texts(fields[rows])
        try:
            values[rows] = list(map(parse, texts))
        except (ValueError, TypeError, OverflowError):
            for i, text in zip(rows.tolist(), texts):
                try:
                    values[i] = parse(text)
                except (ValueError, TypeError, OverflowError):
                    return values, (i, text)
        return values, None

    def parse(self, name: str, parse) -> np.ndarray:
        """Column ``name`` as an array (``convert``); the first cell that
        does not convert fails its row."""
        values, failed = self.convert(name, parse)
        if failed is not None:
            self.fail(failed[0], f"malformed {name}: {failed[1]!r}")
        return values

    def table(self, values: dict) -> Table:
        if self.error is not None:
            raise self.error
        return Table(self.record, columns=values)


def read_tables(directory: str) -> TelcoDataset:
    """Read the four tables, validating row-level invariants.

    Defective rows raise DatasetFormatError naming the file and line.
    """
    date = dt.date.fromisoformat
    optional_date = lambda text: date(text) if text else None  # noqa: E731
    tables = {}

    reader = lambda name: _TableReader(os.path.join(directory, FILENAMES[name]),  # noqa: E731
                                       RECORDS[name])
    r = reader("subscribers")
    values = {c: r.strings(c) for c in ("customer_id", "billing_id", "service_id", "t_location")}
    for name, allowed in (("segment", SEGMENTS), ("service_type", SERVICE_TYPES)):
        raw = values[name] = r.strings(name)
        r.check([v in allowed for v in raw], lambda i: f"unknown {name} {raw[i]!r}")
    for c, parse in (("activation_date", date), ("customer_since", date),
                     ("contract_period", int), ("price_start", int), ("hsbb_area", int),
                     ("termination_date", optional_date), ("comeback_date", optional_date)):
        values[c] = r.parse(c, parse)
    for name in ("contract_period", "price_start"):
        col = values[name]
        r.check(col >= 0, lambda i: f"negative {name} {col[i]}")
    tables["subscribers"] = r.table(values)

    for name, parse in (("billing", int), ("usage", float)):
        r = reader(name)
        months = r.parse("month", _month_index)
        ids, codes = r.distinct("billing_id")
        order = np.lexsort((months[:r.n], codes[:r.n]))  # stable: earlier rows first
        repeat = np.zeros(r.n, dtype=bool)
        repeat[order[1:][(codes[order[1:]] == codes[order[:-1]])
                         & (months[order[1:]] == months[order[:-1]])]] = True
        r.check(~repeat, lambda i: f"duplicate (billing_id, month) {ids[codes[i]]}/"
                                   f"{Month.from_index(int(months[i]))}")
        values = {"billing_id": np.array(ids, dtype=object)[codes].tolist(), "month": months}
        values.update((c, r.parse(c, int if c == "voice_calls" else parse))
                      for c in r.names[2:])
        if name == "billing":
            amounts = np.array([values[c] for c in r.names[2:6]])
            r.check((amounts >= 0).all(axis=0), lambda i: "negative bill amount")
        else:
            for c in r.names[2:]:
                a = values[c]
                r.check((a >= 0) & (a < np.inf),  # false for NaN too
                        lambda i: f"{c} must be finite and non-negative, got {a[i].item()!r}")
        tables[name] = r.table(values)

    r = reader("service_requests")
    tables["service_requests"] = r.table({
        "customer_id": r.strings("customer_id"), "request_date": r.parse("request_date", date),
        "request_code": r.strings("request_code")})
    return TelcoDataset(**tables)
