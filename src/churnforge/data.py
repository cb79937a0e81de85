"""Relational telco schema and CSV persistence.

Four tables joined by billing ID (service requests join via customer ID):
subscribers, monthly billing, monthly usage, service requests. Monetary
amounts are integer cents so that file round-trips are exact. Each table
is held a column at a time (``Table``); the record classes are its rows.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime as dt
import functools
import itertools
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


def _ordered_pairs(column) -> tuple[np.ndarray, np.ndarray]:
    """(column[i] < column[i+1], column[i] == column[i+1]) for every i."""
    if isinstance(column, np.ndarray):
        return column[:-1] < column[1:], column[:-1] == column[1:]
    n = max(len(column) - 1, 0)
    return tuple(np.fromiter(map(op, column, itertools.islice(column, 1, None)), bool, n)
                 for op in (operator.lt, operator.eq))


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
        columns = [self.column(k) for k in keys]
        in_order = np.ones(max(len(self) - 1, 0), dtype=bool)
        for column in reversed(columns):  # row i vs i+1, from the last key to the first
            lt, eq = _ordered_pairs(column)
            in_order = lt | (eq & in_order)
        if in_order.all():
            return None
        columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
        return sorted(range(len(self)), key=list(zip(*columns)).__getitem__)

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
# rows split into fields or formatted at a time: fewer than the collector's
# first-generation threshold (700), so the per-row lists of a block are
# freed before a collection would walk them
_BLOCK_ROWS = 512


def _format(name: str, values) -> list[str]:
    """The CSV text of one column's values."""
    if name == "month":
        indexes = values.tolist()
        text = {i: str(Month.from_index(i)) for i in set(indexes)}
        return [text[i] for i in indexes]
    if isinstance(values, np.ndarray):
        return list(map(repr if values.dtype.kind == "f" else str, values.tolist()))
    if name in _DATES:
        return ["" if d is None else d.isoformat() for d in values]
    return values


def write_tables(dataset: TelcoDataset, directory: str) -> None:
    """Write the four tables as CSV, rows sorted by primary key.

    Output is byte-deterministic for a given dataset: fixed header order,
    sorted rows, LF line endings, UTF-8, fields quoted as ``csv.writer``
    quotes them.
    """
    os.makedirs(directory, exist_ok=True)
    for name, keys in SORT_KEYS.items():
        table = getattr(dataset, name)
        order = table.key_order(keys)
        if order is not None:
            table = table.take(order)
        with open(os.path.join(directory, FILENAMES[name]), "w", encoding="utf-8",
                  newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(table.names)
            for start in range(0, len(table), _BLOCK_ROWS):
                block = slice(start, start + _BLOCK_ROWS)
                w.writerows(zip(*(_format(n, table.column(n)[block]) for n in table.names)))


class _TableReader:
    """One table file, converted a block of rows and a column at a time.

    Checks run in the order a row-by-row reader applies them within a row.
    Once a check fails on some row, later checks look only at the rows
    before it and no further block is read, so the error raised names the
    defect a row-by-row reader would have met first, with file and line.
    """

    def __init__(self, directory: str, name: str, record: type):
        self.path = os.path.join(directory, FILENAMES[name])
        if not os.path.exists(self.path):
            raise DatasetFormatError(f"missing table file: {self.path}")
        self.record = record
        self.names = [f.name for f in dataclasses.fields(record)]
        self.start = 0  # table row of the block's first row
        self.n = 0  # rows of the block still to check
        self.columns: dict[str, list[str]] = {}
        self.kept: dict[str, list] = {n: [] for n in self.names}  # converted blocks
        self.error: DatasetFormatError | None = None

    def blocks(self):
        """Yield once per block of rows, with its raw fields in ``columns``;
        raise the first defect after the block holding it."""
        width = len(self.names)
        with open(self.path, encoding="utf-8", newline="") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header != self.names:
                raise DatasetFormatError(f"{self.path}:1: bad header {header!r}")
            for chunk in iter(lambda: list(itertools.islice(reader, _BLOCK_ROWS)), []):
                widths = list(map(len, chunk))
                self.n = len(chunk)
                if widths.count(width) < self.n:
                    i = next(i for i, w in enumerate(widths) if w != width)
                    self.fail(i, f"expected {width} fields, got {widths[i]}")
                fields = list(itertools.chain.from_iterable(chunk[:self.n]))
                self.columns = {c: fields[j::width] for j, c in enumerate(self.names)}
                yield
                if self.error is not None:
                    raise self.error
                self.start += self.n

    def fail(self, i: int, message: str) -> None:
        """Record a defect in row ``i`` of the block; check no row from it on."""
        self.n = i
        self.error = DatasetFormatError(f"{self.path}:{self.start + i + 2}: {message}")

    def column(self, name: str) -> list[str]:
        return self.columns[name][:self.n]

    def parse(self, name: str, parse):
        """The block's ``name`` values converted by ``parse`` (an array for
        numeric fields); the first value that does not convert fails its row."""
        raw = self.column(name)
        try:
            return _column(name, list(map(parse, raw)))
        except (ValueError, TypeError, OverflowError):
            for i, text in enumerate(raw):
                try:
                    _column(name, [parse(text)])
                except (ValueError, TypeError, OverflowError):
                    self.fail(i, f"malformed {name}: {text!r}")
                    return _column(name, list(map(parse, raw[:i])))

    def check(self, ok, message) -> None:
        """Fail the first checked row whose ``ok`` flag is false: ``message(row)``."""
        ok = np.asarray(ok[:self.n], dtype=bool)
        if not ok.all():
            i = int(np.argmin(ok))
            self.fail(i, message(i))

    def keep(self, values: dict) -> None:
        """Keep the block's checked rows: converted ``values``, raw text otherwise."""
        for name in self.names:
            self.kept[name].append(values[name][:self.n] if name in values
                                   else self.column(name))

    def table(self) -> Table:
        return Table(self.record, columns={
            n: np.concatenate(parts) if parts and n in _ARRAYS
            else list(itertools.chain.from_iterable(parts))
            for n, parts in self.kept.items()})


def read_tables(directory: str) -> TelcoDataset:
    """Read the four tables, validating row-level invariants.

    Defective rows raise DatasetFormatError naming the file and line.
    """
    date = functools.cache(dt.date.fromisoformat)  # dates and months repeat: parse each once
    optional_date = lambda text: date(text) if text else None  # noqa: E731
    month_index = functools.cache(lambda text: Month.parse(text).index)
    tables = {}

    r = _TableReader(directory, "subscribers", SubscriberRecord)
    for _ in r.blocks():
        for name, allowed in (("segment", SEGMENTS), ("service_type", SERVICE_TYPES)):
            raw = r.column(name)
            r.check([v in allowed for v in raw], lambda i: f"unknown {name} {raw[i]!r}")
        values = {c: r.parse(c, parse) for c, parse in (
            ("activation_date", date), ("customer_since", date),
            ("contract_period", int), ("price_start", int), ("hsbb_area", int),
            ("termination_date", optional_date), ("comeback_date", optional_date))}
        for name in ("contract_period", "price_start"):
            col = values[name]
            r.check(col >= 0, lambda i: f"negative {name} {col[i]}")
        r.keep(values)
    tables["subscribers"] = r.table()

    for name, record, parse in (("billing", BillingMonthRecord, int),
                                ("usage", UsageMonthRecord, float)):
        r, seen = _TableReader(directory, name, record), set()
        key = "{}\x1f{}".format  # (month index, billing_id): the month text has no \x1f
        for _ in r.blocks():
            months = r.parse("month", month_index)
            ids = r.column("billing_id")
            keys = list(map(key, months.tolist(), ids))
            size = len(seen)
            seen.update(keys)
            if len(seen) < size + len(keys):  # a key repeats: find its first row
                seen = set(map(key, itertools.chain.from_iterable(r.kept["month"]),
                               itertools.chain.from_iterable(r.kept["billing_id"])))
                r.check([not (k in seen or seen.add(k)) for k in keys],
                        lambda i: f"duplicate (billing_id, month) {ids[i]}/"
                                  f"{Month.from_index(int(months[i]))}")
            values = {"month": months}
            values.update((c, r.parse(c, int if c == "voice_calls" else parse))
                          for c in r.names[2:])
            if name == "billing":
                amounts = np.array([values[c][:r.n] for c in r.names[2:6]])
                r.check((amounts >= 0).all(axis=0), lambda i: "negative bill amount")
            else:
                for c in r.names[2:]:
                    a = values[c][:r.n]
                    r.check((a >= 0) & (a < np.inf),  # false for NaN too
                            lambda i: f"{c} must be finite and non-negative, "
                                      f"got {a[i].item()!r}")
            r.keep(values)
        tables[name] = r.table()

    r = _TableReader(directory, "service_requests", ServiceRequestRecord)
    for _ in r.blocks():
        r.keep({"request_date": r.parse("request_date", date)})
    tables["service_requests"] = r.table()
    return TelcoDataset(**tables)
