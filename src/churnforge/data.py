"""Relational telco schema and CSV persistence.

Four tables joined by billing ID (service requests join via customer ID):
subscribers, monthly billing, monthly usage, service requests. Monetary
amounts are integer cents so that file round-trips are exact.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import itertools
import os
from dataclasses import dataclass, field

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


@dataclass
class TelcoDataset:
    subscribers: list[SubscriberRecord] = field(default_factory=list)
    billing: list[BillingMonthRecord] = field(default_factory=list)
    usage: list[UsageMonthRecord] = field(default_factory=list)
    service_requests: list[ServiceRequestRecord] = field(default_factory=list)


def check_integrity(dataset: TelcoDataset) -> None:
    """Validate cross-table referential integrity and per-record invariants."""
    billing_ids = {s.billing_id for s in dataset.subscribers}
    customer_ids = {s.customer_id for s in dataset.subscribers}
    for s in dataset.subscribers:
        if s.customer_since > s.activation_date:
            raise ValueError(f"{s.service_id}: customer_since after activation_date")
        if s.termination_date is not None and s.activation_date > s.termination_date:
            raise ValueError(f"{s.service_id}: activation after termination")
        if s.comeback_date is not None:
            if s.termination_date is None or s.comeback_date <= s.termination_date:
                raise ValueError(f"{s.service_id}: comeback without prior termination")
    for r in dataset.billing:
        if r.billing_id not in billing_ids:
            raise ValueError(f"billing row references unknown billing_id {r.billing_id}")
    for r in dataset.usage:
        if r.billing_id not in billing_ids:
            raise ValueError(f"usage row references unknown billing_id {r.billing_id}")
    for r in dataset.service_requests:
        if r.customer_id not in customer_ids:
            raise ValueError(f"service request references unknown customer_id {r.customer_id}")


# ---------------------------------------------------------------------------
# CSV round-trip
# ---------------------------------------------------------------------------

SUBSCRIBER_COLUMNS = [
    "customer_id", "billing_id", "service_id", "segment", "service_type",
    "activation_date", "customer_since", "contract_period", "price_start",
    "t_location", "hsbb_area", "termination_date", "comeback_date",
]
BILLING_COLUMNS = [
    "billing_id", "month", "current_bill_amt", "last_bill_amt", "amt_2pay",
    "outstanding", "payment", "credit_adj",
]
USAGE_COLUMNS = ["billing_id", "month", "download_mb", "upload_mb", "voice_minutes", "voice_calls"]
REQUEST_COLUMNS = ["customer_id", "request_date", "request_code"]

FILENAMES = {
    "subscribers": "subscribers.csv",
    "billing": "billing.csv",
    "usage": "usage.csv",
    "service_requests": "service_requests.csv",
}


def _date(d: dt.date | None) -> str:
    return d.isoformat() if d is not None else ""


def write_tables(dataset: TelcoDataset, directory: str) -> None:
    """Write the four tables as CSV, rows sorted by primary key.

    Output is byte-deterministic for a given dataset: fixed header order,
    sorted rows, LF line endings, UTF-8.
    """
    os.makedirs(directory, exist_ok=True)

    def _write(name, header, rows):
        with open(os.path.join(directory, FILENAMES[name]), "w", encoding="utf-8",
                  newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)

    by_account_month = lambda r: (r.billing_id, r.month.index)  # noqa: E731
    _write("subscribers", SUBSCRIBER_COLUMNS, (
        [s.customer_id, s.billing_id, s.service_id, s.segment, s.service_type,
         s.activation_date.isoformat(), s.customer_since.isoformat(),
         s.contract_period, s.price_start, s.t_location, s.hsbb_area,
         _date(s.termination_date), _date(s.comeback_date)]
        for s in sorted(dataset.subscribers,
                        key=lambda s: (s.customer_id, s.billing_id, s.service_id))))
    _write("billing", BILLING_COLUMNS, (
        [r.billing_id, str(r.month), r.current_bill_amt, r.last_bill_amt,
         r.amt_2pay, r.outstanding, r.payment, r.credit_adj]
        for r in sorted(dataset.billing, key=by_account_month)))
    _write("usage", USAGE_COLUMNS, (
        [r.billing_id, str(r.month), repr(float(r.download_mb)), repr(float(r.upload_mb)),
         repr(float(r.voice_minutes)), int(r.voice_calls)]
        for r in sorted(dataset.usage, key=by_account_month)))
    _write("service_requests", REQUEST_COLUMNS, (
        [r.customer_id, r.request_date.isoformat(), r.request_code]
        for r in sorted(dataset.service_requests,
                        key=lambda r: (r.customer_id, r.request_date, r.request_code))))


_BLOCK_ROWS = 4096  # rows split into fields at a time: bounds the raw strings held


class _TableReader:
    """One table file, converted a block of rows and a column at a time.

    Checks run in the order a row-by-row reader applies them within a row.
    Once a check fails on some row, later checks look only at the rows
    before it and no further block is read, so the error raised names the
    defect a row-by-row reader would have met first, with file and line.
    """

    def __init__(self, directory: str, name: str, columns: list[str]):
        self.path = os.path.join(directory, FILENAMES[name])
        if not os.path.exists(self.path):
            raise DatasetFormatError(f"missing table file: {self.path}")
        self.names = columns
        self.start = 0  # table row of the block's first row
        self.n = 0  # rows of the block still to check
        self.columns: dict[str, list[str]] = {}
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

    def parse(self, name: str, parse) -> list:
        raw = self.column(name)
        try:
            return list(map(parse, raw))
        except (ValueError, TypeError):
            for i, text in enumerate(raw):
                try:
                    parse(text)
                except (ValueError, TypeError):
                    self.fail(i, f"malformed {name}: {text!r}")
                    return list(map(parse, raw[:i]))

    def check(self, ok, message) -> None:
        """Fail the first checked row whose ``ok`` flag is false: ``message(row)``."""
        ok = np.asarray(ok[:self.n], dtype=bool)
        if not ok.all():
            i = int(np.argmin(ok))
            self.fail(i, message(i))


def read_tables(directory: str) -> TelcoDataset:
    """Read the four tables, validating row-level invariants.

    Defective rows raise DatasetFormatError naming the file and line.
    """
    ds = TelcoDataset()
    date = functools.cache(dt.date.fromisoformat)  # dates and months repeat: parse each once
    optional_date = lambda text: date(text) if text else None  # noqa: E731
    month = functools.cache(Month.parse)
    month_index = functools.cache(lambda text: month(text).index)

    r = _TableReader(directory, "subscribers", SUBSCRIBER_COLUMNS)
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
            r.check([v >= 0 for v in col[:r.n]], lambda i: f"negative {name} {col[i]}")
        ds.subscribers += map(SubscriberRecord, *(
            values[c] if c in values else r.column(c) for c in SUBSCRIBER_COLUMNS))

    for name, columns, record, parse in (("billing", BILLING_COLUMNS, BillingMonthRecord, int),
                                         ("usage", USAGE_COLUMNS, UsageMonthRecord, float)):
        records = getattr(ds, name)
        r, seen = _TableReader(directory, name, columns), set()
        for _ in r.blocks():
            months = r.parse("month", month)
            ids = r.column("billing_id")
            keys = list(zip(ids, r.parse("month", month_index)))
            seen.update(keys)
            if len(seen) < len(records) + len(keys):  # a key repeats: find its first row
                seen = {(rec.billing_id, rec.month.index) for rec in records}
                r.check([not (key in seen or seen.add(key)) for key in keys],
                        lambda i: f"duplicate (billing_id, month) {ids[i]}/{months[i]}")
            values = [r.parse(c, int if c == "voice_calls" else parse) for c in columns[2:]]
            if name == "billing":
                amounts = np.array([v[:r.n] for v in values[:4]])
                r.check((amounts >= 0).all(axis=0), lambda i: "negative bill amount")
            else:
                for c, col in zip(columns[2:], values):
                    a = np.array(col[:r.n])
                    r.check((a >= 0) & (a < np.inf),  # false for NaN too
                            lambda i: f"{c} must be finite and non-negative, got {col[i]!r}")
            records += map(record, ids, months, *values)

    r = _TableReader(directory, "service_requests", REQUEST_COLUMNS)
    for _ in r.blocks():
        ds.service_requests += map(ServiceRequestRecord, r.column("customer_id"),
                                   r.parse("request_date", date), r.column("request_code"))
    return ds
