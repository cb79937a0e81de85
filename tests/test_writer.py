"""The CSV writer behind ``write_tables`` and ``write_matrix``: its int and
float formatters against ``str`` and ``repr``, and its bytes against the
row-by-row ``csv.writer`` code it replaced."""

import csv
import datetime as dt
import os
import random

import numpy as np
import pytest

from churnforge import data, write_matrix, write_tables
from churnforge.data import (BillingMonthRecord, ServiceRequestRecord, SubscriberRecord,
                             TelcoDataset, UsageMonthRecord)
from churnforge.features import CATEGORICAL, NUMERIC, FeatureMatrix, is_missing
from churnforge.months import Month

INT64 = np.iinfo(np.int64)


def _written(tmp_path, values: np.ndarray, nan: str = "nan") -> list[str]:
    """The fields ``_write_csv`` writes for one column of ``values``."""
    path = tmp_path / "column.csv"
    data._write_csv(str(path), ["v"], [values], np.arange(len(values)), nan=nan)
    return path.read_text(encoding="ascii").split("\n")[1:-1]


def _float_cases(rng) -> np.ndarray:
    """Over 500k floats: values rounded to 0-6 decimals over magnitudes
    1e-6..1e17, raw normal draws at several scales, and the edges."""
    n = 60_000
    rounded = [np.round(10 ** rng.uniform(-6, 17, n) * rng.choice([-1, 1], n), decimals)
               for decimals in range(7)]
    normal = [rng.normal(size=n) * scale for scale in (1, 1e-3, 1e6)]
    edges = [0.0, -0.0, 1e-4, -1e-4, np.nextafter(1e-4, 0), 1e15, 1e16, -1e15, 5e-324,
             np.nan, -np.nan, np.inf, -np.inf, 0.1 + 0.2, 2.675, 999999999999999.9,
             0.30000000000000004, 123456789012345.0, 0.000123456789012345, 1.5e-5]
    edges += [np.nextafter(x, to) for x in (1e15, 1e16, 1e-4) for to in (0, np.inf)]
    return np.concatenate(rounded + normal + [np.array(edges)])


def test_float_formatter_matches_repr(tmp_path):
    values = _float_cases(np.random.default_rng(15))
    assert len(values) > 500_000
    assert _written(tmp_path, values) == list(map(repr, values.tolist()))


def test_float_formatter_writes_nan_as_told(tmp_path):
    values = np.array([1.5, np.nan, -0.0, np.inf, 2.0])
    assert _written(tmp_path, values, nan="") == ["1.5", "", "-0.0", "inf", "2.0"]


def test_int_formatter_matches_str(tmp_path):
    rng = np.random.default_rng(16)
    powers = 10 ** np.arange(19, dtype=np.int64)
    values = np.concatenate([
        rng.integers(INT64.min, INT64.max, 50_000, endpoint=True),
        (rng.integers(-(10**6), 10**6, 50_000)), powers, powers - 1, -powers, 1 - powers,
        [0, 1, -1, INT64.max, -INT64.max, INT64.min, INT64.min + 1]]).astype(np.int64)
    assert _written(tmp_path, values) == list(map(str, values.tolist()))


# ---------------------------------------------------------------------------
# differential check: the writer against the row-by-row csv.writer code
# ---------------------------------------------------------------------------

def _format(name: str, values) -> list[str]:
    """The CSV text of one column's values."""
    if name == "month":
        indexes = values.tolist()
        text = {i: str(Month.from_index(i)) for i in set(indexes)}
        return [text[i] for i in indexes]
    if isinstance(values, np.ndarray):
        return list(map(repr if values.dtype.kind == "f" else str, values.tolist()))
    if name in data._DATES:
        return ["" if d is None else d.isoformat() for d in values]
    return values


def _reference_write_tables(dataset: TelcoDataset, directory: str) -> None:
    """What ``write_tables`` must write: rows in a stable Python sort by the
    key fields, formatted by ``_format`` and written by ``csv.writer``."""
    os.makedirs(directory, exist_ok=True)
    for name, keys in data.SORT_KEYS.items():
        table = getattr(dataset, name)
        columns = [table.column(k) for k in keys]
        table = table.take(sorted(range(len(table)), key=lambda i: [c[i] for c in columns]))
        with open(os.path.join(directory, data.FILENAMES[name]), "w", encoding="utf-8",
                  newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(table.names)
            w.writerows(zip(*(_format(n, table.column(n)) for n in table.names)))


def _reference_write_matrix(matrix: FeatureMatrix, path: str) -> None:
    """What ``write_matrix`` must write as its CSV."""
    columns = [matrix.billing_ids]
    for name in matrix.feature_names:
        if matrix.kinds[name] == NUMERIC:
            values = np.asarray(matrix.columns[name], dtype=np.float64).tolist()
            columns.append(["" if v != v else repr(v) for v in values])
        else:
            columns.append(["" if is_missing(v) else v for v in matrix.columns[name]])
    header = ["billing_id"] + list(matrix.feature_names)
    if matrix.labels is not None:
        header.append("label")
        columns.append(matrix.labels.tolist())
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(zip(*columns))


# texts that csv.writer quotes or passes through as they are
ODD_TEXTS = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "nul\0byte", "ünï", "日本", "",
             " pad ", '"', ",", "\r\n", "x\0", "wide" * 20]


def _text(rng, pool: list[str], odd: float) -> str:
    return rng.choice(ODD_TEXTS) if rng.random() < odd else rng.choice(pool)


def _date(rng, optional: bool = False):
    if optional and rng.random() < 0.4:
        return None
    return dt.date(2008, 1, 1) + dt.timedelta(days=rng.randrange(2000))


def _float(rng) -> float:
    roll = rng.random()
    if roll < 0.05:
        return rng.choice([-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
                           1e16, 0.1 + 0.2, 1e-7])
    if roll < 0.5:
        return round(rng.uniform(-1e4, 1e4), rng.randrange(7))
    return rng.uniform(-1e6, 1e6) / rng.choice([1, 3, 7])


def _int(rng) -> int:
    if rng.random() < 0.05:
        return rng.choice([INT64.min, INT64.max, -INT64.max, 0, -1])
    return rng.randrange(-10**rng.randrange(1, 19), 10**rng.randrange(1, 19))


def _random_dataset(rng, odd: float) -> TelcoDataset:
    """Four tables of random rows, not in key order, with ``odd`` the share
    of ids and codes drawn from ODD_TEXTS."""
    n = {name: rng.choice([0, 1, rng.randrange(2, 40), rng.randrange(40, 400)])
         for name in data.RECORDS}
    ids = [f"B{rng.randrange(10**6)}" for _ in range(12)]

    def month():
        return Month.from_index(rng.randrange(23000, 25000))

    return TelcoDataset(
        subscribers=[SubscriberRecord(
            _text(rng, ids, odd), _text(rng, ids, odd), _text(rng, ids, odd),
            _text(rng, ["consumer", "sme"], odd), "voice", _date(rng), _date(rng), _int(rng),
            _int(rng), _text(rng, ["AJP", "TLS"], odd), rng.randrange(2), _date(rng, True),
            _date(rng, True)) for _ in range(n["subscribers"])],
        billing=[BillingMonthRecord(_text(rng, ids, odd), month(), *(_int(rng) for _ in range(6)))
                 for _ in range(n["billing"])],
        usage=[UsageMonthRecord(_text(rng, ids, odd), month(), _float(rng), _float(rng),
                                _float(rng), _int(rng)) for _ in range(n["usage"])],
        service_requests=[ServiceRequestRecord(_text(rng, ids, odd), _date(rng),
                                               _text(rng, ["TECH", "BILL"], odd))
                          for _ in range(n["service_requests"])])


@pytest.mark.parametrize("fields", [data._WRITE_FIELDS, 24, 7])
@pytest.mark.parametrize("case", range(12))
def test_tables_are_written_as_csv_writer_writes_them(tmp_path, monkeypatch, case, fields):
    """Byte for byte, over one block of rows and over many small ones."""
    monkeypatch.setattr(data, "_WRITE_FIELDS", fields)
    dataset = _random_dataset(random.Random(case), odd=[0.0, 0.05, 0.5][case % 3])
    write_tables(dataset, str(tmp_path / "ours"))
    _reference_write_tables(dataset, str(tmp_path / "reference"))
    for name in data.FILENAMES.values():
        assert ((tmp_path / "ours" / name).read_bytes()
                == (tmp_path / "reference" / name).read_bytes()), name


def _random_matrix(rng, odd: float) -> FeatureMatrix:
    n = rng.choice([0, 1, rng.randrange(2, 300)])
    names = [f"f{j}" if rng.random() > odd else rng.choice(ODD_TEXTS) + str(j)
             for j in range(rng.randrange(0, 8))]
    kinds = {name: rng.choice([NUMERIC, NUMERIC, CATEGORICAL]) for name in names}
    columns = {name: np.array([_float(rng) for _ in range(n)]) if kinds[name] == NUMERIC else
               np.array([None if rng.random() < 0.1 else _text(rng, ["AJP", "12"], odd)
                         for _ in range(n)], dtype=object) for name in names}
    labels = np.array([rng.randrange(2) for _ in range(n)], dtype=np.int8)
    return FeatureMatrix([_text(rng, [f"B{i}" for i in range(n)], odd) for _ in range(n)],
                         names, kinds, columns, labels if rng.random() < 0.7 else None)


@pytest.mark.parametrize("fields", [data._WRITE_FIELDS, 5])
@pytest.mark.parametrize("case", range(20))
def test_matrices_are_written_as_csv_writer_writes_them(tmp_path, monkeypatch, case, fields):
    monkeypatch.setattr(data, "_WRITE_FIELDS", fields)
    matrix = _random_matrix(random.Random(case), odd=[0.0, 0.1, 0.5][case % 3])
    write_matrix(matrix, str(tmp_path / "ours.csv"))
    _reference_write_matrix(matrix, str(tmp_path / "reference.csv"))
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
