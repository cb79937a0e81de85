"""Time-windowed feature extraction over the relational tables.

Rows are keyed by billing ID. A churn matrix uses one fixed 3-month
feature window for everyone; a win-back matrix computes each churner's
window as the 3 months preceding that churner's own termination month.
Labels always come from a later, disjoint month range.

Missing months inside a window impute 0 for usage volumes and counts;
monetary aggregates are marked missing instead (NaN), and derived values
with a missing operand are missing too.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data import TelcoDataset
from .months import Month, month_range

NUMERIC = "numeric"
CATEGORICAL = "categorical"

MONETARY_AVG_NAMES = [
    "AMT_2PAY_avg", "OUTSTANDING_avg", "PAYMENT_avg",
    "LAST_BILL_AMT_avg", "CURRENT_BILL_AMT_avg", "CREDIT_ADJ_avg",
]
_MONETARY_FIELDS = ["amt_2pay", "outstanding", "payment", "last_bill_amt",
                    "current_bill_amt", "credit_adj"]  # billing cents behind each average
DERIVED_NAMES = [
    "DIFF_AMT_2PAY_PRICE_START", "DIFF_CURRENT_LAST_BILL_AMT_avg",
    "ACTIVATION_DATE_TENURE", "CUSTOMER_TENURE_DIFF",
]
PASSTHROUGH_NAMES = ["Contract_Period", "HSBB_Area", "T_Location", "Price_Start"]


def is_missing(value) -> bool:
    return value is None or (isinstance(value, float) and math.isnan(value))


@dataclass(eq=False)
class FeatureMatrix:
    """Named feature columns plus an optional binary label, one row per billing ID.

    Numeric columns are float64 with NaN marking missing values;
    categorical columns are object arrays of strings with None missing.
    """

    billing_ids: list[str]
    feature_names: list[str]
    kinds: dict[str, str]
    columns: dict[str, np.ndarray]
    labels: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.billing_ids)
        for name in self.feature_names:
            if len(self.columns[name]) != n:
                raise ValueError(f"column {name} has {len(self.columns[name])} rows, expected {n}")
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("label column length mismatch")

    @property
    def n_rows(self) -> int:
        return len(self.billing_ids)

    def row(self, i: int) -> dict:
        return {name: self.columns[name][i] for name in self.feature_names}

    def subset(self, indices) -> "FeatureMatrix":
        indices = np.asarray(indices)
        return FeatureMatrix(
            billing_ids=[self.billing_ids[i] for i in indices],
            feature_names=self.feature_names,
            kinds=self.kinds,
            columns={k: v[indices] for k, v in self.columns.items()},
            labels=None if self.labels is None else self.labels[indices],
        )

    def class_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """(indices with label 0, indices with label 1)."""
        if self.labels is None:
            raise ValueError("matrix has no labels")
        idx = np.arange(self.n_rows)
        return idx[self.labels == 0], idx[self.labels == 1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FeatureMatrix):
            return NotImplemented
        if (self.billing_ids != other.billing_ids
                or self.feature_names != other.feature_names
                or self.kinds != other.kinds):
            return False
        if (self.labels is None) != (other.labels is None):
            return False
        if self.labels is not None and not np.array_equal(self.labels, other.labels):
            return False
        for name in self.feature_names:
            a, b = self.columns[name], other.columns[name]
            if self.kinds[name] == NUMERIC:
                if not np.array_equal(a, b, equal_nan=True):
                    return False
            else:
                if list(a) != list(b):
                    return False
        return True


@dataclass(frozen=True)
class WindowSpec:
    """Feature/label month ranges for one extraction task."""

    task: str  # "churn" | "winback"
    label_months: tuple[Month, ...]
    feature_months: tuple[Month, ...] | None = None       # churn only
    termination_range: tuple[Month, Month] | None = None  # winback only

    def validate(self):
        if self.task not in ("churn", "winback"):
            raise ValueError(f"unknown task {self.task!r}")
        if not self.label_months:
            raise ValueError("label_months must be non-empty")
        _require_consecutive(self.label_months, "label_months")
        if self.task == "churn":
            if self.feature_months is None or len(self.feature_months) != 3:
                raise ValueError("churn window needs exactly 3 feature months")
            _require_consecutive(self.feature_months, "feature_months")
            if not self.feature_months[-1] < self.label_months[0]:
                raise ValueError("feature months must strictly precede label months")
        else:
            if self.termination_range is None:
                raise ValueError("winback window needs a termination_range")
            lo, hi = self.termination_range
            if hi < lo:
                raise ValueError("empty termination_range")


def _require_consecutive(months, what):
    for a, b in zip(months, months[1:]):
        if b.diff(a) != 1:
            raise ValueError(f"{what} must be consecutive months")


def standard_windows(task: str, role: str) -> WindowSpec:
    """The pipeline's canonical train/test windows for each task."""
    key = (task, role)
    if key == ("churn", "train"):
        return WindowSpec("churn",
                          tuple(month_range(Month(2011, 11), Month(2012, 1))),
                          feature_months=tuple(month_range(Month(2011, 8), Month(2011, 10))))
    if key == ("churn", "test"):
        return WindowSpec("churn",
                          tuple(month_range(Month(2012, 1), Month(2012, 3))),
                          feature_months=tuple(month_range(Month(2011, 10), Month(2011, 12))))
    if key == ("winback", "train"):
        return WindowSpec("winback",
                          tuple(month_range(Month(2011, 11), Month(2012, 1))),
                          termination_range=(Month(2011, 4), Month(2011, 10)))
    if key == ("winback", "test"):
        return WindowSpec("winback",
                          tuple(month_range(Month(2012, 1), Month(2012, 3))),
                          termination_range=(Month(2011, 6), Month(2011, 12)))
    raise ValueError(f"unknown (task, role): {key}")


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------

def monthly_feature_names(months: tuple[Month, ...] | None) -> list[str]:
    """Per-month column names: calendar-coded for churn (fixed window),
    position-coded M1..M3 for win-back (per-subscriber windows)."""
    if months is not None:
        tags = [m.yymm() for m in months]
    else:
        tags = ["_M1", "_M2", "_M3"]
    names = []
    for tag in tags:
        names += [f"DL{tag}", f"UL{tag}", f"VOICE_MIN{tag}", f"SR_COUNT{tag}"]
    return names


def feature_schema(months: tuple[Month, ...] | None) -> tuple[list[str], dict[str, str]]:
    names = (monthly_feature_names(months)
             + ["3M_DL_avg", "3M_UL_avg"] + MONETARY_AVG_NAMES
             + DERIVED_NAMES + PASSTHROUGH_NAMES)
    kinds = {name: (CATEGORICAL if name == "T_Location" else NUMERIC) for name in names}
    return names, kinds


def monthly_average(values) -> float:
    """Mean over the window months; NaN as soon as any operand is missing."""
    if None in values:
        return float("nan")
    return sum(values) / len(values)  # a NaN operand makes the sum NaN


def derive(aggregates: dict) -> dict:
    """Difference features from already-computed aggregates.

    Missing operands (NaN) propagate into the result.
    """
    a2p = aggregates.get("AMT_2PAY_avg", float("nan"))
    price = aggregates.get("Price_Start", float("nan"))
    cur = aggregates.get("CURRENT_BILL_AMT_avg", float("nan"))
    last = aggregates.get("LAST_BILL_AMT_avg", float("nan"))
    return {
        "DIFF_AMT_2PAY_PRICE_START": a2p - price,
        "DIFF_CURRENT_LAST_BILL_AMT_avg": cur - last,
    }


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

class TableIndex:
    """Join indexes over one dataset, keyed by (id, month index).

    Pass one TableIndex in place of the dataset to several ``extract_*``
    calls to build the indexes once.
    """

    def __init__(self, dataset: TelcoDataset):
        self.by_billing: dict[str, list] = {}
        for s in dataset.subscribers:
            self.by_billing.setdefault(s.billing_id, []).append(s)
        self.billing = {(r.billing_id, r.month.index): r for r in dataset.billing}
        self.usage = {(r.billing_id, r.month.index): r for r in dataset.usage}
        self.requests = Counter((r.customer_id, Month.index_of(r.request_date))
                                for r in dataset.service_requests)
        observed = {m for _, m in self.billing} | {m for _, m in self.usage}
        self.coverage = (min(observed), max(observed)) if observed else None

    def check_covered(self, months, what: str):
        if self.coverage is None:
            raise ValueError(f"{what}: dataset has no billing/usage rows")
        lo, hi = self.coverage
        if months[0].index < lo or hi < months[-1].index:
            raise ValueError(
                f"{what}: months {months[0]}..{months[-1]} outside dataset coverage "
                f"{Month.from_index(lo)}..{Month.from_index(hi)}")


def _row_values(tables: TableIndex, billing_id: str, services, rep, months: list[int],
                names: list[str]) -> dict:
    """All feature values for one billing account over its window months
    (month indexes), the monthly ones under ``names``, four per month.

    `rep` is the service whose subscriber-level fields (price, contract,
    location, dates) represent the account.
    """
    customers = {s.customer_id for s in services}
    values: dict[str, object] = {}

    dl, ul = [], []
    for j, m in enumerate(months):
        u = tables.usage.get((billing_id, m))
        d, up, v = (u.download_mb, u.upload_mb, u.voice_minutes) if u else (0.0, 0.0, 0.0)
        dl.append(d), ul.append(up)
        sr = float(sum(tables.requests.get((c, m), 0) for c in customers))
        values.update(zip(names[4 * j:4 * j + 4], (d, up, v, sr)))

    values["3M_DL_avg"] = monthly_average(dl)
    values["3M_UL_avg"] = monthly_average(ul)

    bills = [tables.billing.get((billing_id, m)) for m in months]
    complete = all(b is not None for b in bills)
    for name, field in zip(MONETARY_AVG_NAMES, _MONETARY_FIELDS):
        values[name] = (monthly_average([getattr(b, field) for b in bills]) / 100.0
                        if complete else float("nan"))

    values["Contract_Period"] = float(rep.contract_period)
    values["HSBB_Area"] = float(rep.hsbb_area)
    values["T_Location"] = rep.t_location
    values["Price_Start"] = rep.price_start / 100.0
    values.update(derive(values))

    activation = Month.index_of(rep.activation_date)
    values["ACTIVATION_DATE_TENURE"] = float(months[-1] - activation)
    values["CUSTOMER_TENURE_DIFF"] = float(activation - Month.index_of(rep.customer_since))
    return values


def _build_matrix(rows: list[tuple[str, dict, int]], months_key) -> FeatureMatrix:
    names, kinds = feature_schema(months_key)
    columns = {name: np.array([r[1][name] for r in rows],
                              dtype=np.float64 if kinds[name] == NUMERIC else object)
               for name in names}
    return FeatureMatrix([r[0] for r in rows], names, kinds, columns,
                         np.array([r[2] for r in rows], dtype=np.int8))


def extract_churn(dataset: TelcoDataset | TableIndex, window: WindowSpec,
                  naming_months: tuple[Month, ...] | None = None) -> FeatureMatrix:
    """One row per billing account still active at the end of the feature
    window; label 1 iff any of its services terminates inside the label
    months. Accounts whose services all terminated before or during the
    feature window are excluded.

    Monthly columns are named by calendar month code. To apply one model
    across windows, pass the training window's months as `naming_months`
    when extracting a test matrix: columns then keep the training-time
    names while holding the test window's data, position for position.
    """
    window.validate()
    if window.task != "churn":
        raise ValueError("extract_churn requires a churn window")
    if naming_months is not None and len(naming_months) != 3:
        raise ValueError("naming_months must list exactly 3 months")
    tables = dataset if isinstance(dataset, TableIndex) else TableIndex(dataset)
    naming_months = naming_months or window.feature_months
    if not tables.by_billing:
        return _build_matrix([], naming_months)
    tables.check_covered(window.feature_months, "feature window")

    months = [m.index for m in window.feature_months]
    names = monthly_feature_names(naming_months)
    window_end = months[-1]
    label_set = {m.index for m in window.label_months}

    rows = []
    for billing_id in sorted(tables.by_billing):
        services = tables.by_billing[billing_id]
        active = [
            s for s in services
            if Month.index_of(s.activation_date) <= window_end
            and (s.termination_date is None or window_end < Month.index_of(s.termination_date))
        ]
        if not active:
            continue
        label = int(any(
            s.termination_date is not None and Month.index_of(s.termination_date) in label_set
            for s in services))
        rep = min(active, key=lambda s: (s.activation_date, s.service_id))
        rows.append((billing_id, _row_values(tables, billing_id, active, rep, months, names),
                     label))
    return _build_matrix(rows, naming_months)


def extract_winback(dataset: TelcoDataset | TableIndex, termination_range: tuple[Month, Month],
                    label_months) -> FeatureMatrix:
    """One row per billing account with a service termination inside
    termination_range; features come from the 3 months preceding that
    account's termination month, labels from comeback dates falling in
    label_months. An empty churner set yields an empty matrix."""
    lo, hi = termination_range
    if hi < lo:
        raise ValueError("empty termination_range")
    label_months = tuple(label_months)
    _require_consecutive(label_months, "label_months")
    tables = dataset if isinstance(dataset, TableIndex) else TableIndex(dataset)
    if not tables.by_billing:
        return _build_matrix([], None)
    tables.check_covered([lo.plus(-3), hi.plus(-1)], "win-back feature window")

    names = monthly_feature_names(None)
    label_set = {m.index for m in label_months}
    rows = []
    for billing_id in sorted(tables.by_billing):
        services = tables.by_billing[billing_id]
        churned = [
            s for s in services
            if s.termination_date is not None
            and lo.index <= Month.index_of(s.termination_date) <= hi.index
        ]
        if not churned:
            continue
        rep = min(churned, key=lambda s: (Month.index_of(s.termination_date), s.service_id))
        term = Month.index_of(rep.termination_date)
        months = [term - 3, term - 2, term - 1]
        if set(months) & label_set:
            raise ValueError(f"{billing_id}: feature months {Month.from_index(months[0])}.."
                             f"{Month.from_index(months[-1])} overlap label months")
        label = int(any(
            s.comeback_date is not None and Month.index_of(s.comeback_date) in label_set
            for s in churned))
        rows.append((billing_id, _row_values(tables, billing_id, churned, rep, months, names),
                     label))
    return _build_matrix(rows, None)


# ---------------------------------------------------------------------------
# flat-file round trip
# ---------------------------------------------------------------------------

def write_matrix(matrix: FeatureMatrix, path: str) -> None:
    """Flat CSV: billing_id, feature columns, optional trailing label."""
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


def read_matrix(path: str) -> FeatureMatrix:
    """Read a flat feature CSV; column kinds are inferred (a column is
    numeric iff every non-missing entry parses as a float)."""
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if not header or header[0] != "billing_id":
            raise ValueError(f"{path}:1: expected billing_id header column")
        has_label = header[-1] == "label"
        names = header[1:-1] if has_label else header[1:]
        raw_rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            raw_rows.append(row)

    billing_ids = [r[0] for r in raw_rows]
    labels = np.array([int(r[-1]) for r in raw_rows], dtype=np.int8) if has_label else None
    columns: dict[str, np.ndarray] = {}
    kinds: dict[str, str] = {}
    for j, name in enumerate(names, start=1):
        cells = [r[j] for r in raw_rows]
        try:
            columns[name] = np.array([float(c) if c != "" else np.nan for c in cells],
                                     dtype=np.float64)
            kinds[name] = NUMERIC
        except ValueError:
            kinds[name] = CATEGORICAL
            columns[name] = np.array([c if c != "" else None for c in cells], dtype=object)
    return FeatureMatrix(billing_ids, list(names), kinds, columns, labels)
