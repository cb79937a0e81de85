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

import math
import os
from dataclasses import dataclass

import numpy as np

from .data import TelcoDataset, _distinct, _TableReader, _write_csv
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

_NO_MONTH = np.iinfo(np.int64).max  # month index of an absent date: later than any month


def _month_indexes(dates) -> np.ndarray:
    return np.array([_NO_MONTH if d is None else Month.index_of(d) for d in dates],
                    dtype=np.int64)


class _Join:
    """Values of one table's rows found by an int key; of rows with the same
    key the last wins, as in a dict built in table order."""

    def __init__(self, keys: np.ndarray, rows: np.ndarray):
        order = np.argsort(keys, kind="stable")
        self.keys, self.rows = keys[order], rows[order]

    def gather(self, keys: np.ndarray, values: np.ndarray, fill) -> tuple[np.ndarray, np.ndarray]:
        """(found, ``values`` at each key's row, ``fill`` where none has it)."""
        at = np.searchsorted(self.keys, keys, side="right") - 1
        found = at >= 0
        found[found] = self.keys[at[found]] == keys[found]
        out = np.full(keys.shape, fill, dtype=values.dtype)
        out[found] = values[self.rows[at[found]]]
        return found, out


class TableIndex:
    """Array joins over one dataset, built once from its columns.

    Services (subscriber rows) keep table order; accounts are numbered by
    sorted billing ID. Billing and usage rows are found by (account, month)
    and service requests counted by (customer, month), over the months the
    billing and usage rows cover. Pass one TableIndex in place of the
    dataset to several ``extract_*`` calls to build the joins once.
    """

    def __init__(self, dataset: TelcoDataset):
        subs = dataset.subscribers
        self.accounts = sorted(set(subs.column("billing_id")))
        account_of = {b: i for i, b in enumerate(self.accounts)}
        customer_of: dict[str, int] = {}
        # per service (subscriber row), in table order
        self.account = np.array([account_of[b] for b in subs.column("billing_id")],
                                dtype=np.int64)
        self.customer = np.array([customer_of.setdefault(c, len(customer_of))
                                  for c in subs.column("customer_id")], dtype=np.int64)
        self.activation_day = np.array([d.toordinal() for d in subs.column("activation_date")],
                                       dtype=np.int64)
        self.activation, self.since, self.termination, self.comeback = (
            _month_indexes(subs.column(c)) for c in (
                "activation_date", "customer_since", "termination_date", "comeback_date"))
        self.n_customers = len(customer_of)
        services = subs.column("service_id")
        by_service_id = sorted(range(len(services)), key=services.__getitem__)
        self.service_rank = np.empty(len(services), dtype=np.int64)
        self.service_rank[by_service_id] = np.arange(len(services))  # ties keep table order
        self.contract = subs.column("contract_period").astype(np.float64)
        self.hsbb = subs.column("hsbb_area").astype(np.float64)
        self.price = subs.column("price_start") / 100.0
        self.location = subs.column("t_location")

        months = np.concatenate([dataset.billing.column("month"), dataset.usage.column("month")])
        self.coverage = (int(months.min()), int(months.max())) if len(months) else None
        lo, hi = self.coverage or (0, -1)
        self.stride = hi - lo + 1

        def join(owners, owner_of: dict, month: np.ndarray) -> _Join:
            """The rows with a known owner and a covered month, by (owner, month)."""
            owner = np.array([owner_of.get(v, -1) for v in owners], dtype=np.int64)
            rows = np.flatnonzero((owner >= 0) & (lo <= month) & (month <= hi))
            return _Join(owner[rows] * self.stride + (month[rows] - lo), rows)

        self.billing, self.usage = dataset.billing, dataset.usage
        self._billing, self._usage = (join(t.column("billing_id"), account_of, t.column("month"))
                                      for t in (self.billing, self.usage))
        requests = dataset.service_requests
        keys, self._request_counts = np.unique(join(
            requests.column("customer_id"), customer_of,
            _month_indexes(requests.column("request_date"))).keys, return_counts=True)
        self._requests = _Join(keys, np.arange(len(keys)))

    def check_covered(self, months, what: str):
        if self.coverage is None:
            raise ValueError(f"{what}: dataset has no billing/usage rows")
        lo, hi = self.coverage
        if months[0].index < lo or hi < months[-1].index:
            raise ValueError(
                f"{what}: months {months[0]}..{months[-1]} outside dataset coverage "
                f"{Month.from_index(lo)}..{Month.from_index(hi)}")

    def representatives(self, chosen: np.ndarray, key: np.ndarray) -> np.ndarray:
        """For each account with a chosen service, ascending: the chosen
        service with the least (key, service_id), the first in table order
        on a tie."""
        order = np.lexsort((self.service_rank, key, self.account))
        order = order[chosen[order]]
        account = self.account[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = account[1:] != account[:-1]
        return order[first]

    def any_by_account(self, flags: np.ndarray) -> np.ndarray:
        """Per account: does any of its services have its flag set?"""
        return np.bincount(self.account[flags], minlength=len(self.accounts)) > 0

    def features(self, chosen: np.ndarray, reps: np.ndarray, months: np.ndarray,
                 names: list[str]) -> dict[str, np.ndarray]:
        """Feature columns for the accounts of ``reps`` (their representative
        services) over window ``months`` (a row of 3 month indexes each),
        the monthly ones under ``names``; request counts cover the
        customers of the account's ``chosen`` services."""
        account = self.account[reps]
        keys = account[:, None] * self.stride + (months - self.coverage[0])
        values: dict[str, np.ndarray] = {}

        usage = {c: self._usage.gather(keys, self.usage.column(c), 0.0)[1]
                 for c in ("download_mb", "upload_mb", "voice_minutes")}
        # each (account, customer) pair of the chosen services counts once
        pairs = np.unique(self.account[chosen] * self.n_customers + self.customer[chosen])
        row_of = np.full(len(self.accounts), -1)
        row_of[account] = np.arange(len(account))
        pair_row = row_of[pairs // self.n_customers]
        _, counts = self._requests.gather(
            (pairs % self.n_customers)[:, None] * self.stride
            + (months[pair_row] - self.coverage[0]), self._request_counts, 0)
        requests = np.zeros(months.shape, dtype=np.int64)
        np.add.at(requests, pair_row, counts)
        for j in range(3):
            values.update(zip(names[4 * j:4 * j + 4], (
                usage["download_mb"][:, j], usage["upload_mb"][:, j],
                usage["voice_minutes"][:, j], requests[:, j].astype(np.float64))))
        for name, column in (("3M_DL_avg", "download_mb"), ("3M_UL_avg", "upload_mb")):
            # the built-in sum, as monthly_average: from Python 3.12 it compensates
            values[name] = np.array([sum(r) for r in usage[column].tolist()]) / 3

        for name, field in zip(MONETARY_AVG_NAMES, _MONETARY_FIELDS):
            found, cents = self._billing.gather(keys, self.billing.column(field), 0)
            values[name] = np.where(found.all(axis=1), _mean_cents(cents), np.nan) / 100.0

        values["Contract_Period"] = self.contract[reps]
        values["HSBB_Area"] = self.hsbb[reps]
        values["T_Location"] = np.array([self.location[i] for i in reps.tolist()], dtype=object)
        values["Price_Start"] = self.price[reps]
        values.update(derive(values))
        values["ACTIVATION_DATE_TENURE"] = (months[:, -1] - self.activation[reps]).astype(float)
        values["CUSTOMER_TENURE_DIFF"] = (self.activation[reps] - self.since[reps]).astype(float)
        return values


def _mean_cents(cents: np.ndarray) -> np.ndarray:
    """Row means of int cents, each the correctly rounded quotient of the
    exact sum, as Python's int division gives."""
    exact = ((-2 ** 50 < cents) & (cents < 2 ** 50)).all(axis=1)  # the sum is exact in float64
    mean = cents.sum(axis=1, where=exact[:, None]) / cents.shape[1]
    for i in np.flatnonzero(~exact).tolist():
        mean[i] = sum(cents[i].tolist()) / cents.shape[1]
    return mean


def _build_matrix(tables: TableIndex, chosen, reps, months, labels, months_key) -> FeatureMatrix:
    names, kinds = feature_schema(months_key)
    values = tables.features(chosen, reps, months, monthly_feature_names(months_key))
    return FeatureMatrix([tables.accounts[i] for i in tables.account[reps].tolist()], names,
                         kinds, {name: values[name] for name in names},
                         labels.astype(np.int8))


def _empty_matrix(months_key) -> FeatureMatrix:
    names, kinds = feature_schema(months_key)
    return FeatureMatrix([], names, kinds, {
        name: np.array([], dtype=np.float64 if kinds[name] == NUMERIC else object)
        for name in names}, np.array([], dtype=np.int8))


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
    if not tables.accounts:
        return _empty_matrix(naming_months)
    tables.check_covered(window.feature_months, "feature window")

    months = np.array([m.index for m in window.feature_months])
    window_end = months[-1]
    active = (tables.activation <= window_end) & (window_end < tables.termination)
    reps = tables.representatives(active, tables.activation_day)
    labeled = tables.any_by_account(
        np.isin(tables.termination, [m.index for m in window.label_months]))
    return _build_matrix(tables, active, reps, np.tile(months, (len(reps), 1)),
                         labeled[tables.account[reps]], naming_months)


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
    if not tables.accounts:
        return _empty_matrix(None)
    tables.check_covered([lo.plus(-3), hi.plus(-1)], "win-back feature window")

    label_set = [m.index for m in label_months]
    churned = (lo.index <= tables.termination) & (tables.termination <= hi.index)
    reps = tables.representatives(churned, tables.termination)
    months = tables.termination[reps][:, None] + np.arange(-3, 0)
    overlap = np.isin(months, label_set).any(axis=1)
    if overlap.any():
        i = int(overlap.argmax())
        raise ValueError(f"{tables.accounts[tables.account[reps[i]]]}: feature months "
                         f"{Month.from_index(int(months[i, 0]))}.."
                         f"{Month.from_index(int(months[i, -1]))} overlap label months")
    labeled = tables.any_by_account(churned & np.isin(tables.comeback, label_set))
    return _build_matrix(tables, churned, reps, months, labeled[tables.account[reps]], None)


# ---------------------------------------------------------------------------
# flat-file round trip
# ---------------------------------------------------------------------------

def write_matrix(matrix: FeatureMatrix, path: str) -> None:
    """Flat CSV: billing_id, feature columns, optional trailing label; and
    next to it, ``path + ".kinds"``: a CSV of each feature's name and kind.

    Numeric cells are written as ``repr`` writes the float, missing ones
    empty; categorical cells as their text, missing ones empty. Fields are
    quoted as ``csv.writer`` quotes them, and the bytes are deterministic
    (``data._write_csv``).
    """
    columns = [_distinct(matrix.billing_ids)]
    for name in matrix.feature_names:
        values = matrix.columns[name]
        columns.append(np.asarray(values, dtype=np.float64) if matrix.kinds[name] == NUMERIC
                       else _distinct(values, lambda v: "" if is_missing(v) else str(v)))
    header = ["billing_id", *matrix.feature_names]
    if matrix.labels is not None:
        header.append("label")
        columns.append(np.asarray(matrix.labels))
    _write_csv(path, header, columns, np.arange(matrix.n_rows), nan="")
    kinds = [matrix.kinds[name] for name in matrix.feature_names]
    _write_csv(path + ".kinds", ["feature", "kind"],
               [_distinct(matrix.feature_names), _distinct(kinds)], np.arange(len(kinds)))


def _declared_kinds(path: str, names: list[str]) -> dict[str, str] | None:
    """The feature kinds of ``path``'s ``.kinds`` file, or None if it has none."""
    kinds_path = path + ".kinds"
    if not os.path.exists(kinds_path):
        return None
    r = _TableReader(kinds_path)
    if r.names != ["feature", "kind"]:
        raise ValueError(f"{kinds_path}:1: expected the header feature,kind")
    features, kinds = r.strings("feature"), r.strings("kind")
    r.check([k in (NUMERIC, CATEGORICAL) for k in kinds],
            lambda i: f"malformed line {[features[i], kinds[i]]!r}")
    if r.error is not None:
        raise r.error
    if features != names:
        raise ValueError(f"{kinds_path}: its feature names differ from the header of {path}")
    return dict(zip(features, kinds))


def read_matrix(path: str) -> FeatureMatrix:
    """Read a flat feature CSV. Each column is converted by the kind its
    ``.kinds`` file declares; a CSV without one has its kinds inferred (a
    column is numeric iff every non-missing entry parses as a float). A
    ``label`` column holds 0 or 1. The first defective line fails, as in a
    table (``data._TableReader``), but field-count and label defects come
    before any of the ``.kinds`` file's and those before numeric cells'."""
    r = _TableReader(path)
    header = r.names
    if not header or header[0] != "billing_id":
        raise ValueError(f"{path}:1: expected billing_id header column")
    has_label = header[-1] == "label"
    names = header[1:len(header) - has_label]
    labels = None
    if has_label:
        texts, codes = r.distinct(len(header) - 1)
        r.check(np.array([t in ("0", "1") for t in texts], dtype=bool)[codes],
                lambda i: f"malformed label {texts[codes[i]]!r}")
        labels = np.array([t == "1" for t in texts], dtype=np.int8)[codes]
    if r.error is not None:
        raise r.error
    declared = _declared_kinds(path, names) or {}  # none: kinds are inferred
    columns = {}
    for j, name in enumerate(names, start=1):
        column = failed = None
        if declared.get(name) != CATEGORICAL:
            column, failed = r.convert(j, float, missing=np.nan)
        if failed is not None and declared:  # checked only above an earlier column's defect
            r.fail(failed[0], f"malformed {name} {failed[1]!r}")
        elif column is None or failed is not None:
            texts, codes = r.distinct(j)
            column = np.array([t or None for t in texts], dtype=object)[codes]
        columns[name] = column
    if r.error is not None:
        raise r.error
    kinds = {name: NUMERIC if columns[name].dtype.kind == "f" else CATEGORICAL for name in names}
    return FeatureMatrix(r.strings("billing_id"), names, kinds, columns, labels)
