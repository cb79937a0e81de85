"""The array joins of ``extract_churn``/``extract_winback`` against a
per-account reference loop over records.

The reference looks every value up in dicts keyed by (id, month), one
account at a time, with Python ints and floats, so the extraction must
match it exactly, written file included. Random datasets cover what a
generator never makes: accounts of several customers, repeated service
ids, repeated (billing_id, month) rows (the last wins), rows of unknown
accounts and customers, months outside the coverage, -0.0 volumes, cents
beyond 2**53 and shuffled tables. Unlike the golden digests, this holds on
every numpy version.
"""

import datetime as dt
import random
from collections import Counter

import numpy as np
import pytest

from churnforge import GeneratorConfig, TelcoDataset, generate, standard_windows
from churnforge.data import (BillingMonthRecord, ServiceRequestRecord, SubscriberRecord,
                             UsageMonthRecord)
from churnforge.features import (MONETARY_AVG_NAMES, WindowSpec, derive, extract_churn,
                                 extract_winback, feature_schema, monthly_feature_names,
                                 write_matrix)
from churnforge.months import Month, month_range

_FIELDS = ["amt_2pay", "outstanding", "payment", "last_bill_amt", "current_bill_amt",
           "credit_adj"]


def monthly_average(values) -> float:
    """Mean over the window months, with the built-in ``sum``."""
    return sum(values) / len(values)


def _reference_rows(ds, pick, names):
    """(billing_id, values, label) per account that ``pick`` takes, one
    account at a time."""
    by_billing = {}
    for s in ds.subscribers:
        by_billing.setdefault(s.billing_id, []).append(s)
    usage = {(r.billing_id, r.month.index): r for r in ds.usage}
    billing = {(r.billing_id, r.month.index): r for r in ds.billing}
    requests = Counter((r.customer_id, Month.index_of(r.request_date))
                       for r in ds.service_requests)
    rows = []
    for billing_id in sorted(by_billing):
        picked = pick(by_billing[billing_id])
        if picked is None:
            continue
        services, rep, months, label = picked
        customers = {s.customer_id for s in services}
        values, dl, ul = {}, [], []
        for j, m in enumerate(months):
            u = usage.get((billing_id, m))
            d, up, v = (u.download_mb, u.upload_mb, u.voice_minutes) if u else (0.0, 0.0, 0.0)
            dl.append(d), ul.append(up)
            sr = float(sum(requests.get((c, m), 0) for c in customers))
            values.update(zip(names[4 * j:4 * j + 4], (d, up, v, sr)))
        values["3M_DL_avg"] = monthly_average(dl)
        values["3M_UL_avg"] = monthly_average(ul)
        bills = [billing.get((billing_id, m)) for m in months]
        for name, field in zip(MONETARY_AVG_NAMES, _FIELDS):
            values[name] = (monthly_average([getattr(b, field) for b in bills]) / 100.0
                            if None not in bills else float("nan"))
        values["Contract_Period"] = float(rep.contract_period)
        values["HSBB_Area"] = float(rep.hsbb_area)
        values["T_Location"] = rep.t_location
        values["Price_Start"] = rep.price_start / 100.0
        values.update(derive(values))
        activation = Month.index_of(rep.activation_date)
        values["ACTIVATION_DATE_TENURE"] = float(months[-1] - activation)
        values["CUSTOMER_TENURE_DIFF"] = float(activation - Month.index_of(rep.customer_since))
        rows.append((billing_id, values, label))
    return rows


def _churn_pick(window):
    months = [m.index for m in window.feature_months]
    end, labels = months[-1], {m.index for m in window.label_months}

    def pick(services):
        active = [s for s in services if Month.index_of(s.activation_date) <= end and (
            s.termination_date is None or end < Month.index_of(s.termination_date))]
        if not active:
            return None
        rep = min(active, key=lambda s: (s.activation_date, s.service_id))
        label = int(any(s.termination_date is not None
                        and Month.index_of(s.termination_date) in labels for s in services))
        return active, rep, months, label
    return pick


def _winback_pick(lo, hi, label_months):
    labels = {m.index for m in label_months}

    def pick(services):
        churned = [s for s in services if s.termination_date is not None
                   and lo.index <= Month.index_of(s.termination_date) <= hi.index]
        if not churned:
            return None
        rep = min(churned, key=lambda s: (Month.index_of(s.termination_date), s.service_id))
        term = Month.index_of(rep.termination_date)
        label = int(any(s.comeback_date is not None
                        and Month.index_of(s.comeback_date) in labels for s in churned))
        return churned, rep, [term - 3, term - 2, term - 1], label
    return pick


def _same_file(matrix, rows, months_key, tmp_path):
    names, kinds = feature_schema(months_key)
    assert matrix.billing_ids == [r[0] for r in rows]
    assert matrix.labels.tolist() == [r[2] for r in rows]
    for name in names:
        expected = [r[1][name] for r in rows]
        if kinds[name] == "numeric":
            # bit for bit, -0.0 and NaN included
            assert (np.array(expected, dtype=np.float64).tobytes()
                    == matrix.columns[name].tobytes()), name
        else:
            assert list(matrix.columns[name]) == expected, name
    write_matrix(matrix, str(tmp_path / "m.csv"))  # and it writes


def _random_dataset(seed):
    r = random.Random(seed)

    def date(y0=2009, y1=2012):
        return dt.date(r.randint(y0, y1), r.randint(1, 12), r.randint(1, 28))

    def often(pool, y0, y1):  # ties between an account's services are common
        return r.choice(pool) if r.random() < 0.5 else date(y0, y1)

    customers = [f"C{i}" for i in range(r.randint(1, 30))]
    activations = [date() for _ in range(4)]
    terminations = [date(2010, 2012) for _ in range(4)]
    n_accounts = r.randint(1, 40)
    subscribers = [
        SubscriberRecord(r.choice(customers), f"B{a:03d}", f"S{r.randint(0, 60)}", "consumer",
                         "voice_broadband", often(activations, 2009, 2012), date(2005, 2010),
                         r.choice([0, 12, 24]), r.randint(0, 20000), r.choice(["AJP", "TLS"]),
                         r.randint(0, 1),
                         often(terminations, 2010, 2012) if r.random() < 0.5 else None,
                         date(2010, 2012) if r.random() < 0.3 else None)
        for a in range(n_accounts) for _ in range(r.randint(1, 3))]
    months = month_range(Month(2010, 1), Month(2012, 8))
    billing, usage = [], []
    for _ in range(r.randint(0, 600)):
        billing_id, month = f"B{r.randint(0, n_accounts + 3):03d}", r.choice(months)
        cents = [r.choice([2 ** 52 + 1, -2 ** 53 + 7, 2 ** 62]) if r.random() < 0.02
                 else r.randint(-5000, 90000) for _ in range(6)]
        billing.append(BillingMonthRecord(billing_id, month, *cents))
        if r.random() < 0.9:
            usage.append(UsageMonthRecord(billing_id, month,
                                          r.choice([0.0, -0.0, r.random() * 1e4]),
                                          r.random() * 10, r.random() * 300, r.randint(0, 50)))
    requests = [ServiceRequestRecord(r.choice(customers + ["C_unknown"]), date(2009, 2013),
                                     r.choice(["TECH", "INFO"])) for _ in range(r.randint(0, 200))]
    for rows in (subscribers, billing, usage, requests):
        r.shuffle(rows)
    return TelcoDataset(subscribers, billing, usage, requests)


def _check(ds, seed, tmp_path):
    r = random.Random(seed)
    windows = [standard_windows("churn", "train"), standard_windows("churn", "test")]
    for _ in range(2):
        start = Month(2010, 1).plus(r.randint(0, 26))
        windows.append(WindowSpec("churn", tuple(month_range(start.plus(3), start.plus(5))),
                                  feature_months=tuple(month_range(start, start.plus(2)))))
    for window in windows:
        try:
            matrix = extract_churn(ds, window)
        except ValueError as exc:
            assert "coverage" in str(exc)
            continue
        names = monthly_feature_names(window.feature_months)
        _same_file(matrix, _reference_rows(ds, _churn_pick(window), names),
                   window.feature_months, tmp_path)
    for _ in range(3):
        lo = Month(2010, 1).plus(r.randint(3, 20))
        hi = lo.plus(r.randint(0, 8))
        labels = tuple(month_range(hi.plus(1), hi.plus(r.randint(1, 3))))
        try:
            matrix = extract_winback(ds, (lo, hi), labels)
        except ValueError as exc:
            assert "coverage" in str(exc)
            continue
        _same_file(matrix, _reference_rows(ds, _winback_pick(lo, hi, labels),
                                           monthly_feature_names(None)), None, tmp_path)


@pytest.mark.parametrize("seed", range(40))
def test_random_tables_extract_like_the_reference_loop(seed, tmp_path):
    _check(_random_dataset(seed), seed, tmp_path)


def test_generated_tables_extract_like_the_reference_loop(tmp_path):
    ds = generate(GeneratorConfig(seed=4, n_consumers=600, n_smes=60, churn_rate=0.25,
                                  winback_rate=0.3))
    for role in ("train", "test"):
        window = standard_windows("churn", role)
        _same_file(extract_churn(ds, window),
                   _reference_rows(ds, _churn_pick(window),
                                   monthly_feature_names(window.feature_months)),
                   window.feature_months, tmp_path)
        window = standard_windows("winback", role)
        lo, hi = window.termination_range
        _same_file(extract_winback(ds, (lo, hi), window.label_months),
                   _reference_rows(ds, _winback_pick(lo, hi, window.label_months),
                                   monthly_feature_names(None)), None, tmp_path)
