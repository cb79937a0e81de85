import csv
import datetime as dt
import math
import os
import random
import re
from pathlib import Path

import numpy as np
import pytest

from churnforge import (GeneratorConfig, TelcoDataset, extract_churn, extract_winback,
                        generate, read_matrix, standard_windows, write_matrix)
from churnforge.data import BillingMonthRecord, SubscriberRecord, UsageMonthRecord
from churnforge.features import CATEGORICAL, NUMERIC, FeatureMatrix, WindowSpec, derive
from churnforge.months import Month, month_range


def _subscriber(billing_id, termination=None, comeback=None, activation=dt.date(2010, 3, 5),
                segment="consumer", price=6900, service_id=None):
    return SubscriberRecord(
        customer_id=f"C_{billing_id}", billing_id=billing_id,
        service_id=service_id or f"SV_{billing_id}", segment=segment,
        service_type="voice_broadband", activation_date=activation,
        customer_since=activation.replace(year=activation.year - 1),
        contract_period=24, price_start=price, t_location="AJP", hsbb_area=1,
        termination_date=termination, comeback_date=comeback)


def _fill_months(ds, billing_id, months, dl=100.0):
    for i, m in enumerate(months):
        ds.usage.append(UsageMonthRecord(billing_id, m, dl + i, 10.0 + i, 50.0, 10))
        ds.billing.append(BillingMonthRecord(billing_id, m, 5000, 4000, 6000, 1000, 5500, -100))


def _toy_dataset():
    months = month_range(Month(2011, 1), Month(2011, 12))
    ds = TelcoDataset()
    ds.subscribers.append(_subscriber("B_stay"))
    _fill_months(ds, "B_stay", months)
    ds.subscribers.append(_subscriber("B_churn_dec", termination=dt.date(2011, 12, 9)))
    _fill_months(ds, "B_churn_dec", months)
    ds.subscribers.append(_subscriber("B_churn_sep", termination=dt.date(2011, 9, 20)))
    _fill_months(ds, "B_churn_sep", month_range(Month(2011, 1), Month(2011, 9)))
    ds.subscribers.append(_subscriber("B_churn_feb", termination=dt.date(2012, 2, 1)))
    _fill_months(ds, "B_churn_feb", months)
    return ds


def test_standard_windows_canonical_values():
    w = standard_windows("churn", "train")
    assert list(w.feature_months) == [Month(2011, 8), Month(2011, 9), Month(2011, 10)]
    assert list(w.label_months) == [Month(2011, 11), Month(2011, 12), Month(2012, 1)]
    w = standard_windows("churn", "test")
    assert list(w.feature_months) == [Month(2011, 10), Month(2011, 11), Month(2011, 12)]
    assert list(w.label_months) == [Month(2012, 1), Month(2012, 2), Month(2012, 3)]
    w = standard_windows("winback", "train")
    assert w.termination_range == (Month(2011, 4), Month(2011, 10))
    assert list(w.label_months) == [Month(2011, 11), Month(2011, 12), Month(2012, 1)]
    w = standard_windows("winback", "test")
    assert w.termination_range == (Month(2011, 6), Month(2011, 12))
    with pytest.raises(ValueError):
        standard_windows("churn", "validate")


def test_window_validation():
    with pytest.raises(ValueError, match="consecutive"):
        WindowSpec("churn", (Month(2011, 11),),
                   feature_months=(Month(2011, 8), Month(2011, 10), Month(2011, 11))).validate()
    with pytest.raises(ValueError, match="precede"):
        WindowSpec("churn", (Month(2011, 10),),
                   feature_months=tuple(month_range(Month(2011, 8), Month(2011, 10)))).validate()
    with pytest.raises(ValueError, match="exactly 3"):
        WindowSpec("churn", (Month(2011, 11),),
                   feature_months=(Month(2011, 9), Month(2011, 10))).validate()


def test_churn_labels_and_exclusions():
    ds = _toy_dataset()
    m = extract_churn(ds, standard_windows("churn", "train"))
    by_id = dict(zip(m.billing_ids, m.labels))
    assert by_id["B_churn_dec"] == 1          # terminates inside the label window
    assert by_id["B_stay"] == 0               # never terminates
    assert "B_churn_sep" not in by_id         # terminated during the feature window
    assert by_id["B_churn_feb"] == 0          # terminates after the label window


def test_churn_exclusion_matches_brute_force_filter():
    ds = generate(GeneratorConfig(seed=3, n_consumers=500, n_smes=50, churn_rate=0.2))
    w = standard_windows("churn", "train")
    m = extract_churn(ds, w)
    end = w.feature_months[-1]
    label_set = set(w.label_months)
    # independent row filter straight off the subscriber table
    expected = {}
    for s in ds.subscribers:
        active = (Month.of(s.activation_date) <= end
                  and (s.termination_date is None or end < Month.of(s.termination_date)))
        if active:
            expected.setdefault(s.billing_id, 0)
    for s in ds.subscribers:
        if s.billing_id in expected and s.termination_date is not None \
                and Month.of(s.termination_date) in label_set:
            expected[s.billing_id] = 1
    assert dict(zip(m.billing_ids, (int(v) for v in m.labels))) == expected
    assert m.billing_ids == sorted(expected)


def test_churn_aggregates_match_brute_force_join(planted_dataset):
    ds = planted_dataset
    w = standard_windows("churn", "train")
    m = extract_churn(ds, w)
    usage = {(r.billing_id, r.month): r for r in ds.usage}
    billing = {(r.billing_id, r.month): r for r in ds.billing}
    rng = random.Random(0)
    for i in rng.sample(range(m.n_rows), 60):
        b = m.billing_ids[i]
        dls = [usage[(b, mm)].download_mb if (b, mm) in usage else 0.0
               for mm in w.feature_months]
        assert m.columns["3M_DL_avg"][i] == pytest.approx(sum(dls) / 3, abs=1e-12)
        assert m.columns["DL1109"][i] == dls[1]
        bills = [billing.get((b, mm)) for mm in w.feature_months]
        if any(x is None for x in bills):
            assert math.isnan(m.columns["OUTSTANDING_avg"][i])
        else:
            expect = sum(x.outstanding for x in bills) / 3 / 100.0
            assert m.columns["OUTSTANDING_avg"][i] == pytest.approx(expect, abs=1e-12)


def test_service_request_counts_attributed_via_customer(planted_dataset):
    ds = planted_dataset
    w = standard_windows("churn", "train")
    m = extract_churn(ds, w)
    target_month = w.feature_months[2]
    owners = {}
    for s in ds.subscribers:
        owners.setdefault(s.billing_id, set()).add(s.customer_id)
    counts = {}
    for r in ds.service_requests:
        if Month.of(r.request_date) == target_month:
            counts[r.customer_id] = counts.get(r.customer_id, 0) + 1
    for i, b in enumerate(m.billing_ids):
        expected = sum(counts.get(c, 0) for c in owners[b])
        assert m.columns["SR_COUNT1110"][i] == expected


def test_missing_window_months_impute_zero_usage_and_nan_money():
    ds = _toy_dataset()
    # activates mid-window: September
    ds.subscribers.append(_subscriber("B_new", activation=dt.date(2011, 9, 12)))
    _fill_months(ds, "B_new", month_range(Month(2011, 9), Month(2011, 12)), dl=500.0)
    m = extract_churn(ds, standard_windows("churn", "train"))
    i = m.billing_ids.index("B_new")
    assert m.columns["DL1108"][i] == 0.0
    assert m.columns["DL1109"][i] == 500.0
    assert math.isnan(m.columns["OUTSTANDING_avg"][i])
    assert math.isnan(m.columns["DIFF_AMT_2PAY_PRICE_START"][i])
    # usage average still defined: absent months count as zero volume
    assert m.columns["3M_DL_avg"][i] == pytest.approx((0.0 + 500.0 + 501.0) / 3)


def test_derive_arithmetic():
    d = derive({"AMT_2PAY_avg": 60.0, "Price_Start": 69.0,
                "CURRENT_BILL_AMT_avg": 50.0, "LAST_BILL_AMT_avg": 40.0})
    assert d["DIFF_CURRENT_LAST_BILL_AMT_avg"] == 10.0
    assert d["DIFF_AMT_2PAY_PRICE_START"] == pytest.approx(-9.0)
    assert math.isnan(derive({"Price_Start": 69.0})["DIFF_AMT_2PAY_PRICE_START"])


def test_tenure_features():
    ds = _toy_dataset()
    ds.subscribers.append(_subscriber("B_tenure", activation=dt.date(2010, 7, 21)))
    _fill_months(ds, "B_tenure", month_range(Month(2011, 1), Month(2011, 12)))
    m = extract_churn(ds, standard_windows("churn", "train"))
    i = m.billing_ids.index("B_tenure")
    assert m.columns["ACTIVATION_DATE_TENURE"][i] == 15.0  # 2010-07 .. 2011-10
    assert m.columns["CUSTOMER_TENURE_DIFF"][i] == 12.0


def test_matrix_invariant_under_table_order(planted_dataset):
    ds = planted_dataset
    w = standard_windows("churn", "train")
    baseline = extract_churn(ds, w)
    rng = random.Random(1)
    shuffled = TelcoDataset(
        subscribers=rng.sample(ds.subscribers, len(ds.subscribers)),
        billing=rng.sample(ds.billing, len(ds.billing)),
        usage=rng.sample(ds.usage, len(ds.usage)),
        service_requests=rng.sample(ds.service_requests, len(ds.service_requests)))
    assert extract_churn(shuffled, w) == baseline


def test_no_label_leakage(planted_dataset):
    """Deleting every label-window table row changes no feature value."""
    ds = planted_dataset
    w = standard_windows("churn", "train")
    label_set = set(w.label_months)
    censored = TelcoDataset(
        subscribers=ds.subscribers,
        billing=[r for r in ds.billing if r.month not in label_set],
        usage=[r for r in ds.usage if r.month not in label_set],
        service_requests=[r for r in ds.service_requests
                          if Month.of(r.request_date) not in label_set])
    a = extract_churn(ds, w)
    b = extract_churn(censored, w)
    assert a == b


def test_churn_window_outside_coverage_rejected(small_dataset):
    bad = WindowSpec("churn", (Month(2012, 6),),
                     feature_months=tuple(month_range(Month(2012, 3), Month(2012, 5))))
    with pytest.raises(ValueError, match="coverage"):
        extract_churn(small_dataset, bad)


def test_naming_months_align_test_matrix_to_train_schema(small_dataset):
    w_train = standard_windows("churn", "train")
    w_test = standard_windows("churn", "test")
    test_matrix = extract_churn(small_dataset, w_test, naming_months=w_train.feature_months)
    train_matrix = extract_churn(small_dataset, w_train)
    assert test_matrix.feature_names == train_matrix.feature_names


# ---------------------------------------------------------------------------
# win-back
# ---------------------------------------------------------------------------

def test_winback_window_months_precede_termination():
    ds = _toy_dataset()
    ds.subscribers.append(_subscriber("B_june", termination=dt.date(2011, 6, 15),
                                      comeback=dt.date(2011, 12, 2)))
    _fill_months(ds, "B_june", month_range(Month(2011, 1), Month(2011, 6)), dl=700.0)
    m = extract_winback(ds, (Month(2011, 4), Month(2011, 10)),
                        month_range(Month(2011, 11), Month(2012, 1)))
    i = m.billing_ids.index("B_june")
    # features must come from March..May
    assert m.columns["DL_M1"][i] == 702.0  # March = third filled month (700 + 2)
    assert m.columns["DL_M3"][i] == 704.0  # May
    assert m.labels[i] == 1  # comeback in December


def test_winback_labels_and_empty_set():
    ds = _toy_dataset()
    m = extract_winback(ds, (Month(2011, 4), Month(2011, 10)),
                        month_range(Month(2011, 11), Month(2012, 1)))
    # only B_churn_sep terminated in range, and it never came back
    assert m.billing_ids == ["B_churn_sep"]
    assert list(m.labels) == [0]
    empty = extract_winback(ds, (Month(2011, 4), Month(2011, 6)),
                            month_range(Month(2011, 11), Month(2012, 1)))
    assert empty.n_rows == 0


def test_winback_per_subscriber_windows_match_brute_force(planted_dataset):
    ds = planted_dataset
    rng_range = (Month(2011, 4), Month(2011, 10))
    m = extract_winback(ds, rng_range, month_range(Month(2011, 11), Month(2012, 1)))
    usage = {(r.billing_id, r.month): r for r in ds.usage}
    terminations = {}
    for s in ds.subscribers:
        if s.termination_date is None:
            continue
        tm = Month.of(s.termination_date)
        if rng_range[0] <= tm <= rng_range[1]:
            cur = terminations.get(s.billing_id)
            if cur is None or (tm, s.service_id) < cur:
                terminations[s.billing_id] = (tm, s.service_id)
    assert set(m.billing_ids) == set(terminations)
    for i, b in enumerate(m.billing_ids):
        tm = terminations[b][0]
        months = [tm.plus(-3), tm.plus(-2), tm.plus(-1)]
        for j, mm in enumerate(months, start=1):
            u = usage.get((b, mm))
            assert m.columns[f"DL_M{j}"][i] == (u.download_mb if u else 0.0)


def test_winback_train_and_test_windows_disjoint_per_subscriber(planted_dataset):
    """Per-subscriber windows are fully determined by the termination month
    in both roles, so the same churner gets the same window; test-role rows
    for later terminations use strictly later windows."""
    ds = planted_dataset
    train = extract_winback(ds, (Month(2011, 4), Month(2011, 10)),
                            month_range(Month(2011, 11), Month(2012, 1)))
    test = extract_winback(ds, (Month(2011, 6), Month(2011, 12)),
                           month_range(Month(2012, 1), Month(2012, 3)))
    assert train.n_rows > 0 and test.n_rows > 0
    # brute-force window recomputation for the test role
    terminations = {}
    for s in ds.subscribers:
        if s.termination_date is not None:
            tm = Month.of(s.termination_date)
            if Month(2011, 6) <= tm <= Month(2011, 12):
                cur = terminations.get(s.billing_id)
                if cur is None or (tm, s.service_id) < cur:
                    terminations[s.billing_id] = (tm, s.service_id)
    usage = {(r.billing_id, r.month): r for r in ds.usage}
    for i, b in enumerate(test.billing_ids):
        tm = terminations[b][0]
        u = usage.get((b, tm.plus(-1)))
        assert test.columns["DL_M3"][i] == (u.download_mb if u else 0.0)


def test_winback_overlapping_label_window_rejected():
    ds = _toy_dataset()
    ds.subscribers.append(_subscriber("B_dec", termination=dt.date(2011, 12, 3)))
    _fill_months(ds, "B_dec", month_range(Month(2011, 1), Month(2011, 12)))
    with pytest.raises(ValueError, match="overlap"):
        extract_winback(ds, (Month(2011, 4), Month(2011, 12)),
                        month_range(Month(2011, 11), Month(2012, 1)))


def test_winback_coverage_precondition(small_dataset):
    with pytest.raises(ValueError, match="coverage"):
        extract_winback(small_dataset, (Month(2011, 2), Month(2011, 10)),
                        month_range(Month(2011, 11), Month(2012, 1)))


# ---------------------------------------------------------------------------
# flat-file round trip
# ---------------------------------------------------------------------------

def test_matrix_csv_round_trip(planted_dataset, tmp_path):
    m = extract_churn(planted_dataset, standard_windows("churn", "train"))
    path = str(tmp_path / "train.csv")
    write_matrix(m, path)
    again = read_matrix(path)
    assert again == m
    # header is feature names plus label
    header = Path(path).read_text(encoding="utf-8").splitlines()[0].split(",")
    assert header[0] == "billing_id" and header[-1] == "label"
    assert header[1:-1] == m.feature_names


def test_matrix_csv_round_trip_unlabeled(tmp_path):
    from conftest import make_matrix
    m = make_matrix({"x": [1.0, None, 3.5], "loc": ["AJP", None, "TLS"]})
    path = str(tmp_path / "m.csv")
    write_matrix(m, path)
    again = read_matrix(path)
    assert again == m and again.labels is None


def test_matrix_kinds_survive_the_file(tmp_path):
    """A digit-coded categorical column reads back categorical, so a model
    scores the matrix read from file as it scores the one written."""
    import numpy as np
    from conftest import make_matrix

    from churnforge import train_adtree, train_bayes, train_cart, train_forest
    rng = random.Random(11)
    loc = [rng.choice(["7", "9", "12", "40"]) for _ in range(200)]
    x = [round(rng.uniform(0, 10), 2) for _ in range(200)]
    labels = [int(c in ("7", "40") if rng.random() < 0.85 else c == "9") for c in loc]
    m = make_matrix({"loc": loc, "x": x}, labels=labels, kinds={"loc": "categorical"})
    path = str(tmp_path / "m.csv")
    write_matrix(m, path)
    again = read_matrix(path)
    assert again.kinds == {"loc": "categorical", "x": "numeric"} and again == m
    for model in (train_cart(m, max_depth=4), train_adtree(m, n_boost_rounds=5),
                  train_bayes(m), train_forest(m, n_trees=5, seed=3)):
        np.testing.assert_array_equal(model.score_matrix(again), model.score_matrix(m))


def test_matrix_kinds_file_must_match_the_header(tmp_path):
    from conftest import make_matrix
    path = tmp_path / "m.csv"
    write_matrix(make_matrix({"x": [1.0, 2.0], "loc": ["7", "9"]},
                             kinds={"loc": "categorical"}), str(path))
    assert (tmp_path / "m.csv.kinds").read_text(encoding="utf-8") == (
        "feature,kind\nx,numeric\nloc,categorical\n")
    (tmp_path / "m.csv.kinds").write_text("feature,kind\nloc,categorical\nx,numeric\n",
                                          encoding="utf-8")
    with pytest.raises(ValueError, match=r"^\S*m\.csv\.kinds: its feature names differ from "
                                         r"the header of \S*m\.csv$"):
        read_matrix(str(path))
    (tmp_path / "m.csv.kinds").write_text("feature,kind\nx,text\nloc,categorical\n",
                                          encoding="utf-8")
    with pytest.raises(ValueError, match=r"m\.csv\.kinds:2: malformed line \['x', 'text'\]$"):
        read_matrix(str(path))


def test_matrix_declared_numeric_column_must_parse(tmp_path):
    from conftest import make_matrix
    path = tmp_path / "m.csv"
    write_matrix(make_matrix({"x": [1.0, 2.0, 3.0]}), str(path))
    path.write_text("billing_id,x\nB1,1.0\nB2,\nB3,abc\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"m\.csv:4: malformed x 'abc'$"):
        read_matrix(str(path))
    (tmp_path / "m.csv.kinds").unlink()  # without the kinds file, x is inferred categorical
    assert read_matrix(str(path)).kinds == {"x": "categorical"}


@pytest.mark.parametrize("label", ["x", "2"])
def test_matrix_label_must_be_0_or_1(tmp_path, label):
    path = tmp_path / "m.csv"
    path.write_text(f"billing_id,x,label\nB1,1.0,0\nB2,2.0,{label}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"m\.csv:3: malformed label '{label}'$"):
        read_matrix(str(path))


@pytest.mark.parametrize("lines,message", [
    ("B1,1.0,xyz\nB2,abc,2.0\n", "m.csv:2: malformed y 'xyz'"),
    ("B1,abc,2.0\nB2,1.0,xyz\n", "m.csv:2: malformed x 'abc'"),
])
def test_matrix_malformed_numeric_cell_is_named_by_its_line(tmp_path, lines, message):
    """Of two malformed numeric cells, the one on the earlier line is named,
    whatever the order of their columns."""
    from conftest import make_matrix
    path = tmp_path / "m.csv"
    write_matrix(make_matrix({"x": [1.0, 2.0], "y": [1.0, 2.0]}), str(path))
    path.write_text("billing_id,x,y\n" + lines, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        read_matrix(str(path))


def test_matrix_cell_of_many_points_is_not_a_float(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("billing_id,x\nB1,1.0\nB2,1.2.3.4.5.6.7\n", encoding="utf-8")
    assert read_matrix(str(path)).kinds == {"x": "categorical"}
    (tmp_path / "m.csv.kinds").write_text("feature,kind\nx,numeric\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"m\.csv:3: malformed x '1\.2\.3\.4\.5\.6\.7'$"):
        read_matrix(str(path))


def test_matrix_byte_that_is_not_utf8_names_its_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(b"billing_id,loc\nB1,AJP\nB2,\xff\n")
    with pytest.raises(ValueError, match=r"m\.csv:3: byte 0xff is not UTF-8 text$"):
        read_matrix(str(path))


def test_matrix_field_over_the_csv_limit_names_its_line(tmp_path):
    limit = csv.field_size_limit()
    path = tmp_path / "m.csv"
    path.write_text(f"billing_id,loc\nB1,AJP\nB2,{'x' * (limit + 1)}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"m\.csv:3: field larger than field limit \({limit}\)$"):
        read_matrix(str(path))


@pytest.mark.parametrize("line,message", [
    (b"x,\xffnumeric", "byte 0xff is not UTF-8 text"),
    (b"x,numeric,1", "expected 2 fields, got 3"),
])
def test_matrix_kinds_file_defect_names_its_line(tmp_path, line, message):
    from conftest import make_matrix
    path = tmp_path / "m.csv"
    write_matrix(make_matrix({"x": [1.0, 2.0]}), str(path))
    (tmp_path / "m.csv.kinds").write_bytes(b"feature,kind\n" + line + b"\n")
    with pytest.raises(ValueError, match=rf"m\.csv\.kinds:2: {message}$"):
        read_matrix(str(path))


# ---------------------------------------------------------------------------
# differential check: read_matrix against the row-by-row csv.reader code
def test_matrix_repeated_column_is_refused(tmp_path):
    """Both `a` features would hold the second column's values, and the
    first column's would be lost."""
    path = tmp_path / "m.csv"
    path.write_text("billing_id,a,a,label\nB1,1.0,2.0,0\nB2,3.0,4.0,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"m\.csv:1: the column 'a' is repeated$"):
        read_matrix(str(path))


def test_feature_matrix_refuses_repeated_feature_names():
    with pytest.raises(ValueError, match="^feature 'a' is repeated$"):
        FeatureMatrix(["B1"], ["a", "b", "a"], {"a": NUMERIC, "b": NUMERIC},
                      {"a": np.array([1.0]), "b": np.array([2.0])})


# ---------------------------------------------------------------------------

def _reference_declared_kinds(path: str, names: list[str]) -> dict[str, str] | None:
    kinds_path = path + ".kinds"
    if not os.path.exists(kinds_path):
        return None
    with open(kinds_path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    if rows[:1] != [["feature", "kind"]]:
        raise ValueError(f"{kinds_path}:1: expected the header feature,kind")
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2 or row[1] not in (NUMERIC, CATEGORICAL):
            raise ValueError(f"{kinds_path}:{lineno}: malformed line {row!r}")
    if [row[0] for row in rows[1:]] != names:
        raise ValueError(f"{kinds_path}: its feature names differ from the header of {path}")
    return dict(rows[1:])


def _reference_is_float(text: str) -> bool:
    try:
        float(text or 0)
    except ValueError:
        return False
    return True


def _reference_read_matrix(path: str) -> FeatureMatrix:
    """``read_matrix`` as a ``csv.reader`` loop, one list per row and one
    ``float`` per cell."""
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
            if has_label and row[-1] not in ("0", "1"):
                raise ValueError(f"{path}:{lineno}: malformed label {row[-1]!r}")
            raw_rows.append(row)
    declared = _reference_declared_kinds(path, names) or {}

    billing_ids = [r[0] for r in raw_rows]
    labels = np.array([r[-1] == "1" for r in raw_rows], dtype=np.int8) if has_label else None
    columns: dict[str, np.ndarray] = {}
    kinds: dict[str, str] = {}
    for j, name in enumerate(names, start=1):
        cells = [r[j] for r in raw_rows]
        kind = declared.get(name)
        if kind != CATEGORICAL:
            try:
                columns[name] = np.array([float(c) if c != "" else np.nan for c in cells],
                                         dtype=np.float64)
                kinds[name] = NUMERIC
                continue
            except ValueError:
                if kind == NUMERIC:
                    i = next(i for i, c in enumerate(cells) if not _reference_is_float(c))
                    raise ValueError(f"{path}:{i + 2}: malformed {name} {cells[i]!r}") from None
        kinds[name] = CATEGORICAL
        columns[name] = np.array([c if c != "" else None for c in cells], dtype=object)
    return FeatureMatrix(billing_ids, list(names), kinds, columns, labels)


# cells that repr does not write, and floats at the edges of numpy's exact conversion
NUMBER_TEXTS = ["", "-0.0", "0.0", "nan", "NaN", "inf", "-inf", " 5", "1_000", "1E3", ".5",
                "5.", "007", "+3", "-12.5", "1e-7", "7\n", "900719925474099.1",
                "900719925474099.3", "0.0000000000000001", "123456789012345.6"]
TEXTS = ["", "AJP", "7", "12", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "\r\n", "ünï",
         "nan", " pad ", "wide" * 20]
DEFECTS = ["fields", "label", "cell", "header", "kinds header", "kinds kind", "kinds names"]


def _number_text(rng, odd: float) -> str:
    roll = rng.random()
    if roll < 0.2:
        text = rng.choice(NUMBER_TEXTS)
        return text if rng.random() < odd else text.strip()  # "7\n" only in quoted files
    if roll < 0.5:
        return repr(round(rng.uniform(-1e4, 1e4), rng.randrange(7)))
    return repr(rng.uniform(-1e6, 1e6) / rng.choice([1, 3, 7]))  # mostly 16-17 digits


def _matrix_file(tmp_path, rng, sidecar: bool, defect: str | None = None) -> str:
    """A random matrix CSV, plain, quoted and/or with CRLF line ends, and
    with ``sidecar`` its ``.kinds`` file; ``defect`` injects one defect."""
    n = rng.randrange(2, 300) if defect or rng.random() < 0.7 else rng.choice([0, 1])
    odd = rng.choice([0.0, 0.0, 0.05, 0.5])  # the share of ids and texts drawn from TEXTS
    names = [f"f{j}" if rng.random() >= odd else rng.choice(TEXTS[1:]) + str(j)
             for j in range(rng.randrange(1 if defect else 0, 7))]
    kinds = [rng.choice([NUMERIC, NUMERIC, CATEGORICAL]) for _ in names]
    if defect:
        kinds[0] = NUMERIC
    has_label = bool(defect) or rng.random() < 0.7
    digit_coded = rng.random() < 0.5
    header = ["billing_id", *names] + ["label"] * has_label
    rows = []
    for i in range(n):
        row = [rng.choice(TEXTS) if rng.random() < odd else f"B{i}"]
        for kind in kinds:
            row.append(_number_text(rng, odd) if kind == NUMERIC else
                       rng.choice(["7", "12", "40", ""] if digit_coded else
                                  TEXTS if rng.random() < odd else ["AJP", "TLS", ""]))
        rows.append(row + [str(rng.randrange(2))] * has_label)
    lines = [["feature", "kind"], *map(list, zip(names, kinds))]
    i, j = rng.randrange(n or 1), rng.randrange(1, len(names) + 1) if names else 0
    if defect == "fields":
        rows[i] = rows[i] + ["x"] if rng.random() < 0.5 else rows[i][:-1]
    elif defect == "label":
        rows[i][-1] = rng.choice(["2", "x", "", "1.0", " 1"])
    elif defect == "cell":
        rows[i][1] = rng.choice(["abc", "1.2.3", "--1", "1e", "five"])
    elif defect == "header":
        header[0] = "id"
    elif defect == "kinds header":
        lines[0] = ["feature", "type"]
    elif defect == "kinds kind":
        lines[j][1] = "text"
    elif defect == "kinds names":
        lines[j][0] += "_"
    path = str(tmp_path / "m.csv")
    end, quote_all = "\r\n" if rng.random() < 0.3 else "\n", rng.random() < 0.2

    def text(lines) -> str:  # quoted where csv.reader needs it, or everywhere
        return "".join(",".join('"' + f.replace('"', '""') + '"' if quote_all or (
            any(c in f for c in ',"\r\n') or line == [""]) else f for f in line) + end
                       for line in lines)

    Path(path).write_text(text([header, *rows]), encoding="utf-8", newline="")
    if sidecar or defect:
        Path(path + ".kinds").write_text(text(lines), encoding="utf-8", newline="")
    return path


def _read_both(path: str):
    """Each reader's matrix, or the message of the error it raised."""
    results = []
    for read in (read_matrix, _reference_read_matrix):
        try:
            results.append(read(path))
        except ValueError as exc:
            results.append(str(exc))
    return results


@pytest.mark.parametrize("sidecar", [True, False])
@pytest.mark.parametrize("case", range(20))
def test_matrices_read_as_the_csv_reader_code_reads_them(tmp_path, case, sidecar):
    ours, reference = _read_both(_matrix_file(tmp_path, random.Random(case), sidecar))
    assert isinstance(reference, FeatureMatrix), reference
    assert isinstance(ours, FeatureMatrix), ours
    assert ours.billing_ids == reference.billing_ids
    assert ours.feature_names == reference.feature_names and ours.kinds == reference.kinds
    if reference.labels is None:
        assert ours.labels is None
    else:
        assert ours.labels.dtype == np.int8 and np.array_equal(ours.labels, reference.labels)
    for name in reference.feature_names:
        a, b = ours.columns[name], reference.columns[name]
        assert a.dtype == b.dtype, name
        if b.dtype == np.float64:
            assert a.tobytes() == b.tobytes(), name
        else:
            assert a.tolist() == b.tolist(), name


@pytest.mark.parametrize("case", range(21))
def test_a_matrix_defect_fails_as_the_csv_reader_code_fails(tmp_path, case):
    rng = random.Random(100 + case)
    defect = DEFECTS[case % len(DEFECTS)]
    ours, reference = _read_both(_matrix_file(tmp_path, rng, True, defect))
    assert isinstance(reference, str), defect
    assert ours == reference
