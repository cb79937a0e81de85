import dataclasses
import math
import os

import numpy as np
import pytest

from churnforge import (DatasetFormatError, GeneratorConfig, check_integrity,
                        generate, read_tables, write_tables)
from churnforge.generator import _build_service
from churnforge.months import Month


def test_config_validation():
    with pytest.raises(ValueError):
        generate(GeneratorConfig(churn_rate=0.0))
    with pytest.raises(ValueError):
        generate(GeneratorConfig(churn_rate=1.0))
    with pytest.raises(ValueError):
        generate(GeneratorConfig(winback_rate=-0.1))
    with pytest.raises(ValueError):
        generate(GeneratorConfig(n_consumers=0, n_smes=0))
    with pytest.raises(ValueError):
        generate(GeneratorConfig(signal_strength=1.5))
    with pytest.raises(ValueError):
        generate(GeneratorConfig(months_start=Month(2011, 6), months_end=Month(2011, 2)))


def test_churner_count_realized_exactly():
    ds = generate(GeneratorConfig(seed=1, n_consumers=1000, n_smes=70, churn_rate=0.1))
    consumer_churners = sum(1 for s in ds.subscribers
                            if s.segment == "consumer" and s.termination_date)
    sme_churners = sum(1 for s in ds.subscribers
                       if s.segment == "sme" and s.termination_date)
    assert abs(consumer_churners - 100) <= 1
    assert abs(sme_churners - 7) <= 1


def test_generation_deterministic(small_dataset):
    again = generate(GeneratorConfig(seed=1, n_consumers=400, n_smes=60,
                                     churn_rate=0.15, winback_rate=0.3))
    assert again == small_dataset


def test_per_subscriber_streams_are_order_independent():
    """Building subscriber blocks in any order yields identical records."""
    cfg = GeneratorConfig(seed=9, n_consumers=40, n_smes=0, churn_rate=0.2)
    term = frozenset({3, 11, 17, 25, 30, 31, 38, 39})
    back = frozenset({11, 30})
    forward = [_build_service(cfg, "consumer", i, term, back) for i in range(40)]
    backward = [_build_service(cfg, "consumer", i, term, back) for i in reversed(range(40))]
    for blk, blk2 in zip(forward, reversed(backward)):
        assert blk.record == blk2.record
        assert blk.dl == blk2.dl and blk.charge == blk2.charge


def test_referential_integrity(small_dataset):
    check_integrity(small_dataset)


def test_date_invariants(small_dataset):
    for s in small_dataset.subscribers:
        assert s.customer_since <= s.activation_date
        if s.termination_date:
            assert s.activation_date <= s.termination_date
        if s.comeback_date:
            assert s.termination_date and s.comeback_date > s.termination_date


def test_monthly_rows_cover_activation_to_termination(small_dataset):
    billing_months = {}
    for r in small_dataset.billing:
        billing_months.setdefault(r.billing_id, set()).add(r.month)
    usage_months = {}
    for r in small_dataset.usage:
        usage_months.setdefault(r.billing_id, set()).add(r.month)
    cov_start, cov_end = Month(2011, 1), Month(2011, 12)
    by_billing = {}
    for s in small_dataset.subscribers:
        by_billing.setdefault(s.billing_id, []).append(s)
    for billing_id, services in by_billing.items():
        first = min(max(cov_start, Month.of(s.activation_date)) for s in services)
        last_candidates = [
            cov_end if s.termination_date is None else min(cov_end, Month.of(s.termination_date))
            for s in services]
        last = max(last_candidates)
        if last < first:
            continue
        expected = {first.plus(i) for i in range(last.diff(first) + 1)}
        assert expected <= billing_months.get(billing_id, set())
        assert expected <= usage_months.get(billing_id, set())
        # nothing after every service has gone
        assert all(m <= last for m in billing_months.get(billing_id, set()))


def test_usage_quantities_valid(small_dataset):
    for r in small_dataset.usage:
        assert r.download_mb >= 0 and math.isfinite(r.download_mb)
        assert r.upload_mb >= 0 and r.voice_minutes >= 0 and r.voice_calls >= 0


def test_requests_within_coverage(small_dataset):
    for r in small_dataset.service_requests:
        assert Month(2011, 1) <= Month.of(r.request_date) <= Month(2011, 12)


def _pre_termination_mean_ratio(ds) -> float:
    """Churner download over their last 3 full months vs stayer overall mean."""
    usage = {(r.billing_id, r.month): r.download_mb for r in ds.usage}
    churn_vals, stay_vals = [], []
    for s in ds.subscribers:
        if s.service_type != "voice_broadband":
            continue
        if s.termination_date is not None:
            tm = Month.of(s.termination_date)
            vals = [usage.get((s.billing_id, tm.plus(-k))) for k in (1, 2, 3)]
            churn_vals += [v for v in vals if v is not None]
        else:
            stay_vals += [v for (b, m), v in usage.items() if b == s.billing_id]
    return float(np.mean(churn_vals) / np.mean(stay_vals))


def test_planted_signal_monotone_in_strength():
    ratios = []
    for strength in (0.0, 0.4, 0.8):
        ds = generate(GeneratorConfig(seed=5, n_consumers=1200, n_smes=0,
                                      churn_rate=0.2, signal_strength=strength))
        ratios.append(_pre_termination_mean_ratio(ds))
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[2] < 0.65  # strong signal clearly depresses usage


def test_zero_signal_indistinguishable():
    ds = generate(GeneratorConfig(seed=5, n_consumers=1200, n_smes=0,
                                  churn_rate=0.2, signal_strength=0.0))
    usage = {(r.billing_id, r.month): r.download_mb for r in ds.usage}
    churn, stay = [], []
    for s in ds.subscribers:
        if s.termination_date is not None:
            tm = Month.of(s.termination_date)
            churn += [usage[k] for k in ((s.billing_id, tm.plus(-j)) for j in (1, 2, 3))
                      if k in usage]
        else:
            stay += [v for (b, m), v in usage.items() if b == s.billing_id]
    churn, stay = np.array(churn), np.array(stay)
    se = math.sqrt(churn.var() / len(churn) + stay.var() / len(stay))
    # log-normal draws are heavy-tailed; 4 standard errors is the noise scale
    assert abs(churn.mean() - stay.mean()) < 4 * se


def test_write_read_round_trip(small_dataset, tmp_path):
    write_tables(small_dataset, str(tmp_path))
    assert read_tables(str(tmp_path)) == small_dataset


def test_write_is_byte_deterministic(small_dataset, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write_tables(small_dataset, str(a))
    write_tables(small_dataset, str(b))
    for name in ("subscribers.csv", "billing.csv", "usage.csv", "service_requests.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def _write_usage(tmp_path, rows):
    (tmp_path / "usage.csv").write_text(
        "billing_id,month,download_mb,upload_mb,voice_minutes,voice_calls\n"
        + "".join(rows), encoding="utf-8")


def _touch_empty_tables(tmp_path):
    (tmp_path / "subscribers.csv").write_text(
        "customer_id,billing_id,service_id,segment,service_type,activation_date,"
        "customer_since,contract_period,price_start,t_location,hsbb_area,"
        "termination_date,comeback_date\n", encoding="utf-8")
    (tmp_path / "billing.csv").write_text(
        "billing_id,month,current_bill_amt,last_bill_amt,amt_2pay,outstanding,"
        "payment,credit_adj\n", encoding="utf-8")
    _write_usage(tmp_path, [])
    (tmp_path / "service_requests.csv").write_text(
        "customer_id,request_date,request_code\n", encoding="utf-8")


def test_empty_tables_read_fine(tmp_path):
    _touch_empty_tables(tmp_path)
    ds = read_tables(str(tmp_path))
    assert not ds.subscribers and not ds.billing and not ds.usage


def test_negative_download_rejected_with_line(tmp_path):
    _touch_empty_tables(tmp_path)
    _write_usage(tmp_path, ["B1,2011-03,10.0,1.0,5.0,2\n", "B1,2011-04,-3.0,1.0,5.0,2\n"])
    with pytest.raises(DatasetFormatError, match=r"usage\.csv:3"):
        read_tables(str(tmp_path))


def test_duplicate_billing_month_rejected(tmp_path):
    _touch_empty_tables(tmp_path)
    _write_usage(tmp_path, ["B1,2011-03,10.0,1.0,5.0,2\n", "B1,2011-03,11.0,1.0,5.0,2\n"])
    with pytest.raises(DatasetFormatError, match=r"usage\.csv:3.*duplicate"):
        read_tables(str(tmp_path))


def test_malformed_row_rejected(tmp_path):
    _touch_empty_tables(tmp_path)
    _write_usage(tmp_path, ["B1,2011-03,ten,1.0,5.0,2\n"])
    with pytest.raises(DatasetFormatError, match=r"usage\.csv:2"):
        read_tables(str(tmp_path))


def test_missing_file_rejected(tmp_path):
    _touch_empty_tables(tmp_path)
    os.remove(tmp_path / "billing.csv")
    with pytest.raises(DatasetFormatError, match="billing.csv"):
        read_tables(str(tmp_path))


def test_winback_subscribers_have_comebacks(small_dataset):
    churners = [s for s in small_dataset.subscribers if s.termination_date]
    back = [s for s in churners if s.comeback_date]
    assert abs(len(back) - round(len(churners) * 0.3)) <= 1


def test_dataset_field_equality_is_deep(small_dataset):
    clone = dataclasses.replace(small_dataset)
    assert clone == small_dataset


@pytest.mark.parametrize("field, value", [
    ("seed", -1), ("seed", 2.5), ("seed", "7"), ("n_consumers", 2.5), ("n_smes", "100"),
    ("n_consumers", -3), ("months_start", "2011-01"), ("months_end", (2011, 12)),
])
def test_config_diagnostics_name_the_field(field, value, monkeypatch):
    """A bad seed, count or month range fails in ``validate`` with one
    ValueError that names the field, before any stream is drawn."""
    cfg = GeneratorConfig(**{"n_consumers": 50, "n_smes": 5, field: value})
    with pytest.raises(ValueError, match=f"^{field} must be"):
        cfg.validate()

    def no_draws(*args, **kwargs):
        raise AssertionError("drew before validating")
    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match=f"^{field} must be"):
        generate(cfg)
