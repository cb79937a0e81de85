"""Column-wise tables: the row API over ``data.Table``, the guard that
no table row is a GC-tracked object, and the generator's replacement of
``Generator.choice`` by the draws it makes."""

import csv
import dataclasses
import datetime as dt
import gc
import io

import numpy as np
import pytest

from churnforge import GeneratorConfig, Month, TelcoDataset, generate, read_tables, write_tables
from churnforge.data import BillingMonthRecord, SubscriberRecord, Table
from churnforge.generator import (_CONTRACT_CDF, _CONTRACT_W, _CONTRACTS, _LOCATION_CDF,
                                  _LOCATION_W, _LOCATIONS, _PRICES, _pick)


def _bill(billing_id, month, amount=100):
    return BillingMonthRecord(billing_id, month, amount, 0, amount, 0, amount, 0)


def test_rows_are_copies_of_the_columns(small_dataset):
    row = small_dataset.subscribers[0]
    before = row.billing_id
    row.billing_id = "changed"
    assert small_dataset.subscribers[0].billing_id == before
    assert small_dataset.subscribers.column("billing_id")[0] == before


def test_table_takes_records_and_gives_them_back():
    months = [Month(2011, 3), Month(2011, 4)]
    records = [_bill("B2", months[1], 7), _bill("B1", months[0])]
    table = Table(BillingMonthRecord, records)
    table.append(_bill("B3", months[0], 9))
    assert len(table) == 3
    assert list(table) == records + [_bill("B3", months[0], 9)]
    assert table[-1] == _bill("B3", months[0], 9) and isinstance(table[0].month, Month)
    assert table.column("month").tolist() == [m.index for m in (months[1], months[0], months[0])]
    assert table.key_order(("billing_id", "month")) == [1, 0, 2]
    assert Table(BillingMonthRecord, [records[1]]).key_order(("billing_id", "month")) is None


def test_dataset_accepts_records_or_tables(small_dataset):
    subscribers = list(small_dataset.subscribers)
    ds = TelcoDataset(subscribers=subscribers, billing=small_dataset.billing)
    assert ds.subscribers == small_dataset.subscribers
    assert ds.billing is small_dataset.billing
    assert len(ds.usage) == 0 and ds.usage.record.__name__ == "UsageMonthRecord"
    assert TelcoDataset(subscribers=subscribers[:-1]).subscribers != small_dataset.subscribers


def test_written_text_quotes_like_csv_writer(tmp_path):
    sub = SubscriberRecord('C,1', 'B"1', "SV\n1", "consumer", "voice_broadband",
                           dt.date(2010, 5, 3), dt.date(2009, 1, 3), 12, 4900, "A\rB", 1)
    write_tables(TelcoDataset(subscribers=[sub]), str(tmp_path))
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows([
        [f.name for f in dataclasses.fields(sub)],
        ["" if v is None else v for v in dataclasses.astuple(sub)]])
    assert (tmp_path / "subscribers.csv").read_bytes().decode() == expected.getvalue()


def _tracked_growth(make):
    """(result of ``make()``, GC-tracked objects it added that outlive the call)."""
    gc.collect()
    before = len(gc.get_objects())
    result = make()
    gc.collect()
    return result, len(gc.get_objects()) - before


def test_tables_hold_no_object_per_row(tmp_path):
    growth = {}
    for n in (30, 300, 1200):  # the first size only warms up caches and lazy imports
        config = GeneratorConfig(seed=3, n_consumers=n, n_smes=n // 15)
        ds, growth[f"generate {n}"] = _tracked_growth(lambda: generate(config))
        write_tables(ds, str(tmp_path / str(n)))
        again, growth[f"read {n}"] = _tracked_growth(lambda: read_tables(str(tmp_path / str(n))))
        assert again == ds
    # four times the rows, about the same number of tracked objects
    assert abs(growth["generate 1200"] - growth["generate 300"]) < 50, growth
    assert abs(growth["read 1200"] - growth["read 300"]) < 50, growth


@pytest.mark.parametrize("segment", ["consumer", "sme"])
def test_picks_draw_what_generator_choice_draws(segment):
    """``_build_service`` replaces three ``rng.choice`` calls by the draws
    choice makes; this fails if a numpy release changes those draws."""
    for idx in range(500):
        service_type = "voice" if segment == "sme" and idx % 2 == 0 else "voice_broadband"
        prices = _PRICES[(segment, service_type)]
        a = np.random.default_rng((7, 0 if segment == "consumer" else 1, idx))
        b = np.random.default_rng((7, 0 if segment == "consumer" else 1, idx))
        assert int(a.choice(_CONTRACTS, p=_CONTRACT_W)) == _CONTRACTS[_pick(b, _CONTRACT_CDF)]
        assert int(a.choice(prices)) == prices[int(b.integers(0, len(prices)))]
        assert str(a.choice(_LOCATIONS, p=_LOCATION_W)) == _LOCATIONS[_pick(b, _LOCATION_CDF)]
        assert a.random() == b.random()  # the streams are still in step
