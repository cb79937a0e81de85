"""The array-based generator against scalar reference loops.

``_draw`` makes every subscriber's draws and ``_derive`` computes the
derived columns (profile dates and picks, monthly volumes, payments and
requests) over a whole segment at once; ``_build_service`` runs both on a
batch of one subscriber. ``_assemble`` carries billing balances over
(account, month) grids. The references below redraw each stream with
``rng.choice`` and ``Month`` arithmetic and redo the arithmetic one
subscriber, one month and one account at a time, with the same operands
in the same order, and must agree exactly. Unlike the golden digests, this
holds on every numpy version.
"""

from collections import defaultdict

import numpy as np
import pytest

from churnforge import GeneratorConfig, generate
from churnforge.data import TelcoDataset
from churnforge.generator import (_LOCATION_W, _LOCATIONS, _PRICES, _REQUEST_CODES,
                                  _assemble, _build_service, _choose, _derive, _draw, _ids,
                                  _owners, _pcg_states)
from churnforge.months import Month, month_range

_RAMP = {0: 0.95, 1: 0.9, 2: 0.6, 3: 0.3}


def _monthly_reference(cfg, segment, idx, term_set, back_set):
    """Redraw one record's stream as ``_build_service`` does, then derive
    its months with per-month scalar arithmetic."""
    rng = np.random.default_rng((cfg.seed, 0 if segment == "consumer" else 1, idx))
    cov_start, cov_end = cfg.months_start, cfg.months_end
    n_cov = cov_end.diff(cov_start) + 1
    service_type = ("voice_broadband" if segment == "consumer"
                    else ("voice" if idx % 2 == 0 else "voice_broadband"))
    if idx in term_set or rng.random() < 0.88:
        act_month = cov_start.plus(-int(rng.integers(1, 61)))
    else:
        act_month = cov_start.plus(int(rng.integers(0, n_cov - 1)))
    rng.integers(1, 29), rng.integers(0, 37)  # activation day, tenure
    rng.choice([0, 12, 24, 36], p=[0.25, 0.35, 0.30, 0.10])
    price = int(rng.choice(_PRICES[(segment, service_type)]))
    rng.choice(_LOCATIONS, p=_LOCATION_W), rng.random()  # location, hsbb
    term_month = None
    if idx in term_set:
        term_month = cov_start.plus(3 + int(rng.integers(0, n_cov)))
        rng.integers(1, 29)
        if idx in back_set:
            rng.integers(2, 7), rng.integers(1, 29)
    first = max(cov_start, act_month)
    months = month_range(first, min(cov_end, term_month) if term_month else cov_end)
    n_m = len(months)
    dl_base = float(np.exp(rng.normal(7.2, 0.55))) if service_type == "voice_broadband" else 0.0
    ul_ratio = float(np.exp(rng.normal(np.log(0.15), 0.3)))
    vmin_base = float(np.exp(rng.normal(5.3, 0.6)))
    call_min = float(np.clip(rng.normal(3.2, 0.7), 1.5, 6.0))
    noise = np.exp(rng.normal(0.0, 0.18, size=(3, n_m)))
    pay_noise = np.clip(rng.normal(1.0, 0.05, size=n_m), 0.7, 1.3)
    reversal_draw, credit_draw = rng.random(n_m), rng.random(n_m)
    credit_amt = rng.integers(100, 3000, size=n_m)
    req_extra, req_days = rng.random(n_m), rng.integers(1, 29, size=n_m)
    req_codes = rng.integers(0, len(_REQUEST_CODES), size=n_m)
    first_last_bill = price + int(rng.integers(0, 2000))

    s = cfg.signal_strength
    out = {k: [] for k in ("dl", "ul", "vmin", "vcalls", "charge", "pay_ratio",
                           "pay_reversal", "credit", "requests")}
    for j, m in enumerate(months):
        r = _RAMP.get(term_month.diff(m) if term_month else 99, 0.0)
        dl = round(dl_base * (1.0 - s * r) * noise[0, j], 3)
        vm = round(vmin_base * (1.0 - 0.5 * s * r) * noise[2, j], 1)
        out["dl"].append(dl)
        out["ul"].append(round(dl_base * ul_ratio * (1.0 - s * r) * noise[1, j], 3))
        out["vmin"].append(vm)
        out["vcalls"].append(int(round(vm / call_min)))
        out["charge"].append(price + int(dl * 1.2) + int(vm * 3))
        out["pay_ratio"].append(float(pay_noise[j] * (1.0 - 0.35 * s * r)))
        out["pay_reversal"].append(bool(reversal_draw[j] < 0.01))
        out["credit"].append(-int(credit_amt[j]) if credit_draw[j] < 0.07 + 0.10 * s * r else 0)
        if req_extra[j] < 0.06 * (1.0 + 2.5 * s * r):
            out["requests"].append((m.day(int(req_days[j])), _REQUEST_CODES[int(req_codes[j])]))
    out["first"] = first.diff(cov_start)
    out["first_last_bill"] = first_last_bill
    return out


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3])
@pytest.mark.parametrize("segment", [0, 1])
def test_stream_states_are_seed_sequence_states(seed, segment):
    """``_draw`` seeds each record's PCG64 from ``_pcg_states``, which must
    be SeedSequence's own state for every seed length: one 32-bit word, two,
    and three (past the four-word pool, so the extra mixing loop runs)."""
    want = [np.random.SeedSequence((seed, segment, i)).generate_state(4, np.uint64)
            for i in range(5000)]
    got = _pcg_states(seed, segment, range(5000))
    assert got.dtype == np.uint64 and (got == np.array(want)).all()


@pytest.mark.parametrize("seed, signal_strength", [
    pytest.param(5, 0.0, id="0.0"), pytest.param(5, 0.8, id="0.8"),
    pytest.param(2**64 + 3, 0.8, id="seed_2**64+3-0.8"),
])
def test_monthly_arrays_match_scalar_reference(seed, signal_strength):
    """Every draw of every record, redrawn by ``default_rng``; seed 2**64 + 3
    has five entropy words, one past SeedSequence's pool."""
    cfg = GeneratorConfig(seed=seed, n_consumers=120, n_smes=60,
                          signal_strength=signal_strength)
    for segment, n in (("consumer", 120), ("sme", 60)):
        term = frozenset(range(0, n, 3))
        back = frozenset(range(0, n, 9))
        for idx in range(n):
            blk = _build_service(cfg, segment, idx, term, back)
            ref = _monthly_reference(cfg, segment, idx, term, back)
            assert [(r.request_date, r.request_code) for r in blk.requests] == ref.pop("requests")
            assert {k: getattr(blk, k) for k in ref} == ref


def _at(block, field, t):
    return getattr(block, field)[t - block.first]


def _stitch_reference(blocks, months):
    """Billing and usage rows, one account and one month at a time."""
    members: dict[int, list[int]] = {}
    for i in range(len(blocks)):
        members.setdefault(_owners(i)[1], []).append(i)
    billing, usage = [], []
    for idxs in members.values():
        leader = blocks[idxs[0]]
        bill_id = leader.record.billing_id
        prev_current, prev_unpaid = leader.first_last_bill, 0
        for t, m in enumerate(months):
            active = [blocks[i] for i in idxs
                      if blocks[i].first <= t < blocks[i].first + len(blocks[i].dl)]
            if not active:
                continue
            current = sum(_at(b, "charge", t) for b in active)
            amt_2pay = current + prev_unpaid
            lead = leader.first <= t < leader.first + len(leader.dl)
            if lead and _at(leader, "pay_reversal", t):
                payment = -int(amt_2pay * 0.1)
            else:
                payment = int(amt_2pay * (_at(leader, "pay_ratio", t) if lead else 1.0))
            credit = sum(_at(b, "credit", t) for b in active)
            billing.append((bill_id, m, current, prev_current, amt_2pay, prev_unpaid,
                            payment, credit))
            usage.append((bill_id, m, float(round(sum(_at(b, "dl", t) for b in active), 3)),
                          float(round(sum(_at(b, "ul", t) for b in active), 3)),
                          float(round(sum(_at(b, "vmin", t) for b in active), 1)),
                          int(sum(_at(b, "vcalls", t) for b in active))))
            prev_current = current
            prev_unpaid = max(0, amt_2pay - payment + credit)
    return billing, usage


def test_account_grids_match_scalar_reference():
    cfg = GeneratorConfig(seed=11, n_consumers=400, n_smes=0, churn_rate=0.3)
    term = frozenset(range(0, 400, 3))
    back = frozenset(range(0, 400, 7))
    blocks = [_build_service(cfg, "consumer", i, term, back) for i in range(400)]
    months = month_range(cfg.months_start, cfg.months_end)
    ds = TelcoDataset()
    _assemble(ds, _derive(cfg, "consumer", _draw(cfg, "consumer", range(400), term, back)))
    billing, usage = _stitch_reference(blocks, months)
    assert [(r.billing_id, r.month, r.current_bill_amt, r.last_bill_amt, r.amt_2pay,
             r.outstanding, r.payment, r.credit_adj) for r in ds.billing] == billing
    assert [(r.billing_id, r.month, r.download_mb, r.upload_mb, r.voice_minutes,
             r.voice_calls) for r in ds.usage] == usage


def _churn_sets(cfg, segment, n):
    """The churner and comeback index sets, drawn as ``generate`` draws them."""
    pick = np.random.default_rng((cfg.seed, 0 if segment == "consumer" else 1, 0xC4A11))
    term = _choose(pick, n, int(round(n * cfg.churn_rate)))
    back = _choose(pick, len(term), int(round(len(term) * cfg.winback_rate)))
    churners = sorted(term)
    return term, frozenset(churners[i] for i in back)


def _profile_reference(cfg, segment, idx, term_set, back_set):
    """Redraw one record's profile fields with ``rng.choice`` and Month
    arithmetic, one draw at a time."""
    rng = np.random.default_rng((cfg.seed, 0 if segment == "consumer" else 1, idx))
    cov_start, n_cov = cfg.months_start, cfg.months_end.diff(cfg.months_start) + 1
    service_type = ("voice_broadband" if segment == "consumer"
                    else ("voice" if idx % 2 == 0 else "voice_broadband"))
    if idx in term_set or rng.random() < 0.88:
        act_month = cov_start.plus(-int(rng.integers(1, 61)))
    else:
        act_month = cov_start.plus(int(rng.integers(0, n_cov - 1)))
    activation = act_month.day(int(rng.integers(1, 29)))
    since = act_month.plus(-int(rng.integers(0, 37))).day(activation.day)
    profile = dict(
        segment=segment, service_type=service_type,
        activation_date=activation, customer_since=since,
        contract_period=int(rng.choice([0, 12, 24, 36], p=[0.25, 0.35, 0.30, 0.10])),
        price_start=int(rng.choice(_PRICES[(segment, service_type)])),
        t_location=str(rng.choice(_LOCATIONS, p=_LOCATION_W)),
        hsbb_area=int(rng.random() < 0.45), termination_date=None, comeback_date=None)
    if idx in term_set:
        term_month = cov_start.plus(3 + int(rng.integers(0, n_cov)))
        profile["termination_date"] = term_month.day(int(rng.integers(1, 29)))
        if idx in back_set:
            comeback = term_month.plus(int(rng.integers(2, 7)))
            profile["comeback_date"] = comeback.day(int(rng.integers(1, 29)))
    return profile


@pytest.mark.parametrize("start, end, churn_rate", [
    (Month(2010, 10), Month(2011, 3), 0.9),  # coverage across a year boundary
    (Month(2011, 1), Month(2011, 12), 0.3),
])
def test_profile_fields_match_scalar_reference(start, end, churn_rate):
    cfg = GeneratorConfig(seed=13, n_consumers=150, n_smes=80, churn_rate=churn_rate,
                          winback_rate=0.4, months_start=start, months_end=end)
    records = {r.service_id: r for r in generate(cfg).subscribers}
    comebacks = 0
    for segment, n in (("consumer", 150), ("sme", 80)):
        term, back = _churn_sets(cfg, segment, n)
        for idx in range(n):
            record = records[_ids(segment, *_owners(idx), idx)[2]]
            ref = _profile_reference(cfg, segment, idx, term, back)
            assert {k: getattr(record, k) for k in ref} == ref
            comebacks += ref["comeback_date"] is not None
    assert comebacks > 10


def test_one_subscriber_path_equals_segment_path():
    """``_build_service`` (a batch of one) gives each subscriber's row and
    requests exactly as the whole-segment path in ``generate`` does."""
    cfg = GeneratorConfig(seed=21, n_consumers=130, n_smes=70, churn_rate=0.4,
                          winback_rate=0.5, months_start=Month(2010, 11),
                          months_end=Month(2011, 8))
    ds = generate(cfg)
    records = {r.service_id: r for r in ds.subscribers}
    got, want = defaultdict(list), defaultdict(list)
    for q in ds.service_requests:
        got[q.customer_id].append((q.request_date, q.request_code))
    for segment, n in (("consumer", 130), ("sme", 70)):
        term, back = _churn_sets(cfg, segment, n)
        for idx in range(n):
            one = _build_service(cfg, segment, idx, term, back)
            assert one.record == records[one.record.service_id]
            want[one.record.customer_id] += [(q.request_date, q.request_code)
                                             for q in one.requests]
    assert len(records) == 200 and sum(map(len, got.values())) > 100
    assert {k: sorted(v) for k, v in want.items() if v} == {k: sorted(v) for k, v in got.items()}
