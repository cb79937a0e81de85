"""Seeded synthetic telco dataset with a planted pre-churn usage decline.

Every subscriber's randomness comes from its own stream keyed by
(master seed, segment, record index), so generation order (and hence any
parallel scheduling across subscribers) cannot change the output. The
planted signal: a churner's download/upload volume drops over the three
months before the termination month, scaled by ``signal_strength``;
payments weaken and billing credits become more frequent over the same
months, but deliberately less sharply than usage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (BillingMonthRecord, ServiceRequestRecord, SubscriberRecord,
                   TelcoDataset, UsageMonthRecord)
from .months import Month, month_range

# decline ramp, indexed by whole months until the termination month; 0 from 4 on
_RAMP = np.array([0.95, 0.9, 0.6, 0.3, 0.0])

_LOCATIONS = ["AJP", "TLS", "KLC", "PNG", "JBU", "MLK", "KTN", "SRW"]
_LOCATION_W = [0.22, 0.18, 0.15, 0.12, 0.10, 0.09, 0.08, 0.06]
_REQUEST_CODES = ["CMPLNT", "TECH", "BILLQ", "INFO", "RELOC"]
_PRICES = {  # cents
    ("consumer", "voice_broadband"): (4900, 6900, 8900, 12900),
    ("sme", "voice"): (3900, 5900, 8900, 11900),
    ("sme", "voice_broadband"): (9900, 14900, 19900, 24900),
}


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 0
    n_consumers: int = 1500
    n_smes: int = 100  # 15:1 consumer:SME default
    churn_rate: float = 0.08
    winback_rate: float = 0.15
    months_start: Month = Month(2011, 1)
    months_end: Month = Month(2011, 12)
    signal_strength: float = 0.8

    def validate(self):
        if self.n_consumers < 0 or self.n_smes < 0 or self.n_consumers + self.n_smes == 0:
            raise ValueError("need a positive number of subscribers")
        for name in ("churn_rate", "winback_rate"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {v}")
        if not 0.0 <= self.signal_strength <= 1.0:
            raise ValueError(f"signal_strength must be in [0, 1], got {self.signal_strength}")
        if self.months_end < self.months_start:
            raise ValueError("empty months range")
        if self.months_end.diff(self.months_start) < 5:
            raise ValueError("months range must cover at least 6 months")


@dataclass
class _ServiceBlock:
    """Everything one subscriber record contributes, drawn from its own stream.

    Monthly sequences hold one entry per month with table rows, starting
    ``first`` months after the coverage start (through the termination
    month for churners).
    """

    record: SubscriberRecord
    first: int
    dl: list[float]
    ul: list[float]
    vmin: list[float]
    vcalls: list[int]
    charge: list[int]  # cents billed for this service per month
    requests: list[ServiceRequestRecord]
    # account-level dynamics, used only when this record leads its billing account
    pay_ratio: list[float]
    pay_reversal: list[bool]
    credit: list[int]
    first_last_bill: int


def _ids(segment: str, cust_idx: int, bill_idx: int, svc_idx: int) -> tuple[str, str, str]:
    tag = "C" if segment == "consumer" else "S"
    return (f"{tag}{cust_idx:07d}", f"B{tag}{bill_idx:07d}", f"SV{tag}{svc_idx:07d}")


def _owners(i: int) -> tuple[int, int]:
    """(customer index, billing index) for record i, by index arithmetic.

    Records with i % 16 == 9 join the previous record's billing account
    (multi-service accounts); billing leaders with i % 12 == 11 join the
    previous record's customer (multi-billing customers). The residues are
    chosen so attachment chains never exceed one hop.
    """
    if i % 16 == 9:
        return _owners(i - 1)[0], i - 1
    if i % 12 == 11 and i > 0:
        return _owners(i - 1)[0], i
    return i, i


def _build_service(cfg: GeneratorConfig, segment: str, idx: int,
                   term_set: frozenset[int], back_set: frozenset[int]) -> _ServiceBlock:
    rng = np.random.default_rng((cfg.seed, 0 if segment == "consumer" else 1, idx))
    cov_start, cov_end = cfg.months_start, cfg.months_end
    n_cov = cov_end.diff(cov_start) + 1

    is_churner = idx in term_set
    service_type = "voice_broadband" if segment == "consumer" else ("voice" if idx % 2 == 0 else "voice_broadband")
    has_data = service_type == "voice_broadband"

    # --- subscriber profile ---------------------------------------------
    if is_churner or rng.random() < 0.88:
        act_month = cov_start.plus(-int(rng.integers(1, 61)))
    else:
        act_month = cov_start.plus(int(rng.integers(0, n_cov - 1)))
    activation = act_month.day(int(rng.integers(1, 29)))
    since = activation.replace(day=1)
    since = Month.of(since).plus(-int(rng.integers(0, 37))).day(min(activation.day, 28))
    contract = int(rng.choice([0, 12, 24, 36], p=[0.25, 0.35, 0.30, 0.10]))
    price = int(rng.choice(_PRICES[(segment, service_type)]))
    location = str(rng.choice(_LOCATIONS, p=_LOCATION_W))
    hsbb = int(rng.random() < 0.45)

    term_month = None
    termination = comeback = None
    if is_churner:
        # termination months span [cov_start+3, cov_end+3]
        term_month = cov_start.plus(3 + int(rng.integers(0, n_cov)))
        termination = term_month.day(int(rng.integers(1, 29)))
        if idx in back_set:
            comeback = term_month.plus(int(rng.integers(2, 7))).day(int(rng.integers(1, 29)))

    record = SubscriberRecord(
        "", "", "", segment, service_type, activation, since, contract, price,
        location, hsbb, termination, comeback)  # ids filled in by caller

    # --- monthly usage ----------------------------------------------------
    # at least one month: activation precedes cov_end, termination follows cov_start
    first = max(cov_start, act_month)
    last = min(cov_end, term_month) if term_month is not None else cov_end
    n_m = last.diff(first) + 1

    dl_base = float(np.exp(rng.normal(7.2, 0.55))) if has_data else 0.0
    ul_ratio = float(np.exp(rng.normal(np.log(0.15), 0.3)))
    vmin_base = float(np.exp(rng.normal(5.3, 0.6)))
    call_min = min(max(rng.normal(3.2, 0.7), 1.5), 6.0)  # minutes per call

    noise = np.exp(rng.normal(0.0, 0.18, size=(3, n_m)))
    pay_noise = np.clip(rng.normal(1.0, 0.05, size=n_m), 0.7, 1.3)
    reversal_draw = rng.random(n_m)
    credit_draw = rng.random(n_m)
    credit_amt = rng.integers(100, 3000, size=n_m)
    req_extra = rng.random(n_m)
    req_days = rng.integers(1, 29, size=n_m)
    req_codes = rng.integers(0, len(_REQUEST_CODES), size=n_m)
    first_last_bill = price + int(rng.integers(0, 2000))

    ramp = (_RAMP[np.minimum(term_month.diff(first) - np.arange(n_m), 4)]
            if term_month is not None else np.zeros(n_m))
    s = cfg.signal_strength
    dl = np.round(dl_base * (1.0 - s * ramp) * noise[0], 3)
    ul = np.round(dl_base * ul_ratio * (1.0 - s * ramp) * noise[1], 3)
    vmin = np.round(vmin_base * (1.0 - 0.5 * s * ramp) * noise[2], 1)
    charge = price + (dl * 1.2).astype(np.int64) + (vmin * 3).astype(np.int64)
    pay_ratio = pay_noise * (1.0 - 0.35 * s * ramp)
    credit = np.where(credit_draw < 0.07 + 0.10 * s * ramp, -credit_amt, 0)
    # service requests: sparse, slightly elevated before termination
    requests = [
        ServiceRequestRecord("", first.plus(j).day(int(req_days[j])),
                             _REQUEST_CODES[int(req_codes[j])])
        for j in np.flatnonzero(req_extra < 0.06 * (1.0 + 2.5 * s * ramp)).tolist()]

    return _ServiceBlock(
        record, first.diff(cov_start), dl.tolist(), ul.tolist(), vmin.tolist(),
        np.rint(vmin / call_min).astype(np.int64).tolist(), charge.tolist(), requests,
        pay_ratio.tolist(), (reversal_draw < 0.01).tolist(), credit.tolist(),
        first_last_bill)


def _choose(rng: np.random.Generator, n: int, k: int) -> frozenset[int]:
    if k <= 0:
        return frozenset()
    return frozenset(int(i) for i in rng.choice(n, size=min(k, n), replace=False))


def generate(config: GeneratorConfig) -> TelcoDataset:
    """Generate a dataset; a pure function of the config (seed included)."""
    config.validate()
    ds = TelcoDataset()
    for segment, n in (("consumer", config.n_consumers), ("sme", config.n_smes)):
        if n == 0:
            continue
        seg_code = 0 if segment == "consumer" else 1
        pick = np.random.default_rng((config.seed, seg_code, 0xC4A11))
        term_set = _choose(pick, n, int(round(n * config.churn_rate)))
        back_set = _choose(pick, len(term_set), int(round(len(term_set) * config.winback_rate)))
        # back_set indexes into the sorted churner list for determinism
        churners_sorted = sorted(term_set)
        back_ids = frozenset(churners_sorted[i] for i in back_set)

        blocks = [_build_service(config, segment, i, term_set, back_ids) for i in range(n)]
        _assemble(ds, segment, blocks, month_range(config.months_start, config.months_end))
    return ds


def _assemble(ds: TelcoDataset, segment: str, blocks: list[_ServiceBlock],
              months: list[Month]) -> None:
    """Stitch per-service blocks into tables. Pure; draws no randomness.

    Billing accounts are rows of (account, coverage month) grids, so the
    month-to-month balance carry-over runs once per month for all accounts.
    """
    leaders: list[int] = []  # record index of each billing account, ascending
    account: list[int] = []  # grid row of each record's billing account
    for i, blk in enumerate(blocks):
        cust, bill = _owners(i)
        cust_id, bill_id, svc_id = _ids(segment, cust, bill, i)
        blk.record.customer_id = cust_id
        blk.record.billing_id = bill_id
        blk.record.service_id = svc_id
        ds.subscribers.append(blk.record)
        for req in blk.requests:
            req.customer_id = cust_id
        ds.service_requests += blk.requests
        if bill == i:
            leaders.append(i)
        account.append(len(leaders) - 1)  # a member directly follows its leader

    shape = (len(leaders), len(months))
    active = np.zeros(shape, dtype=bool)
    current, credit, vcalls = (np.zeros(shape, dtype=np.int64) for _ in range(3))
    dl, ul, vmin = (np.zeros(shape) for _ in range(3))
    pay_ratio, reversal = np.ones(shape), np.zeros(shape, dtype=bool)
    for i, blk in enumerate(blocks):
        cells = account[i], slice(blk.first, blk.first + len(blk.dl))
        active[cells] = True
        # a member adds onto its leader's cells, in record order
        current[cells] += blk.charge
        credit[cells] += blk.credit
        vcalls[cells] += blk.vcalls
        dl[cells] += blk.dl
        ul[cells] += blk.ul
        vmin[cells] += blk.vmin
        if leaders[account[i]] == i:
            pay_ratio[cells] = blk.pay_ratio
            reversal[cells] = blk.pay_reversal

    last_bill, amt_2pay, outstanding, payment = (np.zeros(shape, dtype=np.int64)
                                                 for _ in range(4))
    prev_current = np.array([blocks[i].first_last_bill for i in leaders], dtype=np.int64)
    prev_unpaid = np.zeros(len(leaders), dtype=np.int64)
    for t in range(len(months)):
        on = active[:, t]
        amt = current[:, t] + prev_unpaid
        paid = np.where(reversal[:, t], -(amt * 0.1).astype(np.int64),
                        (amt * pay_ratio[:, t]).astype(np.int64))
        last_bill[:, t], amt_2pay[:, t] = prev_current, amt
        outstanding[:, t], payment[:, t] = prev_unpaid, paid
        prev_current = np.where(on, current[:, t], prev_current)
        # credits reduce what carries over; never carry negative balances
        prev_unpaid = np.where(on, np.maximum(0, amt - paid + credit[:, t]), prev_unpaid)

    # cells in row-major order are sorted by (billing_id, month)
    rows, cols = np.nonzero(active)
    bill_ids = [blocks[leaders[r]].record.billing_id for r in rows.tolist()]
    cell_months = [months[c] for c in cols.tolist()]
    ds.billing.extend(map(BillingMonthRecord, bill_ids, cell_months, *(
        a[active].tolist() for a in (current, last_bill, amt_2pay, outstanding, payment,
                                     credit))))
    ds.usage.extend(map(UsageMonthRecord, bill_ids, cell_months,
                        np.round(dl[active], 3).tolist(), np.round(ul[active], 3).tolist(),
                        np.round(vmin[active], 1).tolist(), vcalls[active].tolist()))
    ds.subscribers.sort(key=lambda s: (s.customer_id, s.billing_id, s.service_id))
    ds.service_requests.sort(key=lambda r: (r.customer_id, r.request_date, r.request_code))
