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

import itertools
from dataclasses import dataclass

import numpy as np

from .data import (SORT_KEYS, BillingMonthRecord, ServiceRequestRecord, SubscriberRecord, Table,
                   TelcoDataset, UsageMonthRecord)
from .months import Month, month_range

# decline ramp, indexed by whole months until the termination month; 0 from 4 on
_RAMP = np.array([0.95, 0.9, 0.6, 0.3, 0.0])

_CONTRACTS = [0, 12, 24, 36]
_CONTRACT_W = [0.25, 0.35, 0.30, 0.10]
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


def _cdf(p) -> np.ndarray:
    """The cumulative weights that ``Generator.choice(..., p=p)`` searches."""
    cdf = np.cumsum(p)
    return cdf / cdf[-1]


_CONTRACT_CDF = _cdf(_CONTRACT_W)
_LOCATION_CDF = _cdf(_LOCATION_W)


def _pick(rng: np.random.Generator, cdf: np.ndarray) -> int:
    """The index ``rng.choice(len(cdf), p=...)`` draws, with the same draw."""
    return int(cdf.searchsorted(rng.random(), side="right"))


@dataclass(slots=True)
class _ServiceBlock:
    """Everything one subscriber record contributes, drawn from its own stream.

    ``profile`` holds the subscriber's row by field name; ``_assemble``
    fills in its three ids. Monthly sequences hold one entry per month with
    table rows, starting ``first`` months after the coverage start (through
    the termination month for churners).
    """

    profile: dict
    first: int
    dl: list[float]
    ul: list[float]
    vmin: list[float]
    vcalls: list[int]
    charge: list[int]  # cents billed for this service per month
    request_dates: list
    request_codes: list[str]
    # account-level dynamics, used only when this record leads its billing account
    pay_ratio: list[float]
    pay_reversal: list[bool]
    credit: list[int]
    first_last_bill: int

    @property
    def record(self) -> SubscriberRecord:
        return SubscriberRecord(**self.profile)

    @property
    def requests(self) -> list[ServiceRequestRecord]:
        return list(map(ServiceRequestRecord, itertools.repeat(self.profile["customer_id"]),
                        self.request_dates, self.request_codes))


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
    # the draws rng.choice makes for these three picks, without its overhead
    contract = _CONTRACTS[_pick(rng, _CONTRACT_CDF)]
    prices = _PRICES[(segment, service_type)]
    price = prices[int(rng.integers(0, len(prices)))]
    location = _LOCATIONS[_pick(rng, _LOCATION_CDF)]
    hsbb = int(rng.random() < 0.45)

    term_month = None
    termination = comeback = None
    if is_churner:
        # termination months span [cov_start+3, cov_end+3]
        term_month = cov_start.plus(3 + int(rng.integers(0, n_cov)))
        termination = term_month.day(int(rng.integers(1, 29)))
        if idx in back_set:
            comeback = term_month.plus(int(rng.integers(2, 7))).day(int(rng.integers(1, 29)))

    profile = dict(customer_id="", billing_id="", service_id="", segment=segment,
                   service_type=service_type, activation_date=activation,
                   customer_since=since, contract_period=contract, price_start=price,
                   t_location=location, hsbb_area=hsbb, termination_date=termination,
                   comeback_date=comeback)

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
    requested = np.flatnonzero(req_extra < 0.06 * (1.0 + 2.5 * s * ramp)).tolist()

    return _ServiceBlock(
        profile, first.diff(cov_start), dl.tolist(), ul.tolist(), vmin.tolist(),
        np.rint(vmin / call_min).astype(np.int64).tolist(), charge.tolist(),
        [first.plus(j).day(int(req_days[j])) for j in requested],
        [_REQUEST_CODES[int(req_codes[j])] for j in requested],
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
    """Stitch per-service blocks into the tables' columns. Pure; draws no
    randomness.

    Billing accounts are rows of (account, coverage month) grids, so the
    month-to-month balance carry-over runs once per month for all accounts.
    """
    leaders: list[int] = []  # record index of each billing account, ascending
    account: list[int] = []  # grid row of each record's billing account
    for i, blk in enumerate(blocks):
        cust, bill = _owners(i)
        blk.profile.update(zip(("customer_id", "billing_id", "service_id"),
                               _ids(segment, cust, bill, i)))
        if bill == i:
            leaders.append(i)
        account.append(len(leaders) - 1)  # a member directly follows its leader
    profiles = [blk.profile for blk in blocks]
    ds.subscribers.extend(Table(SubscriberRecord, columns={
        name: [p[name] for p in profiles] for name in profiles[0]}))
    ds.service_requests.extend(Table(ServiceRequestRecord, columns={
        "customer_id": [p["customer_id"] for blk, p in zip(blocks, profiles)
                        for _ in blk.request_dates],
        "request_date": list(itertools.chain.from_iterable(b.request_dates for b in blocks)),
        "request_code": list(itertools.chain.from_iterable(b.request_codes for b in blocks)),
    }))

    # every record-month, in record order, as a flat index into the
    # (account, coverage month) grids
    shape = (len(leaders), len(months))
    lengths = np.array([len(blk.dl) for blk in blocks])
    starts = np.array(account) * shape[1] + [blk.first for blk in blocks]
    cell = np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())
    leads = np.repeat([leaders[a] == i for i, a in enumerate(account)], lengths)

    def grid(field: str, dtype, fill=0, own=False):
        """``field`` on the grid: members add onto their leader's cells in
        record order, or with ``own`` the leader's values alone count."""
        values = np.fromiter(itertools.chain.from_iterable(getattr(blk, field) for blk in blocks),
                             dtype, len(cell))
        out = np.full(shape[0] * shape[1], fill, dtype=dtype)
        if own:
            out[cell[leads]] = values[leads]
        else:
            np.add.at(out, cell, values)
        return out.reshape(shape)

    active = np.zeros(shape[0] * shape[1], dtype=bool)
    active[cell] = True
    active = active.reshape(shape)
    current, credit, vcalls = (grid(f, np.int64) for f in ("charge", "credit", "vcalls"))
    dl, ul, vmin = (grid(f, np.float64) for f in ("dl", "ul", "vmin"))
    pay_ratio = grid("pay_ratio", np.float64, fill=1.0, own=True)
    reversal = grid("pay_reversal", bool, own=True)

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
    leader_ids = [profiles[i]["billing_id"] for i in leaders]
    cells = {"billing_id": [leader_ids[r] for r in rows.tolist()],
             "month": np.array([m.index for m in months])[cols]}
    ds.billing.extend(Table(BillingMonthRecord, columns=dict(cells, **{
        name: a[active] for name, a in (
            ("current_bill_amt", current), ("last_bill_amt", last_bill),
            ("amt_2pay", amt_2pay), ("outstanding", outstanding), ("payment", payment),
            ("credit_adj", credit))})))
    ds.usage.extend(Table(UsageMonthRecord, columns=dict(
        cells, download_mb=np.round(dl[active], 3), upload_mb=np.round(ul[active], 3),
        voice_minutes=np.round(vmin[active], 1), voice_calls=vcalls[active])))
    for name in ("subscribers", "service_requests"):
        table = getattr(ds, name)
        order = table.key_order(SORT_KEYS[name])
        if order is not None:
            setattr(ds, name, table.take(order))
