"""Seeded synthetic telco dataset with a planted pre-churn usage decline.

Every subscriber's randomness comes from its own stream keyed by
(master seed, segment, record index), so generation order (and hence any
parallel scheduling across subscribers) cannot change the output. The
planted signal: a churner's download/upload volume drops over the three
months before the termination month, scaled by ``signal_strength``;
payments weaken and billing credits become more frequent over the same
months, but deliberately less sharply than usage.

A segment is generated in two phases. ``_draw`` is the only loop over
subscribers: it makes each stream's draws in stream order, keeping only the
branches that decide which draws happen, into per-segment arrays.
``_derive`` computes every derived column (months, dates, prices, volumes,
payments, requests) once per segment with the numpy operations of a
per-subscriber computation, in the same order, so values agree bit for bit;
``_assemble`` builds the tables. ``_build_service`` is a read-only view of
one subscriber, generated as a batch of one.
"""

from __future__ import annotations

import datetime as dt
import numbers
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .data import (SORT_KEYS, BillingMonthRecord, ServiceRequestRecord, SubscriberRecord, Table,
                   TelcoDataset, UsageMonthRecord)
from .months import Month

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
_SERVICES = ("voice", "voice_broadband")  # indexed by whether the service carries data
_UL_MU = np.log(0.15)
# ``_draw``'s per-record integers, in the order of its rows
_SCALARS = ("act", "act_day", "tenure", "tier", "term", "term_day", "back", "back_day", "data",
            "last_bill")


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
        for name in ("seed", "n_consumers", "n_smes"):
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or v < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {v!r}")
        for name in ("months_start", "months_end"):
            if not isinstance(getattr(self, name), Month):
                raise ValueError(f"{name} must be a Month, got {getattr(self, name)!r}")
        if self.n_consumers + self.n_smes == 0:
            raise ValueError("n_consumers and n_smes must not both be 0")
        for name in ("churn_rate", "winback_rate"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {v}")
        if not 0.0 <= self.signal_strength <= 1.0:
            raise ValueError(f"signal_strength must be in [0, 1], got {self.signal_strength}")
        if self.months_end < self.months_start:
            raise ValueError("months_end must not precede months_start")
        if self.months_end.diff(self.months_start) < 5:
            raise ValueError("months_end must be at least 5 months after months_start")


def _cdf(p) -> np.ndarray:
    """The cumulative weights that ``Generator.choice(..., p=p)`` searches."""
    cdf = np.cumsum(p)
    return cdf / cdf[-1]


_CONTRACT_CDF = _cdf(_CONTRACT_W)
_LOCATION_CDF = _cdf(_LOCATION_W)


def _pick(rng: np.random.Generator, cdf: np.ndarray) -> int:
    """The index ``rng.choice(len(cdf), p=...)`` draws, with the same draw;
    ``_derive`` runs this search over a whole segment's draws at once."""
    return int(cdf.searchsorted(rng.random(), side="right"))


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


# SeedSequence's hash constants (NEP 19) and PCG64's 128-bit multiplier
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg_states(seed: int, segment: int, idxs) -> np.ndarray:
    """Row i is ``SeedSequence((seed, segment, idxs[i])).generate_state(4,
    np.uint64)``, hashed for every record at once (each idx < 2**32).

    SeedSequence's algorithm on uint32 arrays, which wrap as its arithmetic
    does: the entropy (each int as its 32-bit words, least significant
    first) is hashed into a pool of four words, zero-padded; each pool word
    is mixed into every other; entropy words past the fourth are mixed into
    all four; the pool is hashed out to eight words, paired little-endian.
    The hash constant steps the same way whatever the entropy, so it is a
    Python int.
    """
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    idx = np.asarray(idxs, np.uint32)
    entropy = np.zeros((max(4, len(words) + 2), len(idx)), np.uint32)
    entropy[:len(words)] = np.array(words, np.uint32)[:, None]
    entropy[len(words)], entropy[len(words) + 1] = segment, idx
    const = _INIT_A

    def hashmix(value, mult=_MULT_A):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)

    def mix(x, y):
        out = x * _MIX_L - y * _MIX_R
        return out ^ out >> np.uint32(16)

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _INIT_B
    out = [hashmix(pool[i % 4], _MULT_B).astype(np.uint64) for i in range(8)]
    return np.stack([out[i] | out[i + 1] << np.uint64(32) for i in range(0, 8, 2)], axis=1)


def _draw(cfg: GeneratorConfig, segment: str, idxs, term_set, back_set) -> dict:
    """Phase 1: the draws of records ``idxs``, each from its own stream, into
    per-record arrays and (record, coverage month) blocks.

    A record's stream is ``np.random.default_rng((seed, segment, idx))``:
    PCG64 seeded by that SeedSequence. ``_pcg_states`` hashes every record's
    seed at once, and one Generator is set to each record's PCG64 state in
    turn (``srandom``'s two steps on Python ints, no cached half-word), so
    no Generator is built per record. Draws are merged only where one call
    consumes the stream exactly as the separate calls do:

    - a run of normals is one ``standard_normal`` call, scaled once per
      segment afterwards by ``loc + scale * z``, which is what
      ``Generator.normal`` computes; array ``loc``/``scale`` would be slower;
    - a run of ``random`` calls is one call;
    - bounded ``integers`` calls share one call only through per-element
      bounds (``integers(low_array, high_array)`` draws each value as its own
      call does); two sized or scalar calls are never merged otherwise.
    """
    n, n_cov = len(idxs), cfg.months_end.diff(cfg.months_start) + 1
    scalars = np.zeros((len(_SCALARS), n), np.int64)  # one column per record
    r = dict(zip(_SCALARS, scalars), idx=np.array(idxs, np.int64), pick=np.zeros((n, 3)),
             base=np.zeros((n, 4)), noise=np.zeros((n, 3, n_cov)))
    r.update({f: np.zeros((n, n_cov)) for f in ("pay", "reversal", "credit", "extra")})
    r.update({f: np.zeros((n, n_cov), np.int64) for f in ("amount", "day", "code")})
    pick, base, noise, pay, reversal, credit, amount, extra, day, code = (r[f] for f in (
        "pick", "base", "noise", "pay", "reversal", "credit", "amount", "extra", "day", "code"))
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    n_tiers = [len(_PRICES.get((segment, service), ())) for service in _SERVICES]
    # by month count m: the bounds of m request days, m request codes and the last bill
    tail_bounds = [(np.array([1] * m + [0] * m + [0]),
                    np.array([29] * m + [len(_REQUEST_CODES)] * m + [2000]))
                   for m in range(n_cov + 1)]
    states = _pcg_states(cfg.seed, 0 if segment == "consumer" else 1, idxs)
    for k, (idx, words) in enumerate(zip(idxs, states)):
        high_s, low_s, high_i, low_i = words.tolist()
        inc = ((high_i << 64 | low_i) << 1 | 1) & _MASK128
        bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0, "state": {
            "state": ((inc + (high_s << 64 | low_s)) * _PCG_MULT + inc) & _MASK128, "inc": inc}}
        churner = idx in term_set
        data = int(segment == "consumer" or idx % 2 == 1)
        act = (-int(rng.integers(1, 61)) if churner or rng.random() < 0.88
               else int(rng.integers(0, n_cov - 1)))
        act_day, tenure = rng.integers(1, 29), rng.integers(0, 37)
        pick[k, 0] = rng.random()  # contract
        tier = rng.integers(0, n_tiers[data])
        rng.random(out=pick[k, 1:])  # location, hsbb
        # term: past the coverage end by more than the ramp
        term, term_day, back, back_day = n_cov + 3, 0, 0, 0
        if churner:
            # termination months span [cov_start+3, cov_end+3]
            term = 3 + int(rng.integers(0, n_cov))
            term_day = rng.integers(1, 29)
            if idx in back_set:
                back, back_day = rng.integers(2, 7), rng.integers(1, 29)
        # at least one month: activation precedes cov_end, termination follows cov_start
        months = slice(max(act, 0), min(n_cov - 1, term) + 1)
        m = months.stop - months.start
        z = rng.standard_normal(3 + data + 4 * m)  # base, noise and pay normals
        base[k, 1 - data:] = z[:3 + data]
        noise[k, :, months] = z[3 + data:3 + data + 3 * m].reshape(3, m)
        pay[k, months] = z[-m:]
        u = rng.random((2, m))
        reversal[k, months], credit[k, months] = u[0], u[1]
        amount[k, months] = rng.integers(100, 3000, size=m)
        rng.random(out=extra[k, months])
        tail = rng.integers(*tail_bounds[m])  # request days, request codes, last bill
        day[k, months], code[k, months] = tail[:m], tail[m:-1]
        scalars[:, k] = act, act_day, tenure, tier, term, term_day, back, back_day, data, tail[-1]
    for block, loc, scale in ((base[:, 0], 7.2, 0.55), (base[:, 1], _UL_MU, 0.3),
                              (base[:, 2], 5.3, 0.6), (base[:, 3], 3.2, 0.7),
                              (noise, 0.0, 0.18), (pay, 1.0, 0.05)):
        block *= scale  # cells outside a record's months are never read
        block += loc
    return r


def _dates(months: np.ndarray, days: np.ndarray, on: np.ndarray | None = None) -> list:
    """Dates at month indexes ``months`` and days ``days``, None where not
    ``on``. Days run 1..28, which every month has, so none is clamped; each
    (month, day) date is built once."""
    on = np.ones(len(months), bool) if on is None else on
    out = np.full(len(months), None, dtype=object)
    if on.any():
        lo = months[on].min()
        cache = np.array([[dt.date(m // 12, m % 12 + 1, d) for d in range(1, 29)]
                          for m in range(lo, months[on].max() + 1)], dtype=object)
        out[on] = cache[months[on] - lo, days[on] - 1]
    return out.tolist()


def _derive(cfg: GeneratorConfig, segment: str, r: dict) -> dict:
    """Phase 2: every derived column of a batch, from its raw draws: monthly
    (record, coverage month) blocks, ``valid`` in the record's months, and
    the profile and request Tables."""
    n, n_cov = r["noise"].shape[0], r["noise"].shape[2]
    cov, s, t = cfg.months_start.index, cfg.signal_strength, np.arange(n_cov)
    first, data = np.maximum(r["act"], 0), r["data"]
    valid = (first[:, None] <= t) & (t <= r["term"][:, None])
    ramp = _RAMP[np.clip(r["term"][:, None] - t, 0, 4)]
    # price tiers by (has data, tier draw); consumers have no voice-only row
    price = np.array([_PRICES.get((segment, v), (0,) * 4) for v in _SERVICES])[data, r["tier"]]

    dl_base = np.where(data == 1, np.exp(r["base"][:, 0]), 0.0)
    ul_ratio, vmin_base = np.exp(r["base"][:, 1]), np.exp(r["base"][:, 2])
    call_min = np.minimum(np.maximum(r["base"][:, 3], 1.5), 6.0)  # minutes per call
    noise = np.exp(r["noise"])
    dl = np.round(dl_base[:, None] * (1.0 - s * ramp) * noise[:, 0], 3)
    ul = np.round((dl_base * ul_ratio)[:, None] * (1.0 - s * ramp) * noise[:, 1], 3)
    vmin = np.round(vmin_base[:, None] * (1.0 - 0.5 * s * ramp) * noise[:, 2], 1)
    # service requests: sparse, slightly elevated before termination
    requested = valid & (r["extra"] < 0.06 * (1.0 + 2.5 * s * ramp))

    idx = r["idx"].tolist()
    owners = [_owners(i) for i in idx]
    customers, billing, services = map(list, zip(*(
        _ids(segment, c, b, i) for (c, b), i in zip(owners, idx))))
    term_month = cov + r["term"]
    return dict(
        valid=valid, month0=cov, leads=np.array([b for _, b in owners]) == idx,
        dl=dl, ul=ul, vmin=vmin, vcalls=np.rint(vmin / call_min[:, None]).astype(np.int64),
        charge=price[:, None] + (dl * 1.2).astype(np.int64) + (vmin * 3).astype(np.int64),
        pay_ratio=np.clip(r["pay"], 0.7, 1.3) * (1.0 - 0.35 * s * ramp),
        pay_reversal=r["reversal"] < 0.01,
        credit=np.where(r["credit"] < 0.07 + 0.10 * s * ramp, -r["amount"], 0),
        first_last_bill=price + r["last_bill"],
        subscribers=Table(SubscriberRecord, columns=dict(
            customer_id=customers, billing_id=billing, service_id=services,
            segment=[segment] * n, service_type=[_SERVICES[d] for d in data.tolist()],
            activation_date=_dates(cov + r["act"], r["act_day"]),
            customer_since=_dates(cov + r["act"] - r["tenure"], r["act_day"]),
            contract_period=np.array(_CONTRACTS)[
                _CONTRACT_CDF.searchsorted(r["pick"][:, 0], side="right")],
            price_start=price,
            t_location=[_LOCATIONS[i] for i in
                        _LOCATION_CDF.searchsorted(r["pick"][:, 1], side="right").tolist()],
            hsbb_area=(r["pick"][:, 2] < 0.45).astype(np.int64),
            # a drawn day (1..28) marks a termination or a comeback
            termination_date=_dates(term_month, r["term_day"], r["term_day"] > 0),
            comeback_date=_dates(term_month + r["back"], r["back_day"], r["back_day"] > 0))),
        requests=Table(ServiceRequestRecord, columns=dict(
            customer_id=[customers[i] for i in np.nonzero(requested)[0].tolist()],
            request_date=_dates(cov + np.nonzero(requested)[1], r["day"][requested]),
            request_code=[_REQUEST_CODES[c] for c in r["code"][requested].tolist()])))


_MONTHLY = ("dl", "ul", "vmin", "vcalls", "charge", "pay_ratio", "pay_reversal", "credit")
_Service = namedtuple("_Service", ("record", "requests", "first", "first_last_bill", *_MONTHLY))


def _build_service(cfg: GeneratorConfig, segment: str, idx: int,
                   term_set: frozenset[int], back_set: frozenset[int]) -> _Service:
    """Record ``idx`` alone: both phases on a batch of one, viewed as its
    record, requests and months (lists from coverage month ``first`` on)."""
    seg = _derive(cfg, segment, _draw(cfg, segment, [idx], term_set, back_set))
    months = seg["valid"][0]
    return _Service(seg["subscribers"][0], list(seg["requests"]), int(months.argmax()),
                    int(seg["first_last_bill"][0]), *(seg[f][0, months].tolist() for f in _MONTHLY))


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
        pick = np.random.default_rng((config.seed, 0 if segment == "consumer" else 1, 0xC4A11))
        term_set = _choose(pick, n, int(round(n * config.churn_rate)))
        back_set = _choose(pick, len(term_set), int(round(len(term_set) * config.winback_rate)))
        # back_set indexes into the sorted churner list for determinism
        churners_sorted = sorted(term_set)
        back_ids = frozenset(churners_sorted[i] for i in back_set)
        # the raw draws are freed once derived, before the grids are built
        _assemble(ds, _derive(config, segment,
                              _draw(config, segment, range(n), term_set, back_ids)))
    return ds


def _assemble(ds: TelcoDataset, seg: dict) -> None:
    """Stitch a derived segment into the tables' columns. Pure; draws no
    randomness.

    Billing accounts are rows of (account, coverage month) grids, so the
    month-to-month balance carry-over runs once per month for all accounts.
    """
    ds.subscribers.extend(seg["subscribers"])
    ds.service_requests.extend(seg["requests"])
    valid = seg["valid"]
    leaders = np.flatnonzero(seg["leads"])  # a member directly follows its leader

    # members add onto their leader's months in record order; how an account
    # pays is its leader's alone
    active = np.logical_or.reduceat(valid, leaders)
    current, credit, vcalls, dl, ul, vmin = (
        np.add.reduceat(np.where(valid, seg[f], 0), leaders)
        for f in ("charge", "credit", "vcalls", "dl", "ul", "vmin"))
    pay_ratio, reversal = (np.where(valid, seg[f], fill)[leaders]
                           for f, fill in (("pay_ratio", 1.0), ("pay_reversal", False)))
    shape = active.shape
    last_bill, amt_2pay, outstanding, payment = (np.zeros(shape, dtype=np.int64)
                                                 for _ in range(4))
    prev_current = seg["first_last_bill"][leaders]
    prev_unpaid = np.zeros(len(leaders), dtype=np.int64)
    for t in range(shape[1]):
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
    billing_ids = seg["subscribers"].column("billing_id")
    cells = {"billing_id": [billing_ids[i] for i in leaders[rows].tolist()],
             "month": seg["month0"] + cols}
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
