"""Monthly market panels: CSV ingestion, synthetic generation, splitting.

A panel is a rectangular (stock x month) block of bars with a presence
mask of bools or 0/1 whole numbers; the month axis is contiguous with no
gaps. Absent (stock, month) cells are masked out and never imputed.

All randomness comes from named substreams of one 64-bit seed via
NumPy's PCG64 generator, so identical configs reproduce panels bitwise
across runs and platforms.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

import numpy as np

from .errors import DataError, real_array, real_number, whole_array, whole_number

CSV_FIELDS = ("stock_id", "period", "close", "vol", "volume", "mcap", "pe", "bm", "div")
CSV_HEADER = ",".join(CSV_FIELDS)
_NUMERIC_FIELDS = CSV_FIELDS[2:]

_MONTH_RE = re.compile(r"^(\d{4})-(\d{2})$")

# internal coefficients of the synthetic generator (monthly units)
_BASE_DRIFT = 0.004            # common log-price drift
_VOL_DRIFT_SLOPE = 0.35        # extra drift per unit of (mid vol - stock vol)
_TREND_DECAY = 0.92            # AR(1) persistence of the momentum factor
_TREND_SHOCK = 0.004           # innovation std of the momentum factor
_REVERSION_KAPPA = 0.35        # monthly decay of the idio term per unit reversion
_IDIO_SCALE = 2.0              # monthly idio shock std per unit of stock vol
_MARKET_VOL = 0.025            # common factor shocks shared by all stocks
_FUNDAMENTAL_STEP = 0.03       # log step std of the slow fundamental walks


def parse_month(text: str) -> int:
    """'YYYY-MM' -> absolute month number (year*12 + month-1)."""
    m = _MONTH_RE.match(str(text).strip())
    if not m:
        raise DataError(f"bad period {text!r}, expected YYYY-MM")
    year, month = int(m.group(1)), int(m.group(2))
    if not 1 <= month <= 12:
        raise DataError(f"bad period {text!r}, month out of range")
    return year * 12 + (month - 1)


def _month(period) -> int:
    """Absolute month number of a 'YYYY-MM' string or a whole number."""
    return parse_month(period) if isinstance(period, str) else whole_number(period, "period", None)


def format_month(period: int) -> str:
    return f"{period // 12:04d}-{period % 12 + 1:02d}"


def substream(seed: int, name: str) -> np.random.Generator:
    """Named, reproducible PCG64 stream derived from one master seed, a
    whole number of at least 0."""
    seed = whole_number(seed, "seed", 0)
    tag = int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "big")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag])))


def _bar_fault(bars: np.ndarray) -> str | None:
    """The first rule that ``bars`` break, or None. ``bars`` holds one bar's
    numeric fields in CSV order, or one row of bars per field: every value
    is finite, close and mcap are positive, vol and volume non-negative."""
    if not np.isfinite(bars).all():
        return "non-finite value"
    close, vol, volume, mcap = bars[:4]
    broken = {"non-positive close": close <= 0, "negative vol": vol < 0,
              "negative volume": volume < 0, "non-positive mcap": mcap <= 0}
    return next((fault for fault, test in broken.items() if np.any(test)), None)


class MarketPanel:
    """Immutable per-stock, per-month panel on a contiguous month axis."""

    def __init__(self, stock_ids, start: int, values: dict, mask: np.ndarray):
        self.stock_ids = tuple(str(s) for s in stock_ids)
        self.start = whole_number(start, "panel: start", None)
        mask = whole_array(mask, "panel: mask")
        if mask.ndim != 2 or len(self.stock_ids) != mask.shape[0]:
            raise DataError(f"panel: mask rows do not match stock ids, mask shape {mask.shape}")
        if ((mask != 0) & (mask != 1)).any():
            raise DataError("panel: mask must hold bools or the whole numbers 0 and 1")
        self.mask = mask.astype(bool)
        self._values = {}
        for name in _NUMERIC_FIELDS:
            # a missing field reads as a 0-d NaN, so its shape is reported
            arr = real_array(values.get(name, np.nan), f"panel: field {name}")
            if arr.shape != self.mask.shape:
                raise DataError(f"panel: field {name} has shape {arr.shape}")
            self._values[name] = arr
        self._index = {s: i for i, s in enumerate(self.stock_ids)}
        if len(self._index) != len(self.stock_ids):
            raise DataError("panel: duplicate stock id")
        # each row's place in ascending id order, a tie-break key that sorts as ints
        n = len(self.stock_ids)
        self.id_ranks = np.empty(n, dtype=np.int64)
        self.id_ranks[sorted(range(n), key=self.stock_ids.__getitem__)] = np.arange(n)
        fault = _bar_fault(np.stack([self._values[f][self.mask] for f in _NUMERIC_FIELDS]))
        if fault:
            raise DataError(f"panel: {fault} in a present bar")
        for arr in (*self._values.values(), self.mask, self.id_ranks):
            arr.flags.writeable = False

    @property
    def n_stocks(self) -> int:
        return self.mask.shape[0]

    @property
    def n_periods(self) -> int:
        return self.mask.shape[1]

    @property
    def periods(self) -> np.ndarray:
        return np.arange(self.start, self.start + self.n_periods)

    @property
    def end(self) -> int:
        return self.start + self.n_periods - 1

    def field(self, name: str) -> np.ndarray:
        return self._values[name]

    def index_of(self, period) -> int:
        p = _month(period)
        idx = p - self.start
        if not 0 <= idx < self.n_periods:
            raise DataError(f"period {format_month(p)} outside the panel axis")
        return idx

    def stock_index(self, stock_id: str) -> int:
        try:
            return self._index[stock_id]
        except KeyError:
            raise DataError(f"unknown stock {stock_id!r}") from None


def load_panel(path) -> MarketPanel:
    """Parse a panel CSV (schema in CSV_HEADER); absent months are masked."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read {path}: {e}") from None
    if not lines or lines[0].strip() != CSV_HEADER:
        raise DataError(f"{path}: missing or wrong header, expected '{CSV_HEADER}'")
    records: dict[tuple[str, int], tuple] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(CSV_FIELDS):
            raise DataError(f"{path}:{lineno}: expected {len(CSV_FIELDS)} fields")
        stock_id = parts[0].strip()
        if not stock_id:
            raise DataError(f"{path}:{lineno}: empty stock_id")
        try:
            period = parse_month(parts[1])
        except DataError as e:
            raise DataError(f"{path}:{lineno}: {e}") from None
        try:
            nums = [float(p) for p in parts[2:]]
        except ValueError:
            raise DataError(f"{path}:{lineno}: unparsable number") from None
        fault = _bar_fault(np.array(nums))
        if fault:
            raise DataError(f"{path}:{lineno}: {fault}")
        key = (stock_id, period)
        if key in records:
            raise DataError(
                f"{path}:{lineno}: duplicate bar for {stock_id} at {parts[1].strip()}"
            )
        records[key] = tuple(nums)
    if not records:
        raise DataError(f"{path}: no data rows")
    stock_ids = sorted({k[0] for k in records})
    periods = [k[1] for k in records]
    start, last = min(periods), max(periods)
    n_periods = last - start + 1
    shape = (len(stock_ids), n_periods)
    values = {name: np.zeros(shape) for name in _NUMERIC_FIELDS}
    values["close"][:] = 1.0  # placeholder in masked cells, keeps invariants simple
    values["mcap"][:] = 1.0
    mask = np.zeros(shape, dtype=bool)
    row_of = {s: i for i, s in enumerate(stock_ids)}
    for (stock_id, period), nums in records.items():
        si, pi = row_of[stock_id], period - start
        mask[si, pi] = True
        for name, value in zip(_NUMERIC_FIELDS, nums):
            values[name][si, pi] = value
    return MarketPanel(stock_ids, start, values, mask)


def save_panel(panel: MarketPanel, path) -> None:
    """Write a panel in canonical order (stock_id, then period), %.12g floats."""
    out = [CSV_HEADER]
    for si, stock_id in enumerate(panel.stock_ids):
        for pi in range(panel.n_periods):
            if not panel.mask[si, pi]:
                continue
            nums = ",".join(
                format(float(panel.field(f)[si, pi]), ".12g") for f in _NUMERIC_FIELDS
            )
            out.append(f"{stock_id},{format_month(panel.start + pi)},{nums}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic market generator."""

    num_stocks: int
    num_periods: int
    sub_steps: int = 21
    momentum: float = 1.0
    reversion: float = 1.0
    vol_range: tuple[float, float] = (0.02, 0.08)
    seed: int = 0
    start: int = parse_month("2000-01")

    def __post_init__(self):
        # sizes and the seed are stored as ints (30.0 becomes 30), the knobs as floats
        for name, minimum in (("num_stocks", 4), ("num_periods", 26), ("sub_steps", 2), ("seed", 0)):
            value = whole_number(getattr(self, name), f"synth: {name}", minimum)
            object.__setattr__(self, name, value)
        # a negative reversion would make the idiosyncratic term explode
        for name, minimum in (("momentum", None), ("reversion", 0)):
            object.__setattr__(self, name, real_number(getattr(self, name), f"synth: {name}", minimum))
        try:
            lo, hi = (real_number(v, "synth: vol_range") for v in self.vol_range)
        except (TypeError, ValueError):  # not iterable, or not two entries
            raise DataError(f"synth: need a (lo, hi) vol_range, got {self.vol_range!r}") from None
        if not (0 < lo <= hi):
            raise DataError("synth: vol_range must satisfy 0 < lo <= hi")
        object.__setattr__(self, "vol_range", (lo, hi))


def synth_market(cfg: SynthConfig) -> MarketPanel:
    """Generate a seeded panel with planted structure.

    Monthly log closes follow drift + a persistent momentum factor (scaled
    by ``cfg.momentum``) + a mean-reverting idiosyncratic term (decay scaled
    by ``cfg.reversion``) + a common market factor. The drift carries a
    built-in tilt that gives low-volatility stocks a higher drift, so
    low-vol names outperform by construction. Sub-step prices are the
    month's close perturbed by transient noise whose sample deviation is
    pinned to the stock's vol scale; the last sub-step is the close, and
    monthly vol is the standard deviation of the sub-step prices.
    Fundamentals follow slow positive log walks.
    """
    n, p, steps = cfg.num_stocks, cfg.num_periods, cfg.sub_steps
    rng_p = substream(cfg.seed, "prices")
    rng_f = substream(cfg.seed, "fundamentals")

    lo, hi = cfg.vol_range
    sigma = rng_p.uniform(lo, hi, size=n)
    mu = _BASE_DRIFT + _VOL_DRIFT_SLOPE * ((lo + hi) / 2.0 - sigma)
    kappa = min(_REVERSION_KAPPA * cfg.reversion, 0.95)

    base = rng_p.normal(np.log(20.0), 0.5, size=n)
    idio = np.zeros(n)
    trend = np.zeros(n)
    market = 0.0

    close = np.zeros((n, p))
    vol = np.zeros((n, p))
    for t in range(p):
        trend = _TREND_DECAY * trend + rng_p.normal(0.0, _TREND_SHOCK, size=n)
        base = base + mu + cfg.momentum * trend
        idio = (1.0 - kappa) * idio + _IDIO_SCALE * sigma * rng_p.normal(size=n)
        market = market + _MARKET_VOL * rng_p.normal()
        logc = base + idio + market
        close[:, t] = np.exp(logc)
        # transient within-month wiggle, standardized so the sub-step price
        # deviation lands on the stock's vol scale; last sub-step == close
        w = rng_p.normal(size=(steps - 1, n))
        w = (w - w.mean(axis=0)) / np.maximum(w.std(axis=0), 1e-12)
        prices = np.exp(logc[None, :] + np.vstack([sigma * w, np.zeros(n)]))
        vol[:, t] = prices.std(axis=0)

    def walk(base_mean: float, base_spread: float) -> np.ndarray:
        start = rng_f.normal(np.log(base_mean), base_spread, size=n)
        steps_ = rng_f.normal(0.0, _FUNDAMENTAL_STEP, size=(n, p))
        return np.exp(start[:, None] + np.cumsum(steps_, axis=1))

    volume = walk(1e6, 0.8)
    pe = walk(15.0, 0.3)
    bm = walk(0.5, 0.3)
    div = walk(0.4, 0.5)
    mcap = close * walk(5e7, 0.8)  # close times a slow shares-outstanding walk

    stock_ids = [f"S{i:04d}" for i in range(n)]
    values = {
        "close": close,
        "vol": vol,
        "volume": volume,
        "mcap": mcap,
        "pe": pe,
        "bm": bm,
        "div": div,
    }
    return MarketPanel(stock_ids, cfg.start, values, np.ones((n, p), dtype=bool))


def split(panel: MarketPanel, train_end, k: int = 12) -> tuple[MarketPanel, MarketPanel]:
    """Split into train [start, train_end] and test (train_end - k, end].

    The test panel keeps the trailing k months of the training range so the
    first test decision (train_end + 1) has a complete look-back window.
    """
    te = _month(train_end)
    k = whole_number(k, "split: k", 0)
    if te <= panel.start or te >= panel.end:
        raise DataError(
            f"train_end {format_month(te)} must lie strictly inside the axis "
            f"[{format_month(panel.start)}, {format_month(panel.end)}]"
        )
    cut = panel.index_of(te)
    test_from = max(cut - k + 1, 0)
    train = _slice_panel(panel, 0, cut + 1)
    test = _slice_panel(panel, test_from, panel.n_periods)
    return train, test


def _slice_panel(panel: MarketPanel, i0: int, i1: int) -> MarketPanel:
    values = {f: panel.field(f)[:, i0:i1].copy() for f in _NUMERIC_FIELDS}
    mask = panel.mask[:, i0:i1].copy()
    keep = mask.any(axis=1)
    ids = [s for s, k in zip(panel.stock_ids, keep) if k]
    values = {f: v[keep] for f, v in values.items()}
    return MarketPanel(ids, panel.start + i0, values, mask[keep])
