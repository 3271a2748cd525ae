"""Raw stock features, cross-sectional z-scoring, and look-back windows.

Feature layout is fixed (interpretation output indexes depend on it):
pr, vol, tv, mc, pe, bm, div. ``pr`` is the one-month price rising rate
close_t / close_{t-1}; the rest are read from the bar at t.

Z-scores are cross-sectional per period: at each window step, every
feature is standardized to population mean 0 / std 1 across the stocks
eligible at the decision time. A stock is eligible at t iff every bar in
[t-K, t] is present.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DataError, NoEligibleStocksError
from .market import MarketPanel, format_month

FEATURE_NAMES = ("pr", "vol", "tv", "mc", "pe", "bm", "div")
N_FEATURES = len(FEATURE_NAMES)


def raw_features(panel: MarketPanel, stock_id: str, t) -> np.ndarray:
    """Unstandardized 7-vector for one stock at month t (needs bars at t-1, t)."""
    pi = panel.index_of(t)
    si = panel.stock_index(stock_id)
    if pi == 0 or not (panel.mask[si, pi] and panel.mask[si, pi - 1]):
        raise DataError(
            f"missing bar for {stock_id} around {format_month(panel.start + pi)}"
        )
    close = panel.field("close")
    return np.array(
        [
            close[si, pi] / close[si, pi - 1],
            panel.field("vol")[si, pi],
            panel.field("volume")[si, pi],
            panel.field("mcap")[si, pi],
            panel.field("pe")[si, pi],
            panel.field("bm")[si, pi],
            panel.field("div")[si, pi],
        ]
    )


def zscore_crosssection(raw: np.ndarray) -> np.ndarray:
    """Standardize feature columns across stocks (population std).

    ``raw`` is (I, F) for I >= 2 stocks. Columns with zero cross-sectional
    variance map to all zeros.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[0] < 2:
        raise DataError("zscore: need at least 2 stocks")
    mean = raw.mean(axis=0)
    std = raw.std(axis=0)
    z = np.zeros_like(raw)
    nz = std > 0
    z[:, nz] = (raw[:, nz] - mean[nz]) / std[nz]
    return z


@dataclass(frozen=True)
class WindowSet:
    """All eligible stocks' windows at one decision time, plus rank priors."""

    t: int
    stock_ids: tuple[str, ...]
    features: np.ndarray  # (I, K, F)
    ranks: np.ndarray  # (I,) 1 = highest price rising rate over (t-1, t]

    def __len__(self) -> int:
        return len(self.stock_ids)


def build_windows(panel: MarketPanel, t, k: int) -> WindowSet:
    """Assemble (I, K, F) windows and last-period ranks at decision time t.

    Eligibility: all bars in [t-k, t] present. Standardization happens
    cross-sectionally at each of the k steps among the stocks eligible at t.
    Ranks are dense over the eligible set, ties broken by ascending
    stock_id.
    """
    pi = panel.index_of(t)
    if pi < k:
        raise DataError(
            f"decision time {format_month(panel.start + pi)} needs {k} look-back months"
        )
    eligible = np.flatnonzero(panel.mask[:, pi - k : pi + 1].all(axis=1))
    if eligible.size == 0:
        raise NoEligibleStocksError(
            f"no stock has a complete window at {format_month(panel.start + pi)}"
        )
    ids = [panel.stock_ids[i] for i in eligible]
    close = panel.field("close")[eligible]
    cols = [panel.field(f)[eligible] for f in ("vol", "volume", "mcap", "pe", "bm", "div")]

    feats = np.zeros((eligible.size, k, N_FEATURES))
    for step in range(k):
        j = pi - k + 1 + step
        raw = np.column_stack(
            [close[:, j] / close[:, j - 1]] + [c[:, j] for c in cols]
        )
        feats[:, step, :] = zscore_crosssection(raw)

    pr_last = close[:, pi] / close[:, pi - 1]
    order = sorted(range(len(ids)), key=lambda i: (-pr_last[i], ids[i]))
    ranks = np.zeros(len(ids), dtype=np.int64)
    for pos, i in enumerate(order, start=1):
        ranks[i] = pos
    return WindowSet(panel.start + pi, tuple(ids), feats, ranks)


class PreparedPanel:
    """A panel with its look-back k: caches per-decision-time windows and
    reads universes and forward price ratios.

    Windows depend only on the panel and k, so one prepared panel serves
    every training epoch, backtest, and interpretation pass.
    """

    def __init__(self, panel: MarketPanel, k: int):
        if k < 1:
            raise DataError("k must be at least 1")
        self.panel = panel
        self.k = int(k)
        self._windows = lru_cache(maxsize=None)(self._build)

    @property
    def decision_times(self) -> list[int]:
        """Times where a full look-back window fits on the axis."""
        return list(range(self.panel.start + self.k, self.panel.end + 1))

    @property
    def tradable_times(self) -> list[int]:
        """Decision times that also have a next close on the axis."""
        return list(range(self.panel.start + self.k, self.panel.end))

    def universe(self, t) -> list[int]:
        """Stock indices with every bar in [t-k, t] present."""
        pi = self.panel.index_of(t)
        if pi < self.k:
            return []
        return list(np.flatnonzero(self.panel.mask[:, pi - self.k : pi + 1].all(axis=1)))

    def windows(self, t) -> WindowSet | None:
        """WindowSet at t, or None when fewer than 2 stocks are eligible."""
        return self._windows(self.panel.index_of(t) + self.panel.start)

    def _build(self, t: int) -> WindowSet | None:
        if len(self.universe(t)) < 2:
            return None
        return build_windows(self.panel, t, self.k)

    def forward_ratios(self, t, stock_ids) -> tuple[np.ndarray, list[tuple[str, str]]]:
        """Price rising rates close_{t+1}/close_t for the given stocks.

        Every stock needs a bar at t. A stock with no bar at t+1 (delisted
        mid-hold) gets its last observed one-month ratio close_t/close_{t-1}
        instead, and the substitution is reported as an event
        ``(stock_id, 'missing_next_close')``; with no bar at t-1 either,
        nothing is substituted and DataError is raised.
        """
        panel = self.panel
        pi = panel.index_of(t)
        when = format_month(panel.start + pi)
        if pi + 1 >= panel.n_periods:
            raise DataError(f"no close after {when}")
        rows = np.array([panel.stock_index(sid) for sid in stock_ids], dtype=np.intp)
        mask = panel.mask
        absent = np.flatnonzero(~mask[rows, pi])
        if absent.size:
            raise DataError(f"no bar for {stock_ids[absent[0]]} at {when}")
        close = panel.field("close")
        z = close[rows, pi + 1] / close[rows, pi]
        missing = np.flatnonzero(~mask[rows, pi + 1])
        if missing.size:
            no_prev = missing if pi == 0 else missing[~mask[rows[missing], pi - 1]]
            if no_prev.size:
                raise DataError(
                    f"no close for {stock_ids[no_prev[0]]} after {when} and no ratio to substitute"
                )
            z[missing] = close[rows[missing], pi] / close[rows[missing], pi - 1]
        return z, [(stock_ids[j], "missing_next_close") for j in missing]
