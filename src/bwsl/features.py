"""Raw stock features, cross-sectional z-scoring, and look-back windows.

The feature layout is FEATURE_NAMES, fixed because interpretation output
indexes depend on it. ``pr`` is the one-month price rising rate
close_t / close_{t-1}; the rest are read from the bar at t.

Z-scores are cross-sectional per period: at each window step, every
feature is standardized to population mean 0 / std 1 across the stocks
eligible at the decision time. A stock is eligible at t iff every bar in
[t-K, t] is present. A window is built in one pass: ``raw_features``
reads all K steps of the eligible rows as one (I, K, F) block and
``zscore_crosssection`` standardizes every (step, feature) column of it
at once. Reducing axis 0 of a block adds the rows in the same order as
reducing one step's (I, F) slice, so the block gives bitwise the values
that K separate steps would. The window set then puts its stocks in rank
order, by the raw ``pr`` at the decision time, so a stock's row is its
rank, and the rank prior psi of :mod:`policy` is Toeplitz in row order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NoEligibleStocksError, _array, real_array, whole_number
from .market import MarketPanel, format_month

FEATURE_NAMES = ("pr", "vol", "tv", "mc", "pe", "bm", "div")
N_FEATURES = len(FEATURE_NAMES)
# panel field read for a feature after pr (the close ratio) whose name differs
_PANEL_FIELD = {"tv": "volume", "mc": "mcap"}


def raw_features(panel: MarketPanel, rows, j, k) -> np.ndarray:
    """Unstandardized (len(rows), k, F) features of the stocks at panel rows
    ``rows`` over the k month columns j-k+1 .. j, in FEATURE_NAMES order.

    Every row needs bars in columns [j-k, j]: ``pr`` at a step divides its
    close by the one before it. DataError for a row outside the panel, a
    column that is not a whole number, a block that does not fit on the
    axis, or a missing bar (naming the first step that cannot be read).
    """
    rows = _array(rows, "rows", "panel rows")
    if rows.ndim != 1 or rows.dtype.kind not in "iu" or rows.size and (
        rows.min() < 0 or rows.max() >= panel.n_stocks
    ):
        raise DataError(f"rows must be a list of panel rows in [0, {panel.n_stocks})")
    j = whole_number(j, "month column", None)
    k = whole_number(k, "k", 1)
    if not k <= j < panel.n_periods:
        raise DataError(f"no month column {j} with {k} months before it")
    block = slice(j - k, j + 1)
    present = panel.mask[rows, block]
    if not present.all():
        r, c = np.argwhere(~present)[0]
        raise DataError(
            f"missing bar for {panel.stock_ids[rows[r]]} around "
            f"{format_month(panel.start + j - k + max(c, 1))}"
        )
    close = panel.field("close")[rows, block]
    out = np.empty((rows.size, k, N_FEATURES))
    with np.errstate(over="ignore"):  # an infinite ratio is zscore_crosssection's to reject
        np.divide(close[:, 1:], close[:, :-1], out=out[:, :, 0])
    for col, name in enumerate(FEATURE_NAMES[1:], start=1):
        out[:, :, col] = panel.field(_PANEL_FIELD.get(name, name))[rows, j - k + 1 : j + 1]
    return out


def descending_order(values, ids) -> np.ndarray:
    """Indices that sort ``values`` descending, ties by ascending id.
    DataError unless ``values`` is a 1-d array of real numbers with one
    id each."""
    values, ids = real_array(values, "order: values"), _array(ids, "order: ids", "ids")
    if values.ndim != 1 or ids.shape != values.shape:
        raise DataError(
            f"order: need one value per id, got {values.shape} values for {ids.shape} ids"
        )
    return np.lexsort((ids, -values))


def _eligible(panel: MarketPanel, pi: int, k: int) -> np.ndarray:
    """Rows with every bar in month columns [pi-k, pi] present."""
    return np.flatnonzero(panel.mask[:, pi - k : pi + 1].all(axis=1))


def zscore_crosssection(raw: np.ndarray) -> np.ndarray:
    """Standardize every feature column across stocks (population std), in
    place, and return the array.

    ``raw`` is (I, ..., F) for I >= 2 stocks: one period's (I, F) or a
    window block's (I, K, F); axis 0 is reduced for every trailing index.
    A float64 array is overwritten; other integer or float arrays are
    converted first, and DataError is raised for anything else.
    Columns with zero cross-sectional variance map to all zeros. DataError,
    naming the feature, when a column holds NaN or infinity or its spread
    overflows: nothing is substituted for it.
    """
    raw = real_array(raw, "zscore: features")
    if raw.ndim < 2 or raw.shape[0] < 2 or raw.shape[-1] != N_FEATURES:
        raise DataError(f"zscore: need (I, ..., {N_FEATURES}) features of at least 2 stocks")
    n = raw.shape[0]
    # the steps of ndarray.std, so the spread is bitwise what raw.std(axis=0)
    # gives, reusing the centring that the z-scores need anyway
    with np.errstate(invalid="ignore", over="ignore"):
        raw -= raw.mean(axis=0)
        std = np.sqrt((raw * raw).sum(axis=0) / n)
    bad = ~np.isfinite(std)
    if bad.any():
        name = FEATURE_NAMES[np.argwhere(bad)[0][-1]]
        raise DataError(f"zscore: non-finite value in feature {name}")
    flat = std == 0
    std[flat] = 1.0
    raw /= std
    raw[:, flat] = 0.0
    return raw


@dataclass(frozen=True)
class WindowSet:
    """All eligible stocks' windows at one decision time, stocks in rank
    order: row i holds the stock of rank i + 1, rank 1 having the highest
    price rising rate over (t-1, t]. Scoring reads the rank from the row,
    so ``ranks`` is derived from the rows, never stored."""

    t: int
    stock_ids: tuple[str, ...]
    features: np.ndarray  # (I, K, F)

    def __len__(self) -> int:
        return len(self.stock_ids)

    @property
    def ranks(self) -> np.ndarray:
        """(I,) 1..I, the rank of each row's stock."""
        return np.arange(1, len(self) + 1, dtype=np.int64)


def build_windows(panel: MarketPanel, t, k: int) -> WindowSet:
    """Assemble (I, K, F) windows and last-period ranks at decision time t.

    Eligibility: all bars in [t-k, t] present. Standardization happens
    cross-sectionally at each of the k steps among the stocks eligible at t,
    all steps in one pass over the raw block. Ranks are dense over the
    eligible set by the raw ``pr`` at t, ties broken by ascending stock_id,
    and the stocks come in rank order, ranks 1..I. NoEligibleStocksError
    when t comes before k look-back months or fewer than 2 stocks are
    eligible.
    """
    k = whole_number(k, "k", 1)
    pi = panel.index_of(t)
    if pi < k:
        raise NoEligibleStocksError(
            f"decision time {format_month(panel.start + pi)} needs {k} look-back months"
        )
    eligible = _eligible(panel, pi, k)
    if eligible.size < 2:
        raise NoEligibleStocksError(
            f"fewer than 2 stocks have a complete window at {format_month(panel.start + pi)}"
        )
    raw = raw_features(panel, eligible, pi, k)
    # rank by the raw pr at t, read before the block is z-scored in place;
    # the z-scores sum over the stocks in panel order, then rows take rank order
    order = descending_order(raw[:, -1, 0], panel.id_ranks[eligible])
    ids = tuple(panel.stock_ids[i] for i in eligible[order])
    return WindowSet(panel.start + pi, ids, zscore_crosssection(raw)[order])


class PreparedPanel:
    """A panel with its look-back k: caches per-decision-time windows and
    the eligible universe's forward price ratios.

    Windows depend only on the panel and k, so one prepared panel serves
    every training epoch, backtest, and interpretation pass.
    """

    def __init__(self, panel: MarketPanel, k: int):
        self.panel = panel
        self.k = whole_number(k, "k", 1)
        # plain dicts, not lru_cache wrappers of bound methods: those would
        # make a reference cycle that keeps a dropped panel alive until the
        # cyclic collector runs
        self._windows: dict[int, WindowSet | None] = {}
        self._periods: dict[int, tuple] = {}

    @classmethod
    def of(cls, panel, k: int) -> "PreparedPanel":
        """``panel`` itself when it is already prepared with look-back k,
        else a new prepared panel; DataError on a prepared panel with
        another k."""
        if isinstance(panel, cls):
            if panel.k != k:
                raise DataError(f"prepared panel has k={panel.k}, requested k={k}")
            return panel
        return cls(panel, k)

    def month(self, t) -> int:
        """Absolute month number of a period given in any form index_of takes."""
        return self.panel.index_of(t) + self.panel.start

    @property
    def decision_times(self) -> list[int]:
        """Times where a full look-back window fits on the axis."""
        return list(range(self.panel.start + self.k, self.panel.end + 1))

    @property
    def tradable_times(self) -> list[int]:
        """Decision times that also have a next close on the axis."""
        return list(range(self.panel.start + self.k, self.panel.end))

    def windows(self, t) -> WindowSet | None:
        """WindowSet at t, or None where build_windows finds no universe."""
        t = self.month(t)
        if t not in self._windows:
            self._windows[t] = self._build(t)
        return self._windows[t]

    def _build(self, t: int) -> WindowSet | None:
        try:
            return build_windows(self.panel, t, self.k)
        except NoEligibleStocksError:
            return None

    def period_data(self, t) -> tuple[WindowSet, np.ndarray, tuple[tuple[str, str], ...]]:
        """The eligible windows at t, their forward price ratios (read-only)
        and the substitution events behind those ratios, read once per
        prepared panel; NoEligibleStocksError where windows(t) is None."""
        t = self.month(t)
        if t not in self._periods:
            self._periods[t] = self._read_period(t)
        return self._periods[t]

    def _read_period(self, t: int):
        ws = self.windows(t)
        if ws is None:
            raise NoEligibleStocksError(f"fewer than 2 eligible stocks at {format_month(t)}")
        z, events = self.forward_ratios(t, ws.stock_ids)
        z.flags.writeable = False
        return ws, z, tuple(events)

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
