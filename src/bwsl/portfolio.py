"""Turn winner scores into long/short (or long-only) portfolios and
realize holding-period returns.

Stocks are ranked by descending score (ties by ascending stock_id). The
top G form the long leg with weights softmax(s) within the leg; the
bottom G form the short leg with weights softmax(1 - s). Both legs sum
to 1, so the paired portfolio is zero-investment: the realized return is
the difference of leg-weighted price rising rates. Unselected stocks
carry weight 0 in the combined record vector.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import DataError, MissingReturnError
from .policy import WinnerScores

LONG_SHORT = "long-short"
LONG_ONLY = "long-only"
MODES = (LONG_SHORT, LONG_ONLY)


@dataclass(frozen=True)
class PortfolioPair:
    """Long/short legs plus the combined weight vector over all stocks."""

    stock_ids: tuple[str, ...]
    long_indices: tuple[int, ...]
    short_indices: tuple[int, ...]
    b_plus: np.ndarray
    b_minus: np.ndarray
    b_c: np.ndarray
    mode: str
    g: int

    def long_weights(self) -> dict[str, float]:
        return {self.stock_ids[i]: float(w) for i, w in zip(self.long_indices, self.b_plus)}

    def short_weights(self) -> dict[str, float]:
        return {self.stock_ids[i]: float(w) for i, w in zip(self.short_indices, self.b_minus)}


def select_legs(scores: np.ndarray, stock_ids, g: int, mode: str = LONG_SHORT):
    """Indices of the long and short legs under descending-score order.

    Ties break by ascending stock_id. Long-only mode returns an empty
    short leg.
    """
    if mode not in MODES:
        raise DataError(f"unknown portfolio mode {mode!r}")
    n = len(stock_ids)
    g = int(g)
    if g < 1:
        raise DataError("leg size g must be at least 1")
    if mode == LONG_SHORT and 2 * g > n:
        raise DataError(f"legs overlap: 2*{g} > {n} stocks")
    if mode == LONG_ONLY and g > n:
        raise DataError(f"leg size {g} exceeds {n} stocks")
    order = sorted(range(n), key=lambda i: (-float(scores[i]), stock_ids[i]))
    long_idx = tuple(order[:g])
    short_idx = tuple(order[n - g :]) if mode == LONG_SHORT else ()
    return long_idx, short_idx


def _leg_softmax(values: np.ndarray) -> np.ndarray:
    e = np.exp(values - values.max())
    return e / e.sum()


def generate(scores: WinnerScores, g: int, mode: str = LONG_SHORT) -> PortfolioPair:
    """Build the portfolio pair for one holding period."""
    values = np.asarray(scores.values, dtype=float)
    long_idx, short_idx = select_legs(values, scores.stock_ids, g, mode)
    b_plus = _leg_softmax(values[list(long_idx)])
    b_minus = (
        _leg_softmax(1.0 - values[list(short_idx)])
        if short_idx
        else np.zeros(0)
    )
    b_c = np.zeros(len(values))
    b_c[list(long_idx)] = b_plus
    b_c[list(short_idx)] = b_minus
    return PortfolioPair(
        stock_ids=tuple(scores.stock_ids),
        long_indices=long_idx,
        short_indices=short_idx,
        b_plus=b_plus,
        b_minus=b_minus,
        b_c=b_c,
        mode=mode,
        g=int(g),
    )


def realize_return(pair: PortfolioPair, z: Mapping[str, float]) -> float:
    """Holding-period rate of return of the pair given price rising rates
    z = p_{t+1}/p_t keyed by stock id.

    Long-short: sum(b+ z) - sum(b- z). Long-only: sum(b+ z) - 1. Every
    rate must be positive and every supported stock must have one;
    mid-hold delistings are the caller's responsibility
    (``PreparedPanel.forward_ratios`` substitutes them and reports events).
    """
    if np.any(np.fromiter(z.values(), dtype=float, count=len(z)) <= 0):
        raise DataError("price rising rates must be positive")

    def rates(indices) -> np.ndarray:
        try:
            return np.array([z[pair.stock_ids[i]] for i in indices], dtype=float)
        except KeyError as e:
            raise MissingReturnError(f"no realized price ratio for {e.args[0]}") from None

    long_z = rates(pair.long_indices)
    long_part = float(pair.b_plus @ long_z) if len(long_z) else 0.0
    if pair.mode == LONG_ONLY:
        return long_part - 1.0
    short_z = rates(pair.short_indices)
    short_part = float(pair.b_minus @ short_z) if len(short_z) else 0.0
    return long_part - short_part
