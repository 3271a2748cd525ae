"""Turn winner scores into long/short (or long-only) portfolios and
realize holding-period returns.

Stocks are ranked by descending score (ties by ascending stock_id). The
top G form the long leg with weights softmax(s) within the leg; the
bottom G form the short leg with weights softmax(1 - s). Both legs sum
to 1, so the paired portfolio is zero-investment: the realized return is
the difference of leg-weighted price rising rates. Unselected stocks
carry weight 0 in the combined record vector.

The legs' log-probability, the trainer's surrogate, is read from the pair
too (:func:`leg_logprob`): one tape record whose VJP is closed form.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DataError, MissingReturnError, ShapeError, real_array, whole_number
from .features import descending_order
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
    short leg. Raises :class:`ShapeError` unless there is one score per
    stock and :class:`DataError` for a non-finite score.
    """
    if mode not in MODES:
        raise DataError(f"unknown portfolio mode {mode!r}")
    n = len(stock_ids)
    scores = real_array(scores, "select_legs: scores")
    if scores.shape != (n,):
        raise ShapeError(f"select_legs: {scores.size} scores for {n} stocks")
    if not np.isfinite(scores).all():
        raise DataError("winner scores must be finite")
    g = whole_number(g, "leg size g", 1)
    if mode == LONG_SHORT and 2 * g > n:
        raise DataError(f"legs overlap: 2*{g} > {n} stocks")
    if mode == LONG_ONLY and g > n:
        raise DataError(f"leg size {g} exceeds {n} stocks")
    order = descending_order(scores, stock_ids).tolist()
    long_idx = tuple(order[:g])
    short_idx = tuple(order[n - g :]) if mode == LONG_SHORT else ()
    return long_idx, short_idx


def generate(scores: WinnerScores, g: int, mode: str = LONG_SHORT) -> PortfolioPair:
    """Build the portfolio pair for one holding period."""
    values = real_array(scores.values, "generate: scores")
    long_idx, short_idx = select_legs(values, scores.stock_ids, g, mode)
    b_plus = ad.normalized_exp(values[list(long_idx)])
    b_minus = ad.normalized_exp(1.0 - values[list(short_idx)]) if short_idx else np.zeros(0)
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
        g=len(long_idx),
    )


def leg_logprob(scores: ad.Tensor, pair: PortfolioPair) -> ad.Tensor:
    """log b(t) = sum log b+ + sum log b-, the log-probability of the legs
    ``pair`` holds, as a function of the ``scores`` it was generated from.

    The legs are fixed; the weights are the within-leg softmaxes, so the
    VJP is closed form: 1 - G*b+_i on the long leg, G*b-_i - 1 on the
    short leg (whose softmax is over 1 - s), and 0 elsewhere.
    """
    value = np.log(pair.b_plus).sum() + np.log(pair.b_minus).sum()
    shape = scores.shape

    def vjp(g):
        slope = np.zeros(shape)
        slope[list(pair.long_indices)] = 1.0 - pair.g * pair.b_plus
        slope[list(pair.short_indices)] = pair.g * pair.b_minus - 1.0
        return g * slope

    return ad.emit("leg_logprob", value, ((scores, vjp),))


def realize_return(pair: PortfolioPair, z: Mapping[str, float]) -> float:
    """Holding-period rate of return of the pair given price rising rates
    z = p_{t+1}/p_t keyed by stock id.

    Long-short: sum(b+ z) - sum(b- z). Long-only: sum(b+ z) - 1. Every
    rate must be finite and positive, and every supported stock must have
    one; mid-hold delistings are the caller's responsibility
    (``PreparedPanel.forward_ratios`` substitutes them and reports events).
    """
    if not isinstance(z, Mapping):
        raise DataError(f"price rising rates must be a mapping by stock id, got {type(z).__name__}")
    given = real_array(list(z.values()), "price rising rates")
    if given.ndim != 1 or not (np.isfinite(given) & (given > 0)).all():
        raise DataError("price rising rates must be finite and positive")

    def rates(indices) -> np.ndarray:
        try:
            return np.array([z[pair.stock_ids[i]] for i in indices], dtype=float)
        except KeyError as e:
            raise MissingReturnError(f"no realized price ratio for {e.args[0]}") from None

    long_part = float(pair.b_plus @ rates(pair.long_indices))
    if pair.mode == LONG_ONLY:
        return long_part - 1.0
    return long_part - float(pair.b_minus @ rates(pair.short_indices))
