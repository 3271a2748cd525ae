"""Sharpe objective and the evaluation suite.

Conventions: per-period returns R_t; A = mean(R_t - tc) (flat per-period
transaction cost), V = population std of R_t, sharpe H = (A - theta)/V.
The objective (:func:`sharpe`) and the report's ``sharpe`` are one H, so
they agree bitwise. Annualization over N_Y periods per year: APR = A*N_Y,
AVOL = V*sqrt(N_Y), ASR = APR/AVOL. Max drawdown is computed on the
cumulative-wealth series with a running peak. Downside deviation is the root mean square of
min(R_t, 0) over all periods (MAR = 0).

Degenerate denominators in a report are flagged rather than thrown: a
series of fewer than 2 returns is flagged ``short_series`` and one of zero
volatility ``zero_volatility`` (AVOL 0; sharpe, ASR and DDR NaN); otherwise
MDD = 0 makes CR +inf with flag ``no_drawdown``, and no negative returns
make DDR +inf with flag ``no_downside``. A mean, volatility or wealth that
overflows float64 raises :class:`NonFiniteError`.

Input rule: a series (returns, or wealth for :func:`max_drawdown`) is a
1-d array of finite real numbers (ints and floats of any width) and
theta and tc are finite real numbers; anything else, a string or a bool
among them, raises :class:`DataError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataError, NonFiniteError, RuinError, ZeroVolatilityError, real_array, real_number, whole_number,
)

CSV_COLUMNS = (
    "n_periods",
    "apr",
    "avol",
    "asr",
    "sharpe",
    "mdd",
    "cr",
    "ddr",
    "final_wealth",
    "theta",
    "tc",
    "periods_per_year",
    "flags",
)


def _series(values, who: str) -> np.ndarray:
    """``values`` as a float array; DataError naming ``who`` unless it is
    1-d and finite."""
    r = real_array(values, who)
    if r.ndim != 1:
        raise DataError(f"{who} must be a 1-d series, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise DataError(f"{who} must be finite, got a non-finite value")
    return r


def _measures(r: np.ndarray, theta: float, tc: float, who: str) -> tuple[float, float, float]:
    """A, V and H = (A - theta)/V of a 1-d series. A is NaN for an empty
    series; V is 0.0 and H NaN at zero volatility: fewer than 2 returns,
    all equal, or a spread whose variance underflows. NonFiniteError,
    naming ``who``, when A or V overflows."""
    if r.size == 0:
        return math.nan, 0.0, math.nan
    with np.errstate(over="ignore"):
        a = float(np.mean(r - tc))
        v = 0.0 if np.ptp(r) == 0.0 else float(np.std(r))
    for name, value in (("mean", a), ("volatility", v)):
        if not math.isfinite(value):
            raise NonFiniteError(f"{who}: the {name} of the returns overflows")
    return a, v, ((a - theta) / v if v else math.nan)


def sharpe(returns, theta: float = 0.0, tc: float = 0.0) -> float:
    """Mean excess return (net of tc) per unit of return volatility."""
    r = _series(returns, "sharpe: returns")
    theta, tc = real_number(theta, "sharpe: theta"), real_number(tc, "sharpe: tc")
    if r.size < 2:
        raise DataError("sharpe: need at least 2 returns")
    _, v, h = _measures(r, theta, tc, "sharpe")
    if v == 0.0:
        raise ZeroVolatilityError("sharpe: returns have zero volatility")
    return h


def cumulative_wealth(returns, tc: float = 0.0) -> np.ndarray:
    """Wealth series of length T+1 starting at 1: prod of (R_t + 1 - tc).
    RuinError when a factor is not positive, NonFiniteError when the
    wealth overflows."""
    r = _series(returns, "wealth: returns")
    tc = real_number(tc, "wealth: tc")
    factors = r + 1.0 - tc
    if np.any(factors <= 0):
        t = int(np.argmax(factors <= 0))
        raise RuinError(f"cumulative wealth ruined at period index {t}")
    wealth = np.empty(r.size + 1)
    wealth[0] = 1.0
    with np.errstate(over="ignore"):
        np.cumprod(factors, out=wealth[1:])
    if not np.isfinite(wealth[-1]):
        t = int(np.argmax(~np.isfinite(wealth))) - 1
        raise NonFiniteError(f"cumulative wealth overflows at period index {t}")
    return wealth


def max_drawdown(wealth) -> float:
    """Largest peak-to-trough fraction lost, via a running-peak pass."""
    w = _series(wealth, "max_drawdown: wealth")
    if np.any(w <= 0):
        raise DataError("max_drawdown: wealth must be positive")
    if w.size < 2:
        return 0.0
    peaks = np.maximum.accumulate(w)
    return float(np.max((peaks - w) / peaks))


@dataclass(frozen=True)
class PerformanceReport:
    """Return series plus the derived risk/return measures."""

    returns: np.ndarray
    wealth: np.ndarray
    apr: float
    avol: float
    asr: float
    sharpe: float  # per-period (A - theta)/V, bitwise sharpe()'s; NaN where ASR is
    mdd: float
    cr: float
    ddr: float
    theta: float
    tc: float
    periods_per_year: int
    flags: tuple[str, ...] = field(default=())

    @property
    def final_wealth(self) -> float:
        return float(self.wealth[-1])

    @property
    def n_periods(self) -> int:
        return int(self.returns.size)

    def to_kv(self) -> str:
        """Flat key=value text block."""
        return "".join(f"{key}={self._format(key)}\n" for key in CSV_COLUMNS)

    def to_csv_row(self) -> str:
        """One CSV row in CSV_COLUMNS order (flags joined by ';')."""
        return ",".join(self._format(key) for key in CSV_COLUMNS)

    def _format(self, key: str) -> str:
        value = getattr(self, key)
        if key == "flags":
            return ";".join(value)
        return str(int(value)) if key in ("n_periods", "periods_per_year") else repr(float(value))


def report_or_degenerate(returns, theta=0.0, tc=0.001, periods_per_year=12):
    """Full evaluation of a 1-d return series (it may be empty).

    A series of fewer than 2 returns, or of zero volatility, gets a report
    flagged ``short_series`` or ``zero_volatility``: AVOL is 0, ASR and DDR
    are NaN, and so is sharpe, which is otherwise :func:`sharpe`'s value;
    APR (NaN when empty), MDD, CR and the wealth series are kept. DataError
    for returns that are not a 1-d series of finite real numbers, a
    non-finite theta or tc, and a periods_per_year that is not a positive
    whole number."""
    r = _series(returns, "report: returns")
    theta, tc = real_number(theta, "report: theta"), real_number(tc, "report: tc")
    ny = whole_number(periods_per_year, "report: periods_per_year", 1)
    wealth = cumulative_wealth(r, tc)
    mdd = max_drawdown(wealth)
    a, v, h = _measures(r, theta, tc, "report")
    apr = a * ny
    cr = math.inf if mdd == 0.0 else apr / mdd
    if v == 0.0:
        avol, asr, ddr = 0.0, math.nan, math.nan
        flags = ["short_series" if r.size < 2 else "zero_volatility"]
    else:
        avol = v * math.sqrt(ny)
        asr = apr / avol
        downside = float(np.sqrt(np.mean(np.minimum(r, 0.0) ** 2)))
        ddr = math.inf if downside == 0.0 else apr / downside
        flags = ["no_drawdown"] * (mdd == 0.0) + ["no_downside"] * (downside == 0.0)
    return PerformanceReport(
        returns=r.copy(),
        wealth=wealth,
        apr=apr,
        avol=avol,
        asr=asr,
        sharpe=h,
        mdd=mdd,
        cr=cr,
        ddr=ddr,
        theta=theta,
        tc=tc,
        periods_per_year=ny,
        flags=tuple(flags),
    )
