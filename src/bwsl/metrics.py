"""Sharpe objective and the evaluation suite.

Conventions: per-period returns R_t; A = mean(R_t - tc) (flat per-period
transaction cost), V = population std of R_t, sharpe H = (A - theta)/V.
Annualization over N_Y periods per year: APR = A*N_Y, AVOL = V*sqrt(N_Y),
ASR = APR/AVOL. Max drawdown is computed on the cumulative-wealth series
with a running peak. Downside deviation is the root mean square of
min(R_t, 0) over all periods (MAR = 0).

Degenerate denominators in a report are flagged rather than thrown: a
series of fewer than 2 returns is flagged ``short_series`` and one of zero
volatility ``zero_volatility`` (AVOL 0, ASR and DDR NaN); otherwise
MDD = 0 makes CR +inf with flag ``no_drawdown``, and no negative returns
make DDR +inf with flag ``no_downside``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, RuinError, ZeroVolatilityError, whole_number

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


def _finite_returns(returns, who: str) -> np.ndarray:
    r = np.asarray(returns, dtype=float)
    if not np.all(np.isfinite(r)):
        raise DataError(f"{who}: non-finite returns")
    return r


def _mean_and_vol(r: np.ndarray, tc: float) -> tuple[float, float]:
    """A and V of a 1-d series. A is NaN for an empty series; V is 0.0 at
    zero volatility: fewer than 2 returns, all equal, or a spread whose
    variance underflows."""
    if r.size == 0:
        return math.nan, 0.0
    a = float(np.mean(r - tc))
    v = float(np.std(r))
    return a, (0.0 if np.ptp(r) == 0.0 else v)


def sharpe(returns, theta: float = 0.0, tc: float = 0.0) -> float:
    """Mean excess return (net of tc) per unit of return volatility."""
    r = _finite_returns(returns, "sharpe")
    if r.ndim != 1 or r.size < 2:
        raise DataError("sharpe: need at least 2 returns")
    a, v = _mean_and_vol(r, tc)
    if v == 0.0:
        raise ZeroVolatilityError("sharpe: returns have zero volatility")
    return (a - theta) / v


def cumulative_wealth(returns, tc: float = 0.0) -> np.ndarray:
    """Wealth series of length T+1 starting at 1: prod of (R_t + 1 - tc)."""
    r = np.asarray(returns, dtype=float)
    factors = r + 1.0 - tc
    if np.any(factors <= 0):
        t = int(np.argmax(factors <= 0))
        raise RuinError(f"cumulative wealth ruined at period index {t}")
    wealth = np.empty(r.size + 1)
    wealth[0] = 1.0
    np.cumprod(factors, out=wealth[1:])
    return wealth


def max_drawdown(wealth) -> float:
    """Largest peak-to-trough fraction lost, via a running-peak pass."""
    w = np.asarray(wealth, dtype=float)
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
    mdd: float
    cr: float
    ddr: float
    theta: float
    tc: float
    periods_per_year: int
    flags: tuple[str, ...] = field(default=())

    @property
    def sharpe(self) -> float:
        """Per-period (A - theta)/V implied by the annualized fields."""
        if self.avol == 0.0 or math.isnan(self.avol):
            return math.nan
        ny = self.periods_per_year
        return (self.apr / ny - self.theta) / (self.avol / math.sqrt(ny))

    @property
    def final_wealth(self) -> float:
        return float(self.wealth[-1])

    def to_kv(self) -> str:
        """Flat key=value text block."""
        lines = []
        for key in CSV_COLUMNS:
            lines.append(f"{key}={self._format(key)}")
        return "\n".join(lines) + "\n"

    def to_csv_row(self) -> str:
        """One CSV row in CSV_COLUMNS order (flags joined by ';')."""
        return ",".join(self._format(key) for key in CSV_COLUMNS)

    def _format(self, key: str) -> str:
        if key == "n_periods":
            return str(int(self.returns.size))
        if key == "flags":
            return ";".join(self.flags)
        if key == "periods_per_year":
            return str(int(self.periods_per_year))
        value = {
            "apr": self.apr,
            "avol": self.avol,
            "asr": self.asr,
            "sharpe": self.sharpe,
            "mdd": self.mdd,
            "cr": self.cr,
            "ddr": self.ddr,
            "final_wealth": self.final_wealth,
            "theta": self.theta,
            "tc": self.tc,
        }[key]
        return repr(float(value))


def report_or_degenerate(returns, theta=0.0, tc=0.001, periods_per_year=12):
    """Full evaluation of a 1-d return series (it may be empty).

    A series of fewer than 2 returns, or of zero volatility, gets a report
    flagged ``short_series`` or ``zero_volatility``: AVOL is 0, ASR and DDR
    are NaN, and APR (NaN when empty), MDD, CR and the wealth series are
    kept. DataError for non-finite returns, a series that is not 1-d, and
    a periods_per_year that is not a positive whole number."""
    r = _finite_returns(returns, "report")
    ny = whole_number(periods_per_year, "report: periods_per_year", 1)
    if r.ndim != 1:
        raise DataError(f"report: returns must be a 1-d series, got shape {r.shape}")
    wealth = cumulative_wealth(r, tc)
    mdd = max_drawdown(wealth)
    a, v = _mean_and_vol(r, tc)
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
        mdd=mdd,
        cr=cr,
        ddr=ddr,
        theta=float(theta),
        tc=float(tc),
        periods_per_year=ny,
        flags=tuple(flags),
    )
