"""Sharpe, wealth, drawdown, and the report fields against brute-force oracles."""

import math

import numpy as np
import pytest

from bwsl.errors import DataError, NonFiniteError, RuinError, ZeroVolatilityError
from bwsl.metrics import cumulative_wealth, max_drawdown, report_or_degenerate, sharpe


def brute_force_mdd(wealth):
    worst = 0.0
    for i in range(len(wealth)):
        for j in range(i, len(wealth)):
            worst = max(worst, (wealth[i] - wealth[j]) / wealth[i])
    return worst


def test_sharpe_two_point_example():
    assert sharpe([0.0, 0.2]) == pytest.approx(1.0, abs=1e-15)


def test_sharpe_zero_volatility_errors():
    with pytest.raises(ZeroVolatilityError):
        sharpe([0.05, 0.05, 0.05])


def test_sharpe_centering_at_theta():
    r = [0.0, 0.2]
    assert sharpe(r, theta=0.1) == pytest.approx(0.0, abs=1e-15)


def test_sharpe_applies_tc_to_mean_only():
    r = np.array([0.0, 0.2])
    assert sharpe(r, tc=0.05) == pytest.approx((0.1 - 0.05) / 0.1, abs=1e-15)


def test_sharpe_needs_two_returns():
    with pytest.raises(DataError):
        sharpe([0.1])


def test_cumulative_wealth_identity():
    np.testing.assert_array_equal(cumulative_wealth([0.0, 0.0, 0.0]), np.ones(4))


def test_cumulative_wealth_product():
    w = cumulative_wealth([0.1, -0.1])
    assert w[-1] == pytest.approx(0.99, abs=1e-15)


def test_cumulative_wealth_with_tc():
    w = cumulative_wealth([0.01] * 12, tc=0.001)
    assert w[-1] == pytest.approx(1.009**12, rel=1e-12)


def test_cumulative_wealth_ruin():
    with pytest.raises(RuinError):
        cumulative_wealth([0.5, -1.0])


def test_mdd_monotone_series_is_zero():
    assert max_drawdown([1.0, 1.1, 1.2, 1.3]) == 0.0


def test_mdd_known_case():
    assert max_drawdown([1.0, 1.2, 0.9, 1.5]) == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("low", [0.0, -0.5])
def test_mdd_rejects_non_positive_wealth(low):
    with pytest.raises(DataError, match="wealth must be positive"):
        max_drawdown([1.0, low, 1.2])


def test_mdd_single_element():
    assert max_drawdown([1.0]) == 0.0


def test_mdd_matches_brute_force_on_random_series():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        wealth = np.exp(np.cumsum(rng.normal(0, 0.1, size=n)))
        assert max_drawdown(wealth) == brute_force_mdd(wealth)


def test_mdd_invariant_under_positive_scaling():
    rng = np.random.default_rng(1)
    wealth = np.exp(np.cumsum(rng.normal(0, 0.2, size=30)))
    assert max_drawdown(wealth) == pytest.approx(max_drawdown(wealth * 7.3), abs=1e-15)


def test_report_apr_and_ddr_example():
    rep = report_or_degenerate([0.2, -0.1], theta=0.0, tc=0.0, periods_per_year=12)
    assert rep.apr == pytest.approx(0.6, abs=1e-15)
    downside = math.sqrt(0.01 / 2)
    assert downside == pytest.approx(0.07071067811865475, abs=1e-15)
    assert rep.ddr == pytest.approx(0.6 / downside, rel=1e-12)
    assert rep.ddr == pytest.approx(8.485281374238571, rel=1e-9)


def test_report_flags_no_downside():
    rep = report_or_degenerate([0.1, 0.2, 0.3], tc=0.0)
    assert math.isinf(rep.ddr)
    assert "no_downside" in rep.flags


def test_report_asr_equals_sharpe_scaled():
    rng = np.random.default_rng(2)
    r = rng.normal(0.01, 0.05, size=36)
    rep = report_or_degenerate(r, theta=0.0, tc=0.0, periods_per_year=12)
    assert rep.asr == pytest.approx(sharpe(r) * math.sqrt(12), rel=1e-12)
    assert rep.sharpe == sharpe(r)


@pytest.mark.parametrize("theta, tc", [(0.0, 0.0), (0.0, 0.001), (0.001, 0.0), (0.001, 0.001)])
def test_report_sharpe_is_the_objective_bitwise_and_nan_when_flagged(theta, tc):
    # the report used to work H out again from APR and AVOL, which differed
    # from sharpe() in the last bits on about a fifth of these series
    rng = np.random.default_rng(5)
    for _ in range(1000):
        r = rng.normal(0.01, 0.05, size=int(rng.integers(2, 61)))
        assert report_or_degenerate(r, theta, tc).sharpe == sharpe(r, theta, tc)
    flagged = (([], "short_series"), ([0.02], "short_series"), ([0.02] * 3, "zero_volatility"))
    for r, flag in flagged:
        rep = report_or_degenerate(r, theta, tc)
        assert rep.flags == (flag,) and math.isnan(rep.sharpe)


def test_report_scaling_property():
    rng = np.random.default_rng(3)
    r = rng.normal(0.0, 0.03, size=24)
    lam = 2.5
    base = report_or_degenerate(r, tc=0.0)
    scaled = report_or_degenerate(lam * r, tc=0.0)
    assert scaled.apr == pytest.approx(lam * base.apr, rel=1e-12)
    assert scaled.avol == pytest.approx(lam * base.avol, rel=1e-12)
    assert scaled.asr == pytest.approx(base.asr, rel=1e-12)


def test_report_wealth_invariants():
    r = np.array([0.05, -0.02, 0.01])
    rep = report_or_degenerate(r, tc=0.001)
    assert rep.wealth[0] == 1.0
    assert rep.wealth.size == r.size + 1
    np.testing.assert_allclose(rep.wealth, cumulative_wealth(r, 0.001))


def test_degenerate_report_is_flagged_not_thrown():
    rep = report_or_degenerate([0.02, 0.02], tc=0.0)
    assert "zero_volatility" in rep.flags
    assert math.isnan(rep.asr)
    rep1 = report_or_degenerate([0.02], tc=0.0)
    assert "short_series" in rep1.flags
    empty = report_or_degenerate([], tc=0.0)
    assert empty.flags == ("short_series",) and math.isnan(empty.apr)
    assert empty.wealth.tolist() == [1.0] and math.isinf(empty.cr)


def test_kv_and_csv_serialization_roundtrip_values():
    rep = report_or_degenerate([0.0, 0.2], tc=0.0)
    kv = rep.to_kv()
    assert "sharpe=1.0" in kv
    assert "apr=" in kv and "flags=" in kv
    row = rep.to_csv_row()
    fields = row.split(",")
    assert fields[0] == "2"
    assert float(fields[4]) == pytest.approx(1.0, abs=1e-15)


def test_degenerate_report_keeps_wealth():
    rep = report_or_degenerate([0.01, 0.01], tc=0.0)
    assert rep.final_wealth == pytest.approx(1.01**2, rel=1e-12)


@pytest.mark.parametrize("periods_per_year", [0, -12, 12.9])
@pytest.mark.parametrize("fn", [report_or_degenerate])
def test_non_positive_periods_per_year_raise_data_error(fn, periods_per_year):
    with pytest.raises(DataError, match="periods_per_year"):
        fn([0.05, -0.02, 0.01], periods_per_year=periods_per_year)


@pytest.mark.parametrize("fn", [report_or_degenerate])
def test_whole_float_periods_per_year_is_accepted(fn):
    assert fn([0.1, -0.05, 0.02], periods_per_year=12.0).periods_per_year == 12


@pytest.mark.parametrize("returns", [np.array([[0.1, -0.2], [0.3, 0.05]]), np.float64(0.1)])
def test_degenerate_report_rejects_a_series_that_is_not_1d(returns):
    with pytest.raises(DataError, match="returns must be a 1-d series"):
        report_or_degenerate(returns)


def test_report_or_degenerate_propagates_a_wrong_rank():
    with pytest.raises(DataError, match="returns must be a 1-d series"):
        report_or_degenerate(np.array([[0.1, -0.2], [0.3, 0.05]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fn", [sharpe, report_or_degenerate, cumulative_wealth, max_drawdown])
def test_non_finite_returns_raise_data_error(fn, bad):
    # cumulative_wealth and max_drawdown used to return NaN or infinite
    # results with no error
    with pytest.raises(DataError, match="non-finite"):
        fn([bad, 0.1, 0.2])


@pytest.mark.parametrize("fn", [sharpe, cumulative_wealth, max_drawdown])
def test_every_series_that_is_not_1d_raises_data_error(fn):
    # cumulative_wealth used to build a 5-point wealth series of the
    # flattened matrix, and max_drawdown to read it as one series
    with pytest.raises(DataError, match=r"must be a 1-d series, got shape \(2, 2\)"):
        fn(np.array([[0.1, 0.2], [0.0, 0.1]]))


_SETTING_CALLS = [
    lambda bad: sharpe([0.1, -0.05, 0.02], theta=bad),
    lambda bad: sharpe([0.1, -0.05, 0.02], tc=bad),
    lambda bad: cumulative_wealth([0.1, -0.05, 0.02], tc=bad),
    lambda bad: report_or_degenerate([0.1, -0.05, 0.02], theta=bad),
    lambda bad: report_or_degenerate([0.1, -0.05, 0.02], tc=bad),
]
_SETTING_IDS = ["sharpe_theta", "sharpe_tc", "wealth_tc", "report_theta", "report_tc"]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", _SETTING_CALLS, ids=_SETTING_IDS)
def test_non_finite_theta_or_tc_raise_data_error(call, bad):
    # each used to return a NaN or infinite result with no error or flag
    with pytest.raises(DataError, match="(theta|tc) must be finite"):
        call(bad)


@pytest.mark.parametrize(
    "bad", ["0.1", None, True, 10**400], ids=["str", "none", "bool", "huge_int"]
)
@pytest.mark.parametrize("call", _SETTING_CALLS, ids=_SETTING_IDS)
def test_theta_or_tc_that_is_not_a_finite_real_raises_data_error(call, bad):
    # a str or None used to fail with a bare TypeError, True was read as
    # 1.0, and an int beyond the float range failed with a bare OverflowError
    with pytest.raises(DataError, match="(theta|tc) must be (a real number|finite)"):
        call(bad)


def test_a_mean_or_volatility_that_overflows_raises_non_finite():
    # the squares inside np.std overflowed: V was inf, so sharpe returned
    # 0.0 (the true value is 1.0) with NumPy's overflow warning
    with pytest.raises(NonFiniteError, match="^sharpe: the volatility of the returns overflows$"):
        sharpe([3e154, 0.0])
    with pytest.raises(NonFiniteError, match="^report: the volatility of the returns overflows$"):
        report_or_degenerate([3e154, 0.0])
    with pytest.raises(NonFiniteError, match="^sharpe: the mean of the returns overflows$"):
        sharpe([1.7e308, 1.7e308])


def test_a_wealth_that_overflows_raises_non_finite_naming_the_period():
    # cumulative_wealth returned inf with NumPy's overflow warning, and the
    # report then failed in max_drawdown, the wrong step
    message = "^cumulative wealth overflows at period index 1$"
    with pytest.raises(NonFiniteError, match=message):
        cumulative_wealth([1e308, 1e308])
    with pytest.raises(NonFiniteError, match=message):
        report_or_degenerate([1e308, 1e308])
    assert cumulative_wealth([1e154, 1e154])[-1] == (1e154 + 1.0) ** 2
