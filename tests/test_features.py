"""Feature extraction, z-scoring, and window assembly."""

import numpy as np
import pytest

from bwsl.errors import DataError, NoEligibleStocksError
from bwsl.features import (
    FEATURE_NAMES,
    PreparedPanel,
    build_windows,
    raw_features,
    zscore_crosssection,
)
from bwsl.market import MarketPanel, SynthConfig, format_month, parse_month, synth_market

START = parse_month("2000-01")


def panel_from_closes(closes, mask=None, **field_overrides):
    closes = np.asarray(closes, dtype=float)
    n, p = closes.shape
    fields = {
        "close": closes,
        "vol": np.full((n, p), 0.5),
        "volume": np.full((n, p), 1000.0),
        "mcap": np.full((n, p), 1e6),
        "pe": np.full((n, p), 10.0),
        "bm": np.full((n, p), 0.5),
        "div": np.full((n, p), 0.1),
    }
    fields.update({k: np.asarray(v, dtype=float) for k, v in field_overrides.items()})
    if mask is None:
        mask = np.ones((n, p), dtype=bool)
    ids = [f"S{i}" for i in range(n)]
    return MarketPanel(ids, START, fields, np.asarray(mask, dtype=bool))


def test_raw_features_price_rising_rate():
    panel = panel_from_closes([[100.0, 110.0]])
    vec = raw_features(panel, "S0", START + 1)
    assert vec[0] == pytest.approx(1.1)


def test_raw_features_constant_path():
    panel = panel_from_closes([[50.0, 50.0, 50.0]], vol=np.zeros((1, 3)))
    vec = raw_features(panel, "S0", START + 2)
    assert vec[0] == 1.0
    assert vec[1] == 0.0


def test_raw_features_echoes_bar_fields_in_order():
    panel = panel_from_closes(
        [[10.0, 12.0]],
        vol=[[0.0, 0.7]],
        volume=[[0.0, 123.0]],
        mcap=[[1.0, 4e6]],
        pe=[[1.0, 17.5]],
        bm=[[1.0, 0.8]],
        div=[[0.0, 0.25]],
    )
    vec = raw_features(panel, "S0", START + 1)
    np.testing.assert_allclose(vec, [1.2, 0.7, 123.0, 4e6, 17.5, 0.8, 0.25])


def test_raw_features_missing_bar_errors():
    panel = panel_from_closes([[10.0, 11.0]], mask=[[False, True]])
    with pytest.raises(DataError):
        raw_features(panel, "S0", START + 1)


def test_zscore_two_points():
    raw = np.tile([[1.0], [1.2]], (1, 7))
    z = zscore_crosssection(raw)
    np.testing.assert_allclose(z[:, 0], [-1.0, 1.0])


def test_zscore_zero_variance_maps_to_zero():
    raw = np.ones((3, 7)) * 5.0
    np.testing.assert_array_equal(zscore_crosssection(raw), np.zeros((3, 7)))


def test_zscore_moments_on_random_input():
    rng = np.random.default_rng(0)
    z = zscore_crosssection(rng.normal(size=(10, 7)) * 5 + 3)
    assert np.all(np.abs(z.mean(axis=0)) <= 1e-12)
    np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)


def test_zscore_needs_two_stocks():
    with pytest.raises(DataError):
        zscore_crosssection(np.ones((1, 7)))


def test_zscore_invariant_under_common_affine_map():
    rng = np.random.default_rng(1)
    raw = rng.normal(size=(6, 7)) + 10
    z1 = zscore_crosssection(raw)
    z2 = zscore_crosssection(3.5 * raw + 100.0)
    np.testing.assert_allclose(z1, z2, atol=1e-12)


def test_build_windows_ranks_by_last_pr():
    closes = np.ones((3, 4))
    closes[0, 3] = 1.2  # pr 1.2
    closes[1, 3] = 1.0  # pr 1.0
    closes[2, 3] = 1.1  # pr 1.1
    panel = panel_from_closes(closes)
    ws = build_windows(panel, START + 3, k=2)
    np.testing.assert_array_equal(ws.ranks, [1, 3, 2])


def test_build_windows_rank_ties_break_by_stock_id():
    panel = panel_from_closes(np.ones((4, 4)))
    ws = build_windows(panel, START + 3, k=2)
    np.testing.assert_array_equal(ws.ranks, [1, 2, 3, 4])
    assert sorted(ws.ranks) == list(range(1, 5))


def test_build_windows_excludes_stock_with_hole():
    mask = np.ones((3, 14), dtype=bool)
    mask[1, 10] = False  # hole inside the look-back of the last decision
    rng = np.random.default_rng(3)
    closes = np.exp(rng.normal(0, 0.02, size=(3, 14))).cumprod(axis=1) + 1
    panel = panel_from_closes(closes, mask=mask)
    ws = build_windows(panel, START + 13, k=12)
    assert ws.stock_ids == ("S0", "S2")


def test_build_windows_shape_and_last_row_is_t():
    cfg = SynthConfig(num_stocks=5, num_periods=30, seed=4)
    panel = synth_market(cfg)
    t = panel.start + 15
    ws = build_windows(panel, t, k=12)
    assert ws.features.shape == (5, 12, len(FEATURE_NAMES))
    # last row carries time-t information: its pr column equals the z-scored
    # pr over (t-1, t], which determines the ranks
    close = panel.field("close")
    pr = close[:, 15] / close[:, 14]
    z = (pr - pr.mean()) / pr.std()
    np.testing.assert_allclose(ws.features[:, -1, 0], z, atol=1e-12)
    assert np.argmin(ws.ranks) == np.argmax(pr)


def test_build_windows_needs_enough_history():
    panel = panel_from_closes(np.ones((2, 5)))
    with pytest.raises(DataError):
        build_windows(panel, START + 3, k=4)


def test_build_windows_no_eligible_stocks():
    mask = np.ones((2, 6), dtype=bool)
    mask[:, 2] = False
    panel = panel_from_closes(np.ones((2, 6)), mask=mask)
    with pytest.raises(NoEligibleStocksError):
        build_windows(panel, START + 5, k=4)


def test_eligibility_monotone_in_k():
    mask = np.ones((3, 20), dtype=bool)
    mask[2, 5] = False
    panel = panel_from_closes(np.ones((3, 20)) + np.arange(20) * 0.01, mask=mask)
    t = panel.start + 15
    big = build_windows(panel, t, k=12)   # window reaches the hole
    small = build_windows(panel, t, k=6)  # window clears it
    assert set(big.stock_ids) <= set(small.stock_ids)
    assert "S2" in small.stock_ids and "S2" not in big.stock_ids


def test_prepared_panel_universe_and_windows():
    panel = synth_market(SynthConfig(num_stocks=6, num_periods=30, seed=8))
    prep = PreparedPanel(panel, k=12)
    t = prep.tradable_times[0]
    assert t == panel.start + 12
    assert len(prep.universe(t)) == 6
    ws = prep.windows(t)
    assert ws is not None and len(ws) == 6
    assert prep.windows(t) is ws  # cached


def test_prepared_panel_forward_ratios_and_delisting_substitution():
    closes = np.ones((2, 6))
    closes[0] = [1.0, 1.1, 1.21, 1.331, 1.4641, 1.61051]
    mask = np.ones((2, 6), dtype=bool)
    mask[1, 4] = mask[1, 5] = False  # S1 delists after index 3
    panel = panel_from_closes(closes, mask=mask)
    prep = PreparedPanel(panel, k=2)
    z, events = prep.forward_ratios(START + 3, ("S0", "S1"))
    assert z[0] == pytest.approx(1.1)
    assert z[1] == pytest.approx(1.0)  # last observed ratio
    assert events == [("S1", "missing_next_close")]


def test_forward_ratios_rejects_stock_without_bar_at_t():
    closes = np.array([[1.0, 1.1, 1.2, 1.3, 1.4], [1.0, 1.2, 1.4, 1.6, 0.4]])
    mask = np.ones((2, 5), dtype=bool)
    mask[1, 3] = False  # S1 has no bar at the decision time
    prep = PreparedPanel(panel_from_closes(closes, mask=mask), k=2)
    with pytest.raises(DataError, match=f"S1.*{format_month(START + 3)}"):
        prep.forward_ratios(START + 3, ("S0", "S1"))


def test_forward_ratios_does_not_substitute_across_the_axis_start():
    closes = np.array([[1.0, 1.1, 1.2], [1.0, 1.0, 2.0]])
    mask = np.ones((2, 3), dtype=bool)
    mask[1, 1] = False  # S1 has no next close, and no month before the first
    prep = PreparedPanel(panel_from_closes(closes, mask=mask), k=2)
    with pytest.raises(DataError, match=f"S1.*{format_month(START)}"):
        prep.forward_ratios(START, ("S0", "S1"))
