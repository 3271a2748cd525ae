"""Feature extraction, z-scoring, and window assembly."""

import gc
import weakref

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


def panel_from_closes(closes, mask=None, ids=None, **field_overrides):
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
    if ids is None:
        ids = [f"S{i}" for i in range(n)]
    return MarketPanel(ids, START, fields, np.asarray(mask, dtype=bool))


def test_raw_features_price_rising_rate():
    panel = panel_from_closes([[100.0, 110.0]])
    vec = raw_features(panel, [0], 1, 1)
    assert vec.shape == (1, 1, len(FEATURE_NAMES))
    assert vec[0, 0, 0] == pytest.approx(1.1)


def test_raw_features_constant_path():
    panel = panel_from_closes([[50.0, 50.0, 50.0]], vol=np.zeros((1, 3)))
    vec = raw_features(panel, [0], 2, 2)
    assert vec.shape == (1, 2, len(FEATURE_NAMES))
    np.testing.assert_array_equal(vec[0, :, 0], [1.0, 1.0])
    np.testing.assert_array_equal(vec[0, :, 1], [0.0, 0.0])


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
    vec = raw_features(panel, [0], 1, 1)
    np.testing.assert_allclose(vec[:, 0], [[1.2, 0.7, 123.0, 4e6, 17.5, 0.8, 0.25]])


def test_raw_features_block_steps_are_the_single_steps():
    panel = synth_market(SynthConfig(num_stocks=5, num_periods=30, seed=6))
    rows = [4, 0, 2]
    block = raw_features(panel, rows, 20, 6)
    assert block.shape == (3, 6, len(FEATURE_NAMES))
    for step, j in enumerate(range(15, 21)):
        assert block[:, step].tobytes() == raw_features(panel, rows, j, 1)[:, 0].tobytes()
    close = panel.field("close")
    np.testing.assert_array_equal(block[:, -1, 0], close[rows, 20] / close[rows, 19])


def test_raw_features_missing_bar_errors():
    panel = panel_from_closes([[10.0, 11.0, 12.0]] * 2, mask=[[True] * 3, [False, True, True]])
    with pytest.raises(DataError, match=f"S1 around {format_month(START + 1)}"):
        raw_features(panel, [0, 1], 1, 1)
    with pytest.raises(DataError, match=f"S1 around {format_month(START + 1)}"):
        raw_features(panel, [0, 1], 2, 2)
    np.testing.assert_allclose(raw_features(panel, [0, 1], 2, 1)[:, 0, 0], [12.0 / 11.0] * 2)
    with pytest.raises(DataError):
        raw_features(panel, [0], 0, 1)
    with pytest.raises(DataError, match="no month column 2 with 3 months before it"):
        raw_features(panel, [0], 2, 3)


@pytest.mark.parametrize(
    "rows, j",
    [([0, 1], 2.5), ([0, 99], 2), ([-1], 2), ([0.0, 1.0], 2), ([True, False], 2), ([[0, 1]], 2)],
    ids=["fractional_column", "row_past_the_end", "negative_row", "float_rows", "bool_rows",
         "two_d_rows"],
)
def test_raw_features_rejects_bad_rows_and_columns(rows, j):
    # a fractional column used to fail with a bare TypeError, row 99 of 8
    # with a bare IndexError, and row -1 read the last stock
    panel = panel_from_closes(np.ones((8, 3)))
    with pytest.raises(DataError):
        raw_features(panel, rows, j, 1)


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
    z1 = zscore_crosssection(raw.copy())
    z2 = zscore_crosssection(3.5 * raw + 100.0)
    np.testing.assert_allclose(z1, z2, atol=1e-12)


def test_zscore_standardizes_a_block_in_place_as_its_slices():
    rng = np.random.default_rng(2)
    block = rng.normal(size=(9, 4, 7)) * 3 + 1
    block[:, 2, 5] = 0.25  # one zero-variance column
    slices = [zscore_crosssection(block[:, step].copy()) for step in range(4)]
    z = zscore_crosssection(block)
    assert z is block
    for step in range(4):
        assert z[:, step].tobytes() == slices[step].tobytes()
    assert not z[:, 2, 5].any()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_zscore_rejects_a_non_finite_feature(bad):
    # a non-finite column used to come back as all zeros, with a NumPy
    # RuntimeWarning as the only trace
    raw = np.arange(21.0).reshape(3, 7)
    raw[1, 4] = bad
    with pytest.raises(DataError, match="non-finite value in feature pe"):
        zscore_crosssection(raw)
    block = np.arange(42.0).reshape(3, 2, 7)
    block[2, 1, 0] = bad
    with pytest.raises(DataError, match="non-finite value in feature pr"):
        zscore_crosssection(block)


def test_zscore_rejects_a_spread_that_overflows():
    raw = np.ones((3, 7))
    raw[:, 2] = [1e200, -1e200, 0.0]
    with pytest.raises(DataError, match="feature tv"):
        zscore_crosssection(raw)


def test_build_windows_rejects_an_overflowing_price_ratio():
    closes = np.ones((3, 6))
    closes[0, 4:] = [1e-300, 1e300]
    with pytest.raises(DataError, match="non-finite value in feature pr"):
        build_windows(panel_from_closes(closes), START + 5, k=2)


def test_zscore_needs_the_feature_axis_last():
    with pytest.raises(DataError, match="features of at least 2 stocks"):
        zscore_crosssection(np.ones((3, 4)))


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
    ws = prep.windows(t)
    assert ws is not None and len(ws) == 6  # every stock is eligible
    assert ws.stock_ids == panel.stock_ids
    assert prep.windows(t) is ws  # cached


def test_dropped_prepared_panel_is_freed_without_the_cyclic_collector():
    panel = synth_market(SynthConfig(num_stocks=6, num_periods=30, seed=8))
    prep = PreparedPanel(panel, k=4)
    t = prep.tradable_times[0]
    assert prep.windows(t) is not None and prep.period_data(t)[0] is prep.windows(t)
    ref = weakref.ref(prep)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del prep
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_prepared_panel_of_reuses_a_matching_k_and_reads_any_period_form():
    panel = synth_market(SynthConfig(num_stocks=4, num_periods=30, seed=8))
    prep = PreparedPanel.of(panel, 6)
    assert prep.k == 6 and PreparedPanel.of(prep, 6) is prep
    with pytest.raises(DataError, match="k=6, requested k=12"):
        PreparedPanel.of(prep, 12)
    t = prep.decision_times[0]
    assert prep.month(format_month(t)) == t
    assert prep.windows(format_month(t)) is prep.windows(t)


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


def test_prepared_panel_has_no_windows_before_a_full_look_back_and_no_ratios_after_the_end():
    prep = PreparedPanel(panel_from_closes(np.cumprod(np.full((3, 6), 1.01), axis=1)), k=2)
    assert prep.windows(START) is None and prep.windows(START + 1) is None
    assert len(prep.windows(START + 2)) == 3
    with pytest.raises(DataError, match=f"no close after {format_month(START + 5)}"):
        prep.forward_ratios(START + 5, ("S0", "S1"))


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


def test_build_windows_rank_ties_break_by_stock_id_whatever_the_row_order():
    # rows carry ids in descending order; rows 0/2 and 1/3 tie on pr
    closes = np.ones((4, 4))
    closes[:, 3] = [1.1, 0.9, 1.1, 0.9]
    panel = panel_from_closes(closes, ids=["D", "C", "B", "A"])
    ws = build_windows(panel, START + 3, k=2)
    np.testing.assert_array_equal(ws.ranks, [2, 4, 1, 3])


def _zscore_out_of_place(raw):
    # the per-step standardization as first written: a fresh array, zeros
    # for zero-variance columns
    mean, std = raw.mean(axis=0), raw.std(axis=0)
    z = np.zeros_like(raw)
    nz = std > 0
    z[:, nz] = (raw[:, nz] - mean[nz]) / std[nz]
    return z


def _per_step_windows(panel, t, k):
    """Oracle: build_windows as K single-step reads and z-scores."""
    pi = panel.index_of(t)
    eligible = np.flatnonzero(panel.mask[:, pi - k : pi + 1].all(axis=1))
    ids = tuple(panel.stock_ids[i] for i in eligible)
    steps = []
    for j in range(pi - k + 1, pi + 1):
        raw = raw_features(panel, eligible, j, 1)[:, 0]
        z = zscore_crosssection(raw.copy())
        assert z.tobytes() == _zscore_out_of_place(raw).tobytes()
        steps.append(z)
    order = sorted(range(len(ids)), key=lambda i: (-raw[i, 0], ids[i]))
    ranks = np.empty(len(ids), dtype=np.int64)
    ranks[order] = np.arange(1, len(ids) + 1)
    return ids, np.stack(steps, axis=1), ranks


def test_build_windows_equals_the_per_step_composition_bitwise():
    n, p, k = 9, 24, 5
    rng = np.random.default_rng(11)
    closes = np.exp(rng.normal(0, 0.05, size=(n, p))).cumprod(axis=1) * 20
    closes[7] = closes[2]  # S7 and S2 tie on pr at every step
    fields = {
        name: np.exp(rng.normal(0, 0.3, size=(n, p)))
        for name in ("vol", "volume", "mcap", "pe", "div")
    }
    fields["bm"] = np.full((n, p), 0.5)  # zero cross-sectional variance
    mask = np.ones((n, p), dtype=bool)
    mask[3, :9] = False  # late listing
    mask[5, 14:] = False  # delisted inside later windows
    mask[6, 11] = False  # a one-month gap
    ids = ["S8", "S2", "S5", "S0", "S4", "S6", "S1", "S7", "S3"]  # not in row order
    panel = panel_from_closes(closes, mask=mask, ids=ids, **fields)
    universes = set()
    for t in range(panel.start + k, panel.end + 1):
        ws = build_windows(panel, t, k)
        ids_t, feats, ranks = _per_step_windows(panel, t, k)
        assert ws.stock_ids == ids_t
        assert ws.features.shape == feats.shape and ws.features.tobytes() == feats.tobytes()
        assert ws.ranks.tobytes() == ranks.tobytes()
        assert not ws.features[:, :, FEATURE_NAMES.index("bm")].any()
        i2, i7 = ids_t.index("S5"), ids_t.index("S7")  # rows 2 and 7
        assert ws.ranks[i7] == ws.ranks[i2] + 1  # the tie goes to the lower id
        universes.add(ids_t)
    assert len(universes) >= 4
