"""Sensitivity analysis: zero cases, finite differences, lag orientation."""

import re

import numpy as np
import pytest

from bwsl import interpret
from bwsl.autodiff import Tape, Tensor
from bwsl.errors import DataError, ShapeError
from bwsl.features import FEATURE_NAMES, PreparedPanel
from bwsl.interpret import SensitivityReport, average_sensitivity, input_sensitivity
from bwsl.market import SynthConfig, format_month, synth_market
from bwsl.policy import PolicyParams, encode, policy_forward
from test_features import panel_from_closes


def small_params(seed=0):
    return PolicyParams.init(np.random.default_rng(seed), hidden=6, embed=4, l_cols=8)


@pytest.fixture(scope="module")
def case():
    rng = np.random.default_rng(1)
    windows = rng.normal(size=(4, 3, 7))
    ranks = np.array([2, 4, 1, 3])
    return windows, ranks


def test_constant_score_head_gives_zero_sensitivity(case):
    windows, ranks = case
    params = small_params(2)
    params["w_score"].data = np.zeros_like(params["w_score"].data)
    params["b_score"].data = np.zeros(())
    sens = input_sensitivity(windows, ranks, params, 1)
    np.testing.assert_array_equal(sens, np.zeros((3, 7)))


def test_sensitivity_shape_is_k_by_f(case):
    windows, ranks = case
    sens = input_sensitivity(windows, ranks, small_params(3), 2)
    assert sens.shape == (3, 7)
    # duplicating the stock's window into a new stock keeps the shape
    bigger = np.concatenate([windows, windows[2:3]], axis=0)
    sens2 = input_sensitivity(bigger, np.append(ranks, 5), small_params(3), 2)
    assert sens2.shape == (3, 7)


def test_sensitivity_rejects_a_single_window(case):
    windows, ranks = case
    with pytest.raises(DataError, match="windows must be"):
        input_sensitivity(windows[0], ranks, small_params(3), 0)


@pytest.mark.parametrize("stock", [-1, 4])
def test_sensitivity_rejects_an_out_of_range_stock(case, stock):
    windows, ranks = case
    with pytest.raises(DataError, match="out of range"):
        input_sensitivity(windows, ranks, small_params(3), stock)


def test_sensitivity_rejects_a_fractional_stock_index(case):
    # 1.5 used to be truncated and True read as 1, each explaining stock 1
    windows, ranks = case
    params = small_params(3)
    for index in (1.5, True):
        with pytest.raises(DataError, match="stock index must be a whole number"):
            input_sensitivity(windows, ranks, params, index)
    whole = input_sensitivity(windows, ranks, params, 1.0)
    assert whole.tobytes() == input_sensitivity(windows, ranks, params, 1).tobytes()


def test_windows_without_look_back_steps_raise_shape_error(case):
    # an (I, 0, F) block used to fail with a bare IndexError
    _, ranks = case
    windows = np.zeros((4, 0, 7))
    with pytest.raises(ShapeError, match="no hidden states"):
        encode(windows, small_params(3))
    with pytest.raises(ShapeError, match="no hidden states"):
        input_sensitivity(windows, ranks, small_params(3), 0)


def test_sensitivity_matches_finite_differences(case):
    windows, ranks = case
    params = small_params(4)
    sens = input_sensitivity(windows, ranks, params, 0)
    rng = np.random.default_rng(5)
    eps = 1e-6
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(0, 3))
        f = int(rng.integers(0, 7))
        up = windows.copy()
        up[0, k, f] += eps
        down = windows.copy()
        down[0, k, f] -= eps
        s_up = policy_forward(up, ranks, params).data[0]
        s_down = policy_forward(down, ranks, params).data[0]
        central = (s_up - s_down) / (2 * eps)
        err = abs(sens[k, f] - central) / max(1.0, abs(sens[k, f]))
        worst = max(worst, err)
    assert worst <= 1e-4


def test_average_sensitivity_skips_a_decision_time_with_one_eligible_stock():
    # 3 stocks, 12 months, k=2: only S0 has a bar in the last month, so the
    # last decision time keeps a single eligible stock and has no windows
    closes = np.cumprod(np.random.default_rng(21).uniform(0.9, 1.1, size=(3, 12)), axis=1)
    mask = np.ones((3, 12), dtype=bool)
    mask[1:, 11] = False
    prep = PreparedPanel(panel_from_closes(closes, mask=mask), k=2)
    last = prep.panel.end
    assert prep.windows(last) is None and len(prep.windows(last - 1)) == 3
    params = small_params(9)
    every = average_sensitivity(prep, params, k=2)
    before = average_sensitivity(prep, params, end=last - 1, k=2)
    assert every.samples == before.samples == 3 * 9
    assert every.delta_bar.tobytes() == before.delta_bar.tobytes()
    with pytest.raises(DataError, match="no valid decision time in range"):
        average_sensitivity(prep, params, start=last, k=2)


def test_lag_orientation_most_recent_row_is_last(case):
    windows, ranks = case
    params = small_params(6)
    sens = input_sensitivity(windows, ranks, params, 1)
    # perturbing only the most recent row moves the score as row index K
    eps = 1e-6
    bumped = windows.copy()
    bumped[1, -1, :] += eps
    moved = policy_forward(bumped, ranks, params).data[1]
    base = policy_forward(windows, ranks, params).data[1]
    predicted = base + eps * sens[-1, :].sum()
    assert moved == pytest.approx(predicted, abs=1e-9)


def test_sensitivity_linearity_in_score_head(case):
    windows, ranks = case
    params_a = small_params(7)
    params_b = params_a.copy()
    rng = np.random.default_rng(8)
    other_head = rng.normal(size=params_a["w_score"].shape) * 0.1
    params_b["w_score"].data = other_head
    params_sum = params_a.copy()
    params_sum["w_score"].data = params_a["w_score"].data + other_head
    # sigmoid is nonlinear; linearity holds for the pre-squash logit, so
    # compare gradients of the logit via the chain rule s' = s(1-s) * logit'
    def logit_sens(params, i):
        s = policy_forward(windows, ranks, params).data[i]
        return input_sensitivity(windows, ranks, params, i) / (s * (1 - s))

    total = logit_sens(params_sum, 0)
    parts = logit_sens(params_a, 0) + logit_sens(params_b, 0)
    np.testing.assert_allclose(total, parts, atol=1e-10)


def test_split_tapes_match_per_stock_replays_of_the_full_tape():
    # oracle: one tape over the whole policy_forward, replayed once per
    # stock, keeping row i of the window gradient
    rng = np.random.default_rng(15)
    windows = rng.normal(size=(6, 4, 7))
    ranks = np.array([1, 9, 3, 17, 6, 12])
    params = small_params(16)
    stocks = [4, 0, 3]
    x = Tensor(windows, requires_grad=True)
    tape = Tape()
    with tape:
        scores = policy_forward(x, ranks, params)
        roots = [scores[i] for i in stocks]
    expected = np.stack([tape.gradients(r)[x][i] for i, r in zip(stocks, roots)])
    got = interpret._own_window_grads(windows, ranks, params, stocks)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


def test_average_sensitivity_runs_one_backward_per_time(monkeypatch):
    # the head cotangent is closed form: one encoder backward per decision
    # time, over a tape that holds the encode record and the two ops of the
    # root sum(r * c), and no op of score (12 + I records)
    panel = synth_market(SynthConfig(num_stocks=7, num_periods=30, seed=17))
    prep = PreparedPanel(panel, 4)
    t0, t1 = prep.decision_times[0], prep.decision_times[1]
    encoder = Tape()
    with encoder:
        encode(Tensor(prep.windows(t0).features, requires_grad=True), small_params(18).constants())
    assert len(encoder) == 1
    lengths = []
    gradients = Tape.gradients

    def counted(tape, root):
        lengths.append(len(tape))
        return gradients(tape, root)

    monkeypatch.setattr(Tape, "gradients", counted)
    average_sensitivity(prep, small_params(18), start=t0, end=t0, k=4)
    assert len(lengths) == 1
    average_sensitivity(prep, small_params(18), start=t0, end=t1, k=4)
    assert len(lengths) == 3
    assert lengths == [len(encoder) + 2] * 3


def test_average_sensitivity_single_time_is_plain_mean():
    panel = synth_market(SynthConfig(num_stocks=5, num_periods=30, seed=9))
    params = small_params(10)
    prep = PreparedPanel(panel, 4)
    t = prep.decision_times[0]
    report = average_sensitivity(prep, params, start=t, end=t, k=4)
    ws = prep.windows(t)
    acc = np.zeros((4, 7))
    for i in range(len(ws)):
        acc += input_sensitivity(ws.features, ws.ranks, params, i)
    expected = (acc / len(ws))[::-1].T
    np.testing.assert_allclose(report.delta_bar, expected, atol=1e-12)
    assert report.samples == len(ws)


def test_average_sensitivity_is_sample_weighted():
    panel = synth_market(SynthConfig(num_stocks=4, num_periods=30, seed=11))
    params = small_params(12)
    prep = PreparedPanel(panel, 4)
    t0, t1 = prep.decision_times[0], prep.decision_times[1]
    r0 = average_sensitivity(prep, params, start=t0, end=t0, k=4)
    r1 = average_sensitivity(prep, params, start=t1, end=t1, k=4)
    both = average_sensitivity(prep, params, start=t0, end=t1, k=4)
    merged = (
        r0.delta_bar * r0.samples + r1.delta_bar * r1.samples
    ) / (r0.samples + r1.samples)
    np.testing.assert_allclose(both.delta_bar, merged, atol=1e-12)
    assert both.samples == r0.samples + r1.samples


def test_average_sensitivity_empty_range_errors():
    panel = synth_market(SynthConfig(num_stocks=4, num_periods=30, seed=13))
    with pytest.raises(DataError):
        average_sensitivity(panel, small_params(14), start=panel.start, end=panel.start, k=12)


def test_average_sensitivity_empty_range_names_a_single_bound():
    panel = synth_market(SynthConfig(num_stocks=4, num_periods=30, seed=13))
    bounds = f"[?, {format_month(panel.start)}]"
    with pytest.raises(DataError, match=re.escape(bounds)):
        average_sensitivity(panel, small_params(14), end=panel.start, k=12)


def test_report_csv_layout():
    delta = np.arange(14, dtype=float).reshape(7, 2)
    report = SensitivityReport(
        delta_bar=delta, feature_means=delta.mean(axis=1), samples=3, k=2
    )
    lines = report.to_csv().splitlines()
    assert lines[0] == "feature,lag_1,lag_2,mean"
    assert lines[1].startswith("pr,0.0,1.0,")
    assert len(lines) == 1 + len(FEATURE_NAMES)
