"""Rollout steps, market threshold, the epoch's score-function gradient,
the surrogate's finite-difference gate and the training loop."""

import numpy as np
import pytest

from bwsl import autodiff as ad
from bwsl.errors import DataError, NonFiniteError, TrainingDivergedError
from bwsl.features import PreparedPanel
from bwsl.market import SynthConfig, substream, synth_market
from bwsl.metrics import sharpe
from bwsl.policy import PARAM_ORDER, PolicyParams, WinnerScores
from bwsl.portfolio import generate
from bwsl.trainer import (
    EpochStats,
    TrainConfig,
    _param_grads,
    epoch_gradient,
    grad_global_norm,
    leg_size,
    market_threshold,
    period_step,
    train,
)
from rollout_oracle import rollout

SMALL_CFG = TrainConfig(t=3, n=2, epochs=2, eta=1e-3, k=4, seed=0, tc=0.0)


@pytest.fixture(scope="module")
def panel():
    return synth_market(SynthConfig(num_stocks=8, num_periods=30, seed=42))


@pytest.fixture(scope="module")
def params():
    return PolicyParams.init(np.random.default_rng(0), hidden=6, embed=4, l_cols=8)


def own_sharpe(panel, t0, params, cfg):
    """Sharpe ratio of the trajectory from t0, as the epoch computes it."""
    return epoch_gradient(panel, [t0], [0.0], params, cfg).sharpes[0]


def test_trajectory_is_deterministic(panel, params):
    prep = PreparedPanel(panel, SMALL_CFG.k)
    for t in range(panel.start + 5, panel.start + 5 + SMALL_CFG.t):
        a = period_step(prep, t, params, SMALL_CFG)
        b = period_step(prep, t, params, SMALL_CFG)
        assert a.ret == b.ret
        assert a.pair.long_indices == b.pair.long_indices
        assert a.pair.b_plus.tobytes() == b.pair.b_plus.tobytes()
    first = epoch_gradient(panel, [panel.start + 5], [0.0], params, SMALL_CFG)
    again = epoch_gradient(panel, [panel.start + 5], [0.0], params, SMALL_CFG)
    assert first.sharpes.tobytes() == again.sharpes.tobytes()
    for name in PARAM_ORDER:
        assert first.grads[name].tobytes() == again.grads[name].tobytes()


def test_trajectory_constant_scores_tie_break_uniform_weights(panel):
    degenerate = PolicyParams.init(np.random.default_rng(1), hidden=6, embed=4, l_cols=8)
    degenerate["w_score"].data = np.zeros_like(degenerate["w_score"].data)
    degenerate["b_score"].data = np.zeros(())
    prep = PreparedPanel(panel, SMALL_CFG.k)
    for t in range(panel.start + 5, panel.start + 5 + SMALL_CFG.t):
        step = period_step(prep, t, degenerate, SMALL_CFG)
        # scores all 0.5: membership by ascending id, weights uniform
        ids = step.pair.stock_ids
        assert tuple(ids[i] for i in step.pair.long_indices) == tuple(sorted(ids)[: step.pair.g])
        np.testing.assert_allclose(step.pair.b_plus, 1.0 / step.pair.g, atol=1e-12)
        assert step.score_dev == pytest.approx(0.0, abs=1e-15)


def test_trajectory_returns_match_hand_walkthrough(params):
    # 4 stocks, k=2, t0 at index 2, T=2: recompute returns from closes alone
    rng = np.random.default_rng(3)
    closes = np.exp(rng.normal(0.0, 0.05, size=(4, 6))).cumprod(axis=1) + 0.5
    from test_features import panel_from_closes

    panel4 = panel_from_closes(closes)
    cfg = TrainConfig(t=2, n=1, epochs=1, k=2, g=1, tc=0.0, seed=0)
    prep = PreparedPanel(panel4, 2)
    returns = []
    for step in range(2):
        t_idx = 2 + step
        ws = prep.windows(panel4.start + t_idx)
        from bwsl.policy import policy_forward

        scores = policy_forward(ws.features, ws.ranks, params).data
        order = sorted(range(4), key=lambda i: (-scores[i], ws.stock_ids[i]))
        rows = [panel4.stock_index(sid) for sid in ws.stock_ids]
        z = closes[rows, t_idx + 1] / closes[rows, t_idx]
        expected = z[order[0]] - z[order[-1]]  # g=1: singleton softmax weights
        returns.append(period_step(prep, panel4.start + t_idx, params, cfg).ret)
        assert returns[-1] == pytest.approx(expected, abs=1e-12)
    h = own_sharpe(prep, panel4.start + 2, params, cfg)
    assert h == pytest.approx(sharpe(returns), abs=1e-12)


def test_recorded_period_step_is_three_tape_records(panel, params):
    # encode, score and leg_logprob
    tape = ad.Tape()
    with tape:
        period_step(PreparedPanel(panel, SMALL_CFG.k), panel.start + 5, params, SMALL_CFG)
    assert len(tape) == 3


def test_market_threshold_matches_independent_recompute(panel):
    t0 = panel.start + 6
    h0, degenerate = market_threshold(panel, t0, 4, theta=0.0, tc=0.0, k=4)
    assert not degenerate
    close = panel.field("close")
    returns = []
    for step in range(4):
        idx = 6 + step
        returns.append(np.mean(close[:, idx + 1] / close[:, idx]) - 1.0)
    assert h0 == pytest.approx(sharpe(returns), rel=1e-12)


def test_market_threshold_flags_degenerate_market():
    from test_features import panel_from_closes

    panel_flat = panel_from_closes(np.ones((4, 10)))
    h0, degenerate = market_threshold(panel_flat, panel_flat.start + 3, 3, 0.0, 0.0, k=2)
    assert degenerate and h0 == 0.0


def test_market_threshold_flags_cancelling_market():
    from test_features import panel_from_closes

    # 1.5 and 0.5 are exact binary fractions: z is exactly (1.5, 0.5) every
    # period, the mean is exactly 1, and market returns are exactly zero
    closes = np.ones((2, 10))
    closes[0] = 1.5 ** np.arange(10)
    closes[1] = 0.5 ** np.arange(10)
    panel2 = panel_from_closes(closes)
    h0, degenerate = market_threshold(panel2, panel2.start + 3, 3, 0.0, 0.0, k=2)
    assert degenerate and h0 == 0.0


@pytest.mark.parametrize("t", [-1, 1])
def test_market_threshold_needs_at_least_two_periods(panel, t):
    # t = -1 used to fail with NumPy's bare ValueError
    with pytest.raises(DataError, match="market_threshold: t must be at least 2"):
        market_threshold(panel, panel.start + 6, t, 0.0, 0.0, k=4)


def test_batch_gradient_zero_advantage_is_zero(panel, params):
    starts = [panel.start + 5, panel.start + 6]
    sharpes = epoch_gradient(panel, starts, [0.0, 0.0], params, SMALL_CFG).sharpes
    grads = epoch_gradient(panel, starts, list(sharpes), params, SMALL_CFG).grads
    assert grad_global_norm(grads) == 0.0


@pytest.mark.parametrize("h0", [np.nan, np.inf, "x"], ids=["nan", "inf", "str"])
def test_epoch_gradient_rejects_a_threshold_that_is_not_a_finite_real(panel, params, h0):
    # NaN and inf used to give NaN gradients, with NumPy's "invalid value"
    # warning the only sign, and a str a bare ValueError
    with pytest.raises(DataError, match="epoch_gradient: threshold must be"):
        epoch_gradient(panel, [panel.start + 5], [h0], params, SMALL_CFG)


def test_epoch_gradient_needs_one_threshold_per_start(panel, params):
    with pytest.raises(DataError, match="one threshold per trajectory"):
        epoch_gradient(panel, [panel.start + 5, panel.start + 6], [0.0], params, SMALL_CFG)


def test_a_non_finite_parameter_gradient_raises(params):
    tape = ad.Tape()
    with tape:
        root = ad.emit("nan_slope", 0.0, ((params["b_score"], lambda g: np.asarray(np.nan)),))
    with pytest.raises(NonFiniteError, match="period x: non-finite gradient for b_score"):
        _param_grads(tape, root, params, "period x")


def test_batch_gradient_single_trajectory_scaling(panel, params):
    t0 = panel.start + 5
    h = own_sharpe(panel, t0, params, SMALL_CFG)
    g1 = epoch_gradient(panel, [t0], [h - 1.0], params, SMALL_CFG).grads
    g2 = epoch_gradient(panel, [t0], [h - 2.0], params, SMALL_CFG).grads
    for name in g1:
        np.testing.assert_allclose(g2[name], 2.0 * g1[name], rtol=1e-12)


def test_surrogate_gradient_matches_finite_differences(panel):
    # at init the scores barely differ, the leg weights are near uniform and
    # the surrogate's gradients are about 1e-10, below what a central
    # difference resolves; 8x the init weights spreads the scores and gives
    # gradients of about 1e-2 to 2. Each tensor's error is measured against its
    # own largest analytic entry, so a wrong slope on either leg fails.
    init = PolicyParams.init(np.random.default_rng(5), hidden=6, embed=4, l_cols=8)
    params = PolicyParams(
        {n: ad.Tensor(8.0 * t.data, requires_grad=True) for n, t in init.tensors().items()}, init.q
    )
    cfg = TrainConfig(t=2, n=1, epochs=1, k=3, g=2, tc=0.0, seed=0)
    t0 = panel.start + 4
    prep = PreparedPanel(panel, cfg.k)
    rng = np.random.default_rng(6)
    worst = 0.0
    for name in ("lstm_wx", "att_w", "wq", "w_score", "rank_emb", "rank_w"):
        original = params[name]

        def surrogate(t, name=name):
            swapped = dict(params.tensors())
            swapped[name] = t
            return rollout(prep, t0, PolicyParams(swapped, params.q), cfg)[1]

        value, tape = ad.forward(surrogate, original)
        scale = np.abs(tape.gradients(value)[original]).max()
        worst = max(
            worst,
            ad.finite_diff_check(
                lambda t: surrogate(t) * (1.0 / scale), original, eps=1e-6, max_coords=10, rng=rng
            ),
        )
    assert worst <= 1e-4


def test_train_zero_learning_rate_is_noop(panel):
    params = PolicyParams.init(np.random.default_rng(7), hidden=6, embed=4, l_cols=8)
    before = {n: t.data.copy() for n, t in params.tensors().items()}
    cfg = TrainConfig(t=3, n=2, epochs=3, eta=0.0, k=4, seed=1, tc=0.0)
    result = train(panel, cfg, params)
    for name, t in result.params.tensors().items():
        assert t.data.tobytes() == before[name].tobytes()


def test_train_same_seed_same_result(panel):
    cfg = TrainConfig(t=3, n=2, epochs=3, eta=0.01, k=4, seed=3, tc=0.0)
    r1 = train(panel, cfg, PolicyParams.init(np.random.default_rng(8), hidden=6, embed=4, l_cols=8))
    r2 = train(panel, cfg, PolicyParams.init(np.random.default_rng(8), hidden=6, embed=4, l_cols=8))
    for name in PARAM_ORDER:
        assert r1.params[name].data.tobytes() == r2.params[name].data.tobytes()
    assert [s.mean_sharpe for s in r1.log] == [s.mean_sharpe for s in r2.log]


def test_train_clipping_bounds_update_norm(panel):
    params = PolicyParams.init(np.random.default_rng(9), hidden=6, embed=4, l_cols=8)
    before = {n: t.data.copy() for n, t in params.tensors().items()}
    clip = 0.05
    cfg = TrainConfig(t=3, n=2, epochs=1, eta=1.0, clip=clip, k=4, seed=5, tc=0.0)
    result = train(panel, cfg, params)
    step = np.sqrt(
        sum(
            float(np.sum((result.params[n].data - before[n]) ** 2))
            for n in PARAM_ORDER
        )
    )
    assert step <= clip * cfg.eta + 1e-12
    assert result.log[0].grad_norm > 0.0


def test_train_logs_every_epoch_and_tracks_best(panel):
    cfg = TrainConfig(t=3, n=2, epochs=4, eta=0.01, k=4, seed=6, tc=0.0)
    result = train(panel, cfg)
    assert [s.epoch for s in result.log] == [1, 2, 3, 4]
    best = max(result.log, key=lambda s: s.mean_sharpe)
    assert result.best_epoch == best.epoch


def test_leg_size_quarter_rule():
    assert leg_size(50, 0) == 12
    assert leg_size(4, 0) == 1
    assert leg_size(5, 0) == 1
    assert leg_size(50, 7) == 7


def test_degenerate_guard_aborts(panel, monkeypatch):
    # pinned scores with exactly zero advantage for 10 epochs must abort;
    # force zero advantage by making the threshold echo each trajectory's
    # own sharpe
    import bwsl.trainer as trainer_mod

    params = PolicyParams.init(np.random.default_rng(10), hidden=6, embed=4, l_cols=8)
    params["w_score"].data = np.zeros_like(params["w_score"].data)
    params["b_score"].data = np.zeros(())
    cfg = TrainConfig(t=3, n=2, epochs=30, eta=0.01, k=4, seed=7, tc=0.0)
    prep = PreparedPanel(panel, cfg.k)
    h_own = {t0: own_sharpe(prep, t0, params, cfg) for t0 in range(panel.start + 4, panel.end - 3)}

    monkeypatch.setattr(
        trainer_mod,
        "market_threshold",
        lambda prep, t0, t, theta, tc, k: (h_own[t0], False),
    )
    with pytest.raises(TrainingDivergedError):
        train(panel, cfg, params)


def test_learning_log_csv_format():
    from bwsl.trainer import learning_log_csv

    text = learning_log_csv([EpochStats(1, 0.5, 0.1, 2.0)])
    lines = text.splitlines()
    assert lines[0] == "epoch,mean_H,mean_advantage,grad_norm"
    assert lines[1].startswith("1,0.5,0.1,2.0")


@pytest.mark.parametrize(
    "field, value",
    [
        ("epochs", 0),
        ("epochs", -1),
        ("g", -3),
        ("clip", -1.0),
        ("eta", float("nan")),
        ("eta", float("inf")),
        ("clip", float("nan")),
        ("clip", float("inf")),
        ("theta", float("nan")),
        ("theta", float("-inf")),
        ("tc", float("nan")),
        ("tc", float("inf")),
        # a str used to fail with a bare TypeError and True to be read as 1.0;
        # the last two cases reach raises no other test reached
        ("eta", "0.1"),
        ("clip", True),
        ("theta", None),
        pytest.param("tc", 10**400, id="tc-huge_int"),
        ("eta", -1),
        ("mode", "x"),
    ],
)
def test_train_config_rejects_bad_settings(field, value):
    with pytest.raises(DataError, match=f"train: {field} "):
        TrainConfig(**{field: value})


def test_train_config_keeps_zero_leg_size_and_zero_clip():
    cfg = TrainConfig(g=0, clip=0.0)
    assert (cfg.g, cfg.clip) == (0, 0.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda panel: generate(WinnerScores(("A", "B", "C", "D"), np.arange(0.1, 0.5, 0.1)), 1.9),
        lambda panel: PolicyParams.init(0, q=2.5),
        lambda panel: PolicyParams.init(0, hidden=2.5),
        lambda panel: PreparedPanel(panel, 3.5),
        lambda panel: TrainConfig(g=1.5),
        lambda panel: TrainConfig(t=2.5),
        lambda panel: TrainConfig(n=1.5),
        lambda panel: TrainConfig(epochs=1.5),
        lambda panel: TrainConfig(k=3.5),
        lambda panel: TrainConfig(n=True),
        lambda panel: PreparedPanel(panel, True),
        lambda panel: TrainConfig(g=False),
        lambda panel: market_threshold(panel, panel.start + 6, 2.5, 0.0, 0.0, k=4),
        lambda panel: market_threshold(panel, panel.start + 6, True, 0.0, 0.0, k=4),
    ],
    ids=[
        "leg_size", "quantization_step", "hidden_width", "look_back",
        "train_g", "train_t", "train_n", "train_epochs", "train_k",
        "train_n_bool", "look_back_bool", "train_g_bool", "threshold_t", "threshold_t_bool",
    ],
)
def test_fractional_whole_number_setting_raises_data_error(panel, build):
    # each used to be truncated or to fail later with a bare TypeError; a
    # bool passed as a numbers.Integral, so n=True gave n=1
    with pytest.raises(DataError, match="must be a whole number, got"):
        build(panel)


def test_whole_float_settings_are_kept_as_ints(panel):
    cfg = TrainConfig(t=3.0, n=np.int64(2), epochs=1.0, k=4.0, g=2.0, seed=np.float64(2.0))
    assert [type(v) for v in (cfg.t, cfg.n, cfg.epochs, cfg.k, cfg.g, cfg.seed)] == [int] * 6
    t0 = panel.start + 6
    whole = market_threshold(panel, t0, 3.0, 0.0, 0.0, k=4)
    assert whole == market_threshold(panel, t0, 3, 0.0, 0.0, k=4)
    a, b = PolicyParams.init(np.float64(2.0)), PolicyParams.init(2)
    assert all(a[n].data.tobytes() == b[n].data.tobytes() for n in PARAM_ORDER)
    assert PreparedPanel(panel, 4.0).k == 4 and PolicyParams.init(0, q=2.0).q == 2
    assert PolicyParams.init(0, hidden=6.0, embed=np.int64(4))["wq"].shape == (6, 6)


@pytest.mark.parametrize(
    "seed", [1.5, np.float64(2.5), True, -1], ids=["fraction", "np_fraction", "bool", "negative"]
)
@pytest.mark.parametrize(
    "build",
    [
        lambda seed: SynthConfig(8, 30, seed=seed),
        lambda seed: TrainConfig(seed=seed),
        lambda seed: PolicyParams.init(seed),
        lambda seed: substream(seed, "init"),
    ],
    ids=["synth", "train", "init", "substream"],
)
def test_every_seed_is_read_as_a_whole_number(build, seed):
    # 1.5 used to be read as seed 1 by the configs and True as seed 1
    # everywhere; PolicyParams.init(1.5) failed with a bare AttributeError
    # and -1 with NumPy's bare ValueError
    with pytest.raises(DataError, match="seed must be"):
        build(seed)
