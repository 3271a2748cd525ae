"""Trajectory simulation, threshold, score-function gradient, training loop."""

import numpy as np
import pytest

from bwsl import autodiff as ad
from bwsl.errors import DataError, NonFiniteError, TrainingDivergedError
from bwsl.features import PreparedPanel
from bwsl.market import SynthConfig, synth_market
from bwsl.metrics import sharpe
from bwsl.policy import PARAM_ORDER, PolicyParams
from bwsl.trainer import (
    EpochStats,
    TrainConfig,
    Trajectory,
    batch_gradient,
    grad_global_norm,
    leg_size,
    market_threshold,
    simulate_trajectory,
    train,
    trajectory_logprob,
)

SMALL_CFG = TrainConfig(t=3, n=2, epochs=2, eta=1e-3, k=4, seed=0, tc=0.0)


@pytest.fixture(scope="module")
def panel():
    return synth_market(SynthConfig(num_stocks=8, num_periods=30, seed=42))


@pytest.fixture(scope="module")
def params():
    return PolicyParams.init(np.random.default_rng(0), hidden=6, embed=4, l_cols=8)


def test_trajectory_is_deterministic(panel, params):
    t0 = panel.start + 5
    a = simulate_trajectory(panel, t0, params, SMALL_CFG)
    b = simulate_trajectory(panel, t0, params, SMALL_CFG)
    assert a.returns.tobytes() == b.returns.tobytes()
    assert a.sharpe == b.sharpe
    for pa, pb in zip(a.pairs, b.pairs):
        assert pa.long_indices == pb.long_indices
        assert pa.b_plus.tobytes() == pb.b_plus.tobytes()


def test_trajectory_constant_scores_tie_break_uniform_weights(panel):
    degenerate = PolicyParams.init(np.random.default_rng(1), hidden=6, embed=4, l_cols=8)
    degenerate["w_score"].data = np.zeros_like(degenerate["w_score"].data)
    degenerate["b_score"].data = np.zeros(())
    traj = simulate_trajectory(panel, panel.start + 5, degenerate, SMALL_CFG)
    for pair in traj.pairs:
        # scores all 0.5: membership by ascending id, weights uniform
        assert pair.long_indices == tuple(range(pair.g))
        np.testing.assert_allclose(pair.b_plus, 1.0 / pair.g, atol=1e-12)
    assert traj.score_dev == pytest.approx(0.0, abs=1e-15)


def test_trajectory_returns_match_hand_walkthrough(params):
    # 4 stocks, k=2, t0 at index 2, T=2: recompute returns from closes alone
    rng = np.random.default_rng(3)
    closes = np.exp(rng.normal(0.0, 0.05, size=(4, 6))).cumprod(axis=1) + 0.5
    from test_features import panel_from_closes

    panel4 = panel_from_closes(closes)
    cfg = TrainConfig(t=2, n=1, epochs=1, k=2, g=1, tc=0.0, seed=0)
    traj = simulate_trajectory(panel4, panel4.start + 2, params, cfg)
    prep = PreparedPanel(panel4, 2)
    for step in range(2):
        t_idx = 2 + step
        ws = prep.windows(panel4.start + t_idx)
        from bwsl.policy import policy_forward

        scores = policy_forward(ws.features, ws.ranks, params).data
        order = sorted(range(4), key=lambda i: (-scores[i], ws.stock_ids[i]))
        z = closes[:, t_idx + 1] / closes[:, t_idx]
        expected = z[order[0]] - z[order[-1]]  # g=1: singleton softmax weights
        assert traj.returns[step] == pytest.approx(expected, abs=1e-12)
    assert traj.sharpe == pytest.approx(sharpe(traj.returns), abs=1e-12)


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


def test_batch_gradient_zero_advantage_is_zero(panel, params):
    cfg = SMALL_CFG
    trajs = [simulate_trajectory(panel, panel.start + 5 + i, params, cfg) for i in range(2)]
    grads = batch_gradient(trajs, [t.sharpe for t in trajs], params)
    assert grad_global_norm(grads) == 0.0


def test_batch_gradient_single_trajectory_scaling(panel, params):
    cfg = SMALL_CFG
    traj = simulate_trajectory(panel, panel.start + 5, params, cfg)
    g1 = batch_gradient([traj], [traj.sharpe - 1.0], params)
    g2 = batch_gradient([traj], [traj.sharpe - 2.0], params)
    for name in g1:
        np.testing.assert_allclose(g2[name], 2.0 * g1[name], rtol=1e-12)


def test_surrogate_gradient_matches_finite_differences(panel):
    params = PolicyParams.init(np.random.default_rng(5), hidden=6, embed=4, l_cols=8)
    cfg = TrainConfig(t=2, n=1, epochs=1, k=3, g=2, tc=0.0, seed=0)
    t0 = panel.start + 4
    rng = np.random.default_rng(6)
    worst = 0.0
    for name in ("lstm_wx", "att_w", "wq", "w_score", "rank_emb", "rank_w"):
        original = params[name]

        def surrogate(t, name=name):
            swapped = dict(params.tensors())
            swapped[name] = t
            return trajectory_logprob(panel, t0, PolicyParams(swapped, params.q), cfg)

        worst = max(
            worst,
            ad.finite_diff_check(surrogate, original, eps=1e-6, max_coords=10, rng=rng),
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


def test_batch_gradient_rejects_non_finite_sharpe(panel, params):
    traj = simulate_trajectory(panel, panel.start + 5, params, SMALL_CFG)
    broken = Trajectory(
        t0=traj.t0,
        pairs=traj.pairs,
        returns=traj.returns,
        tape=traj.tape,
        logprob=traj.logprob,
        sharpe=float("nan"),
        score_dev=traj.score_dev,
    )
    with pytest.raises(NonFiniteError, match="trajectory 0"):
        batch_gradient([broken], [0.0], params)


def test_degenerate_guard_aborts(panel, monkeypatch):
    # pinned scores with exactly zero advantage for 10 epochs must abort;
    # force zero advantage by making the threshold echo each trajectory's
    # own sharpe
    import bwsl.trainer as trainer_mod

    params = PolicyParams.init(np.random.default_rng(10), hidden=6, embed=4, l_cols=8)
    params["w_score"].data = np.zeros_like(params["w_score"].data)
    params["b_score"].data = np.zeros(())
    cfg = TrainConfig(t=3, n=2, epochs=30, eta=0.01, k=4, seed=7, tc=0.0)
    own_sharpe = {}
    for t0 in range(panel.start + 4, panel.end - 3):
        own_sharpe[t0] = simulate_trajectory(panel, t0, params, cfg).sharpe

    monkeypatch.setattr(
        trainer_mod,
        "market_threshold",
        lambda prep, t0, t, theta, tc, k: (own_sharpe[t0], False),
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
    ],
)
def test_train_config_rejects_bad_settings(field, value):
    with pytest.raises(DataError, match=f"train: {field} "):
        TrainConfig(**{field: value})


def test_train_config_keeps_zero_leg_size_and_zero_clip():
    cfg = TrainConfig(g=0, clip=0.0)
    assert (cfg.g, cfg.clip) == (0, 0.0)
