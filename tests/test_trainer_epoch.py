"""Deduplicated epoch gradient, best-parameter snapshot, flat trajectories,
substitution events and the shared period read."""

import weakref

import numpy as np
import pytest

import bwsl.trainer as trainer_mod
from bwsl.autodiff import Tape
from bwsl.errors import DataError, NonFiniteError
from bwsl.features import PreparedPanel
from bwsl.market import SynthConfig, format_month, synth_market
from bwsl.policy import PARAM_ORDER, PolicyParams
from bwsl.trainer import TrainConfig, epoch_gradient, market_threshold, period_step, train
from rollout_oracle import batch_gradient, hold_every_gradient
from test_features import START, panel_from_closes

CFG = TrainConfig(t=3, n=6, epochs=1, eta=1e-3, k=4, seed=0, tc=0.0)


@pytest.fixture(scope="module")
def panel():
    return synth_market(SynthConfig(num_stocks=8, num_periods=30, seed=42))


def small_params(seed):
    return PolicyParams.init(np.random.default_rng(seed), hidden=6, embed=4, l_cols=8)


def test_epoch_gradient_matches_per_trajectory_batch_gradient(panel):
    # a repeated start and overlapping windows: dedup must weight shared
    # periods by the sum of the covering trajectories' advantages
    params = small_params(0)
    s = panel.start
    starts = [s + 5, s + 6, s + 5, s + 7, s + 12, s + 13]
    thresholds = [market_threshold(panel, t0, CFG.t, CFG.theta, CFG.tc, CFG.k)[0] for t0 in starts]
    prep = PreparedPanel(panel, CFG.k)
    expected, sharpes, score_devs = batch_gradient(prep, starts, thresholds, params, CFG)
    got = epoch_gradient(prep, starts, thresholds, params, CFG)
    for name in PARAM_ORDER:
        np.testing.assert_allclose(got.grads[name], expected[name], rtol=1e-12, atol=0.0)
    assert got.sharpes.tolist() == sharpes
    assert got.advantages.tolist() == [h - h0 for h, h0 in zip(sharpes, thresholds)]
    assert got.score_dev == pytest.approx(np.mean(score_devs), rel=1e-12)
    assert got.flat == 0


def assert_equals_hold_every_gradient_bitwise(panel, cfg, offsets):
    prep = PreparedPanel(panel, cfg.k)
    starts = [panel.start + o for o in offsets]
    thresholds = [0.25 * j - 0.5 for j in range(len(starts))]
    params = small_params(3)
    expected, sharpes, advantages = hold_every_gradient(prep, starts, thresholds, params, cfg)
    got = epoch_gradient(prep, starts, thresholds, params, cfg)
    for name in PARAM_ORDER:
        assert got.grads[name].tobytes() == expected[name].tobytes(), name
    assert got.sharpes.tobytes() == sharpes.tobytes()
    assert got.advantages.tobytes() == advantages.tobytes()
    return got


@pytest.mark.parametrize(
    "offsets",
    [[5, 6, 5, 7, 12, 13], [4, 10, 20], [20, 4, 8, 6, 4, 21]],
    ids=["repeated_and_overlapping", "disjoint", "unsorted"],
)
def test_epoch_gradient_equals_the_hold_every_gradient_reduction_bitwise(panel, offsets):
    assert assert_equals_hold_every_gradient_bitwise(panel, CFG, offsets).flat == 0


def test_epoch_gradient_with_a_flat_trajectory_equals_the_hold_every_gradient_reduction():
    # 4 stocks over 20 months; no close moves over months 8..11, so every
    # period return of the trajectory from month 8 (t=3) is 0
    factors = np.random.default_rng(19).uniform(0.9, 1.1, size=(4, 20))
    factors[:, 9:12] = 1.0
    cfg = TrainConfig(t=3, n=5, epochs=1, k=2, seed=0, tc=0.0)
    got = assert_equals_hold_every_gradient_bitwise(
        panel_from_closes(np.cumprod(factors, axis=1)), cfg, [8, 6, 9, 12, 3]
    )
    assert got.flat == 1 and got.sharpes[0] == 0.0


def test_an_epoch_holds_at_most_t_period_gradients_at_once(panel, monkeypatch):
    # 20 distinct decision times for T = 3; holding every gradient to the
    # end kept all 20 alive
    grads_of = trainer_mod._param_grads
    made, peak = [], []

    def tracked(*args):
        out = grads_of(*args)
        made.append([weakref.ref(g) for g in out.values()])
        peak.append(sum(any(ref() is not None for ref in refs) for refs in made))
        return out

    monkeypatch.setattr(trainer_mod, "_param_grads", tracked)
    s = panel.start
    starts = [s + o for o in (4, 4, 5, 9, 13, 14, 18, 22, 26)]
    epoch_gradient(panel, starts, [0.0] * len(starts), small_params(4), CFG)
    distinct = {t0 + j for t0 in starts for j in range(CFG.t)}
    assert len(made) == len(distinct) >= 6 * CFG.t
    assert max(peak) == CFG.t


def test_a_non_finite_period_gradient_names_its_period(panel, monkeypatch):
    # the 6th distinct time, index 9, comes after the trajectories from 4
    # and 5 have closed and the gradients of 4..7 have been folded in
    params = small_params(5)
    calls = []

    class PoisonedTape(Tape):
        def gradients(self, root):
            calls.append(1)
            if len(calls) == 6:
                return {tensor: np.full(tensor.shape, np.inf) for tensor in params.tensors().values()}
            return super().gradients(root)

    monkeypatch.setattr(trainer_mod, "Tape", PoisonedTape)
    s = panel.start
    starts = [s + 4, s + 5, s + 9, s + 8]
    with pytest.raises(NonFiniteError, match=rf"^period {format_month(s + 9)}: non-finite gradient for "):
        epoch_gradient(panel, starts, [0.0] * len(starts), params, CFG)
    assert len(calls) == 6


def test_epoch_gradient_without_trajectories_raises_data_error(panel):
    # NumPy warned of an invalid divide, then a bare ZeroDivisionError
    with pytest.raises(DataError, match="^epoch_gradient: at least one trajectory required$"):
        epoch_gradient(panel, [], [], small_params(1), CFG)


def test_epoch_scores_each_distinct_decision_time_once(panel, monkeypatch):
    forward = trainer_mod.policy_forward
    calls = []
    starts_seen = []

    def counting_forward(*args, **kwargs):
        calls.append(1)
        return forward(*args, **kwargs)

    def recording_epoch_gradient(prep, starts, *args, **kwargs):
        starts_seen.extend(starts)
        return epoch_gradient(prep, starts, *args, **kwargs)

    monkeypatch.setattr(trainer_mod, "policy_forward", counting_forward)
    monkeypatch.setattr(trainer_mod, "epoch_gradient", recording_epoch_gradient)
    cfg = TrainConfig(t=4, n=8, epochs=1, eta=1e-3, k=4, seed=2, tc=0.0)
    train(panel, cfg, small_params(1))
    assert len(starts_seen) == cfg.n
    covered = {t0 + s for t0 in starts_seen for s in range(cfg.t)}
    assert len(covered) < cfg.n * cfg.t  # the sampled windows do overlap
    assert len(calls) == len(covered)


def test_train_reads_each_decision_times_ratios_once_per_prepared_panel(panel, monkeypatch):
    # thresholds and policy steps of overlapping starts share one read per time
    read = PreparedPanel.forward_ratios
    reads = []
    starts_seen = []

    def counting_read(self, t, stock_ids):
        reads.append(self.month(t))
        return read(self, t, stock_ids)

    def recording_epoch_gradient(prep, starts, *args, **kwargs):
        starts_seen.extend(starts)
        return epoch_gradient(prep, starts, *args, **kwargs)

    monkeypatch.setattr(PreparedPanel, "forward_ratios", counting_read)
    monkeypatch.setattr(trainer_mod, "epoch_gradient", recording_epoch_gradient)
    cfg = TrainConfig(t=4, n=8, epochs=2, eta=1e-3, k=4, seed=2, tc=0.0)
    prep = PreparedPanel(panel, cfg.k)
    train(prep, cfg, small_params(1))
    covered = {t0 + s for t0 in starts_seen for s in range(cfg.t)}
    assert len(starts_seen) == cfg.n * cfg.epochs > len(set(starts_seen))
    assert sorted(reads) == sorted(covered)
    train(prep, cfg, small_params(1))
    assert len(reads) == len(covered)
    _, z, _ = prep.period_data(min(covered))
    with pytest.raises(ValueError):
        z[0] = 1.0


def test_best_params_are_the_scored_parameters_not_the_updated_ones(panel):
    initial = small_params(11)
    cfg = TrainConfig(t=3, n=2, epochs=1, eta=0.01, k=4, seed=4, tc=0.0)
    result = train(panel, cfg, initial.copy())
    assert result.best_epoch == 1
    assert result.log[0].grad_norm > 0.0
    for name in PARAM_ORDER:
        assert result.best_params[name].data.tobytes() == initial[name].data.tobytes()
    assert any(
        result.params[name].data.tobytes() != initial[name].data.tobytes() for name in PARAM_ORDER
    )


def test_flat_trajectories_score_zero_and_are_counted():
    flat_panel = panel_from_closes(np.ones((4, 12)))
    cfg = TrainConfig(t=3, n=2, epochs=2, eta=1e-3, k=2, seed=0, tc=0.0)
    params = small_params(12)
    one = epoch_gradient(flat_panel, [flat_panel.start + 2], [0.0], params, cfg)
    assert one.flat == 1 and one.sharpes.tolist() == [0.0]
    result = train(flat_panel, cfg, params)
    assert [s.flat_trajectories for s in result.log] == [cfg.n] * cfg.epochs
    assert [s.mean_sharpe for s in result.log] == [0.0] * cfg.epochs


def delisting_panel(n_periods):
    # 4 stocks; S0 has no bar from month index 5 on
    closes = np.cumprod(np.random.default_rng(13).uniform(0.9, 1.1, size=(4, n_periods)), axis=1)
    mask = np.ones((4, n_periods), dtype=bool)
    mask[0, 5:] = False
    return panel_from_closes(closes, mask=mask)


def test_period_step_reports_the_substitution_event():
    cfg = TrainConfig(t=3, n=2, epochs=1, k=2, seed=0, tc=0.0)
    prep = PreparedPanel(delisting_panel(8), k=2)
    step = period_step(prep, START + 4, small_params(14), cfg)
    assert list(step.events) == [("S0", "missing_next_close")]
    assert period_step(prep, START + 3, small_params(14), cfg).events == ()


def test_train_logs_substitutions():
    # 7 months, k=2, t=3: the only starts are indices 2 and 3, and both cover index 4
    cfg = TrainConfig(t=3, n=2, epochs=2, eta=1e-3, k=2, seed=0, tc=0.0)
    result = train(delisting_panel(7), cfg, small_params(15))
    assert all(s.substitutions >= 1 for s in result.log)


def test_market_threshold_rejects_a_single_stock_period():
    closes = np.cumprod(np.full((3, 10), 1.01), axis=1)
    mask = np.ones((3, 10), dtype=bool)
    mask[1:, 5] = False  # only S0 is eligible at index 6
    panel = panel_from_closes(closes, mask=mask)
    with pytest.raises(DataError, match="fewer than 2 eligible stocks"):
        market_threshold(panel, START + 6, 2, 0.0, 0.0, k=2)


def thin_month_panel(n_periods, thin_index):
    # 3 stocks; only S0 has a bar at thin_index, so with k=2 the decision
    # times thin_index .. thin_index + 2 have fewer than 2 eligible stocks
    closes = np.cumprod(np.random.default_rng(17).uniform(0.9, 1.1, size=(3, n_periods)), axis=1)
    mask = np.ones((3, n_periods), dtype=bool)
    mask[1:, thin_index] = False
    return panel_from_closes(closes, mask=mask)


def test_train_samples_around_a_thin_month(monkeypatch):
    panel = thin_month_panel(30, 20)
    cfg = TrainConfig(t=3, n=4, epochs=5, eta=1e-3, k=2, seed=0, tc=0.0)
    picked = []

    def recording(prep, starts, *rest):
        picked.extend(starts)
        return epoch_gradient(prep, starts, *rest)

    monkeypatch.setattr(trainer_mod, "epoch_gradient", recording)
    result = train(panel, cfg, small_params(16))
    assert len(result.log) == cfg.epochs and len(picked) == cfg.n * cfg.epochs
    # no sampled trajectory covers a decision time with a single eligible stock
    thin = {START + i for i in (20, 21, 22)}
    assert all(PreparedPanel(panel, 2).windows(t) is None for t in thin)
    assert not thin & {t0 + j for t0 in picked for j in range(cfg.t)}


def test_train_without_an_eligible_start_raises():
    # k=2, t=3, 8 months: every 3-period window of decision times 2..6 covers index 4
    cfg = TrainConfig(t=3, n=2, epochs=1, k=2, seed=0, tc=0.0)
    with pytest.raises(DataError, match="train: no start"):
        train(thin_month_panel(8, 4), cfg, small_params(17))
