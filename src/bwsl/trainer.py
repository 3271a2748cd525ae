"""Sharpe-ratio policy-gradient training.

A trajectory is T consecutive holding periods from a start t0. At each
decision time t the policy scores the eligible universe, the generator
picks the legs, and the period return is realized (:func:`period_step`).
The trajectory reward H_n is the Sharpe ratio of its T returns; the
market's Sharpe H0_n over the same window is subtracted as a threshold,
so ascent only reinforces trajectories that beat an equal-weight
buy-and-hold.

The surrogate differentiated on the tape is log b(t) = sum over the
supported stocks i of log b_c(i), summed over a trajectory's periods:
leg selection is treated as non-differentiable, gradients flow through
the within-leg softmaxes, and the advantage A_n = H_n - H0_n weights each
trajectory as a constant. The parameters are fixed within an epoch, so
the batch surrogate is linear in the per-period log-probabilities:

    (1/N) sum_n A_n sum_{t in n} log b(t) = (1/N) sum_t w_t log b(t),
    w_t = sum of A_n over the trajectories n whose window covers t.

Sampled windows overlap, so an epoch (:func:`epoch_gradient`) scores and
backpropagates each distinct decision time once, keeps that period's
parameter gradient g_t and return, rebuilds every trajectory's returns
and advantage from the stored returns, and combines (1/N) sum_t w_t g_t.

The threshold and the policy step read each decision time the same way
(:func:`_period_data`): the eligible universe's windows, their forward
price ratios, and the delisting substitutions those ratios needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import DataError, NonFiniteError, TrainingDivergedError, ZeroVolatilityError
from .features import PreparedPanel, WindowSet
from .market import format_month, substream
from .metrics import sharpe
from .policy import PolicyParams, WinnerScores, policy_forward
from .portfolio import LONG_SHORT, MODES, PortfolioPair, generate, realize_return


@dataclass(frozen=True)
class TrainConfig:
    """Trajectory and optimization settings."""

    t: int = 12
    n: int = 16
    epochs: int = 200
    eta: float = 1e-3
    clip: float = 5.0
    k: int = 12
    g: int = 0  # 0 = quarter of the eligible universe, per period
    mode: str = LONG_SHORT
    theta: float = 0.0
    tc: float = 0.001
    seed: int = 0

    def __post_init__(self):
        if self.t < 2:
            raise DataError("train: t must be at least 2")
        if self.n < 1:
            raise DataError("train: n must be at least 1")
        # eta == 0 is allowed as an explicit no-op update
        if self.eta < 0:
            raise DataError("train: eta must be non-negative")
        if self.mode not in MODES:
            raise DataError(f"train: unknown mode {self.mode!r}")


@dataclass(frozen=True)
class PeriodStep:
    """One decision time: the pair held, its realized return, and its leg
    log-probability log b(t) (recorded on the tape active at the step)."""

    pair: PortfolioPair
    ret: float
    logprob: Tensor
    score_dev: float  # mean |score - 1/2| over the universe, degeneracy probe
    events: tuple[tuple[str, str], ...]  # (stock_id, 'missing_next_close') substitutions


@dataclass
class Trajectory:
    """One simulated T-period investment with its differentiable surrogate."""

    t0: int
    pairs: list[PortfolioPair]
    returns: np.ndarray
    tape: Tape
    logprob: Tensor
    sharpe: float
    score_dev: float  # mean |score - 1/2| across periods, degeneracy probe
    flat: bool = False  # returns had zero volatility; sharpe is 0.0


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    mean_sharpe: float
    mean_advantage: float
    grad_norm: float
    flat_trajectories: int = 0  # trajectories scored Sharpe 0.0 for zero volatility
    substitutions: int = 0  # delisting substitutions over the epoch's distinct decision times


@dataclass(frozen=True)
class EpochGradient:
    """One epoch's batch gradient and the per-trajectory figures behind it."""

    grads: dict[str, np.ndarray]
    sharpes: np.ndarray
    advantages: np.ndarray
    score_dev: float  # mean over trajectories of their mean |score - 1/2|
    flat: int  # trajectories whose returns had zero volatility
    substitutions: int  # substitution events over the distinct decision times


@dataclass
class TrainResult:
    params: PolicyParams
    best_params: PolicyParams
    best_epoch: int
    log: list[EpochStats] = field(default_factory=list)


def leg_size(universe_size: int, g: int) -> int:
    """Configured leg size, or a quarter of the universe when g == 0."""
    if g > 0:
        return int(g)
    return max(1, universe_size // 4)


def _prepared(panel, k: int) -> PreparedPanel:
    if isinstance(panel, PreparedPanel):
        if panel.k != k:
            raise DataError(f"prepared panel has k={panel.k}, config wants k={k}")
        return panel
    return PreparedPanel(panel, k)


def _month(prep: PreparedPanel, t) -> int:
    """Absolute month number of a period given in any form index_of takes."""
    return prep.panel.index_of(t) + prep.panel.start


def _sharpe_or_flat(returns, theta: float, tc: float) -> tuple[float, bool]:
    """(Sharpe, False), or (0.0, True) when the returns have zero volatility."""
    try:
        return sharpe(returns, theta, tc), False
    except ZeroVolatilityError:
        return 0.0, True


def _reward(steps: list[PeriodStep], cfg: TrainConfig) -> tuple[np.ndarray, float, bool, float]:
    """A trajectory's returns, its Sharpe (0.0 when flat), the flat flag and
    its mean score deviation."""
    returns = np.array([s.ret for s in steps])
    h_pi, flat = _sharpe_or_flat(returns, cfg.theta, cfg.tc)
    return returns, h_pi, flat, float(np.mean([s.score_dev for s in steps]))


def _period_data(prep: PreparedPanel, t: int) -> tuple[WindowSet, np.ndarray, list]:
    """The eligible windows at t, their forward price ratios, and the
    substitution events behind those ratios."""
    ws = prep.windows(t)
    if ws is None:
        raise DataError(f"fewer than 2 eligible stocks at {format_month(t)}")
    z, events = prep.forward_ratios(t, ws.stock_ids)
    return ws, z, events


def period_step(prep: PreparedPanel, t: int, params: PolicyParams, cfg: TrainConfig) -> PeriodStep:
    """Score -> legs -> leg log-prob -> realized return at decision time t.

    Runs under whatever tape is active (none records nothing); training,
    simulation and the surrogate all go through this one step.
    """
    ws, z, events = _period_data(prep, t)
    scores = policy_forward(ws.features, ws.ranks, params)
    g = leg_size(len(ws), cfg.g)
    pair = generate(WinnerScores(ws.stock_ids, scores.data.copy()), g, cfg.mode)
    return PeriodStep(
        pair=pair,
        ret=realize_return(pair, dict(zip(ws.stock_ids, z))),
        logprob=_leg_logprob(scores, pair.long_indices, pair.short_indices),
        score_dev=float(np.mean(np.abs(scores.data - 0.5))),
        events=tuple(events),
    )


def _rollout(prep: PreparedPanel, t0: int, params: PolicyParams, cfg: TrainConfig):
    """cfg.t period steps from t0 and the sum of their log-probabilities."""
    steps = [period_step(prep, t0 + s, params, cfg) for s in range(cfg.t)]
    logprob = steps[0].logprob
    for step in steps[1:]:
        logprob = logprob + step.logprob
    return steps, logprob


def trajectory_logprob(panel, t0, params: PolicyParams, cfg: TrainConfig) -> Tensor:
    """The trainer surrogate sum_t log b(t) as a tape expression.

    Runs under whatever tape is currently active (none records nothing),
    which makes the surrogate directly checkable by finite differences.
    """
    prep = _prepared(panel, cfg.k)
    _, logprob = _rollout(prep, _month(prep, t0), params, cfg)
    return logprob


def simulate_trajectory(panel, t0, params: PolicyParams, cfg: TrainConfig) -> Trajectory:
    """Roll the policy forward for cfg.t periods starting at t0.

    Deterministic given its inputs; the returned tape differentiates the
    trajectory's log-probability surrogate with respect to the parameters.
    """
    prep = _prepared(panel, cfg.k)
    t0 = _month(prep, t0)
    tape = Tape()
    with tape:
        steps, logprob = _rollout(prep, t0, params, cfg)
    tape.root = logprob
    returns, h_pi, flat, score_dev = _reward(steps, cfg)
    return Trajectory(
        t0=t0,
        pairs=[s.pair for s in steps],
        returns=returns,
        tape=tape,
        logprob=logprob,
        sharpe=h_pi,
        score_dev=score_dev,
        flat=flat,
    )


def _leg_logprob(scores: Tensor, long_idx, short_idx) -> Tensor:
    """sum over supported stocks of log b_c, built from tape primitives."""
    long_term = ad.tsum(ad.log(ad.softmax(ad.take(scores, np.asarray(long_idx)))))
    if not short_idx:
        return long_term
    short_scores = ad.take(scores, np.asarray(short_idx))
    short_term = ad.tsum(ad.log(ad.softmax(1.0 - short_scores)))
    return long_term + short_term


def market_threshold(panel, t0, t: int, theta: float, tc: float, k: int = 12):
    """Sharpe of the equal-weight buy-and-hold of the policy's universe
    over the same T periods, read through the same :func:`_period_data`.

    Returns (h0, degenerate): when the market return series has zero
    volatility, h0 is 0.0 and the flag is set.
    """
    prep = _prepared(panel, k)
    t0 = _month(prep, t0)
    returns = np.zeros(t)
    for step in range(t):
        _, z, _ = _period_data(prep, t0 + step)
        returns[step] = float(np.mean(z)) - 1.0
    return _sharpe_or_flat(returns, theta, tc)


def _param_grads(tape: Tape, params: PolicyParams, label: str) -> dict[str, np.ndarray]:
    """Backpropagate the tape's root; its gradient for every parameter."""
    grads = ad.backward(tape)
    out = {}
    for name, tensor in params.tensors().items():
        g = grads[tensor]
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"{label}: non-finite gradient for {name}")
        out[name] = g
    return out


def _weighted_grad_sum(weights: dict, grads_of, params: PolicyParams, n: int) -> dict:
    """(1/n) sum_key weights[key] * grads_of(key); grads_of is never called
    for a zero weight, so those tapes are not backpropagated."""
    acc = {name: np.zeros(t.shape) for name, t in params.tensors().items()}
    for key, w in weights.items():
        if w != 0.0:
            for name, g in grads_of(key).items():
                acc[name] += w * g
    return {name: g / n for name, g in acc.items()}


def batch_gradient(
    trajectories: list[Trajectory],
    thresholds: list[float],
    params: PolicyParams,
) -> dict[str, np.ndarray]:
    """(1/N) sum_n (H_n - H0_n) * grad of the trajectory surrogate."""
    if len(trajectories) != len(thresholds):
        raise DataError("batch_gradient: one threshold per trajectory required")
    for i, traj in enumerate(trajectories):
        if not np.isfinite(traj.sharpe):
            raise NonFiniteError(f"trajectory {i}: non-finite sharpe")
    advantages = [traj.sharpe - float(h0) for traj, h0 in zip(trajectories, thresholds)]
    return _weighted_grad_sum(
        dict(enumerate(advantages)),
        lambda i: _param_grads(trajectories[i].tape, params, f"trajectory {i}"),
        params,
        len(trajectories),
    )


def epoch_gradient(panel, starts, thresholds, params: PolicyParams, cfg: TrainConfig) -> EpochGradient:
    """batch_gradient over the trajectories starting at ``starts``, with
    each distinct decision time scored and backpropagated once.

    Equal to batch_gradient over simulate_trajectory of the same starts up
    to the order of floating-point summation.
    """
    if len(starts) != len(thresholds):
        raise DataError("epoch_gradient: one threshold per trajectory required")
    prep = _prepared(panel, cfg.k)
    windows = [range(t0, t0 + cfg.t) for t0 in (_month(prep, s) for s in starts)]
    steps: dict[int, PeriodStep] = {}
    grads: dict[int, dict[str, np.ndarray]] = {}
    for t in sorted({t for window in windows for t in window}):
        tape = Tape()
        with tape:
            steps[t] = period_step(prep, t, params, cfg)
        tape.root = steps[t].logprob
        grads[t] = _param_grads(tape, params, f"period {format_month(t)}")

    n = len(starts)
    sharpes, advantages = np.zeros(n), np.zeros(n)
    weights = dict.fromkeys(steps, 0.0)
    score_dev = 0.0
    flat = 0
    for i, (window, h0) in enumerate(zip(windows, thresholds)):
        _, sharpes[i], is_flat, dev = _reward([steps[t] for t in window], cfg)
        advantages[i] = sharpes[i] - float(h0)
        flat += is_flat
        score_dev += dev
        for t in window:
            weights[t] += advantages[i]

    return EpochGradient(
        grads=_weighted_grad_sum(weights, grads.__getitem__, params, n),
        sharpes=sharpes,
        advantages=advantages,
        score_dev=score_dev / n,
        flat=flat,
        substitutions=sum(len(step.events) for step in steps.values()),
    )


def grad_global_norm(grads: dict[str, np.ndarray]) -> float:
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))


def train(panel, cfg: TrainConfig, params: PolicyParams | None = None) -> TrainResult:
    """Gradient-ascend the Sharpe objective over sampled trajectories.

    Start times are sampled uniformly with replacement from every t0 whose
    T periods all trade. Updates use global-norm gradient clipping. The
    parameters of the epoch with the highest mean trajectory Sharpe, as
    they were when scored (before that epoch's update), are kept as
    best_params. Aborts when the policy degenerates: scores pinned to 1/2
    with zero advantage for 10 straight epochs.
    """
    prep = _prepared(panel, cfg.k)
    if params is None:
        params = PolicyParams.init(substream(cfg.seed, "init"))
    tradable = prep.tradable_times
    starts = [t0 for t0 in tradable if t0 + cfg.t - 1 <= tradable[-1]] if tradable else []
    if not starts:
        raise DataError("train: panel too short for a single trajectory")
    sampler = substream(cfg.seed, "sampling")
    h0_cache: dict[int, float] = {}
    log: list[EpochStats] = []
    best_params = params.copy()
    best_epoch = 0
    best_mean = -np.inf
    degenerate_streak = 0
    for epoch in range(1, cfg.epochs + 1):
        picks = [starts[int(p)] for p in sampler.integers(0, len(starts), size=cfg.n)]
        for t0 in picks:
            if t0 not in h0_cache:
                h0_cache[t0], _ = market_threshold(
                    prep, t0, cfg.t, cfg.theta, cfg.tc, cfg.k
                )
        batch = epoch_gradient(prep, picks, [h0_cache[t0] for t0 in picks], params, cfg)
        norm = grad_global_norm(batch.grads)
        mean_sharpe = float(batch.sharpes.mean())
        mean_advantage = float(batch.advantages.mean())
        log.append(
            EpochStats(epoch, mean_sharpe, mean_advantage, norm, batch.flat, batch.substitutions)
        )
        if mean_sharpe > best_mean:
            best_mean = mean_sharpe
            best_params = params.copy()
            best_epoch = epoch
        if norm > 0.0 and cfg.eta > 0.0:
            scale = cfg.eta * (min(1.0, cfg.clip / norm) if cfg.clip > 0 else 1.0)
            params.apply_update({name: scale * g for name, g in batch.grads.items()})
        if batch.score_dev < 1e-6 and mean_advantage == 0.0:
            degenerate_streak += 1
            if degenerate_streak >= 10:
                raise TrainingDivergedError(
                    f"policy degenerate for {degenerate_streak} epochs at epoch {epoch}"
                )
        else:
            degenerate_streak = 0
    return TrainResult(params=params, best_params=best_params, best_epoch=best_epoch, log=log)


def learning_log_csv(log: list[EpochStats]) -> str:
    """CSV rows ``epoch,mean_H,mean_advantage,grad_norm``."""
    lines = ["epoch,mean_H,mean_advantage,grad_norm"]
    for row in log:
        lines.append(
            f"{row.epoch},{row.mean_sharpe!r},{row.mean_advantage!r},{row.grad_norm!r}"
        )
    return "\n".join(lines) + "\n"
