"""Sharpe-ratio policy-gradient training.

A trajectory is T consecutive holding periods from a start t0. At each
decision time t the policy scores the eligible universe, the generator
picks the legs, and the period return is realized (:func:`period_step`).
The trajectory reward H_n is the Sharpe ratio of its T returns; the
market's Sharpe H0_n over the same window is subtracted as a threshold,
so ascent only reinforces trajectories that beat an equal-weight
buy-and-hold.

The surrogate differentiated on the tape is log b(t) = sum over the
supported stocks i of log b_c(i), summed over a trajectory's periods. It
is one tape record over the pair's weights (:func:`portfolio.leg_logprob`):
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
:func:`period_step` is the one rollout step. Besides the epoch, only the
tests' oracle (``tests/rollout_oracle.py``) calls it: that oracle records
each trajectory on its own tape, which gives the reference for the
deduplicated gradient and the surrogate for finite differences.

The threshold and the policy step read each decision time the same way
(:meth:`PreparedPanel.period_data`): the eligible universe's windows,
their forward price ratios, and the delisting substitutions those ratios
needed, read once per prepared panel however many starts overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape, Tensor
from .errors import (
    DataError, NonFiniteError, TrainingDivergedError, ZeroVolatilityError, real_number, whole_number,
)
from .features import PreparedPanel
from .market import format_month, substream
from .metrics import sharpe
from .policy import PolicyParams, WinnerScores, policy_forward
from .portfolio import LONG_SHORT, MODES, PortfolioPair, generate, leg_logprob, realize_return


@dataclass(frozen=True)
class TrainConfig:
    """Settings for sampling trajectories and for optimization."""

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
        # whole-number settings are stored as ints, so 12.0 becomes 12;
        # g == 0 is the quarter-universe rule
        for name, minimum in (("t", 2), ("n", 1), ("epochs", 1), ("k", 1), ("g", 0), ("seed", 0)):
            value = whole_number(getattr(self, name), f"train: {name}", minimum)
            object.__setattr__(self, name, value)
        # stored as floats; eta == 0 is a no-op update and clip == 0 turns clipping off
        for name, minimum in (("eta", 0), ("clip", 0), ("theta", None), ("tc", None)):
            value = real_number(getattr(self, name), f"train: {name}", minimum)
            object.__setattr__(self, name, value)
        if self.mode not in MODES:
            raise DataError(f"train: mode must be one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class PeriodStep:
    """One decision time: the pair held, its realized return, and its leg
    log-probability log b(t) (recorded on the tape active at the step)."""

    pair: PortfolioPair
    ret: float
    logprob: Tensor
    score_dev: float  # mean |score - 1/2| over the universe, degeneracy probe
    events: tuple[tuple[str, str], ...]  # (stock_id, 'missing_next_close') substitutions


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
        return g
    return max(1, universe_size // 4)


def _sharpe_or_flat(returns, theta: float, tc: float) -> tuple[float, bool]:
    """(Sharpe, False), or (0.0, True) when the returns have zero volatility."""
    try:
        return sharpe(returns, theta, tc), False
    except ZeroVolatilityError:
        return 0.0, True


def period_step(prep: PreparedPanel, t: int, params: PolicyParams, cfg: TrainConfig) -> PeriodStep:
    """Score -> legs -> leg log-prob -> realized return at decision time t.

    Runs under whatever tape is active (none records nothing). It is the
    one rollout step: :func:`epoch_gradient` and the tests' per-trajectory
    oracle both build on it.
    """
    ws, z, events = prep.period_data(t)
    scores = policy_forward(ws.features, ws.ranks, params)
    g = leg_size(len(ws), cfg.g)
    pair = generate(WinnerScores(ws.stock_ids, scores.data.copy()), g, cfg.mode)
    return PeriodStep(
        pair=pair,
        ret=realize_return(pair, dict(zip(ws.stock_ids, z))),
        logprob=leg_logprob(scores, pair),
        score_dev=float(np.mean(np.abs(scores.data - 0.5))),
        events=events,
    )


def market_threshold(panel, t0, t: int, theta: float, tc: float, k: int = 12):
    """Sharpe of the equal-weight buy-and-hold of the policy's universe
    over the same T periods, read through the same
    :meth:`PreparedPanel.period_data`.

    Returns (h0, degenerate): when the market return series has zero
    volatility, h0 is 0.0 and the flag is set.
    """
    t = whole_number(t, "market_threshold: t", 2)
    prep = PreparedPanel.of(panel, k)
    t0 = prep.month(t0)
    returns = np.zeros(t)
    for step in range(t):
        _, z, _ = prep.period_data(t0 + step)
        returns[step] = float(np.mean(z)) - 1.0
    return _sharpe_or_flat(returns, theta, tc)


def _param_grads(tape: Tape, root: Tensor, params: PolicyParams, label: str) -> dict[str, np.ndarray]:
    """Backpropagate ``root`` over the tape; its gradient for every parameter."""
    grads = tape.gradients(root)
    out = {}
    for name, tensor in params.tensors().items():
        g = grads[tensor]
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"{label}: non-finite gradient for {name}")
        out[name] = g
    return out


def epoch_gradient(panel, starts, thresholds, params: PolicyParams, cfg: TrainConfig) -> EpochGradient:
    """(1/N) sum_n (H_n - H0_n) * grad sum_{t in n} log b(t) over the
    trajectories starting at ``starts``, with each distinct decision time
    scored and backpropagated once.

    The tests check it against an oracle that gives every trajectory its
    own tape (``tests/rollout_oracle.py``); the two agree up to the order
    of floating-point summation.
    """
    if len(starts) != len(thresholds):
        raise DataError("epoch_gradient: one threshold per trajectory required")
    prep = PreparedPanel.of(panel, cfg.k)
    windows = [range(t0, t0 + cfg.t) for t0 in (prep.month(s) for s in starts)]
    steps: dict[int, PeriodStep] = {}
    grads: dict[int, dict[str, np.ndarray]] = {}
    for t in sorted({t for window in windows for t in window}):
        tape = Tape()
        with tape:
            steps[t] = period_step(prep, t, params, cfg)
        grads[t] = _param_grads(tape, steps[t].logprob, params, f"period {format_month(t)}")

    n = len(starts)
    sharpes, advantages = np.zeros(n), np.zeros(n)
    weights = dict.fromkeys(steps, 0.0)
    score_dev = 0.0
    flat = 0
    for i, (window, h0) in enumerate(zip(windows, thresholds)):
        held = [steps[t] for t in window]
        sharpes[i], is_flat = _sharpe_or_flat(np.array([s.ret for s in held]), cfg.theta, cfg.tc)
        advantages[i] = sharpes[i] - float(h0)
        flat += is_flat
        score_dev += float(np.mean([s.score_dev for s in held]))
        for t in window:
            weights[t] += advantages[i]

    # sum_t w_t g_t, accumulated in sorted-t order so results repeat bitwise
    acc = {name: np.zeros(tensor.shape) for name, tensor in params.tensors().items()}
    for t, w in weights.items():
        for name, g in grads[t].items():
            acc[name] += w * g
    return EpochGradient(
        grads={name: g / n for name, g in acc.items()},
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
    T periods all trade with at least 2 eligible stocks. Updates use
    global-norm gradient clipping. The parameters of the epoch with the
    highest mean trajectory Sharpe, as they were when scored (before that
    epoch's update), are kept as best_params. Aborts when the policy
    degenerates: scores pinned to 1/2 with zero advantage for 10 straight
    epochs.
    """
    prep = PreparedPanel.of(panel, cfg.k)
    if params is None:
        params = PolicyParams.init(substream(cfg.seed, "init"))
    tradable = prep.tradable_times
    has_universe = [prep.windows(t) is not None for t in tradable]
    starts = [
        tradable[j]
        for j in range(len(tradable) - cfg.t + 1)
        if all(has_universe[j : j + cfg.t])
    ]
    if not starts:
        raise DataError(
            f"train: no start whose {cfg.t} decision times all trade "
            "with at least 2 eligible stocks"
        )
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
