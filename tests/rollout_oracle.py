"""Reference batch gradients: one tape per trajectory, and one tape per
distinct decision time with every gradient held to the end.

A trajectory from t0 is ``period_step`` at t0, ..., t0 + T - 1; its
surrogate is the sum of those steps' log-probabilities, recorded on
whatever tape is active. The batch gradient weights each trajectory's
surrogate gradient by its advantage H_n - H0_n and averages over the N
starts. ``trainer.epoch_gradient`` must give the same numbers while
scoring each distinct decision time only once; it must equal
``hold_every_gradient`` bitwise while holding fewer gradients at once.
"""

import numpy as np

from bwsl.autodiff import Tape
from bwsl.metrics import sharpe
from bwsl.trainer import _param_grads, _sharpe_or_flat, period_step


def rollout(prep, t0, params, cfg):
    """The cfg.t steps from t0 and the sum of their log-probabilities."""
    steps = [period_step(prep, t0 + s, params, cfg) for s in range(cfg.t)]
    return steps, sum((s.logprob for s in steps[1:]), steps[0].logprob)


def batch_gradient(prep, starts, thresholds, params, cfg):
    """(1/N) sum_n (H_n - H0_n) * grad of trajectory n's surrogate, the
    trajectories' Sharpe ratios H_n, and their mean score deviations."""
    tensors = params.tensors()
    total = {name: np.zeros(t.shape) for name, t in tensors.items()}
    sharpes, score_devs = [], []
    for t0, h0 in zip(starts, thresholds):
        tape = Tape()
        with tape:
            steps, logprob = rollout(prep, t0, params, cfg)
        h = sharpe([s.ret for s in steps], cfg.theta, cfg.tc)
        grads = tape.gradients(logprob)
        for name, t in tensors.items():
            total[name] += (h - h0) * grads[t]
        sharpes.append(h)
        score_devs.append(np.mean([s.score_dev for s in steps]))
    n = len(starts)
    return {name: g / n for name, g in total.items()}, sharpes, score_devs


def hold_every_gradient(prep, starts, thresholds, params, cfg):
    """The deduplicated batch gradient with every decision time's gradient
    held until all trajectories are scored, then combined in sorted-time
    order as (1/N) sum_t w_t g_t; also the Sharpe ratios and advantages."""
    windows = [range(t0, t0 + cfg.t) for t0 in (prep.month(s) for s in starts)]
    steps, grads = {}, {}
    for t in sorted({t for window in windows for t in window}):
        tape = Tape()
        with tape:
            steps[t] = period_step(prep, t, params, cfg)
        grads[t] = _param_grads(tape, steps[t].logprob, params, f"period {t}")
    n = len(starts)
    sharpes, advantages = np.zeros(n), np.zeros(n)
    weights = dict.fromkeys(steps, 0.0)
    for i, (window, h0) in enumerate(zip(windows, thresholds)):
        sharpes[i], _ = _sharpe_or_flat(np.array([steps[t].ret for t in window]), cfg.theta, cfg.tc)
        advantages[i] = sharpes[i] - h0
        for t in window:
            weights[t] += advantages[i]
    acc = {name: np.zeros(t.shape) for name, t in params.tensors().items()}
    for t, w in weights.items():
        for name, g in grads[t].items():
            acc[name] += w * g
    return {name: g / n for name, g in acc.items()}, sharpes, advantages
