"""The three benchmark workloads, their operations and output checks.

Each workload builds its inputs from the seed alone and reaches ``bwsl``
only through public entry points, called through their modules so that a
traced run sees its own wrappers. Every operation has a check; a failed
check or a ``BwslError`` counts the operation as failed.

The sizes below are the benchmark's; the self-tests build the same
workloads at tiny sizes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from bwsl import interpret, market, metrics, policy, portfolio, trainer
from bwsl.features import PreparedPanel

K = 12  # look-back months, the paper's setting

# Later changes (gradient dedup, vector-mode reverse, fused LSTM cells)
# reorder float64 sums. Reordering n terms moves a result by about
# n * 2**-52 of its magnitude, far below 1e-9 for the sums here, while a
# wrong gradient or a skipped trajectory moves it by orders more.
REFERENCE_RTOL = 1e-9


class CheckFailed(Exception):
    """An operation's output failed the benchmark's check."""


@dataclass(frozen=True)
class Op:
    """One operation: ``run`` produces an output, ``check`` validates it and
    returns its nominal work in stock-period decisions. ``sampled`` ops give
    the latency samples of op_ms_p50 / op_ms_tail."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], int]
    sampled: bool = True


def close_to(value, reference, rtol: float = REFERENCE_RTOL) -> bool:
    """Every entry within rtol of the reference's largest magnitude."""
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if value.shape != reference.shape:
        return False
    scale = max(float(np.max(np.abs(reference), initial=0.0)), np.finfo(float).tiny)
    return bool(np.all(np.abs(value - reference) <= rtol * scale))


class Workload:
    """A workload has ``setup(seed)``, which builds its state, and
    ``pass_ops(state, seed, i)``, the operations of pass ``i``.

    Shared bookkeeping: the first output of each key is kept, and every
    later output of the same key must equal it bitwise, also when a later
    pass runs on a fresh set-up."""

    name = ""

    def __init__(self, reference: dict | None = None):
        self.reference = reference or {}
        self.first: dict = {}

    def same_as_first(self, key, *arrays) -> None:
        arrays = tuple(np.ascontiguousarray(a) for a in arrays)
        if key not in self.first:
            self.first[key] = arrays
            return
        if not all(np.array_equal(a, b) for a, b in zip(self.first[key], arrays)):
            raise CheckFailed(f"{self.name}: output for {key!r} differs from the first run")

    def digest(self) -> str:
        """Hash of every distinct output of this run."""
        h = hashlib.sha256()
        for key in sorted(self.first, key=repr):
            h.update(repr(key).encode())
            for a in self.first[key]:
                h.update(a.tobytes())
        return h.hexdigest()


@dataclass
class TrainState:
    prep: PreparedPanel
    params: policy.PolicyParams
    cfg: trainer.TrainConfig
    n_stocks: int


class TrainPaper(Workload):
    """One ``train()`` call of a few epochs at the paper's T=12, N=16."""

    name = "train_paper"

    def __init__(self, stocks=200, periods=120, t=12, n=16, epochs=2, reference=None):
        super().__init__(reference)
        self.stocks, self.periods, self.t, self.n, self.epochs = stocks, periods, t, n, epochs

    def setup(self, seed: int) -> TrainState:
        panel = market.synth_market(market.SynthConfig(self.stocks, self.periods, seed=seed))
        prep = PreparedPanel(panel, K)
        for t in prep.tradable_times:
            prep.windows(t)
        cfg = trainer.TrainConfig(t=self.t, n=self.n, k=K, epochs=self.epochs, seed=seed)
        n_stocks = len(prep.windows(prep.tradable_times[0]))
        return TrainState(prep, policy.PolicyParams.init(seed), cfg, n_stocks)

    def pass_ops(self, state: TrainState, seed: int, i: int) -> list[Op]:
        def run():
            return trainer.train(state.prep, state.cfg, state.params.copy())

        def check(result) -> int:
            log = np.array([[e.mean_sharpe, e.mean_advantage, e.grad_norm] for e in result.log])
            if log.shape != (self.epochs, 3) or not np.all(np.isfinite(log)):
                raise CheckFailed("train_paper: learning log is incomplete or non-finite")
            if not 1 <= result.best_epoch <= self.epochs:
                raise CheckFailed(f"train_paper: best_epoch {result.best_epoch} out of range")
            final = [t.data for t in result.params.tensors().values()]
            self.same_as_first("train", log, *final)
            expected = self.reference.get(str(seed))
            if expected is not None and not close_to(log, expected):
                raise CheckFailed("train_paper: learning log differs from the reference")
            cfg = state.cfg
            return cfg.epochs * cfg.n * cfg.t * state.n_stocks

        return [Op("train", run, check)]


@dataclass
class BacktestState:
    prep: PreparedPanel
    params: policy.PolicyParams
    times: list


class BacktestWide(Workload):
    """Out-of-sample backtest of the untrained policy over I=800 stocks."""

    name = "backtest_wide"

    def __init__(self, stocks=800, periods=120, reference=None):
        super().__init__(reference)
        self.stocks, self.periods = stocks, periods

    def setup(self, seed: int) -> BacktestState:
        panel = market.synth_market(market.SynthConfig(self.stocks, self.periods, seed=seed))
        _, test = market.split(panel, panel.start + panel.n_periods // 2 - 1, K)
        prep = PreparedPanel(test, K)
        times = prep.tradable_times
        for t in times:
            prep.windows(t)
        return BacktestState(prep, policy.PolicyParams.init(seed), times)

    def pass_ops(self, state: BacktestState, seed: int, i: int) -> list[Op]:
        returns = np.zeros(len(state.times))
        ops = [self._period(state, j, t, returns) for j, t in enumerate(state.times)]
        return ops + [self._report(returns)]

    def _period(self, state: BacktestState, i: int, t: int, returns: np.ndarray) -> Op:
        def run():
            ws = state.prep.windows(t)
            scores = policy.score_window_set(ws, state.params)
            pair = portfolio.generate(scores, max(1, len(ws) // 4))
            z, _ = state.prep.forward_ratios(t, ws.stock_ids)
            r = portfolio.realize_return(pair, dict(zip(ws.stock_ids, z)))
            return scores, pair, z, r

        def check(out) -> int:
            scores, pair, z, r = out
            s = np.asarray(scores.values)
            long_, short = list(pair.long_indices), list(pair.short_indices)
            g = max(1, len(s) // 4)
            if len(long_) != g or len(short) != g or set(long_) & set(short):
                raise CheckFailed(f"backtest_wide: bad legs at {t}")
            if s[long_].min() < s[short].max():
                raise CheckFailed(f"backtest_wide: legs not ordered by score at {t}")
            for w, v in ((pair.b_plus, s[long_]), (pair.b_minus, 1.0 - s[short])):
                e = np.exp(v - v.max())
                if not np.allclose(w, e / e.sum(), rtol=1e-12, atol=0.0):
                    raise CheckFailed(f"backtest_wide: leg weights are not softmax at {t}")
            panel = state.prep.panel
            rows = [panel.stock_index(sid) for sid in scores.stock_ids]
            close = panel.field("close")[rows]
            pi = panel.index_of(t)
            if not np.allclose(z, close[:, pi + 1] / close[:, pi], rtol=1e-15, atol=0.0):
                raise CheckFailed(f"backtest_wide: forward ratios disagree with closes at {t}")
            expected = float(pair.b_plus @ z[long_]) - float(pair.b_minus @ z[short])
            if not abs(r - expected) <= 1e-12 * max(1.0, abs(expected)):
                raise CheckFailed(f"backtest_wide: return {r!r} != {expected!r} at {t}")
            self.same_as_first(("period", t), s, np.array([r]))
            returns[i] = r
            return len(s)

        return Op("period", run, check)

    def _report(self, returns: np.ndarray) -> Op:
        """One report over the pass's returns; not a latency sample."""

        def check(rep) -> int:
            apr = float(np.mean(returns - rep.tc)) * rep.periods_per_year
            wealth = float(np.prod(returns + 1.0 - rep.tc))
            if not (np.isclose(rep.apr, apr, rtol=1e-12)
                    and np.isclose(rep.final_wealth, wealth, rtol=1e-12)):
                raise CheckFailed("backtest_wide: report disagrees with the returns")
            self.same_as_first("returns", returns)
            return 0

        return Op("report", lambda: metrics.report_or_degenerate(returns), check, sampled=False)


@dataclass
class ExplainState:
    prep: PreparedPanel
    params: policy.PolicyParams
    span: list


class ExplainNarrow(Workload):
    """Sensitivity report for one decision time at a time, I=100 stocks."""

    name = "explain_narrow"

    def __init__(self, stocks=100, periods=120, span=6, reference=None):
        super().__init__(reference)
        self.stocks, self.periods, self.span = stocks, periods, span

    def setup(self, seed: int) -> ExplainState:
        panel = market.synth_market(market.SynthConfig(self.stocks, self.periods, seed=seed))
        prep = PreparedPanel(panel, K)
        span = prep.decision_times[: self.span]
        for t in span:
            prep.windows(t)
        return ExplainState(prep, policy.PolicyParams.init(seed), span)

    def pass_ops(self, state: ExplainState, seed: int, i: int) -> list[Op]:
        """One decision time per pass, cycling over the span."""
        t = state.span[i % len(state.span)]
        expected = self.reference.get(str(seed), {}).get(str(t))
        return [self._time(state, t, expected)]

    def _time(self, state: ExplainState, t: int, expected) -> Op:
        def run():
            return interpret.average_sensitivity(state.prep, state.params, start=t, end=t, k=K)

        def check(rep) -> int:
            n = len(state.prep.windows(t))
            d = np.asarray(rep.delta_bar)
            if rep.samples != n or d.shape != (len(rep.features), K) or not np.all(np.isfinite(d)):
                raise CheckFailed(f"explain_narrow: malformed report at {t}")
            self.same_as_first(("time", t), d)
            if expected is not None and not close_to(d, expected):
                raise CheckFailed(f"explain_narrow: delta_bar differs from the reference at {t}")
            return rep.samples

        return Op("time", run, check)


WORKLOADS = {w.name: w for w in (TrainPaper, BacktestWide, ExplainNarrow)}
