"""Explain winner scores by differentiating them against input features.

For stock i at one decision time, the sensitivity is the gradient of its
winner score with respect to every entry of its own standardized window,
holding all other stocks' windows fixed (cross-stock terms that exist
through the cross-asset attention are excluded from the report).
Averaging those gradients over every (period, eligible stock) sample
gives the dataset-level influence of each feature at each look-back lag.

One routine computes every sensitivity, split at the per-stock
representation r = encode(x) of :mod:`policy`. The encoder (LSTM and
history attention) works row by row, so r_i depends on x_i alone, and
stocks only meet in ``score`` (cross-asset attention and head). Hence

    ds_i/dx_i = (ds_i/dr_i) . dr_i/dx_i

exactly, and the excluded cross-stock terms ds_i/dx_j never arise. The
cotangent rows c_i = ds_i/dr_i of all stocks come in closed form from
:func:`policy.own_score_grads` (the softmax adjoint applied once to the
(I, I) attention, O(I^2 H), no tape). The routine records ``encode`` once
on one tape, where it is a single hand-differentiated record, and one
backward of sum(r * c) through it yields every requested stock's
own-window gradient at once. The parameters enter as constants, so only
the encoder's window VJP runs and no parameter gradient is ever formed.
A decision time thus costs one fused encoder forward and one
backpropagation-through-time sweep, each O(I K H^2), plus O(I^2 H) for
the head.

Lag orientation: lag 1 is the most recent window row (the period ending
at the decision time), lag K the oldest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Tensor
from .errors import DataError, real_array, whole_number
from .features import FEATURE_NAMES, PreparedPanel
from .market import format_month
from .policy import PolicyParams, encode, own_score_grads


def input_sensitivity(windows, params: PolicyParams, stock_index: int) -> np.ndarray:
    """(K, F) gradient of stock ``stock_index``'s score w.r.t. its window.

    ``windows`` is the (I, K, F) block of all eligible stocks, in rank
    order as in a window set (:func:`policy.score`); scores are
    computed jointly (the attention couples stocks) but only the stock's
    own window block of the gradient is returned.
    """
    windows = real_array(windows, "input_sensitivity: windows")
    if windows.ndim != 3:
        raise DataError(f"windows must be (I, K, F), got {windows.shape}")
    i = whole_number(stock_index, "stock index", None)
    if not 0 <= i < windows.shape[0]:
        raise DataError(f"stock index {i} out of range for {windows.shape[0]} stocks")
    return _own_window_grads(windows, params, [i])[0]


def _own_window_grads(windows: np.ndarray, params: PolicyParams, stocks) -> np.ndarray:
    """(len(stocks), K, F): each listed stock's score gradient w.r.t. its
    own window, from the closed-form head cotangent and one encoder
    backward."""
    stocks = list(stocks)
    x = Tensor(windows, requires_grad=True)
    encoder = Tape()
    with encoder:
        rep = encode(x, params.constants())
    cotangent = np.zeros(rep.shape)
    cotangent[stocks] = own_score_grads(rep.data, params)[stocks]
    with encoder:
        root = (rep * Tensor(cotangent)).sum()
    return encoder.gradients(root)[x][stocks]


@dataclass(frozen=True)
class SensitivityReport:
    """Averaged feature-by-lag sensitivities of the winner score."""

    delta_bar: np.ndarray  # (F, K); column L-1 is lag L
    feature_means: np.ndarray  # (F,) average over lags
    samples: int
    k: int
    features: tuple[str, ...] = FEATURE_NAMES

    def to_csv(self) -> str:
        header = ["feature"] + [f"lag_{l}" for l in range(1, self.k + 1)] + ["mean"]
        lines = [",".join(header)]
        for f, name in enumerate(self.features):
            cells = [name]
            cells += [repr(float(v)) for v in self.delta_bar[f]]
            cells.append(repr(float(self.feature_means[f])))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def average_sensitivity(
    panel, params: PolicyParams, start=None, end=None, k: int = 12
) -> SensitivityReport:
    """Mean own-window sensitivity over all (decision time, stock) samples.

    ``start``/``end`` bound the decision times (inclusive); by default every
    time with a full look-back window on the panel is used. Windows (not
    realized returns) are all that is needed, so the panel's last month is
    a valid decision time.
    """
    prep = PreparedPanel.of(panel, k)
    times = prep.decision_times
    if start is not None:
        s = prep.month(start)
        times = [t for t in times if t >= s]
    if end is not None:
        e = prep.month(end)
        times = [t for t in times if t <= e]
    acc = np.zeros((prep.k, len(FEATURE_NAMES)))
    samples = 0
    for t in times:
        ws = prep.windows(t)
        if ws is None:
            continue
        acc += _own_window_grads(ws.features, params, range(len(ws))).sum(axis=0)
        samples += len(ws)
    if samples == 0:
        bounds = ""
        if start is not None or end is not None:
            lo = format_month(s) if start is not None else "?"
            hi = format_month(e) if end is not None else "?"
            bounds = f" [{lo}, {hi}]"
        raise DataError("no valid decision time in range" + bounds)
    mean_kf = acc / samples
    delta_bar = mean_kf[::-1].T  # flip steps so column 0 is lag 1 (most recent)
    return SensitivityReport(
        delta_bar=delta_bar,
        feature_means=delta_bar.mean(axis=1),
        samples=samples,
        k=prep.k,
    )
