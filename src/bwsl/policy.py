"""Winner-score policy: per-stock recurrent encoder with history-state
attention, then cross-asset self-attention modulated by a rank prior.

One parameter set is shared by all stocks. Every forward pass is recorded
on the active autodiff tape, so scores can be differentiated with respect
to both the parameters (training) and the input windows (interpretation).
The network is two hand-differentiated tape records, each a NumPy forward
with hand-written VJPs:

- :func:`encode`, the encoder, with a backpropagation-through-time VJP for
  the windows and each of its six parameters (:data:`ENCODER_PARAMS`);
- :func:`score`, the cross-asset attention and score head, with the
  softmax adjoint for the representations and each of its seven
  parameters (:data:`SCORE_PARAMS`). :func:`own_score_grads` reuses its
  forward and softmax adjoint. The rank prior is psi[i, j] =
  table[bin(r_i - r_j)], L entries (:func:`_rank_bins`). For ranks that
  rise by one from stock to stock, such as a window set's 1..I (its stocks
  come in rank order), psi is a Toeplitz view of 2I-1 entries, multiplied
  in one pass (:func:`_times_psi`).

Each encoder step is one GEMM of the stacked weights [Wx; Wh; b'] with
the step's block [x_k; h_{k-1}; 1] of the ``stack`` buffer, which
thereby holds the windows and the hidden states, then the attention's
projection of the new h_k. Each forward checks its parameters finite,
then bounds its magnitudes once per call, from the weights and the
largest input; below 1e300 nothing can overflow, so the per-step and
(I, I) finiteness passes run only above it. While a tape records,
:func:`encode` writes its seven stocks-last arrays, four forward caches
(``stack``, ``act``, ``cells``, ``u``) and three sweep buffers
(``d_gates``, ``d_states``, ``d_pre``), into buffers leased from a
per-thread workspace, one per role, which return when the record dies
(when its tape is dropped). The workspace keeps at most one spare buffer
per role, the largest returned, and a smaller universe writes into a
prefix of it, so successive recorded calls reuse the same memory. An
untaped call, such as a backtest's, keeps no backward caches: its gate
activations and cell states live in one (., I) slab each, rewritten at
every step. The float operations are the same either way, so values
depend neither on the workspace nor on whether a tape records.

:func:`lstm_encode`, :func:`history_attention`, :func:`caan_forward` and
:func:`winner_scores` spell the same network out in autodiff primitives
and serve as its reference.

Shapes use I = stocks, K = look-back steps, F = features, H = hidden
width, E = rank-embedding width, L = number of quantized rank-distance
bins.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError, NonFiniteError, ShapeError, real_array, whole_array, whole_number
from .features import N_FEATURES, WindowSet

_CHECKPOINT_MAGIC = "bwsl-policy-checkpoint v1"

# name, shape in F/H/E/L, and whether init draws it, in checkpoint, update
# and draw order. A drawn tensor is uniform in +-1/sqrt(fan-in), its
# leading dimension; the others start at zero, except the forget block of
# lstm_b at +1.
_LAYOUT = (
    ("lstm_wx", "F 4H", True),  # input weights, gate blocks [in, forget, out, cand]
    ("lstm_wh", "H 4H", True),  # recurrent weights
    ("lstm_b", "4H", False),  # gate biases
    ("att_w1", "H H", True),  # history-attention map on each h_k
    ("att_w2", "H H", True),  # history-attention map on the last state
    ("att_w", "H", True),  # history-attention readout
    ("wq", "H H", True),  # query projection
    ("wk", "H H", True),  # key projection
    ("wv", "H H", True),  # value projection
    ("w_score", "H", True),  # score head weights
    ("b_score", "", False),  # score head bias
    ("rank_emb", "E L", True),  # embedding columns per quantized rank distance
    ("rank_w", "E", True),  # rank-prior readout
)
PARAM_ORDER = tuple(name for name, _, _ in _LAYOUT)


# the encoder's parameters, the operands of encode() besides the windows
ENCODER_PARAMS = PARAM_ORDER[:6]
# the cross-asset attention's and score head's, the operands of score()
# besides the representations
SCORE_PARAMS = PARAM_ORDER[6:]


def _shapes(f: int, h: int, e: int, l: int) -> dict[str, tuple[int, ...]]:
    """Every tensor's shape for F, H, E and L, read from the layout table."""
    dims = {"F": f, "H": h, "E": e, "L": l}
    return {
        name: tuple(int(tok[:-1] or 1) * dims[tok[-1]] for tok in spec.split())
        for name, spec, _ in _LAYOUT
    }


def _check_shapes(tensors: dict[str, Tensor]) -> None:
    """Every tensor's shape must follow from F, H (lstm_wx) and E, L (rank_emb)."""
    wx, emb = tensors["lstm_wx"].shape, tensors["rank_emb"].shape
    if len(wx) != 2 or wx[1] % 4 or len(emb) != 2 or min(wx + emb) < 1:
        raise DataError(
            f"policy params: lstm_wx {wx} must be (F, 4H) and rank_emb {emb} must be (E, L)"
        )
    f, h, (e, l) = wx[0], wx[1] // 4, emb
    for name, shape in _shapes(f, h, e, l).items():
        if tensors[name].shape != shape:
            raise DataError(
                f"policy params: {name} has shape {tensors[name].shape}, expected {shape} "
                f"for F={f}, H={h}, E={e}, L={l}"
            )


class PolicyParams:
    """All learnable tensors plus the rank-distance quantization step."""

    def __init__(self, tensors: dict[str, Tensor], q: int):
        missing = [n for n in PARAM_ORDER if n not in tensors]
        if missing:
            raise DataError(f"policy params missing tensors: {missing}")
        self._tensors = {n: tensors[n] for n in PARAM_ORDER}
        plain = [n for n, t in self._tensors.items() if not isinstance(t, Tensor)]
        if plain:
            raise DataError(f"policy params: {plain} must be Tensors")
        _check_shapes(self._tensors)
        self.q = whole_number(q, "quantization step q", 1, 2**63 - 1)

    @classmethod
    def init(
        cls,
        rng: np.random.Generator | int,
        n_features: int = N_FEATURES,
        hidden: int = 32,
        embed: int = 8,
        l_cols: int = 16,
        q: int = 4,
    ) -> "PolicyParams":
        """Uniform +-1/sqrt(fan-in) weights, forget-gate bias +1, zero biases;
        ``rng`` is a generator or a seed, a whole number of at least 0."""
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(whole_number(rng, "seed", 0))
        widths = {"n_features": n_features, "hidden": hidden, "embed": embed, "l_cols": l_cols}
        f, h, e, l = (whole_number(v, f"policy params: {k}", 1) for k, v in widths.items())
        shapes = _shapes(f, h, e, l)
        tensors = {}
        for name, _, drawn in _LAYOUT:
            shape = shapes[name]
            if drawn:
                bound = 1.0 / np.sqrt(shape[0])
                tensors[name] = rng.uniform(-bound, bound, size=shape)
            else:
                tensors[name] = np.zeros(shape)
        tensors["lstm_b"][_gate_blocks(h)[1]] = 1.0
        return cls({n: Tensor(v, requires_grad=True) for n, v in tensors.items()}, q)

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def tensors(self) -> dict[str, Tensor]:
        return dict(self._tensors)

    @property
    def n_features(self) -> int:
        return self._tensors["lstm_wx"].shape[0]

    @property
    def hidden(self) -> int:
        return self._tensors["wq"].shape[0]

    @property
    def l_cols(self) -> int:
        return self._tensors["rank_emb"].shape[1]

    def constants(self) -> "PolicyParams":
        """The same arrays as constant tensors: no op on them is recorded."""
        return PolicyParams({n: Tensor(t.data) for n, t in self._tensors.items()}, self.q)

    def copy(self) -> "PolicyParams":
        return PolicyParams(
            {n: Tensor(t.data.copy(), requires_grad=True) for n, t in self._tensors.items()},
            self.q,
        )

    def apply_update(self, deltas: dict[str, np.ndarray]) -> None:
        """Replace each tensor's array by data + delta (old arrays untouched,
        so tapes recorded before the update stay valid)."""
        for name, delta in deltas.items():
            t = self._tensors[name]
            t.data = t.data + delta

    def save(self, path) -> None:
        """Bit-exact text checkpoint (hex floats)."""
        lines = [_CHECKPOINT_MAGIC, f"q={self.q}"]
        for name in PARAM_ORDER:
            arr = self._tensors[name].data
            shape = "x".join(str(s) for s in arr.shape) if arr.ndim else "scalar"
            values = " ".join(float(v).hex() for v in arr.ravel())
            lines.append(f"{name} {shape} {values}".rstrip())
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "PolicyParams":
        """Read a checkpoint written by save; DataError on any malformed,
        unknown, duplicate or shape-inconsistent content."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except (OSError, UnicodeDecodeError) as e:
            raise DataError(f"cannot read checkpoint {path}: {e}") from None
        if not lines or lines[0] != _CHECKPOINT_MAGIC:
            raise DataError(f"{path}: not a policy checkpoint")
        if len(lines) < 2 or not lines[1].startswith("q="):
            raise DataError(f"{path}: missing quantization line")
        try:
            q = int(lines[1][2:])
        except ValueError:
            raise DataError(f"{path}: malformed quantization line {lines[1]!r}") from None
        tensors = {}
        for lineno, line in enumerate(lines[2:], start=3):
            if not line.strip():
                continue
            parts = line.split(" ")
            name = parts[0]
            if name not in PARAM_ORDER:
                raise DataError(f"{path}:{lineno}: unknown tensor {name!r}")
            if name in tensors:
                raise DataError(f"{path}:{lineno}: tensor {name} given twice")
            if len(parts) < 2:
                raise DataError(f"{path}:{lineno}: tensor {name} has no shape")
            shape_text = parts[1]
            try:
                shape = () if shape_text == "scalar" else tuple(int(s) for s in shape_text.split("x"))
                values = np.array([float.fromhex(v) for v in parts[2:]])
            except ValueError:
                raise DataError(f"{path}:{lineno}: malformed tensor {name}") from None
            if any(d < 0 for d in shape):
                raise DataError(f"{path}:{lineno}: tensor {name} has a negative dimension")
            expected = int(np.prod(shape)) if shape else 1
            if values.size != expected:
                raise DataError(f"{path}: tensor {name} has wrong element count")
            if not np.all(np.isfinite(values)):
                raise DataError(f"{path}: tensor {name} has non-finite values")
            tensors[name] = Tensor(values.reshape(shape), requires_grad=True)
        return cls(tensors, q)


@dataclass(frozen=True)
class WinnerScores:
    """Per-stock winner scores, each strictly inside (0, 1)."""

    stock_ids: tuple[str, ...]
    values: np.ndarray


def _param_arrays(params: PolicyParams, names: tuple, caller: str) -> dict:
    """The arrays of the tensors ``names``, each checked finite at O(size),
    before any GEMM reads it: an inf or NaN weight would otherwise give
    NumPy's RuntimeWarning (inf times a zero window), or finite scores (an
    inf attention weight that a tanh saturates). Tensors can be edited in
    place, so :meth:`PolicyParams.apply_update` cannot check this alone."""
    p = {name: params[name].data for name in names}
    for name, a in p.items():
        if not np.isfinite(a).all():
            raise NonFiniteError(f"{caller}: non-finite values in parameter {name}")
    return p


def _windows_tensor(windows, params: PolicyParams) -> Tensor:
    """``windows`` as a tensor, checked to be (I, K, F) with the parameters' F."""
    x = windows if isinstance(windows, Tensor) else Tensor(windows)
    if x.ndim != 3:
        raise ShapeError(f"windows must be (I, K, F), got {x.shape}")
    if x.shape[2] != params.n_features:
        raise ShapeError(
            f"lstm: window has {x.shape[2]} features, parameters expect {params.n_features}"
        )
    return x


def lstm_encode(windows, params: PolicyParams) -> list[Tensor]:
    """Run the shared recurrent encoder over every stock's (I, K, F) window.

    Returns the K hidden states, each (I, H). Initial hidden and cell
    states are zero.
    """
    x = _windows_tensor(windows, params)
    n_stocks, k_steps, _ = x.shape
    h_dim = params.hidden
    wx, wh, b = params["lstm_wx"], params["lstm_wh"], params["lstm_b"]
    h = Tensor(np.zeros((n_stocks, h_dim)))
    c = Tensor(np.zeros((n_stocks, h_dim)))
    states = []
    for k in range(k_steps):
        z = x[:, k, :] @ wx + h @ wh + b
        gate_in = ad.sigmoid(z[:, 0:h_dim])
        gate_forget = ad.sigmoid(z[:, h_dim : 2 * h_dim])
        gate_out = ad.sigmoid(z[:, 2 * h_dim : 3 * h_dim])
        candidate = ad.tanh(z[:, 3 * h_dim : 4 * h_dim])
        c = gate_forget * c + gate_in * candidate
        h = gate_out * ad.tanh(c)
        states.append(h)
    return states


def history_attention(states: list[Tensor], params: PolicyParams) -> Tensor:
    """Softmax-attend the last hidden state over all (I, H) hidden states."""
    if not states:
        raise ShapeError("history_attention: no hidden states")
    if states[0].ndim != 2:
        raise ShapeError(f"history_attention: states must be (I, H), got {states[0].shape}")
    n_stocks = states[0].shape[0]
    last_proj = states[-1] @ params["att_w2"]
    cols = []
    for h_k in states:
        score = ad.tanh(h_k @ params["att_w1"] + last_proj) @ params["att_w"]
        cols.append(score.reshape((n_stocks, 1)))
    weights = ad.softmax(ad.concatenate(cols, axis=1), axis=1)
    rep = weights[:, 0:1] * states[0]
    for k in range(1, len(states)):
        rep = rep + weights[:, k : k + 1] * states[k]
    return rep


def _rank_ints(ranks) -> np.ndarray:
    """``ranks`` as int64 through :func:`whole_array` (DataError for a
    fractional rank, and for two ranks 2^63 or more apart, whose difference
    would wrap); :class:`ShapeError` unless they are 1-d."""
    arr = whole_array(ranks, "ranks")
    if arr.ndim != 1:
        raise ShapeError(f"ranks must be 1-d, one per stock, got shape {arr.shape}")
    if arr.size and int(arr.max()) - int(arr.min()) >= 2**63:
        raise DataError("ranks must lie less than 2^63 apart, so that differences fit in int64")
    return arr


def _rank_bins(diff: np.ndarray, q: int, l_cols: int) -> np.ndarray:
    """Bins min(floor(|d| / q), L - 1) of the int64 rank differences d, in place."""
    np.abs(diff, out=diff)
    np.floor_divide(diff, q, out=diff)
    return np.minimum(diff, l_cols - 1, out=diff)


def rank_distance(ranks: np.ndarray, q: int, l_cols: int) -> np.ndarray:
    """Quantized pairwise rank distance, clamped to the embedding width."""
    ranks = _rank_ints(ranks)
    q = whole_number(q, "quantization step q", 1, 2**63 - 1)
    l_cols = whole_number(l_cols, "rank_distance: l_cols", 1, 2**63)
    return _rank_bins(np.subtract.outer(ranks, ranks), q, l_cols)


def caan_forward(rep: Tensor, ranks: np.ndarray, params: PolicyParams) -> Tensor:
    """Cross-asset attention softmax(psi * QK'/sqrt(H)) V: each stock
    attends over all stocks' values, with its logits multiplied by the rank
    prior psi before normalization."""
    _, ranks = _score_inputs(rep.data, ranks, params)
    query = rep @ params["wq"]
    key = rep @ params["wk"]
    value = rep @ params["wv"]
    d = rank_distance(ranks, params.q, params.l_cols)
    prior = ad.sigmoid(params["rank_w"] @ params["rank_emb"])
    # the logits' 1/sqrt(H) is folded into the prior, so that each entry of
    # QK' is multiplied once, by psi * scale, as in score()
    psi = ad.take(prior * (1.0 / np.sqrt(params.hidden)), d.ravel()).reshape(d.shape)
    return ad.softmax(psi * (query @ ad.transpose(key)), axis=1) @ value


def winner_scores(attended: Tensor, params: PolicyParams) -> Tensor:
    """Map attention vectors to scores in (0, 1)."""
    return ad.sigmoid(attended @ params["w_score"] + params["b_score"])


def _gate_blocks(h_dim: int) -> tuple[slice, ...]:
    """Row blocks of a (4H, .) gate array: in, forget, out, candidate, and
    the three sigmoid gates together."""
    gate_in, gate_forget, gate_out, cand = (slice(j * h_dim, (j + 1) * h_dim) for j in range(4))
    return gate_in, gate_forget, gate_out, cand, slice(0, 3 * h_dim)


# this thread's spare encoder buffers, role -> flat float64 array
_workspaces = threading.local()


def _spare() -> dict:
    """The calling thread's workspace: at most one spare buffer per role."""
    spare = getattr(_workspaces, "spare", None)
    if spare is None:
        spare = _workspaces.spare = {}
    return spare


def _give_back(spare: dict, taken: dict) -> None:
    """Return a dead lease's buffers, keeping the larger one per role.

    This may run on another thread, where the tape was dropped. No lock is
    needed: only buffers of dead leases are added, and ``dict.pop`` hands
    each spare to one lease alone."""
    for role, buf in taken.items():
        kept = spare.get(role)
        if kept is None or kept.size < buf.size:
            spare[role] = buf


class _Lease:
    """The workspace buffers of one recorded :func:`encode` call.

    ``lease(role, shape)`` is a prefix view of the buffer held for that
    role, so a contiguous (K, ., I) array for any universe size I. The
    buffer is taken from the workspace the first time (or allocated, when
    its spare is missing or too small). The record's sweep holds the lease,
    so its buffers go back to the workspace when the record dies, and never
    while it lives. A sweep's outputs live only for the record's step of one
    backward pass, so the next pass's sweep writes into the same buffers.
    """

    __slots__ = ("_spare", "_taken", "__weakref__")

    def __init__(self, spare: dict):
        self._spare, self._taken = spare, {}
        weakref.finalize(self, _give_back, spare, self._taken)

    def __call__(self, role: str, shape: tuple) -> np.ndarray:
        size = math.prod(shape)
        buf = self._taken.get(role)
        if buf is None:
            buf = self._spare.pop(role, None)
            if buf is None or buf.size < size:
                buf = np.empty(size)
            self._taken[role] = buf
        return buf[:size].reshape(shape)


def _fresh(role: str, shape: tuple) -> np.ndarray:
    """What an untaped :func:`encode` writes into. No backward sweep reads
    its caches, and the forward reads a step's gate activations only at
    that step and its cell state only until the next step's is written,
    so ``act`` and ``cells`` are (K, ., I) views with K-stride 0 over one
    (., I) slab: every step writes the same memory. ``stack``, which holds
    the hidden states the attention reads over all K, and ``u`` are new
    full arrays."""
    if role in ("act", "cells"):
        slab = np.empty(shape[1:])
        return np.lib.stride_tricks.as_strided(slab, shape, (0,) + slab.strides)
    return np.empty(shape)


# a magnitude bound below this leaves rounding a factor 1e8 short of overflow
_OVERFLOW_FREE = 1e300


def _abs_max(a: np.ndarray):
    """max |a| (0 for no elements) with no |a| temporary; NaN when a holds one."""
    return np.maximum(a.max(initial=0.0), -a.min(initial=0.0))


def _encode_forward(windows: np.ndarray, p: dict, take) -> tuple[np.ndarray, tuple]:
    """Forward of :func:`encode` on (I, K, F) windows and the encoder's
    arrays ``p``: the (I, H) representation and the caches (xs, act, cells,
    states, u, weights) that its pulls and backward sweep read. The (K, ., I)
    caches come from ``take(role, shape)``.

    Each step is one GEMM, W' [x_k; h_{k-1}; 1] with W = [Wx; Wh; b']
    (F+H+1, 4H), on the step's block of ``stack`` (K+1, F+H+1, I): block k
    holds x_k, h_{k-1} and a row of ones, and h_k is written into the h
    rows of block k+1. So xs (K, F, I), the stocks-last windows, and states
    (K, H, I), the hidden states h_k, are views of that one buffer. At step
    k, act[k] (4H, I) holds the pre-activations, then, in place, the gate
    activations; cells (K, H, I) holds c_k; u is the attention's tanh layer
    (K, H, I), its att_w1' h_k written at step k while h_k is in cache,
    and weights its softmax over K (K, I). Step k reads act[k] and cells[k]
    only at step k, and takes f * c_{k-1} before it writes c_k, so ``take``
    may hand out one slab for all K steps of either (:func:`_fresh`).
    Stocks run along the last axis, so each gate block of a step is one
    contiguous slab. A step checks its pre-activations for finiteness only
    when the call's bound B (below) is not under ``_OVERFLOW_FREE``.
    """
    n, k_steps, f_dim = windows.shape
    h_dim = p["lstm_wh"].shape[0]
    gate_in, gate_forget, gate_out, cand, sig = _gate_blocks(h_dim)
    w = np.concatenate((p["lstm_wx"], p["lstm_wh"], p["lstm_b"][None, :])).T
    stack = take("stack", (k_steps + 1, f_dim + h_dim + 1, n))
    xs, states = stack[:-1, :f_dim], stack[1:, f_dim:-1]
    xs[...] = windows.transpose(1, 2, 0)
    stack[0, f_dim:-1] = 0.0
    stack[:-1, -1] = 1.0
    act = take("act", (k_steps, 4 * h_dim, n))
    cells = take("cells", (k_steps, h_dim, n))
    u = take("u", (k_steps, h_dim, n))
    # |x_k| <= max|x|, |h| <= 1 and the bias input is 1, so no pre-activation
    # or GEMM partial sum exceeds B in magnitude; inf * 0 makes B NaN
    with np.errstate(over="ignore", invalid="ignore"):
        aw = np.abs(w)
        bound = (aw[:, :f_dim].sum(axis=1) * _abs_max(windows) + aw[:, f_dim:].sum(axis=1)).max()
    checked = not bound < _OVERFLOW_FREE
    c = np.zeros((h_dim, n))
    for k in range(k_steps):
        a = act[k]
        np.matmul(w, stack[k], out=a)
        if checked and not np.isfinite(a).all():
            raise NonFiniteError(f"encode: non-finite gate pre-activations at step {k}")
        ad.logistic(a[sig], out=a[sig])
        np.tanh(a[cand], out=a[cand])
        forget = a[gate_forget] * c
        np.multiply(a[gate_in], a[cand], out=cells[k])
        cells[k] += forget
        c = cells[k]
        np.tanh(c, out=states[k])
        states[k] *= a[gate_out]
        np.matmul(p["att_w1"].T, states[k], out=u[k])

    # history attention: add the last state's term, softmax over K
    u += p["att_w2"].T @ states[-1]
    np.tanh(u, out=u)
    scores = p["att_w"] @ u
    weights = ad.normalized_exp(scores, axis=0)
    rep = weights[0] * states[0]
    for k in range(1, k_steps):
        rep += weights[k] * states[k]
    return rep.T, (xs, act, cells, states, u, weights)


def _encode_sweep(g: np.ndarray, cache: tuple, p: dict, take) -> tuple[np.ndarray, ...]:
    """Backward of :func:`encode` for the cotangent g (I, H) of its output:
    the cotangents of the gate pre-activations (K, 4H, I), of the attention
    pre-activations (K, H, I) and of the attention scores (K, I). The three
    (K, ., I) arrays it writes come from ``take(role, shape)``."""
    _, act, cells, states, u, weights = cache
    k_steps, h_dim, n = states.shape
    gate_in, gate_forget, gate_out, cand, sig = _gate_blocks(h_dim)
    g = g.T  # (H, I), stocks last like the caches
    d_weights = np.einsum("khi,hi->ki", states, g)
    d_scores = weights * (d_weights - (weights * d_weights).sum(axis=0))
    d_pre = take("d_pre", states.shape)
    np.multiply(u, u, out=d_pre)
    np.subtract(1.0, d_pre, out=d_pre)
    d_pre *= p["att_w"][:, None]
    d_pre *= d_scores[:, None, :]
    d_states = take("d_states", states.shape)
    np.matmul(p["att_w1"], d_pre, out=d_states)
    d_states += weights[:, None, :] * g
    d_states[-1] += p["att_w2"] @ d_pre.sum(axis=0)

    # backpropagation through time, one step's (., I) slabs at a time
    d_gates = take("d_gates", act.shape)
    dc = np.zeros((h_dim, n))  # f_{k+1} * dL/dc_{k+1}
    for k in reversed(range(k_steps)):
        dh = d_states[k]
        if k + 1 < k_steps:
            dh += p["lstm_wh"] @ d_gates[k + 1]
        a, d = act[k], d_gates[k]
        tc = np.tanh(cells[k])
        np.multiply(dh, tc, out=d[gate_out])
        dc += dh * a[gate_out] * (1.0 - tc * tc)
        np.multiply(dc, a[cand], out=d[gate_in])
        if k:
            np.multiply(dc, cells[k - 1], out=d[gate_forget])
        else:
            d[gate_forget] = 0.0
        np.multiply(dc, a[gate_in], out=d[cand])
        # local derivatives: s - s^2 for the sigmoid gates, 1 - g^2 for the candidate
        local = a * a
        np.subtract(a[sig], local[sig], out=local[sig])
        np.subtract(1.0, local[cand], out=local[cand])
        d *= local
        dc *= a[gate_forget]
    return d_gates, d_pre, d_scores


def encode(windows, params: PolicyParams) -> Tensor:
    """(I, K, F) windows -> (I, H) representations, one stock per row.

    The value of ``history_attention(lstm_encode(windows, params), params)``
    as one tape record. The forward keeps its caches stocks-last, (K, ., I),
    so each gate block of a step is one contiguous slab; each step's gate
    pre-activations are one GEMM, [Wx; Wh; b']' [x_k; h_{k-1}; 1], and the
    step also projects its h_k for the attention. The record has one
    VJP per operand: the windows and each of :data:`ENCODER_PARAMS`. They
    share the sweep :func:`_encode_sweep`, run once per backward pass, and
    the tape calls only those whose operand requires grad; each K-summed
    parameter gradient is one batched matmul summed over k. A recorded call
    takes its arrays from the workspace, and an untaped one keeps no
    backward caches (module docstring). A non-finite parameter raises
    :class:`NonFiniteError`.

    Every op here works column by column, so stock i depends on window i
    alone; stocks first meet in :func:`score`.
    """
    x = _windows_tensor(windows, params)
    if x.shape[1] == 0:
        raise ShapeError("encode: no hidden states, the windows have no look-back steps")
    p = _param_arrays(params, ENCODER_PARAMS, "encode")
    take = _Lease(_spare()) if ad.recording() else _fresh
    rep, cache = _encode_forward(x.data, p, take)
    xs, _, _, states, u, _ = cache

    def k_summed(left, right):
        """sum over k of left[k] @ right[k]', for (K, ., I) stacks."""
        return np.matmul(left, right.transpose(0, 2, 1)).sum(axis=0)

    pulls = (
        (x, lambda sw: (p["lstm_wx"] @ sw[0]).transpose(2, 0, 1)),
        (params["lstm_wx"], lambda sw: k_summed(xs, sw[0])),
        (params["lstm_wh"], lambda sw: k_summed(states[:-1], sw[0][1:])),
        (params["lstm_b"], lambda sw: sw[0].sum(axis=(0, 2))),
        (params["att_w1"], lambda sw: k_summed(states, sw[1])),
        (params["att_w2"], lambda sw: states[-1] @ sw[1].sum(axis=0).T),
        (params["att_w"], lambda sw: np.einsum("khi,ki->h", u, sw[2])),
    )
    return ad.emit("encode", rep, pulls, lambda g: _encode_sweep(g, cache, p, take))


def _score_inputs(r: np.ndarray, ranks, params: PolicyParams) -> tuple[np.ndarray, np.ndarray]:
    """The (I, H) representations r and the ranks as (I,) integers, checked
    with the shape errors of the primitive composition."""
    r = real_array(r, "score: representations")
    ranks = _rank_ints(ranks)
    if r.ndim != 2 or r.shape[0] < 2:
        raise ShapeError("caan: need representations for at least 2 stocks")
    if len(ranks) != r.shape[0]:
        raise ShapeError("caan: ranks misaligned with representations")
    if r.shape[1] != params.hidden:
        raise ShapeError(
            f"matmul: inner dimensions differ, {r.shape} @ {params['wq'].shape}"
        )
    return r, ranks


def _banded(ranks: np.ndarray) -> bool:
    """Whether psi[i, j] = table[bin(r_i - r_j)] is Toeplitz in the
    stocks' order, table[bin(i - j)]: the ranks rise by one from stock to
    stock."""
    return bool((np.diff(ranks) == 1).all())


# elements per row block of the rank prior: one 128 KB (rows, I) bin buffer
# is reused from block to block (psi and d_psi are allocated per block);
# larger blocks measured slower at I=200 and no faster at I=800
_PRIOR_BLOCK = 1 << 14


def _psi_blocks(ranks: np.ndarray, q: int, l_cols: int):
    """Row blocks of the rank-distance bins, bin(r_i - r_j) by
    :func:`_rank_bins`: yields (rows, bins), the bins of those rows in one
    buffer reused from block to block."""
    n = ranks.size
    step = max(1, _PRIOR_BLOCK // n)
    buf = np.empty((min(step, n), n), dtype=np.int64)
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        bins = buf[: rows.stop - start]
        np.subtract.outer(ranks[rows], ranks, out=bins)
        yield rows, _rank_bins(bins, q, l_cols)


def _times_psi(src, ranks, q, table, out) -> None:
    """out = src * psi for an (I, I) array src (``out`` may be src itself),
    psi[i, j] = table[bin(r_i - r_j)] for the step q (:func:`_rank_bins`).

    When psi is Toeplitz (:func:`_banded`), it is a read-only strided view
    of the 2I-1 entries v[m] = table[bin(m)], m = -(I-1) .. I-1, row i
    being v[-i .. I-1-i], so psi takes no I^2 memory and the product is
    one multiply. Otherwise the row walk :func:`_psi_blocks` gathers psi
    block by block. Each entry is one multiply by its own psi either way,
    so the view gives bitwise what the walk gives.
    """
    n = ranks.size
    if _banded(ranks):
        v = table[_rank_bins(np.arange(1 - n, n), q, table.size)]
        strides = (-v.strides[0], v.strides[0])  # psi[i, j] = v[m = j - i]
        psi = np.lib.stride_tricks.as_strided(v[n - 1 :], (n, n), strides, writeable=False)
        np.multiply(src, psi, out=out)
        return
    for rows, bins in _psi_blocks(ranks, q, table.size):
        np.multiply(src[rows], table.take(bins), out=out[rows])


def _score_forward(r: np.ndarray, ranks: np.ndarray, p: dict, q: int) -> tuple:
    """Forward of :func:`score` on (I, H) representations r, integer ranks,
    the head's arrays ``p`` and the quantization step q: the (I,) scores
    and the caches (query, key, value, attended, attention, prior, table,
    scale) its adjoints read, scale being the logits' 1/sqrt(H) and
    ``table`` psi * scale per quantized rank-distance bin, L entries for
    any ranks.

    The float operations are those of :func:`caan_forward` and
    :func:`winner_scores`, in the same order, so the scores are bitwise
    theirs. QK' is multiplied by psi * scale (:func:`_times_psi`), and psi
    is never stored. The logits buffer becomes the attention A in place.
    """
    scale = 1.0 / np.sqrt(r.shape[1])
    query, key, value = r @ p["wq"], r @ p["wk"], r @ p["wv"]
    prior_logits = p["rank_w"] @ p["rank_emb"]
    if not np.isfinite(prior_logits).all():
        raise NonFiniteError("score: non-finite rank-prior logits")
    prior = ad.logistic(prior_logits)
    table = prior * scale
    logits = query @ key.T
    _times_psi(logits, ranks, q, table, logits)
    top = logits.max(axis=1, keepdims=True)
    # QK' sums stay under the bound; above it, a non-finite logit shows in a row max or min
    with np.errstate(over="ignore", invalid="ignore"):
        bound = r.shape[1] * _abs_max(query) * _abs_max(key) * table.max()
    if not bound < _OVERFLOW_FREE and not (np.isfinite(top).all() and np.isfinite(logits.min())):
        raise NonFiniteError("score: non-finite attention logits")
    # row softmax in place: logits -> attention
    logits -= top
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    attention = logits
    attended = attention @ value
    if not np.isfinite(attended).all():
        raise NonFiniteError("score: non-finite attended values")
    head = attended @ p["w_score"]
    head += p["b_score"]
    if not np.isfinite(head).all():
        raise NonFiniteError("score: non-finite head logits")
    return ad.logistic(head), (query, key, value, attended, attention, prior, table, scale)


def _softmax_adjoint(attention, g, value, ranks, q, table) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint of Z = softmax(psi * scale * QK') V for the cotangent G of Z,
    ``table`` holding psi * scale per rank-distance bin: with M = GV', the
    cotangent of the softmax's input N = A * (M - rowsum(A * M)) and that
    of QK', D = N * psi * scale."""
    n = g @ value.T
    d = attention * n
    n -= d.sum(axis=1, keepdims=True)
    n *= attention
    _times_psi(n, ranks, q, table, d)
    return n, d


def _score_sweep(g: np.ndarray, s: np.ndarray, cache: tuple, ranks, p: dict, q: int) -> tuple:
    """Backward of :func:`score` for the cotangent g (I,) of its scores:
    the cotangents of the head logits (I,), of query, key and value
    (I, H) and of the prior logits w'E (L,)."""
    query, key, value, attended, attention, prior, table, scale = cache
    d_head = g * (s * (1.0 - s))
    d_attended = d_head[:, None] * p["w_score"]
    n, d = _softmax_adjoint(attention, d_attended, value, ranks, q, table)
    # dL/d(psi * scale) = N * QK', with QK' recomputed block by block rather
    # than cached, summed per bin
    d_prior = np.zeros(prior.size)
    for rows, bins in _psi_blocks(ranks, q, prior.size):
        d_psi = query[rows] @ key.T
        d_psi *= n[rows]
        d_prior += np.bincount(bins.ravel(), weights=d_psi.ravel(), minlength=prior.size)
    d_prior = d_prior * scale * prior * (1.0 - prior)
    return d_head, d @ key, d.T @ query, attention.T @ d_attended, d_prior


def _score_setup(rep, ranks, params: PolicyParams) -> tuple:
    """The checked inputs of :func:`score`: r, the ranks and the head's
    arrays p."""
    r, ranks = _score_inputs(rep, ranks, params)
    return r, ranks, _param_arrays(params, SCORE_PARAMS, "score")


def score(rep: Tensor, ranks, params: PolicyParams) -> Tensor:
    """(I, H) representations -> winner scores (I,), coupled across stocks.

    Bitwise the value of ``winner_scores(caan_forward(rep, ranks, params),
    params)``, as one tape record, psi[i, j] being table[bin(r_i - r_j)]
    (:func:`_rank_bins`). When the ranks rise by one from stock to stock,
    as a window set's 1..I do, psi is a Toeplitz view that the forward and
    the softmax adjoint each multiply in one pass; other ranks take a row
    walk (:func:`_times_psi`). The record has one VJP per operand: the
    representations and each of :data:`SCORE_PARAMS`, all reading one
    sweep per backward pass; the tape calls only those whose operand
    requires grad. Raises :class:`NonFiniteError` for a non-finite
    parameter, and whenever the primitive composition would, from checks of
    the rank-prior logits, the attention logits (only when their bound
    H max|Q| max|K| max(table) is not under ``_OVERFLOW_FREE``), the
    attended values and the head logits: a sigmoid of an overflowed logit
    is finite, so the output alone would not show it.
    """
    r, ranks, p = _score_setup(rep.data, ranks, params)
    s, cache = _score_forward(r, ranks, p, params.q)
    attended = cache[3]

    def d_rep(sw):
        _, d_query, d_key, d_value, _ = sw
        return d_query @ p["wq"].T + d_key @ p["wk"].T + d_value @ p["wv"].T

    pulls = (
        (rep, d_rep),
        (params["wq"], lambda sw: r.T @ sw[1]),
        (params["wk"], lambda sw: r.T @ sw[2]),
        (params["wv"], lambda sw: r.T @ sw[3]),
        (params["w_score"], lambda sw: attended.T @ sw[0]),
        (params["b_score"], lambda sw: np.asarray(sw[0].sum())),
        (params["rank_emb"], lambda sw: np.outer(p["rank_w"], sw[4])),
        (params["rank_w"], lambda sw: p["rank_emb"] @ sw[4]),
    )
    return ad.emit("score", s, pulls, lambda g: _score_sweep(g, s, cache, ranks, p, params.q))


def own_score_grads(rep: np.ndarray, ranks, params: PolicyParams) -> np.ndarray:
    """Own-row Jacobian of :func:`score` for all stocks at once: the (I, H)
    matrix C whose row i is ds_i/dr_i, every other row of the (I, H) array
    ``rep`` held fixed.

    With A = softmax(psi * QK'/sqrt(H)), Z = AV and s = sigmoid(Zw + b), the
    cotangent of Z is G = diag(s(1 - s)) w', and, by the softmax adjoint,

        M = GV',  N = A * (M - rowsum(A * M)),  D = N * psi / sqrt(H)
        C = diag(A) G Wv' + (DK) Wq' + diag(D) Q Wk'

    The three terms are r_i's paths through V_i, Q_i and K_i. The forward
    with its overflow bound and the softmax adjoint, whose D is one
    multiply by psi's Toeplitz view for ranks rising by one, are those of
    :func:`score`, run on plain arrays, so nothing is recorded on any
    tape. Cost O(I^2 H).
    """
    r, ranks, p = _score_setup(rep, ranks, params)
    s, (query, key, value, _, attention, _, table, _) = _score_forward(r, ranks, p, params.q)
    g = (s * (1.0 - s))[:, None] * p["w_score"]
    _, d = _softmax_adjoint(attention, g, value, ranks, params.q, table)
    return (
        np.diag(attention)[:, None] * (g @ p["wv"].T)
        + (d @ key) @ p["wq"].T
        + np.diag(d)[:, None] * (query @ p["wk"].T)
    )


def policy_forward(windows, ranks, params: PolicyParams) -> Tensor:
    """Windows of all eligible stocks -> winner scores (I,)."""
    return score(encode(windows, params), ranks, params)


def score_window_set(window_set: WindowSet, params: PolicyParams) -> WinnerScores:
    """Plain-number scoring of a prepared window set (no tape required)."""
    scores = policy_forward(window_set.features, window_set.ranks, params)
    return WinnerScores(window_set.stock_ids, scores.data.copy())
