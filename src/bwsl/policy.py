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
  forward and softmax adjoint.

While a tape records, :func:`encode` writes its seven stocks-last
(K, ., I) arrays, four forward caches and three backward-sweep buffers,
into buffers leased from a per-thread workspace. The record's sweep holds
the lease, so they return when the record dies (when its tape is dropped).
The workspace keeps at most one spare buffer per role, the largest
returned, and a smaller universe writes into a prefix of it.
So successive recorded calls, one per decision time in training and
interpretation, reuse the same memory instead of faulting in fresh pages.
An untaped call allocates fresh arrays, and the float operations are the
same either way, so values do not depend on the workspace.

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
from .errors import DataError, NonFiniteError, ShapeError, whole_number
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
        _check_shapes(self._tensors)
        self.q = whole_number(q, "quantization step q", 1)

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
        tensors["lstm_b"][h : 2 * h] = 1.0
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
    """``ranks`` as int64; :class:`ShapeError` unless they are 1-d, and
    :class:`DataError` unless every value is a finite integer (of any
    dtype), so a fractional rank is never truncated."""
    arr = np.asarray(ranks)
    if arr.ndim != 1:
        raise ShapeError(f"ranks must be 1-d, one per stock, got shape {arr.shape}")
    if arr.dtype.kind in "biu":
        return arr.astype(np.int64, copy=False)
    # the range test also rejects NaN and infinities
    if arr.dtype.kind != "f" or not ((arr == np.trunc(arr)) & (np.abs(arr) < 2.0**63)).all():
        raise DataError(f"ranks must be finite integers, got {ranks!r}")
    return arr.astype(np.int64)


def rank_distance(ranks: np.ndarray, q: int, l_cols: int) -> np.ndarray:
    """Quantized pairwise rank distance, clamped to the embedding width."""
    ranks = _rank_ints(ranks)
    d = np.abs(ranks[:, None] - ranks[None, :]) // int(q)
    return np.minimum(d, l_cols - 1)


def _caan_terms(rep: Tensor, ranks: np.ndarray, params: PolicyParams):
    """Query, key, value, rank prior psi and attention A = softmax(psi * QK'/sqrt(H)),
    each (I, H) or (I, I); recorded on the active tape like any other op."""
    _, ranks = _score_inputs(rep.data, ranks, params)
    h_dim = params.hidden
    query = rep @ params["wq"]
    key = rep @ params["wk"]
    value = rep @ params["wv"]
    logits = (query @ ad.transpose(key)) * (1.0 / np.sqrt(h_dim))
    d = rank_distance(ranks, params.q, params.l_cols)
    prior = ad.sigmoid(params["rank_w"] @ params["rank_emb"])
    psi = ad.take(prior, d.ravel()).reshape(d.shape)
    attention = ad.softmax(psi * logits, axis=1)
    return query, key, value, psi, attention


def caan_forward(rep: Tensor, ranks: np.ndarray, params: PolicyParams) -> Tensor:
    """Cross-asset attention: each stock attends over all stocks' values,
    with attention logits scaled by 1/sqrt(H) and multiplied by the rank
    prior before normalization."""
    _, _, value, _, attention = _caan_terms(rep, ranks, params)
    return attention @ value


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
    """What an untaped :func:`encode` writes into: a new array."""
    return np.empty(shape)


def _encode_forward(xs: np.ndarray, p: dict, take) -> tuple[np.ndarray, tuple]:
    """Forward of :func:`encode` on stocks-last windows xs (K, F, I) and the
    encoder's arrays ``p``: the (I, H) representation and the caches
    (act, cells, states, u, weights) its backward sweep reads. The four
    (K, ., I) caches come from ``take(role, shape)``.

    act (K, 4H, I) first holds Wx' x_k + b, then, in place, each step's gate
    activations; cells and states are c_k and h_k (K, H, I); u is the
    attention's tanh layer (K, H, I) and weights its softmax over K (K, I).
    Stocks run along the last axis, so each gate block of a step, such as
    ``act[k, 0:3H]``, is one contiguous slab and the elementwise work runs
    on contiguous memory.
    """
    k_steps, _, n = xs.shape
    h_dim = p["lstm_wh"].shape[0]
    gate_in, gate_forget, gate_out, cand, sig = _gate_blocks(h_dim)
    act = take("act", (k_steps, 4 * h_dim, n))
    np.matmul(p["lstm_wx"].T, xs, out=act)
    act += p["lstm_b"][:, None]
    cells = take("cells", (k_steps, h_dim, n))
    states = take("states", (k_steps, h_dim, n))
    h = c = np.zeros((h_dim, n))
    z = np.empty((4 * h_dim, n))
    for k in range(k_steps):
        np.matmul(p["lstm_wh"].T, h, out=z)
        z += act[k]
        if not np.isfinite(z).all():
            raise NonFiniteError(f"encode: non-finite gate pre-activations at step {k}")
        a = act[k]
        a[sig] = ad.logistic(z[sig])
        np.tanh(z[cand], out=a[cand])
        np.multiply(a[gate_in], a[cand], out=cells[k])
        cells[k] += a[gate_forget] * c
        c = cells[k]
        np.tanh(c, out=states[k])
        states[k] *= a[gate_out]
        h = states[k]

    # history attention: scores of all K states in one matmul, softmax over K
    u = take("u", (k_steps, h_dim, n))
    np.matmul(p["att_w1"].T, states, out=u)
    u += p["att_w2"].T @ states[-1]
    np.tanh(u, out=u)
    scores = p["att_w"] @ u
    weights = ad.normalized_exp(scores, axis=0)
    rep = weights[0] * states[0]
    for k in range(1, k_steps):
        rep += weights[k] * states[k]
    return rep.T, (act, cells, states, u, weights)


def _encode_sweep(g: np.ndarray, cache: tuple, p: dict, take) -> tuple[np.ndarray, ...]:
    """Backward of :func:`encode` for the cotangent g (I, H) of its output:
    the cotangents of the gate pre-activations (K, 4H, I), of the attention
    pre-activations (K, H, I) and of the attention scores (K, I). The three
    (K, ., I) arrays it writes come from ``take(role, shape)``."""
    act, cells, states, u, weights = cache
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
    so each gate block of a step is one contiguous slab; it computes x Wx for
    all K steps in one batched matmul and the attention over all K states in
    another. The record has one VJP per operand: the windows and each of
    :data:`ENCODER_PARAMS`. They share the sweep :func:`_encode_sweep`, run
    once per backward pass, and the tape calls only those whose operand
    requires grad; each K-summed parameter gradient is one batched matmul
    summed over k. A recorded call takes its (K, ., I) arrays from the
    workspace (module docstring).

    Every op here works column by column, so stock i depends on window i
    alone; stocks first meet in :func:`score`.
    """
    x = _windows_tensor(windows, params)
    if x.shape[1] == 0:
        raise ShapeError("encode: no hidden states, the windows have no look-back steps")
    p = {name: params[name].data for name in ENCODER_PARAMS}
    xs = np.ascontiguousarray(x.data.transpose(1, 2, 0))
    take = _Lease(_spare()) if ad.recording() else _fresh
    rep, cache = _encode_forward(xs, p, take)
    _, _, states, u, _ = cache

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
    r = np.asarray(r, dtype=np.float64)
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


def _prior_bins(q: int, l_cols: int) -> np.ndarray:
    """Quantized bin of each clamped rank distance 0 .. q(L-1)."""
    return np.arange(q * (l_cols - 1) + 1) // q


# elements per row block of the rank prior: two 128 KB (rows, I) buffers,
# reused from block to block, stand in for (I, I) distance and prior
# arrays; larger blocks measured slower at I=200 and no faster at I=800
_PRIOR_BLOCK = 1 << 14


def _psi_blocks(ranks: np.ndarray, table: np.ndarray):
    """Row blocks of the rank prior psi[i, j] = table[min(|r_i - r_j|, C)],
    C = table.size - 1: yields (rows, dist, psi), the clamped distances of
    those rows and their psi, in two buffers reused from block to block."""
    n = ranks.size
    step = max(1, _PRIOR_BLOCK // n)
    dist_buf = np.empty((min(step, n), n), dtype=np.intp)
    psi_buf = np.empty(dist_buf.shape)
    for lo in range(0, n, step):
        rows = slice(lo, min(lo + step, n))
        dist, psi = dist_buf[: rows.stop - lo], psi_buf[: rows.stop - lo]
        np.subtract.outer(ranks[rows], ranks, out=dist)
        np.abs(dist, out=dist)
        np.minimum(dist, table.size - 1, out=dist)
        table.take(dist, out=psi, mode="clip")
        yield rows, dist, psi


def _score_forward(r: np.ndarray, ranks: np.ndarray, p: dict, q: int) -> tuple[np.ndarray, tuple]:
    """Forward of :func:`score` on (I, H) representations r, integer ranks
    and the head's arrays ``p``: the (I,) scores and the caches
    (query, key, value, attended, attention, prior, table) its adjoints
    read.

    The float operations are those of :func:`_caan_terms` and
    :func:`winner_scores`, in the same order, so the scores are bitwise
    theirs. psi is gathered from ``table``, the prior of each rank distance
    clamped at C = q(L-1), the first distance of the last quantized bin,
    block by block, and never stored. The logits buffer becomes the
    attention A in place.
    """
    scale = 1.0 / np.sqrt(r.shape[1])
    query, key, value = r @ p["wq"], r @ p["wk"], r @ p["wv"]
    prior_logits = p["rank_w"] @ p["rank_emb"]
    if not np.isfinite(prior_logits).all():
        raise NonFiniteError("score: non-finite rank-prior logits")
    prior = ad.logistic(prior_logits)
    table = prior[_prior_bins(q, prior.size)]
    logits = query @ key.T
    logits *= scale
    for rows, _, psi in _psi_blocks(ranks, table):
        logits[rows] *= psi
    # a non-finite logit leaves a non-finite row maximum (+inf, nan) or minimum (-inf)
    top = logits.max(axis=1, keepdims=True)
    if not (np.isfinite(top).all() and np.isfinite(logits.min())):
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
    return ad.logistic(head), (query, key, value, attended, attention, prior, table)


def _softmax_adjoint(attention, g, value, ranks, table, scale) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint of Z = softmax(psi * S) V, S = QK' * scale, for the
    cotangent G of Z: with M = GV', the cotangent of the softmax's input
    N = A * (M - rowsum(A * M)) and that of QK', D = N * psi * scale."""
    n = g @ value.T
    d = attention * n
    n -= d.sum(axis=1, keepdims=True)
    n *= attention
    for rows, _, psi in _psi_blocks(ranks, table):
        np.multiply(n[rows], psi, out=d[rows])
    d *= scale
    return n, d


def _score_sweep(g: np.ndarray, s: np.ndarray, cache: tuple, ranks, p: dict, q: int) -> tuple:
    """Backward of :func:`score` for the cotangent g (I,) of its scores:
    the cotangents of the head logits (I,), of query, key and value
    (I, H) and of the prior logits w'E (L,)."""
    query, key, value, attended, attention, prior, table = cache
    scale = 1.0 / np.sqrt(query.shape[1])
    d_head = g * (s * (1.0 - s))
    d_attended = d_head[:, None] * p["w_score"]
    n, d = _softmax_adjoint(attention, d_attended, value, ranks, table, scale)
    # dL/dpsi = N * S, with S recomputed block by block rather than cached,
    # summed per clamped rank distance, then per quantized bin
    d_table = np.zeros(table.size)
    for rows, dist, _ in _psi_blocks(ranks, table):
        d_psi = query[rows] @ key.T
        d_psi *= scale
        d_psi *= n[rows]
        d_table += np.bincount(dist.ravel(), weights=d_psi.ravel(), minlength=table.size)
    d_prior = np.bincount(_prior_bins(q, prior.size), weights=d_table, minlength=prior.size)
    return d_head, d @ key, d.T @ query, attention.T @ d_attended, d_prior * prior * (1.0 - prior)


def score(rep: Tensor, ranks, params: PolicyParams) -> Tensor:
    """(I, H) representations -> winner scores (I,), coupled across stocks.

    The value of ``winner_scores(caan_forward(rep, ranks, params), params)``,
    bitwise, as one tape record. The record has one VJP per operand: the
    representations and each of :data:`SCORE_PARAMS`, all reading one
    sweep per backward pass; the tape calls only those whose operand
    requires grad. Raises :class:`NonFiniteError` whenever the primitive
    composition would, from checks of the rank-prior logits, the attention
    logits, the attended values and the head logits: a sigmoid of an
    overflowed logit is finite, so the output alone would not show it.
    """
    r, ranks = _score_inputs(rep.data, ranks, params)
    p = {name: params[name].data for name in SCORE_PARAMS}
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
    and the softmax adjoint are those of :func:`score` (``_score_forward``
    and ``_softmax_adjoint``), run on plain arrays, so nothing is recorded
    on any tape. Cost O(I^2 H).
    """
    r, ranks = _score_inputs(rep, ranks, params)
    p = {name: params[name].data for name in SCORE_PARAMS}
    s, (query, key, value, _, attention, _, table) = _score_forward(r, ranks, p, params.q)
    g = (s * (1.0 - s))[:, None] * p["w_score"]
    scale = 1.0 / np.sqrt(params.hidden)
    _, d = _softmax_adjoint(attention, g, value, ranks, table, scale)
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
