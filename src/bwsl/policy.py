"""Winner-score policy: per-stock recurrent encoder with history-state
attention, then cross-asset self-attention modulated by a rank prior.

One parameter set is shared by all stocks; every forward pass is built
from autodiff primitives so scores can be differentiated with respect to
both the parameters (training) and the input windows (interpretation).

Shapes use I = stocks, K = look-back steps, F = features, H = hidden
width, E = rank-embedding width, L = number of quantized rank-distance
bins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError, ShapeError
from .features import N_FEATURES, WindowSet

_CHECKPOINT_MAGIC = "bwsl-policy-checkpoint v1"

# parameter names in checkpoint / update order
PARAM_ORDER = (
    "lstm_wx",   # (F, 4H) input weights, gate blocks [in, forget, out, cand]
    "lstm_wh",   # (H, 4H) recurrent weights
    "lstm_b",    # (4H,)   gate biases, forget block starts at +1
    "att_w1",    # (H, H)  history-attention map on each h_k
    "att_w2",    # (H, H)  history-attention map on the last state
    "att_w",     # (H,)    history-attention readout
    "wq",        # (H, H)  query projection
    "wk",        # (H, H)  key projection
    "wv",        # (H, H)  value projection
    "w_score",   # (H,)    score head weights
    "b_score",   # ()      score head bias
    "rank_emb",  # (E, L)  embedding columns per quantized rank distance
    "rank_w",    # (E,)    rank-prior readout
)


def _check_shapes(tensors: dict[str, Tensor]) -> None:
    """Every tensor's shape must follow from F, H (lstm_wx) and E, L (rank_emb)."""
    wx, emb = tensors["lstm_wx"].shape, tensors["rank_emb"].shape
    if len(wx) != 2 or wx[1] % 4 or len(emb) != 2 or min(wx + emb) < 1:
        raise DataError(
            f"policy params: lstm_wx {wx} must be (F, 4H) and rank_emb {emb} must be (E, L)"
        )
    f, h, (e, l) = wx[0], wx[1] // 4, emb
    expected = {
        "lstm_wx": (f, 4 * h),
        "lstm_wh": (h, 4 * h),
        "lstm_b": (4 * h,),
        "att_w1": (h, h),
        "att_w2": (h, h),
        "att_w": (h,),
        "wq": (h, h),
        "wk": (h, h),
        "wv": (h, h),
        "w_score": (h,),
        "b_score": (),
        "rank_emb": (e, l),
        "rank_w": (e,),
    }
    for name, shape in expected.items():
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
        if q < 1:
            raise DataError("quantization step q must be at least 1")
        self.q = int(q)

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
        """Uniform +-1/sqrt(fan-in) weights, forget-gate bias +1, zero biases."""
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(int(rng))
        f, h, e, l = n_features, hidden, embed, l_cols

        def u(shape, fan):
            bound = 1.0 / np.sqrt(fan)
            return rng.uniform(-bound, bound, size=shape)

        b = np.zeros(4 * h)
        b[h : 2 * h] = 1.0
        tensors = {
            "lstm_wx": u((f, 4 * h), f),
            "lstm_wh": u((h, 4 * h), h),
            "lstm_b": b,
            "att_w1": u((h, h), h),
            "att_w2": u((h, h), h),
            "att_w": u((h,), h),
            "wq": u((h, h), h),
            "wk": u((h, h), h),
            "wv": u((h, h), h),
            "w_score": u((h,), h),
            "b_score": np.zeros(()),
            "rank_emb": u((e, l), e),
            "rank_w": u((e,), e),
        }
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
    def embed(self) -> int:
        return self._tensors["rank_emb"].shape[0]

    @property
    def l_cols(self) -> int:
        return self._tensors["rank_emb"].shape[1]

    @property
    def n_params(self) -> int:
        return sum(t.size for t in self._tensors.values())

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


def lstm_encode(windows, params: PolicyParams) -> list[Tensor]:
    """Run the shared recurrent encoder over every stock's (I, K, F) window.

    Returns the K hidden states, each (I, H). Initial hidden and cell
    states are zero.
    """
    x = windows if isinstance(windows, Tensor) else Tensor(windows)
    if x.ndim != 3:
        raise ShapeError(f"windows must be (I, K, F), got {x.shape}")
    n_stocks, k_steps, n_feat = x.shape
    if n_feat != params.n_features:
        raise ShapeError(
            f"lstm: window has {n_feat} features, parameters expect {params.n_features}"
        )
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


def rank_distance(ranks: np.ndarray, q: int, l_cols: int) -> np.ndarray:
    """Quantized pairwise rank distance, clamped to the embedding width."""
    ranks = np.asarray(ranks, dtype=np.int64)
    d = np.abs(ranks[:, None] - ranks[None, :]) // int(q)
    return np.minimum(d, l_cols - 1)


def prior_weight(c_i: int, c_j: int, params: PolicyParams, q: int | None = None) -> float:
    """Pairwise prior coefficient in (0, 1) from the quantized rank distance."""
    q = params.q if q is None else q
    d = min(abs(int(c_i) - int(c_j)) // int(q), params.l_cols - 1)
    logits = params["rank_w"].data @ params["rank_emb"].data
    return float(1.0 / (1.0 + np.exp(-logits[d])))


def caan_forward(rep: Tensor, ranks: np.ndarray, params: PolicyParams) -> Tensor:
    """Cross-asset attention: each stock attends over all stocks' values,
    with attention logits scaled by 1/sqrt(H) and multiplied by the rank
    prior before normalization."""
    if rep.ndim != 2 or rep.shape[0] < 2:
        raise ShapeError("caan: need representations for at least 2 stocks")
    if len(ranks) != rep.shape[0]:
        raise ShapeError("caan: ranks misaligned with representations")
    h_dim = params.hidden
    query = rep @ params["wq"]
    key = rep @ params["wk"]
    value = rep @ params["wv"]
    logits = (query @ ad.transpose(key)) * (1.0 / np.sqrt(h_dim))
    d = rank_distance(ranks, params.q, params.l_cols)
    prior = ad.sigmoid(params["rank_w"] @ params["rank_emb"])
    psi = ad.take(prior, d.ravel()).reshape(d.shape)
    attention = ad.softmax(psi * logits, axis=1)
    return attention @ value


def winner_scores(attended: Tensor, params: PolicyParams) -> Tensor:
    """Map attention vectors to scores in (0, 1)."""
    return ad.sigmoid(attended @ params["w_score"] + params["b_score"])


def policy_forward(windows, ranks, params: PolicyParams) -> Tensor:
    """Windows of all eligible stocks -> winner scores (I,)."""
    states = lstm_encode(windows, params)
    rep = history_attention(states, params)
    attended = caan_forward(rep, np.asarray(ranks), params)
    return winner_scores(attended, params)


def score_window_set(window_set: WindowSet, params: PolicyParams) -> WinnerScores:
    """Plain-number scoring of a prepared window set (no tape required)."""
    scores = policy_forward(window_set.features, window_set.ranks, params)
    return WinnerScores(window_set.stock_ids, scores.data.copy())
