"""Reverse-mode automatic differentiation over dense float64 arrays.

A small tape machine: while a :class:`Tape` is active, every primitive
operation appends one record holding vector-Jacobian closures for its
differentiable operands. :meth:`Tape.gradients` is the one backward entry
point: it replays the records once, in reverse order, from a given scalar
root, accumulating gradients in a fixed order so repeated passes over the
same tape are bitwise identical.

The primitives are the set the scoring network's primitive reference in
:mod:`policy` and the interpretation pass use: add, mul, matmul,
transpose, reshape, concatenate, basic slicing, take (row gather), tanh,
sigmoid, softmax and sum; the plain-array :func:`logistic` and
:func:`normalized_exp` give sigmoid and softmax values to them and to the
hand-written layers alike. Every exposed operation checks its output for
finiteness and raises :class:`NonFiniteError` otherwise. A NumPy failure
on an operand's shape, axis or index raises :class:`ShapeError` naming
the op, through the one handler ``_computed``.

:func:`emit` is the one way to record an operation: each primitive calls
it, and so may a caller that computes a whole layer in NumPy and writes
its vector-Jacobian products by hand (an "elemental function" in the
sense of Griewank & Walther), such as the fused encoder ``encode`` and
the fused cross-asset attention and score head ``score`` in
:mod:`policy`, and the trainer's surrogate ``leg_logprob`` in
:mod:`portfolio`. A record is a value, one VJP per operand, and an
optional ``sweep``, the backward work its VJPs share: the tape runs it
once per record on each backward pass and hands its result to every VJP
in place of the output cotangent. Such an op is one record however much
work it does, its output passes the same finiteness check, and the VJP of
an operand that does not require grad is never called. An op whose output
can be finite where an intermediate overflowed (a sigmoid of +inf is 1)
checks that intermediate itself.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NonFiniteError, ShapeError, UsageError, real_array, whole_array

__all__ = [
    "Tensor",
    "Tape",
    "forward",
    "finite_diff_check",
    "emit",
    "recording",
    "logistic",
    "normalized_exp",
    "add",
    "mul",
    "matmul",
    "transpose",
    "reshape",
    "concatenate",
    "take",
    "tanh",
    "sigmoid",
    "softmax",
    "tsum",
]

_local = threading.local()
_ids = itertools.count(1)


def _stack() -> list:
    stack = getattr(_local, "tapes", None)
    if stack is None:
        stack = []
        _local.tapes = stack
    return stack


def _active_tape():
    stack = _stack()
    return stack[-1] if stack else None


def recording() -> bool:
    """Whether a tape is active on this thread, so that an op whose
    operands require grad is recorded now."""
    return bool(_stack())


class Tensor:
    """A dense float64 array with differentiation bookkeeping.

    The wrapped array is treated as immutable; never mutate ``data`` of a
    tensor that may still be referenced by a live tape.
    """

    __slots__ = ("data", "requires_grad", "tid")

    def __init__(self, data, requires_grad: bool = False):
        arr = real_array(data, "tensor")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("tensor: non-finite input values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.tid = next(_ids)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; everything routes through the primitives below
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return _getitem(self, key)

    def sum(self, axis=None, keepdims: bool = False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)


class _Record:
    __slots__ = ("out_id", "pulls", "sweep")

    def __init__(self, out_id: int, pulls: tuple, sweep):
        self.out_id = out_id
        self.pulls = pulls  # tuple of (parent_tid, vjp)
        self.sweep = sweep  # None, or the backward computation the VJPs share


class Tape:
    """Ordered log of primitive applications for one forward evaluation.

    Single-writer: one tape may be active per thread at a time (tapes
    nest, the innermost records). Distinct tapes are independent.
    """

    def __init__(self):
        self._records: list[_Record] = []

    def __enter__(self) -> "Tape":
        _stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _stack().pop()
        return False

    def __len__(self) -> int:
        return len(self._records)

    def gradients(self, root: Tensor) -> "GradientMap":
        """Gradient of the scalar ``root`` w.r.t. every tensor on the tape."""
        if root.size != 1:
            raise ShapeError(
                f"gradients: root must be scalar, got shape {root.shape}"
            )
        grads: dict[int, np.ndarray] = {root.tid: np.ones(root.shape)}
        for rec in reversed(self._records):
            g = grads.get(rec.out_id)
            if g is None:
                continue
            if rec.sweep is not None:
                g = rec.sweep(g)
            for tid, vjp in rec.pulls:
                contrib = vjp(g)
                prev = grads.get(tid)
                grads[tid] = contrib if prev is None else prev + contrib
        return GradientMap(grads)


class GradientMap:
    """Result of a backward pass; indexes by the tensors themselves."""

    def __init__(self, grads: dict[int, np.ndarray]):
        self._grads = grads

    def __getitem__(self, t: Tensor) -> np.ndarray:
        g = self._grads.get(t.tid)
        return np.zeros(t.shape) if g is None else g


def forward(fn: Callable, *inputs: Tensor) -> tuple[Tensor, Tape]:
    """Evaluate ``fn(*inputs)`` under a fresh tape and return (value, tape)."""
    tape = Tape()
    with tape:
        value = fn(*inputs)
    if not isinstance(value, Tensor):
        raise UsageError("forward: expression must return a Tensor")
    return value, tape


def finite_diff_check(
    fn: Callable[[Tensor], Tensor],
    point: Tensor,
    eps: float = 1e-5,
    max_coords: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare the analytic gradient of a scalar ``fn`` at ``point`` against
    central finite differences.

    Returns max over checked coordinates of
    ``|analytic - central| / max(1, |analytic|)``. When ``max_coords`` is
    given, that many coordinates are sampled without replacement.
    """
    if eps <= 0:
        raise DomainError("finite_diff_check: eps must be positive")
    value, tape = forward(fn, point)
    if value.size != 1:
        raise ShapeError("finite_diff_check: fn must be scalar-valued")
    analytic = tape.gradients(value)[point].ravel()
    n = point.size
    if max_coords is not None and max_coords < n:
        if rng is None:
            rng = np.random.default_rng(0)
        coords = rng.choice(n, size=max_coords, replace=False)
    else:
        coords = np.arange(n)
    base = point.data.ravel()
    worst = 0.0
    for c in coords:
        bumped = base.copy()
        bumped[c] = base[c] + eps
        f_plus = float(fn(Tensor(bumped.reshape(point.shape))).data)
        bumped[c] = base[c] - eps
        f_minus = float(fn(Tensor(bumped.reshape(point.shape))).data)
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NonFiniteError(
                "finite_diff_check: non-finite evaluation near the point"
            )
        central = (f_plus - f_minus) / (2.0 * eps)
        err = abs(analytic[c] - central) / max(1.0, abs(analytic[c]))
        worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# primitive machinery


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def emit(op: str, out_arr: np.ndarray, pulls, sweep=None) -> Tensor:
    """Record one op with value ``out_arr`` on the active tape.

    ``pulls`` holds (operand, vjp) pairs; ``vjp(g)`` maps the cotangent of
    the output to that operand's, of the operand's shape. Given a ``sweep``,
    each backward pass calls ``sweep(g)`` once and hands the result to
    every VJP in place of g. Only operands that require grad keep their
    VJP, and none is called before a backward pass. Raises
    :class:`NonFiniteError`, naming ``op``, if the value is not finite.
    """
    out_arr = np.asarray(out_arr, dtype=np.float64)
    if not np.all(np.isfinite(out_arr)):
        raise NonFiniteError(f"{op}: produced non-finite values")
    live = []
    for parent, vjp in pulls:
        if parent.requires_grad:
            live.append((parent.tid, vjp))
    out = Tensor.__new__(Tensor)
    out.data = out_arr
    out.requires_grad = bool(live)
    out.tid = next(_ids)
    if live:
        tape = _active_tape()
        if tape is not None:
            tape._records.append(_Record(out.tid, tuple(live), sweep))
    return out


def _computed(op: str, fn: Callable, *args, **kwargs):
    """``fn(*args, **kwargs)``; ShapeError naming ``op`` when NumPy rejects
    an operand's shape, axis or index (its AxisError is a ValueError too)."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, IndexError, TypeError) as e:
        raise ShapeError(f"{op}: {e}") from None


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(
        i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1
    )
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# primitives


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = _computed("add", np.add, a.data, b.data)
    ash, bsh = a.shape, b.shape
    return emit(
        "add",
        out,
        (
            (a, lambda g: _unbroadcast(g, ash)),
            (b, lambda g: _unbroadcast(g, bsh)),
        ),
    )


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = _computed("mul", np.multiply, a.data, b.data)
    ad, bd = a.data, b.data
    ash, bsh = a.shape, b.shape
    return emit(
        "mul",
        out,
        (
            (a, lambda g: _unbroadcast(g * bd, ash)),
            (b, lambda g: _unbroadcast(g * ad, bsh)),
        ),
    )


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim not in (1, 2) or bd.ndim not in (1, 2):
        raise ShapeError(
            f"matmul: operands must be 1-d or 2-d, got {ad.ndim}-d and {bd.ndim}-d"
        )
    if ad.shape[-1] != bd.shape[0]:
        raise ShapeError(
            f"matmul: inner dimensions differ, {ad.shape} @ {bd.shape}"
        )
    out = ad @ bd
    a2 = ad if ad.ndim == 2 else ad[None, :]
    b2 = bd if bd.ndim == 2 else bd[:, None]

    def vjp_a(g, a2=a2, b2=b2, vec=(ad.ndim == 1)):
        g2 = g.reshape(a2.shape[0], b2.shape[1])
        ga = g2 @ b2.T
        return ga[0] if vec else ga

    def vjp_b(g, a2=a2, b2=b2, vec=(bd.ndim == 1)):
        g2 = g.reshape(a2.shape[0], b2.shape[1])
        gb = a2.T @ g2
        return gb[:, 0] if vec else gb

    return emit("matmul", out, ((a, vjp_a), (b, vjp_b)))


def transpose(a) -> Tensor:
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"transpose: expected a matrix, got shape {a.shape}")
    return emit("transpose", a.data.T, ((a, lambda g: g.T),))


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    out = _computed("reshape", a.data.reshape, shape)
    orig = a.shape
    return emit("reshape", out, ((a, lambda g: g.reshape(orig)),))


def concatenate(parts: Sequence, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(p) for p in parts]
    if not tensors:
        raise ShapeError("concatenate: no operands")
    out = _computed("concatenate", np.concatenate, [t.data for t in tensors], axis=axis)
    pulls = []
    offset = 0
    for t in tensors:
        width = t.shape[axis]
        sl = [slice(None)] * out.ndim
        sl[axis] = slice(offset, offset + width)
        pulls.append((t, lambda g, sl=tuple(sl): g[sl]))
        offset += width
    return emit("concatenate", out, tuple(pulls))


def _getitem(a: Tensor, key) -> Tensor:
    items = key if isinstance(key, tuple) else (key,)
    for it in items:
        if not isinstance(it, (int, np.integer, slice)):
            raise ShapeError(
                "slice: only basic indexing (ints and slices) is differentiable"
            )
    out = _computed("slice", a.data.__getitem__, key)
    shape = a.shape

    def vjp(g, key=key, shape=shape):
        z = np.zeros(shape)
        z[key] = g
        return z

    return emit("slice", out, ((a, vjp),))


def take(a, indices) -> Tensor:
    """Gather rows of ``a`` (leading axis) at fixed ``indices``, read by
    :func:`errors.whole_array`, so a fractional index raises DataError."""
    a = _as_tensor(a)
    if a.ndim < 1:
        raise ShapeError("take: operand must have at least one axis")
    idx = whole_array(indices, "take: indices")
    out = _computed("take", a.data.__getitem__, idx)
    shape = a.shape

    def vjp(g, idx=idx, shape=shape):
        z = np.zeros(shape)
        np.add.at(z, idx, g)
        return z

    return emit("take", out, ((a, vjp),))


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    y = np.tanh(a.data)
    return emit("tanh", y, ((a, lambda g, y=y: g * (1.0 - y * y)),))


def logistic(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise 1 / (1 + exp(-x)) of a plain array, for any finite x,
    written into ``out`` when one is given (it may be ``x`` itself) and
    into a new float64 array otherwise.

    Below x = -709, exp(-x) overflows to inf and the quotient is the
    correctly rounded 0; that overflow is expected, so it is not reported.
    """
    if out is None:
        out = np.empty(np.shape(x))
    with np.errstate(over="ignore"):
        np.negative(x, out=out)
        np.exp(out, out=out)
        out += 1.0
        return np.divide(1.0, out, out=out)


def normalized_exp(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax of a plain array along ``axis``: exp(x - max) over its sum."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    y = logistic(a.data)
    return emit("sigmoid", y, ((a, lambda g, y=y: g * y * (1.0 - y)),))


def softmax(a, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    if a.ndim < 1:
        raise ShapeError("softmax: operand must have at least one axis")
    y = _computed("softmax", normalized_exp, a.data, axis)

    def vjp(g, y=y, axis=axis):
        return y * (g - np.sum(g * y, axis=axis, keepdims=True))

    return emit("softmax", y, ((a, vjp),))


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out = _computed("sum", a.data.sum, axis=axis, keepdims=keepdims)
    shape = a.shape

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, shape).copy()

    return emit("sum", out, ((a, vjp),))
