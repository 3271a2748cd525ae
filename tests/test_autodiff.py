"""Tape engine: forward values, gradients vs. finite differences, determinism."""

import numpy as np
import pytest

from bwsl import autodiff as ad
from bwsl.errors import DataError, DomainError, NonFiniteError, ShapeError, UsageError


def test_identity_slice_value_and_tape_length():
    x = ad.Tensor([1.0, -2.0, 3.5], requires_grad=True)
    value, tape = ad.forward(lambda t: t[:].sum(), x)
    # one slice record plus the reducing sum
    assert len(tape) == 2
    np.testing.assert_array_equal(x.data, np.array([1.0, -2.0, 3.5]))
    assert value.item() == 2.5


def test_sum_of_vector():
    x = ad.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    value, _ = ad.forward(lambda t: t.sum(), x)
    assert value.item() == 6.0


def test_random_chain_matches_plain_numpy():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 3))
    w = rng.normal(size=(3, 5))

    def chain(t):
        h = ad.tanh(t @ ad.Tensor(w))
        s = ad.sigmoid(h * 2.0)
        p = ad.softmax(s, axis=1)
        return p.sum() * (1.0 / p.size) + 1.0

    value, _ = ad.forward(chain, ad.Tensor(a, requires_grad=True))

    h = np.tanh(a @ w)
    s = 1.0 / (1.0 + np.exp(-2.0 * h))
    e = np.exp(s - s.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    expected = p.mean() + 1.0
    assert abs(value.item() - expected) <= 1e-12 * max(1.0, abs(expected))


def test_backward_identity_is_one():
    x = ad.Tensor(7.0, requires_grad=True)
    value, tape = ad.forward(lambda t: t, x)
    grads = tape.gradients(value)
    assert grads[x] == pytest.approx(1.0, abs=0)


def test_backward_quadratic():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    value, tape = ad.forward(lambda t: (t * t).sum(), x)
    np.testing.assert_array_equal(tape.gradients(value)[x], [2.0, 4.0])


def test_backward_rejects_non_scalar_root():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    value, tape = ad.forward(lambda t: t * 3.0, x)
    with pytest.raises(ShapeError):
        tape.gradients(value)


def test_input_off_tape_gets_zero_gradient():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    y = ad.Tensor([3.0, 4.0], requires_grad=True)
    value, tape = ad.forward(lambda t: t.sum(), x)
    grads = tape.gradients(value)
    np.testing.assert_array_equal(grads[y], [0.0, 0.0])


def test_backward_is_deterministic():
    rng = np.random.default_rng(3)
    x = ad.Tensor(rng.normal(size=(6, 4)), requires_grad=True)

    def f(t):
        return (ad.softmax(ad.tanh(t), axis=1) * t).sum()

    value, tape = ad.forward(f, x)
    g1 = tape.gradients(value)[x]
    g2 = tape.gradients(value)[x]
    assert g1.tobytes() == g2.tobytes()


def test_overflowing_output_raises_non_finite():
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="mul"):
        ad.mul(ad.Tensor([1e300]), 1e300)


def test_emit_records_one_op_and_calls_only_live_vjps():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    const = ad.Tensor([5.0, 7.0])

    def never(g):
        raise AssertionError("VJP of a constant operand was called")

    tape = ad.Tape()
    with tape:
        y = ad.emit("scaled", 3.0 * x.data, ((x, lambda g: 3.0 * g), (const, never)))
        value = y.sum()
    assert len(tape) == 2
    np.testing.assert_array_equal(tape.gradients(value)[x], [3.0, 3.0])


def test_emit_runs_its_sweep_once_per_backward_for_every_live_vjp():
    a = ad.Tensor([1.0, 2.0], requires_grad=True)
    b = ad.Tensor([3.0, 5.0], requires_grad=True)
    swept, pulled = [], []

    def sweep(g):
        swept.append(g * 1.0)  # a new array on every call
        return swept[-1]

    def vjp(other):
        def pull(sw):
            pulled.append(sw)
            return sw * other

        return pull

    tape = ad.Tape()
    with tape:
        y = ad.emit("product", a.data * b.data, ((a, vjp(b.data)), (b, vjp(a.data))), sweep)
        root = (y * ad.Tensor([2.0, 7.0])).sum()
    for passes in (1, 2):
        grads = tape.gradients(root)
        assert len(swept) == passes and len(pulled) == 2 * passes
        assert all(sw is swept[-1] for sw in pulled[-2:])
        np.testing.assert_array_equal(swept[-1], [2.0, 7.0])
        np.testing.assert_array_equal(grads[a], [6.0, 35.0])
        np.testing.assert_array_equal(grads[b], [2.0, 14.0])


def test_a_swept_record_runs_only_live_vjps_and_only_on_the_root_path():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    const = ad.Tensor([5.0, 7.0])
    swept = []

    def never(sw):
        raise AssertionError("called off the root path or for a constant operand")

    tape = ad.Tape()
    with tape:
        pulls = ((x, lambda sw: sw * const.data), (const, never))
        y = ad.emit("scaled", const.data * x.data, pulls, lambda g: swept.append(g) or g)
        ad.emit("unused", x.data, ((x, never),), never)
        value = y.sum()
    assert len(tape) == 3
    np.testing.assert_array_equal(tape.gradients(value)[x], [5.0, 7.0])
    assert len(swept) == 1


def test_emit_rejects_a_non_finite_value():
    x = ad.Tensor([1.0], requires_grad=True)
    with pytest.raises(NonFiniteError, match="^scaled: produced non-finite values$"):
        ad.emit("scaled", np.array([np.inf]), ((x, lambda g: g),))


def test_logistic_saturates_without_warnings_and_backs_sigmoid():
    x = np.array([-1000.0, -750.0, -30.0, 0.0, 40.0, 1000.0])
    y = ad.logistic(x)  # tier-1 turns a RuntimeWarning into a failure
    np.testing.assert_array_equal(y[[0, 1, 3, 4, 5]], [0.0, 0.0, 0.5, 1.0, 1.0])
    assert y[2] == pytest.approx(np.exp(-30.0), rel=1e-12)
    assert ad.sigmoid(ad.Tensor(x)).data.tobytes() == y.tobytes()


def test_logistic_into_a_buffer_or_in_place_is_bitwise_the_plain_value():
    x = np.concatenate([[-1000.0, -745.0, -709.5, -709.0], np.linspace(-40.0, 40.0, 101)])
    want = ad.logistic(x)
    buf = np.full_like(x, np.nan)
    assert ad.logistic(x, out=buf) is buf
    assert buf.tobytes() == want.tobytes()
    same = x.copy()
    ad.logistic(same, out=same)
    assert same.tobytes() == want.tobytes()
    assert x[0] == -1000.0  # the operand is untouched unless it is the buffer
    for i in (0, 3, 50):  # a number and a 0-d array give the same value
        assert ad.logistic(x[i]) == ad.logistic(np.asarray(x[i])) == want[i]


def test_matmul_shape_mismatch_names_primitive():
    a = ad.Tensor(np.ones((2, 3)))
    b = ad.Tensor(np.ones((4, 2)))
    with pytest.raises(ShapeError, match="matmul"):
        ad.matmul(a, b)


def _finite_only_at(point):
    """A scalar fn that is finite at ``point`` and NaN at every other input,
    a value no primitive lets through, so only finite_diff_check can see it."""
    def fn(t):
        out = t.sum()
        if t is not point:
            out.data = np.array(np.nan)
        return out
    return fn


_POINT = ad.Tensor([1.0, 2.0], requires_grad=True)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: ad.Tensor([1.0, np.nan]), NonFiniteError, "non-finite input"),
        (lambda: ad.forward(lambda t: t.data, _POINT), UsageError,
         "^forward: expression must return a Tensor$"),
        (lambda: ad.finite_diff_check(lambda t: t * 2.0, _POINT), ShapeError, "scalar-valued"),
        (lambda: ad.finite_diff_check(_finite_only_at(_POINT), _POINT), NonFiniteError,
         "non-finite evaluation"),
        (lambda: ad.add(np.zeros(2), np.zeros(3)), ShapeError, "^add: "),
        (lambda: ad.mul(np.zeros(2), np.zeros(3)), ShapeError, "^mul: "),
        (lambda: ad.matmul(np.zeros((2, 2, 2)), np.zeros((2, 2))), ShapeError, "1-d or 2-d"),
        (lambda: ad.transpose(np.zeros(3)), ShapeError, "expected a matrix"),
        (lambda: ad.reshape(np.zeros(6), (4,)), ShapeError, "^reshape: "),
        (lambda: ad.concatenate([]), ShapeError, "no operands"),
        (lambda: ad.concatenate([np.zeros((2, 2)), np.zeros((2, 3))]), ShapeError,
         "^concatenate: "),
        (lambda: ad.take(1.0, [0]), ShapeError, "at least one axis"),
        (lambda: _POINT[[0, 1]], ShapeError, "^slice: only basic indexing"),
        (lambda: ad.softmax(1.0), ShapeError, "at least one axis"),
        # the six below leaked NumPy's IndexError, AxisError or TypeError, or
        # truncated the argument: a shape of (3.7,) read as (3,), an index
        # of 1.5 gathered row 1
        (lambda: ad.take(_POINT, [5]), ShapeError, "^take: "),
        (lambda: ad.take(_POINT, [1.5]), DataError, "^take: indices must be an array of whole"),
        (lambda: _POINT[5], ShapeError, "^slice: "),
        (lambda: ad.softmax(_POINT, axis=2), ShapeError, "^softmax: "),
        (lambda: ad.softmax(_POINT, axis="x"), ShapeError, "^softmax: "),
        (lambda: ad.tsum(_POINT, axis=2), ShapeError, "^sum: "),
        (lambda: ad.reshape(np.zeros(3), (3.7,)), ShapeError, "^reshape: "),
    ],
    ids=[
        "non_finite_tensor", "forward_not_a_tensor", "fd_not_scalar", "fd_non_finite", "add",
        "mul", "matmul_rank", "transpose", "reshape", "concatenate_empty",
        "concatenate_mismatch", "take_scalar", "fancy_index", "softmax_scalar",
        "take_out_of_range", "take_fractional", "index_out_of_range", "softmax_axis",
        "softmax_axis_type", "sum_axis", "reshape_fractional",
    ],
)
def test_malformed_operands_raise_the_documented_error(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_finite_diff_linear_function_is_exact():
    w = np.array([0.3, -1.2, 2.0])
    x = ad.Tensor([0.5, 0.25, -1.0], requires_grad=True)
    err = ad.finite_diff_check(lambda t: ad.matmul(t, ad.Tensor(w)), x, eps=1e-5)
    assert err <= 1e-8


@pytest.mark.parametrize("eps", [0.0, -1e-6])
def test_finite_diff_check_rejects_a_non_positive_step(eps):
    x = ad.Tensor([0.5], requires_grad=True)
    with pytest.raises(DomainError, match="eps must be positive"):
        ad.finite_diff_check(lambda t: t.sum(), x, eps=eps)


def test_finite_diff_sigmoid_quarter_slope_at_zero():
    x = ad.Tensor(0.0, requires_grad=True)
    value, tape = ad.forward(lambda t: ad.sigmoid(t.reshape((1,)))[0], x)
    analytic = float(tape.gradients(value)[x])
    assert analytic == pytest.approx(0.25, abs=1e-12)
    err = ad.finite_diff_check(lambda t: ad.sigmoid(t.reshape((1,)))[0], x, eps=1e-5)
    assert err <= 1e-6


# every exposed primitive, each wrapped into a scalar-valued expression on a
# generic point; checked against central differences at many random points
_PRIMITIVE_CASES = {
    "add": lambda t, c: (ad.add(t, c) * c).sum(),
    "mul": lambda t, c: ad.mul(t, ad.tanh(t)).sum(),
    "matmul": lambda t, c: ad.matmul(t, ad.transpose(ad.add(t, c))).sum(),
    "transpose": lambda t, c: (ad.transpose(t) * c.reshape((t.shape[1], t.shape[0]))).sum(),
    "reshape": lambda t, c: (t.reshape((t.size,)) * c.reshape((t.size,))).sum(),
    "concatenate": lambda t, c: (ad.concatenate([t, ad.mul(t, c)], axis=1) * 0.5).sum(),
    "slice": lambda t, c: (t[1:, :-1] * 2.0).sum(),
    "take": lambda t, c: ad.take(t, np.array([2, 0, 2])).sum(),
    "tanh": lambda t, c: ad.tanh(t).sum(),
    "sigmoid": lambda t, c: ad.sigmoid(t).sum(),
    "softmax": lambda t, c: (ad.softmax(t, axis=1) * c).sum(),
    "sum": lambda t, c: (t.sum(axis=0) * t.sum(axis=0)).sum(),
}


@pytest.mark.parametrize("name", sorted(_PRIMITIVE_CASES))
def test_primitive_gradients_match_finite_differences(name):
    expr = _PRIMITIVE_CASES[name]
    rng = np.random.default_rng(hash(name) % 2**32)
    worst = 0.0
    for _ in range(100):
        point = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        const = ad.Tensor(rng.normal(size=(3, 4)))
        worst = max(
            worst,
            ad.finite_diff_check(lambda t: expr(t, const), point, eps=1e-6),
        )
    assert worst <= 1e-4


def test_broadcast_add_and_mul_gradients():
    rng = np.random.default_rng(11)
    x = ad.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    row = ad.Tensor(rng.normal(size=(3,)), requires_grad=True)

    def f(t):
        return (ad.add(t, row) * row).sum()

    err = ad.finite_diff_check(f, x, eps=1e-6)
    assert err <= 1e-6
    # and the broadcast operand itself
    value, tape = ad.forward(lambda r: (ad.add(x, r) * r).sum(), row)
    g = tape.gradients(value)[row]
    expected = (x.data + 2.0 * row.data[None, :]).sum(axis=0)
    np.testing.assert_allclose(g, expected, rtol=1e-12)


def test_gradient_accumulates_across_reuse():
    x = ad.Tensor([1.5, -0.5], requires_grad=True)
    value, tape = ad.forward(lambda t: (t * t).sum() + t.sum() * 3.0, x)
    np.testing.assert_allclose(tape.gradients(value)[x], 2.0 * x.data + 3.0)


def test_ops_without_tape_compute_values_only():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    y = ad.tanh(x)  # no active tape
    assert isinstance(y, ad.Tensor)
    np.testing.assert_allclose(y.data, np.tanh(x.data))
