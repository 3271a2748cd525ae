"""Scoring network: component oracles, equivariance, gradient checks."""

import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from bwsl import autodiff as ad
from bwsl import policy
from bwsl.autodiff import Tensor
from bwsl.errors import DataError, NonFiniteError, ShapeError
from bwsl.features import PreparedPanel, build_windows
from bwsl.market import SynthConfig, synth_market
from bwsl.policy import (
    ENCODER_PARAMS,
    PARAM_ORDER,
    SCORE_PARAMS,
    PolicyParams,
    WinnerScores,
    caan_forward,
    encode,
    history_attention,
    lstm_encode,
    own_score_grads,
    policy_forward,
    rank_distance,
    score,
    winner_scores,
)
from bwsl.portfolio import generate


def small_params(seed=0, hidden=6, embed=4, l_cols=8, q=4):
    return PolicyParams.init(
        np.random.default_rng(seed), hidden=hidden, embed=embed, l_cols=l_cols, q=q
    )


def zeroed(params):
    z = params.copy()
    for t in z.tensors().values():
        t.data = np.zeros_like(t.data)
    return z


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def reference_forward(windows, ranks, params):
    """Straightforward per-stock numpy recomputation of the whole network."""
    p = {n: t.data for n, t in params.tensors().items()}
    h_dim = params.hidden
    reps = []
    for x in windows:
        h = np.zeros(h_dim)
        c = np.zeros(h_dim)
        states = []
        for row in x:
            z = row @ p["lstm_wx"] + h @ p["lstm_wh"] + p["lstm_b"]
            gi = _sigmoid(z[0:h_dim])
            gf = _sigmoid(z[h_dim : 2 * h_dim])
            go = _sigmoid(z[2 * h_dim : 3 * h_dim])
            cand = np.tanh(z[3 * h_dim : 4 * h_dim])
            c = gf * c + gi * cand
            h = go * np.tanh(c)
            states.append(h)
        alphas = np.array(
            [p["att_w"] @ np.tanh(p["att_w1"].T @ s + p["att_w2"].T @ states[-1]) for s in states]
        )
        w = np.exp(alphas - alphas.max())
        w = w / w.sum()
        reps.append(sum(wk * sk for wk, sk in zip(w, states)))
    reps = np.array(reps)
    q_m, k_m, v_m = reps @ p["wq"], reps @ p["wk"], reps @ p["wv"]
    n = len(windows)
    prior_logits = p["rank_w"] @ p["rank_emb"]
    scores = np.zeros(n)
    for i in range(n):
        beta = np.zeros(n)
        for j in range(n):
            d = min(abs(int(ranks[i]) - int(ranks[j])) // params.q, params.l_cols - 1)
            psi = _sigmoid(prior_logits[d])
            beta[j] = psi * (q_m[i] @ k_m[j]) / np.sqrt(h_dim)
        w = np.exp(beta - beta.max())
        w = w / w.sum()
        a_i = w @ v_m
        scores[i] = _sigmoid(p["w_score"] @ a_i + float(p["b_score"]))
    return scores


def test_lstm_zero_params_gives_zero_states():
    params = zeroed(small_params())
    rng = np.random.default_rng(1)
    states = lstm_encode(rng.normal(size=(3, 4, 7)), params)
    for s in states:
        np.testing.assert_array_equal(s.data, 0.0)


def test_lstm_single_step_matches_gate_equations():
    params = small_params(2)
    x = np.random.default_rng(3).normal(size=(1, 1, 7))
    (state,) = lstm_encode(x, params)
    p = {n: t.data for n, t in params.tensors().items()}
    h_dim = params.hidden
    z = x[0, 0] @ p["lstm_wx"] + p["lstm_b"]
    expected = _sigmoid(z[2 * h_dim : 3 * h_dim]) * np.tanh(
        _sigmoid(z[0:h_dim]) * np.tanh(z[3 * h_dim : 4 * h_dim])
    )
    np.testing.assert_allclose(state.data[0], expected, atol=1e-12)


def test_lstm_random_case_matches_step_by_step_recomputation():
    params = small_params(4)
    rng = np.random.default_rng(5)
    windows = rng.normal(size=(2, 4, 7))
    states = lstm_encode(windows, params)
    p = {n: t.data for n, t in params.tensors().items()}
    h_dim = params.hidden
    for i in range(2):
        h = np.zeros(h_dim)
        c = np.zeros(h_dim)
        for k in range(4):
            z = windows[i, k] @ p["lstm_wx"] + h @ p["lstm_wh"] + p["lstm_b"]
            c = _sigmoid(z[h_dim : 2 * h_dim]) * c + _sigmoid(z[0:h_dim]) * np.tanh(
                z[3 * h_dim :]
            )
            h = _sigmoid(z[2 * h_dim : 3 * h_dim]) * np.tanh(c)
            np.testing.assert_allclose(states[k].data[i], h, atol=1e-12)


def test_history_attention_singleton_returns_the_state():
    params = small_params(6)
    state = Tensor(np.random.default_rng(7).normal(size=(3, params.hidden)))
    rep = history_attention([state], params)
    np.testing.assert_allclose(rep.data, state.data, atol=1e-12)


def test_history_attention_identical_states_is_identity():
    params = small_params(8)
    h = np.random.default_rng(9).normal(size=(2, params.hidden))
    rep = history_attention([Tensor(h)] * 5, params)
    np.testing.assert_allclose(rep.data, h, atol=1e-12)


def test_history_attention_matches_direct_formula():
    params = small_params(10)
    rng = np.random.default_rng(11)
    states = [Tensor(rng.normal(size=(1, params.hidden))) for _ in range(3)]
    rep = history_attention(states, params)
    p = {n: t.data for n, t in params.tensors().items()}
    alphas = np.array(
        [
            p["att_w"] @ np.tanh(s.data[0] @ p["att_w1"] + states[-1].data[0] @ p["att_w2"])
            for s in states
        ]
    )
    w = np.exp(alphas) / np.exp(alphas).sum()
    expected = sum(wk * s.data[0] for wk, s in zip(w, states))
    np.testing.assert_allclose(rep.data[0], expected, atol=1e-12)


def test_prior_weight_quantized_distance():
    assert rank_distance(np.array([10, 3]), q=4, l_cols=8)[0, 1] == 1


@pytest.mark.parametrize(
    "ranks",
    [[1.9, 2.2, 3.99], [1.0, np.nan, 3.0], [1.0, np.inf, 3.0], ["1", "2", "3"]],
    ids=["fractional", "nan", "inf", "strings"],
)
def test_non_integer_ranks_raise_data_error(ranks):
    # ranks used to be truncated: [1.9, 2.2, 3.99] scored exactly as [1, 2, 3]
    params = small_params(16)
    rep = np.random.default_rng(17).normal(size=(3, params.hidden))
    for fn in (
        lambda: caan_forward(Tensor(rep), ranks, params),
        lambda: rank_distance(ranks, params.q, params.l_cols),
    ):
        with pytest.raises(DataError, match="ranks"):
            fn()


def test_unsigned_ranks_of_2_to_the_63_or_more_raise_data_error():
    # the uint64 rank 2^64 - 1 used to wrap to -1, so its distance from
    # rank 1 read 2 instead of the clamped 3
    with pytest.raises(DataError, match="^ranks must be an array of whole numbers below 2\\^63"):
        rank_distance(np.array([1, 2**64 - 1], dtype=np.uint64), 1, 4)
    largest = np.array([1, 2**63 - 1], dtype=np.uint64)
    assert rank_distance(largest, 1, 4).tolist() == [[0, 3], [3, 0]]


@pytest.mark.parametrize(
    "q, l_cols, message",
    [(0, 4, "quantization step q must be at least 1"), (1, 0, "l_cols must be at least 1")],
    ids=["zero_step", "zero_width"],
)
def test_rank_distance_rejects_a_step_or_width_below_one(q, l_cols, message):
    # a zero step divided by zero and, past a warning, returned all zeros;
    # a zero width clamped every distance to -1, which take reads as the
    # last prior. The other entry points take q and L from PolicyParams,
    # which checks both, so only rank_distance is called here
    with pytest.raises(DataError, match=message):
        rank_distance([1, 2, 5], q, l_cols)


def test_integral_ranks_of_any_dtype_score_alike():
    params = small_params(18)
    rep = Tensor(np.random.default_rng(19).normal(size=(3, params.hidden)))
    expected = caan_forward(rep, np.array([1, 7, 3]), params).data
    for ranks in ([1.0, 7.0, 3.0], np.array([1, 7, 3], np.uint8), np.array([1, 7, 3], np.int32)):
        assert caan_forward(rep, ranks, params).data.tobytes() == expected.tobytes()


def test_prior_weight_clamps_to_embedding_width():
    params = small_params(13, l_cols=16)
    d = rank_distance(np.array([1, 100000]), q=params.q, l_cols=16)
    assert d[0, 1] == 15
    prior = ad.sigmoid(params["rank_w"] @ params["rank_emb"]).data
    assert 0.0 < prior[d[0, 1]] < 1.0


def test_caan_zero_query_yields_mean_of_values():
    params = small_params(14)
    params["wq"].data = np.zeros_like(params["wq"].data)
    rng = np.random.default_rng(15)
    rep = Tensor(rng.normal(size=(4, params.hidden)))
    out = caan_forward(rep, np.array([1, 2, 3, 4]), params)
    expected = np.tile((rep.data @ params["wv"].data).mean(axis=0), (4, 1))
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_caan_permutation_equivariance():
    params = small_params(16)
    rng = np.random.default_rng(17)
    rep = rng.normal(size=(5, params.hidden))
    ranks = np.array([2, 5, 1, 4, 3])
    out = caan_forward(Tensor(rep), ranks, params).data
    perm = rng.permutation(5)
    out_p = caan_forward(Tensor(rep[perm]), ranks[perm], params).data
    np.testing.assert_allclose(out_p, out[perm], atol=1e-12)


def test_caan_requires_two_stocks():
    params = small_params(18)
    with pytest.raises(ShapeError):
        caan_forward(Tensor(np.ones((1, params.hidden))), np.array([1]), params)


def test_winner_scores_zero_head_is_half():
    params = small_params(19)
    params["w_score"].data = np.zeros_like(params["w_score"].data)
    params["b_score"].data = np.zeros(())
    s = winner_scores(Tensor(np.random.default_rng(20).normal(size=(3, params.hidden))), params)
    np.testing.assert_allclose(s.data, 0.5, atol=1e-15)


def test_winner_scores_monotone_in_bias():
    params = small_params(21)
    a = Tensor(np.random.default_rng(22).normal(size=(3, params.hidden)))
    params["b_score"].data = np.asarray(0.0)
    low = winner_scores(a, params).data.copy()
    params["b_score"].data = np.asarray(2.0)
    high = winner_scores(a, params).data
    assert np.all(high > low)


def test_policy_forward_matches_reference_recomputation():
    params = small_params(23)
    rng = np.random.default_rng(24)
    windows = rng.normal(size=(4, 3, 7))
    scores = policy_forward(windows, params).data
    np.testing.assert_allclose(scores, reference_forward(windows, np.arange(1, 5), params), atol=1e-12)
    assert np.all((scores > 0) & (scores < 1))


def test_policy_forward_identical_inputs_give_identical_scores():
    params = small_params(25)
    one = np.random.default_rng(26).normal(size=(3, 7))
    windows = np.stack([one] * 4)
    # the rows' ranks differ, so each row weighs the values by its own
    # prior, but every value row is the same: so are the scores
    scores = policy_forward(windows, params).data
    assert scores.shape == (4,)
    np.testing.assert_allclose(scores, scores[0], atol=1e-12)


def test_policy_forward_end_to_end_permutation_equivariance():
    # the reference network is equivariant under a joint permutation of
    # windows and ranks; the fused one reads row i as rank i + 1, so
    # scoring windows[perm] is scoring the windows with ranks
    # argsort(perm) + 1, row for row in perm's order
    params = small_params(27)
    rng = np.random.default_rng(28)
    n = 16
    windows = rng.normal(size=(n, 6, 7))
    for _ in range(10):
        perm = rng.permutation(n)
        permuted = policy_forward(windows[perm], params).data
        unpermuted = reference_forward(windows, 1 + np.argsort(perm), params)
        assert np.max(np.abs(permuted - unpermuted[perm])) <= 1e-10


def test_policy_gradients_match_finite_differences():
    params = small_params(29, hidden=8, embed=4, l_cols=8)
    rng = np.random.default_rng(30)
    windows = rng.normal(size=(5, 4, 7))
    worst = 0.0
    for name in PARAM_ORDER:
        original = params[name]

        def score_one(t, name=name):
            swapped = dict(params.tensors())
            swapped[name] = t
            trial = PolicyParams(swapped, params.q)
            return policy_forward(windows, trial)[0]

        worst = max(
            worst,
            ad.finite_diff_check(
                score_one, original, eps=1e-6, max_coords=12, rng=rng
            ),
        )
    assert worst <= 1e-4


def test_encode_rows_depend_only_on_their_own_window():
    # interpret's split at encode() is exact only while the encoder is row
    # separable; any cross-stock op before the cross-asset attention breaks it
    params = small_params(41)
    rng = np.random.default_rng(42)
    windows = rng.normal(size=(5, 4, 7))
    base = encode(windows, params).data
    for j in range(5):
        bumped = windows.copy()
        bumped[j] += rng.normal(size=(4, 7))
        rep = encode(bumped, params).data
        others = [i for i in range(5) if i != j]
        np.testing.assert_array_equal(rep[others], base[others])
        assert not np.array_equal(rep[j], base[j])


def test_encode_and_score_gradients_match_finite_differences():
    params = small_params(45, hidden=8)
    rng = np.random.default_rng(46)
    windows = Tensor(rng.normal(size=(5, 4, 7)), requires_grad=True)
    rep = Tensor(encode(windows, params).data, requires_grad=True)
    cot = rng.normal(size=rep.shape)
    worst = max(
        ad.finite_diff_check(
            lambda x: (encode(x, params) * Tensor(cot)).sum(), windows, eps=1e-6,
            max_coords=30, rng=rng,
        ),
        ad.finite_diff_check(lambda r: score(r, params)[2], rep, eps=1e-6),
    )
    assert worst <= 1e-4


def _unfused_encode(x, params):
    return history_attention(lstm_encode(x, params), params)


def _encode_and_grads(encoder, windows, params, cot):
    """Representation, then the gradients of sum(rep * cot) w.r.t. the
    windows and the six encoder parameters, from one backward."""
    x = Tensor(windows, requires_grad=True)
    tape = ad.Tape()
    with tape:
        rep = encoder(x, params)
        root = (rep * Tensor(cot)).sum()
    grads = tape.gradients(root)
    return [rep.data, grads[x]] + [grads[params[n]] for n in ENCODER_PARAMS]


@pytest.mark.parametrize(
    "i, k, f, h",
    [
        (5, 4, 7, 6), (1, 1, 7, 6), (3, 1, 5, 4), (1, 6, 3, 8), (6, 12, 7, 8), (2, 3, 9, 5),
        (200, 12, 7, 32),
    ],
    ids=["small", "one_stock_one_step", "one_step_f5", "one_stock_f3", "paper_k", "f9", "paper"],
)
def test_fused_encode_matches_the_unfused_composition(i, k, f, h):
    # the fused op sums in another order, so entries that are the small
    # remainder of a cancelling sum differ by more than 1e-12 of themselves;
    # the tolerance is 1e-12 of each array's largest magnitude
    params = PolicyParams.init(np.random.default_rng(60 + k), n_features=f, hidden=h)
    rng = np.random.default_rng(61 + i)
    windows = rng.normal(size=(i, k, f))
    cot = rng.normal(size=(i, h))
    fused = _encode_and_grads(encode, windows, params, cot)
    oracle = _encode_and_grads(_unfused_encode, windows, params, cot)
    for name, got, want in zip(("rep", "windows") + ENCODER_PARAMS, fused, oracle):
        assert got.shape == want.shape, name
        scale = np.max(np.abs(want), initial=0.0)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale, err_msg=name)


def test_encoder_params_are_the_lstm_and_history_attention_tensors():
    assert ENCODER_PARAMS == ("lstm_wx", "lstm_wh", "lstm_b", "att_w1", "att_w2", "att_w")


def test_encode_is_one_tape_record():
    params = small_params(62)
    x = Tensor(np.random.default_rng(63).normal(size=(4, 5, 7)), requires_grad=True)
    tape = ad.Tape()
    with tape:
        encode(x, params)
    assert len(tape) == 1


def test_untaped_and_taped_encode_give_bitwise_equal_representations(workspace):
    # the backtest encodes with no tape, into fresh arrays; training and
    # interpretation record it, into workspace buffers
    params = small_params(82)
    rng = np.random.default_rng(83)
    for windows in (rng.normal(size=(9, 12, 7)), rng.normal(size=(4, 12, 7))):
        untaped = encode(windows, params).data
        tape = ad.Tape()
        with tape:
            taped = encode(Tensor(windows, requires_grad=True), params).data
        assert taped.tobytes() == untaped.tobytes()
        del tape  # a second pass reads a prefix of the returned spare buffers


@pytest.mark.parametrize("k_steps", [1, 2, 12])
@pytest.mark.parametrize("n_stocks", [2, 3, 100, 800])
def test_untaped_encode_equals_the_recorded_one_bitwise(n_stocks, k_steps):
    # the untaped forward rewrites one gate slab and one cell slab at every
    # step; the recorded one keeps all K of each for the backward sweep
    params = PolicyParams.init(84)
    windows = np.random.default_rng(85).normal(size=(n_stocks, k_steps, params.n_features))
    untaped = encode(windows, params).data
    with ad.Tape():
        taped = encode(Tensor(windows, requires_grad=True), params).data
    assert taped.tobytes() == untaped.tobytes()


def test_an_untaped_encode_keeps_no_backward_caches():
    # I=800, K=12, H=32: the four (K, ., I) caches alone take 17.2 MB; the
    # untaped call keeps the full states and tanh layer (4.9 MB) and one
    # gate and one cell slab (1.0 MB)
    params = PolicyParams.init(86, hidden=32)
    windows = np.random.default_rng(87).normal(size=(800, 12, params.n_features))
    encode(windows, params)
    tracemalloc.start()
    try:
        encode(windows, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9e6


def test_encode_values_and_gradients_repeat_bitwise():
    params = small_params(64)
    rng = np.random.default_rng(65)
    windows = rng.normal(size=(5, 6, 7))
    cot = rng.normal(size=(5, params.hidden))
    first = _encode_and_grads(encode, windows, params, cot)
    second = _encode_and_grads(encode, windows, params, cot)
    for a, b in zip(first, second):
        assert a.tobytes() == b.tobytes()


def _count_calls(monkeypatch, name):
    """Patch ``policy.<name>`` to record the cotangent of each call."""
    calls, real = [], getattr(policy, name)

    def counted(g, *args):
        calls.append(g)
        return real(g, *args)

    monkeypatch.setattr(policy, name, counted)
    return calls


def test_each_backward_over_one_encode_record_sweeps_its_own_cotangent(monkeypatch):
    params = small_params(68)
    rng = np.random.default_rng(69)
    windows = rng.normal(size=(4, 5, 7))
    cots = [rng.normal(size=(4, params.hidden)) for _ in range(2)]
    expected = [_encode_and_grads(encode, windows, params, c)[1:] for c in cots]
    sweeps = _count_calls(monkeypatch, "_encode_sweep")
    x = Tensor(windows, requires_grad=True)
    tape = ad.Tape()
    with tape:
        rep = encode(x, params)
        roots = [(rep * Tensor(c)).sum() for c in cots]
    for passes, (root, want) in enumerate(zip(roots, expected), start=1):
        grads = tape.gradients(root)
        # one sweep per backward, shared by all seven VJPs
        assert len(sweeps) == passes
        got = [grads[x]] + [grads[params[n]] for n in ENCODER_PARAMS]
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


_ROLES = {"act", "cells", "stack", "u", "d_gates", "d_states", "d_pre"}


@pytest.fixture
def workspace():
    """This thread's encoder workspace, emptied before the test."""
    spare = policy._spare()
    spare.clear()
    return spare


def _addresses(spare):
    return {role: (buf.__array_interface__["data"][0], buf.size) for role, buf in spare.items()}


def test_two_live_encode_records_on_one_tape_match_separate_tapes(workspace):
    params = small_params(70)
    rng = np.random.default_rng(71)
    windows = [rng.normal(size=(4, 5, 7)), rng.normal(size=(4, 5, 7))]
    cots = [rng.normal(size=(4, params.hidden)) for _ in windows]
    # separate tapes first, so the workspace holds a spare set to hand out
    expected = [_encode_and_grads(encode, w, params, c) for w, c in zip(windows, cots)]
    assert set(workspace) == _ROLES
    xs = [Tensor(w, requires_grad=True) for w in windows]
    tape = ad.Tape()
    with tape:
        reps = [encode(x, params) for x in xs]
        roots = [(r * Tensor(c)).sum() for r, c in zip(reps, cots)]
    for x, rep, root, want in zip(xs, reps, roots, expected):
        grads = tape.gradients(root)
        got = [rep.data, grads[x]] + [grads[params[n]] for n in ENCODER_PARAMS]
        assert len(got) == len(want) == 8
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


def test_a_dropped_tape_hands_its_buffers_to_the_next_recorded_encode(workspace):
    params = small_params(72)
    rng = np.random.default_rng(73)
    windows, cot = rng.normal(size=(4, 5, 7)), rng.normal(size=(4, params.hidden))
    _encode_and_grads(encode, windows, params, cot)
    assert set(workspace) == _ROLES
    first = _addresses(workspace)
    x = Tensor(windows, requires_grad=True)
    tape = ad.Tape()
    with tape:
        rep = encode(x, params)
        root = (rep * Tensor(cot)).sum()
    tape.gradients(root)
    assert not workspace  # every buffer is leased while the record lives
    del tape, rep, root  # no gc.collect(): reference counting frees the record
    assert _addresses(workspace) == first


def test_an_untaped_encode_leaves_the_workspace_untouched(workspace):
    params = small_params(74)
    rng = np.random.default_rng(75)
    windows = rng.normal(size=(6, 5, 7))
    encode(windows, params)
    assert not workspace
    _encode_and_grads(encode, windows[:3], params, rng.normal(size=(3, params.hidden)))
    before = _addresses(workspace)
    encode(windows, params)
    assert _addresses(workspace) == before


def test_a_smaller_universe_after_a_larger_one_is_bitwise_a_fresh_run(workspace):
    params = small_params(76)
    rng = np.random.default_rng(77)
    small, large = rng.normal(size=(100, 12, 7)), rng.normal(size=(200, 12, 7))
    cot_small, cot_large = rng.normal(size=(100, params.hidden)), rng.normal(size=(200, params.hidden))
    fresh = _encode_and_grads(encode, small, params, cot_small)
    workspace.clear()
    _encode_and_grads(encode, large, params, cot_large)
    sizes = {role: buf.size for role, buf in workspace.items()}
    after = _encode_and_grads(encode, small, params, cot_small)
    assert {role: buf.size for role, buf in workspace.items()} == sizes  # prefix views
    for a, b in zip(fresh, after):
        assert a.tobytes() == b.tobytes()


def test_one_buffer_per_role_the_largest_outlives_a_many_record_tape(workspace):
    params = small_params(78)
    rng = np.random.default_rng(79)
    tape = ad.Tape()
    with tape:
        reps = [encode(Tensor(rng.normal(size=(i, 5, 7)), requires_grad=True), params)
                for i in (3, 9, 4, 2, 9, 5, 6, 3, 8, 7, 2, 4)]
        root = sum((r.sum() for r in reps[1:]), reps[0].sum())
    tape.gradients(root)
    del tape, reps, root
    assert set(workspace) == _ROLES
    k, h = 5, params.hidden
    widths = {"act": 4 * h, "d_gates": 4 * h}
    for role, buf in workspace.items():
        if role == "stack":  # K + 1 blocks of [x_k; h_{k-1}; 1]
            assert buf.size == (k + 1) * 9 * (7 + h + 1), role
        else:
            assert buf.size == k * 9 * widths.get(role, h), role


def test_threads_each_reuse_their_own_workspace_and_release_across_threads(workspace):
    # each worker records, backpropagates and drops its own tapes, and also
    # drops tapes recorded on the main thread, whose buffers go back to the
    # main thread's workspace while that thread keeps recording
    params = small_params(80)
    rng = np.random.default_rng(81)
    cases = [(rng.normal(size=(i, 5, 7)), rng.normal(size=(i, params.hidden))) for i in (3, 6, 4)]
    expected = [_encode_and_grads(encode, w, params, c) for w, c in cases]
    handed = [[] for _ in range(4)]
    failures = []

    def worker(j):
        try:
            for n in range(30):
                if handed[j]:
                    handed[j].pop()  # drop a main-thread tape here
                w, c = cases[(j + n) % len(cases)]
                got = _encode_and_grads(encode, w, params, c)
                want = expected[(j + n) % len(cases)]
                if any(a.tobytes() != b.tobytes() for a, b in zip(got, want)):
                    failures.append((j, n))
        except Exception as e:  # reported below; a thread's exception is otherwise lost
            failures.append((j, repr(e)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for j in range(4):
            tape = ad.Tape()
            with tape:
                encode(Tensor(cases[j % 3][0], requires_grad=True), params)
            handed[j].append(tape)
        del tape
        threads = [threading.Thread(target=worker, args=(j,)) for j in range(4)]
        for t in threads:
            t.start()
        for n in range(30):
            w, c = cases[n % len(cases)]
            got = _encode_and_grads(encode, w, params, c)
            if any(a.tobytes() != b.tobytes() for a, b in zip(got, expected[n % len(cases)])):
                failures.append(("main", n))
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures
    assert set(workspace) == _ROLES


def _overflowing_input_projection(params):
    windows = np.random.default_rng(66).normal(size=(3, 4, 7))
    windows[1, 0, :] = 1e308
    params["lstm_wx"].data = np.ones_like(params["lstm_wx"].data)
    return windows, params, "step 0"


def _overflowing_recurrence(params):
    # zero windows and a positive candidate bias make every h_0 entry
    # positive, so h_0 @ Wh overflows at step 1
    params["lstm_b"].data = np.ones_like(params["lstm_b"].data)
    params["lstm_wh"].data = np.full_like(params["lstm_wh"].data, 1e308)
    return np.zeros((3, 4, 7)), params, "step 1"


@pytest.mark.parametrize("case", [_overflowing_input_projection, _overflowing_recurrence])
@pytest.mark.parametrize("encoder", [encode, _unfused_encode], ids=["fused", "unfused"])
def test_overflowing_gate_pre_activations_raise_non_finite(case, encoder):
    windows, params, step = case(small_params(67))
    match = f"at {step}" if encoder is encode else "matmul"
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError, match=match):
        encoder(windows, params)


def _primitive_score(rep, params):
    """The reference composition on ranks 1..I: the fused score reads row i
    as the stock of rank i + 1."""
    return winner_scores(caan_forward(rep, np.arange(1, rep.shape[0] + 1), params), params)


def _score_and_grads(scorer, rep, params, cot):
    """Scores, then the gradients of sum(scores * cot) w.r.t. the
    representations and the seven head parameters, from one backward."""
    x = Tensor(rep, requires_grad=True)
    tape = ad.Tape()
    with tape:
        scores = scorer(x, params)
        root = (scores * Tensor(cot)).sum()
    grads = tape.gradients(root)
    return [scores.data, grads[x]] + [grads[params[n]] for n in SCORE_PARAMS]


_SCORE_CASES = {
    # name: (I, q, L)
    "two_stocks": (2, 4, 8),
    "q_one": (6, 1, 8),
    "wider_than_q_l": (40, 2, 8),  # I > q(L-1): the last bin is reached
    "one_bin": (4, 3, 1),
    "paper_width": (40, 4, 16),
    "partial_block": (5, 1, 4),
    "huge_q": (3, 2**63 - 1, 16),
}


@pytest.mark.parametrize("block", [1 << 14, 12], ids=["one_block", "row_blocks"])
@pytest.mark.parametrize("case", list(_SCORE_CASES), ids=list(_SCORE_CASES))
def test_fused_score_matches_the_primitive_composition(case, block, monkeypatch):
    # 12 elements per block splits every case of four or more stocks into
    # row blocks of the rank prior's gradient, the last one partial for
    # I = 4 and 5
    monkeypatch.setattr(policy, "_PRIOR_BLOCK", block)
    n, q, l_cols = _SCORE_CASES[case]
    params = small_params(70 + n, hidden=6, embed=4, l_cols=l_cols, q=q)
    rng = np.random.default_rng(71 + n)
    rep = rng.normal(size=(n, params.hidden))
    cot = rng.normal(size=n)
    untaped = score(Tensor(rep), params).data
    assert untaped.tobytes() == _primitive_score(Tensor(rep), params).data.tobytes()
    fused = _score_and_grads(score, rep, params, cot)
    oracle = _score_and_grads(_primitive_score, rep, params, cot)
    assert fused[0].tobytes() == oracle[0].tobytes()
    for name, got, want in zip(("rep",) + SCORE_PARAMS, fused[1:], oracle[1:]):
        assert got.shape == want.shape, name
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=name)


def test_score_params_are_the_attention_and_head_tensors():
    assert SCORE_PARAMS == ("wq", "wk", "wv", "w_score", "b_score", "rank_emb", "rank_w")
    assert ENCODER_PARAMS + SCORE_PARAMS == PARAM_ORDER


def test_score_is_one_tape_record():
    params = small_params(72)
    rep = Tensor(np.random.default_rng(73).normal(size=(5, params.hidden)), requires_grad=True)
    tape = ad.Tape()
    with tape:
        score(rep, params)
    assert len(tape) == 1


def test_score_values_and_gradients_repeat_bitwise():
    params = small_params(74)
    rng = np.random.default_rng(75)
    rep = rng.normal(size=(9, params.hidden))
    cot = rng.normal(size=9)
    first = _score_and_grads(score, rep, params, cot)
    second = _score_and_grads(score, rep, params, cot)
    for a, b in zip(first, second):
        assert a.tobytes() == b.tobytes()


def test_each_backward_over_one_score_record_sweeps_its_own_cotangent(monkeypatch):
    params = small_params(78)
    rng = np.random.default_rng(79)
    rep = rng.normal(size=(6, params.hidden))
    cots = [rng.normal(size=6) for _ in range(2)]
    expected = [_score_and_grads(score, rep, params, c)[1:] for c in cots]
    sweeps = _count_calls(monkeypatch, "_score_sweep")
    x = Tensor(rep, requires_grad=True)
    tape = ad.Tape()
    with tape:
        scores = score(x, params)
        roots = [(scores * Tensor(c)).sum() for c in cots]
    for passes, (root, want) in enumerate(zip(roots, expected), start=1):
        grads = tape.gradients(root)
        # one sweep per backward, shared by all eight VJPs
        assert len(sweeps) == passes
        got = [grads[x]] + [grads[params[n]] for n in SCORE_PARAMS]
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


def _positive_rows(params):
    return np.abs(np.random.default_rng(77).normal(size=(4, params.hidden))) + 1.0


def _overflowing_values(params):
    params["wv"].data = np.full_like(params["wv"].data, 1e308)
    return _positive_rows(params), "attended values"


def _overflowing_head(params):
    # finite attended values whose head logits overflow; sigmoid(inf) = 1
    # is finite, so only a check before the sigmoid sees it
    params["wv"].data = np.full_like(params["wv"].data, 1e300)
    params["w_score"].data = np.full_like(params["w_score"].data, 1e300)
    return _positive_rows(params), "head logits"


def _overflowing_logits(params):
    # orthogonal rows: only the diagonal logits overflow, to -inf, so every
    # row maximum stays finite and the softmax alone would give weight 0
    params["wq"].data = 1e160 * np.eye(params.hidden)
    params["wk"].data = -1e160 * np.eye(params.hidden)
    return np.eye(params.hidden)[:4], "attention logits"


def _overflowing_prior(params):
    params["rank_w"].data = np.full_like(params["rank_w"].data, 1e300)
    params["rank_emb"].data = np.full_like(params["rank_emb"].data, 1e300)
    return _positive_rows(params), "rank-prior logits"


@pytest.mark.parametrize(
    "case", [_overflowing_values, _overflowing_head, _overflowing_logits, _overflowing_prior]
)
@pytest.mark.parametrize(
    "scorer",
    [score, _primitive_score, lambda rep, params: own_score_grads(rep.data, params)],
    ids=["fused", "primitive", "own_score_grads"],
)
def test_overflow_in_the_score_raises_non_finite(case, scorer):
    params = small_params(76)
    rep, what = case(params)
    match = f"score: non-finite {what}" if scorer is not _primitive_score else "matmul"
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError, match=match):
        scorer(Tensor(rep), params)


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("windows", ["zero", "random"])
@pytest.mark.parametrize("name", PARAM_ORDER)
def test_a_non_finite_parameter_raises_non_finite_naming_it(name, windows, bad):
    # an inf weight once gave NumPy's RuntimeWarning from a matmul (in the
    # encoder's weights, and in wv), or, in att_w1 or att_w2 over random
    # windows, finite scores with no error at all
    params = small_params(130)
    data = params[name].data.copy()
    data.flat[0] = bad
    params[name].data = data  # a direct edit, which apply_update never sees
    rng = np.random.default_rng(131)
    x = np.zeros((4, 3, 7)) if windows == "zero" else rng.normal(size=(4, 3, 7))
    caller = "encode" if name in ENCODER_PARAMS else "score"
    message = f"^{caller}: non-finite values in parameter {name}$"
    with pytest.raises(NonFiniteError, match=message):
        policy_forward(x, params)
    if name in SCORE_PARAMS:
        with pytest.raises(NonFiniteError, match=message):
            own_score_grads(rng.normal(size=(4, params.hidden)), params)


def _replayed_own_score_grads(rep, params):
    """Oracle: one tape over ``score``, replayed once per stock, keeping row i."""
    leaf = Tensor(rep, requires_grad=True)
    tape = ad.Tape()
    with tape:
        scores = score(leaf, params)
        roots = [scores[i] for i in range(len(rep))]
    return np.stack([tape.gradients(r)[leaf][i] for i, r in enumerate(roots)])


_REP_RNG = np.random.default_rng(47)
_SAME_ROWS = _REP_RNG.normal(size=(4, 6))
_SAME_ROWS[3] = _SAME_ROWS[1]


@pytest.mark.parametrize(
    "rep, q",
    [
        (_REP_RNG.normal(size=(2, 6)), 4),  # I = 2
        (_REP_RNG.normal(size=(12, 6)), 1),  # rank distances past the last bin
        (_SAME_ROWS, 4),  # two identical representation rows
        (_REP_RNG.normal(size=(3, 6)), 2**63 - 1),  # q near 2^63
    ],
    ids=["two_stocks", "clamped_distance", "identical_rows", "huge_q"],
)
def test_own_score_grads_match_per_stock_replays_of_score(rep, q):
    params = small_params(48, q=q)
    d = rank_distance(np.arange(1, len(rep) + 1), params.q, params.l_cols)
    if len(rep) > params.q * params.l_cols:
        assert d.max() == params.l_cols - 1
    expected = _replayed_own_score_grads(rep, params)
    np.testing.assert_allclose(own_score_grads(rep, params), expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "rep", [np.ones((1, 6)), np.ones((3, 5))], ids=["single_stock", "wrong_width"]
)
def test_own_score_grads_raise_the_caan_shape_errors(rep):
    params = small_params(49)
    with pytest.raises(ShapeError) as caan_error:
        caan_forward(Tensor(rep), np.arange(1, len(rep) + 1), params)
    with pytest.raises(ShapeError, match=f"^{re.escape(str(caan_error.value))}$"):
        own_score_grads(rep, params)
    with pytest.raises(ShapeError, match=f"^{re.escape(str(caan_error.value))}$"):
        score(Tensor(rep), params)


@pytest.mark.parametrize(
    "ranks, message",
    [([1, 2], "misaligned"), ([[1], [2], [3]], "1-d")],  # len() matches, so only a 1-d check catches it
    ids=["misaligned_ranks", "two_d_ranks"],
)
def test_caan_forward_rejects_ranks_not_one_per_stock(ranks, message):
    with pytest.raises(ShapeError, match=message):
        caan_forward(Tensor(np.ones((3, 6))), ranks, small_params(49))


def test_own_score_grads_record_nothing_on_an_active_tape():
    params = small_params(50)
    rep = np.random.default_rng(51).normal(size=(4, 6))
    tape = ad.Tape()
    with tape:
        own_score_grads(rep, params)
    assert len(tape) == 0


# psi is Toeplitz in row order: with q=1 and L=6, each distance below 5
# has its own bin, and the last bin starts at 5
_BAND_C = 5
_BAND_SIZES = [2 * _BAND_C - 2, 2 * _BAND_C - 1, 2 * _BAND_C + 1, 3 * _BAND_C]


def _band_case(n, seed):
    params = small_params(seed, hidden=4, embed=3, l_cols=_BAND_C + 1, q=1)
    rng = np.random.default_rng(seed + 1)
    return params, rng.normal(size=(n, params.hidden)), rng


@pytest.mark.parametrize("n", _BAND_SIZES)
def test_banded_score_matches_the_primitive_composition(n):
    params, rep, rng = _band_case(n, 90 + n)
    cot = rng.normal(size=n)
    fused = _score_and_grads(score, rep, params, cot)
    oracle = _score_and_grads(_primitive_score, rep, params, cot)
    assert fused[0].tobytes() == oracle[0].tobytes()
    for name, got, want in zip(("scores", "rep") + SCORE_PARAMS, fused, oracle):
        assert got.shape == want.shape, name
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=name)


@pytest.mark.parametrize("n", _BAND_SIZES[1:])
def test_banded_score_gradients_match_finite_differences(n):
    params, rep, rng = _band_case(n, 95 + n)
    cot = Tensor(rng.normal(size=n))
    worst = ad.finite_diff_check(
        lambda r: (score(r, params) * cot).sum(), Tensor(rep, requires_grad=True), eps=1e-6
    )
    for name in SCORE_PARAMS:

        def weighted(t, name=name):
            swapped = dict(params.tensors())
            swapped[name] = t
            return (score(Tensor(rep), PolicyParams(swapped, params.q)) * cot).sum()

        worst = max(worst, ad.finite_diff_check(weighted, params[name], eps=1e-6))
    assert worst <= 1e-6


@pytest.mark.parametrize("n", _BAND_SIZES)
def test_banded_own_score_grads_match_per_stock_replays_of_score(n):
    params, rep, _ = _band_case(n, 100 + n)
    expected = _replayed_own_score_grads(rep, params)
    np.testing.assert_allclose(own_score_grads(rep, params), expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [2, 3, 2 * _BAND_C - 2, 2 * _BAND_C + 1, 3 * _BAND_C])
def test_the_psi_view_multiplies_bitwise_as_the_walk(n):
    # the walk gathers each row of psi from the reference's bins for ranks
    # 1..I; the view reads the same entries from bin(m), m = -(I-1) .. I-1
    rng = np.random.default_rng(115 + n)
    table = rng.uniform(size=_BAND_C + 1)
    src = rng.normal(size=(n, n))
    want = rank_distance(np.arange(1, n + 1), 1, table.size)
    walked = np.stack([src[i] * table[want[i]] for i in range(n)])
    bins = policy._rank_bins(np.arange(1 - n, n), 1, table.size)
    assert policy._toeplitz(bins).tolist() == want.tolist()
    psi = policy._toeplitz(table[bins])
    assert psi.shape == (n, n) and not psi.flags.writeable
    src *= psi  # in place, as the forward multiplies the logits
    assert src.tobytes() == walked.tobytes()


@pytest.mark.parametrize("q", [1, 3, 2**63 - 1], ids=["q_one", "q_three", "q_huge"])
@pytest.mark.parametrize(
    "ranks",
    [[1, 4, 4, 9, 2, 9, 4], [5, 1, 1000, 2**62, -3], list(range(12, 0, -1))],
    ids=["ties", "gaps", "consecutive"],
)
def test_the_bin_rule_is_rank_distance(ranks, q):
    l_cols = 5
    want = [[min(abs(a - b) // q, l_cols - 1) for b in ranks] for a in ranks]
    ranks = np.asarray(ranks)
    diff = np.subtract.outer(ranks, ranks)
    assert policy._rank_bins(diff, q, l_cols) is diff  # written over its input
    assert diff.tolist() == want
    assert rank_distance(ranks, q, l_cols).tolist() == want


def test_the_prior_table_has_one_entry_per_bin():
    params = small_params(132, q=2**63 - 1)
    rng = np.random.default_rng(133)
    for n in (2, 3, 40):
        r, head = policy._score_setup(rng.normal(size=(n, params.hidden)), params)
        prior = policy._score_forward(r, head, params.q)[1][5]
        assert prior.shape == (params.l_cols,)


def test_banded_and_primitive_scores_pick_the_same_legs_in_a_backtest():
    panel = synth_market(SynthConfig(300, 30, seed=5))
    prep = PreparedPanel(panel, 12)
    params = PolicyParams.init(5)
    for t in prep.tradable_times[:3]:
        ws = prep.windows(t)
        rep = encode(ws.features, params)
        legs = []
        for values in (score(rep, params), _primitive_score(rep, params)):
            pair = generate(WinnerScores(ws.stock_ids, values.data), len(ws) // 4)
            legs.append((pair.long_indices, pair.short_indices))
        assert legs[0] == legs[1]


@pytest.mark.parametrize("n", [2, 3, 100, 800])
def test_a_window_set_scores_bitwise_as_the_primitive_composition(n):
    # its stocks come in rank order, so score's row i is the stock of the
    # window set's rank i + 1
    from test_features import panel_from_closes

    rng = np.random.default_rng(140 + n)
    closes = np.exp(rng.normal(0, 0.05, size=(n, 14))).cumprod(axis=1) * 20
    fields = {
        name: np.exp(rng.normal(0, 0.3, size=(n, 14)))
        for name in ("vol", "volume", "mcap", "pe", "bm", "div")
    }
    panel = panel_from_closes(closes, ids=[f"S{i}" for i in rng.permutation(n)], **fields)
    ws = build_windows(panel, panel.end, 12)
    assert len(ws) == n and ws.ranks.tolist() == list(range(1, n + 1))
    params = PolicyParams.init(141 + n)
    rep = encode(ws.features, params)
    fused = score(rep, params).data
    primitive = winner_scores(caan_forward(rep, ws.ranks, params), params)
    assert fused.tobytes() == primitive.data.tobytes()


@pytest.mark.parametrize("n", [2, 100, 800])
def test_the_finiteness_bound_changes_no_bit_of_values_caches_or_gradients(n, monkeypatch):
    # the forwards skip their per-step and (I, I) finiteness passes when a
    # bound rules out overflow; forced off, every check runs
    params = PolicyParams.init(120 + n)
    rng = np.random.default_rng(121 + n)
    windows = rng.normal(size=(n, 12, params.n_features))
    cot = Tensor(rng.normal(size=n))
    leaves = [params[name] for name in PARAM_ORDER]

    def run():
        p = {name: params[name].data for name in ENCODER_PARAMS}
        rep, cache = policy._encode_forward(windows, p, lambda role, shape: np.empty(shape))
        r, head = policy._score_setup(rep, params)
        out = [rep, *cache, *policy._score_forward(r, head, params.q)[1]]
        x = Tensor(windows, requires_grad=True)
        tape = ad.Tape()
        with tape:
            scores = policy_forward(x, params)
            grads = tape.gradients((scores * cot).sum())
        return out + [scores.data, grads[x]] + [grads[t] for t in leaves]

    bounded = run()
    monkeypatch.setattr(policy, "_OVERFLOW_FREE", 0.0)
    checked = run()
    assert len(bounded) == len(checked)
    for a, b in zip(bounded, checked):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_a_step_or_width_too_large_for_int64_raises_data_error(tmp_path):
    # q and rank_distance's L once went unchecked above: a q of 2^63 or more
    # made the // q of score, own_score_grads, caan_forward and
    # rank_distance raise a bare OverflowError, and so did the clamp to
    # L - 1 for an L above 2^63
    with pytest.raises(DataError, match="^rank_distance: l_cols must be at most 9223372036854775808,"):
        rank_distance([1, 2], 1, 2**63 + 1)
    assert rank_distance([1, 2], 1, 2**63).tolist() == [[0, 1], [1, 0]]
    message = "^quantization step q must be at most 9223372036854775807"
    for q in (2**63, 10**20):
        with pytest.raises(DataError, match=message):
            PolicyParams.init(0, q=q)
        with pytest.raises(DataError, match=message):
            rank_distance([1, 2], q, 4)
        path = tmp_path / "q.ckpt"
        PolicyParams.init(0).save(path)
        text = path.read_text().replace("q=4\n", f"q={q}\n")
        path.write_text(text)
        with pytest.raises(DataError, match=message):
            PolicyParams.load(path)
    params = PolicyParams.init(0, q=2**63 - 1)
    rep = np.random.default_rng(113).normal(size=(3, params.hidden))
    values = score(Tensor(rep), params).data
    assert values.tobytes() == _primitive_score(Tensor(rep), params).data.tobytes()
    own_score_grads(rep, params)
    assert not rank_distance([1, 2, 3], params.q, params.l_cols).any()


def test_ranks_whose_difference_would_wrap_raise_data_error():
    # 2^62 - (-2^62) wraps to -2^63 in int64: the pair scored bitwise as
    # tied ranks [1, 1], rank_distance returned -2^61, and caan_forward
    # raised a ShapeError from take
    params = small_params(110)
    rep = np.random.default_rng(111).normal(size=(2, params.hidden))
    ranks = [2**62, -(2**62)]
    for fn in (
        lambda r: caan_forward(Tensor(rep), r, params),
        lambda r: rank_distance(r, params.q, params.l_cols),
    ):
        with pytest.raises(DataError, match="^ranks must lie less than 2\\^63 apart"):
            fn(ranks)
    widest = [2**62, 1 - 2**62]  # 2^63 - 1 apart
    assert rank_distance(widest, 1, 4).tolist() == [[0, 3], [3, 0]]


def test_the_prior_table_is_sized_by_the_universe_not_by_q():
    # the table once held q(L-1)+1 entries: at q=10**6 one 10-stock score
    # took 308 ms and 230 MB
    params = PolicyParams.init(0, q=10**6)
    rep = Tensor(np.random.default_rng(112).normal(size=(10, params.hidden)))
    score(rep, params)
    tracemalloc.start()
    try:
        score(rep, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    params = small_params(31)
    path = tmp_path / "ckpt.txt"
    params.save(path)
    loaded = PolicyParams.load(path)
    assert loaded.q == params.q
    for name in PARAM_ORDER:
        assert loaded[name].data.tobytes() == params[name].data.tobytes()
        assert loaded[name].shape == params[name].shape
    # and the file itself re-serializes identically
    path2 = tmp_path / "ckpt2.txt"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("where", ["missing_directory", "directory"])
def test_checkpoint_save_to_an_unwritable_path_raises_data_error(tmp_path, where):
    # a path in a missing directory used to raise a bare FileNotFoundError
    path = tmp_path / "absent" / "ckpt.txt" if where == "missing_directory" else tmp_path
    with pytest.raises(DataError, match="^cannot write checkpoint "):
        small_params(33).save(path)


def _edited_checkpoint(tmp_path, edit):
    """A saved small checkpoint (H=6) with its lines passed through ``edit``."""
    path = tmp_path / "ckpt.txt"
    small_params(32).save(path)
    lines = edit(path.read_text().splitlines())
    path.write_text("\n".join(lines) + "\n")
    return path


def _first_tensor(edit):
    """A checkpoint edit that passes the first tensor line's fields
    (name, shape, values...) through ``edit``."""
    return lambda lines: lines[:2] + [" ".join(edit(lines[2].split(" ")))] + lines[3:]


def _written(content: bytes):
    def write(tmp_path):
        path = tmp_path / "ckpt.txt"
        path.write_bytes(content)
        return path
    return write


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda d: d / "absent.txt", "cannot read checkpoint"),
        (lambda d: d, "cannot read checkpoint"),
        (_written(b"bwsl-policy-checkpoint v1\nq=\xff\n"), "cannot read checkpoint"),
        (_written(b""), "not a policy checkpoint"),
        (lambda d: _edited_checkpoint(d, lambda lines: ["v1"] + lines[1:]),
         "not a policy checkpoint"),
        (lambda d: _edited_checkpoint(d, lambda lines: lines[:1] + lines[2:]),
         "missing quantization line"),
        (lambda d: _edited_checkpoint(d, lambda lines: lines[:1]),
         "missing quantization line"),
        (lambda d: _edited_checkpoint(d, lambda lines: lines + lines[2:3]),
         "tensor lstm_wx given twice"),
        (lambda d: _edited_checkpoint(d, _first_tensor(lambda f: [f[0], "7xA"] + f[2:])),
         "malformed tensor lstm_wx"),
        (lambda d: _edited_checkpoint(d, _first_tensor(lambda f: f[:2] + ["zz"] + f[3:])),
         "malformed tensor lstm_wx"),
        (lambda d: _edited_checkpoint(d, _first_tensor(lambda f: [f[0], "-7x24"] + f[2:])),
         "tensor lstm_wx has a negative dimension"),
        (lambda d: _edited_checkpoint(d, _first_tensor(lambda f: f[:-1])),
         "tensor lstm_wx has wrong element count"),
        (lambda d: _edited_checkpoint(d, _first_tensor(lambda f: f[:-1] + ["inf"])),
         "tensor lstm_wx has non-finite values"),
        (lambda d: _edited_checkpoint(d, lambda lines: lines[:2] + lines[3:]),
         r"missing tensors: \['lstm_wx'\]"),
    ],
    ids=[
        "missing_file", "directory", "not_utf8", "empty", "no_magic", "no_q_line", "magic_only",
        "given_twice", "bad_shape", "bad_value", "negative_dimension", "element_count",
        "non_finite", "missing_tensor",
    ],
)
def test_checkpoint_unreadable_or_malformed_raises_data_error(tmp_path, make, message):
    with pytest.raises(DataError, match=message):
        PolicyParams.load(make(tmp_path))


def test_checkpoint_malformed_q_raises_data_error(tmp_path):
    path = _edited_checkpoint(tmp_path, lambda lines: [lines[0], "q=x"] + lines[2:])
    with pytest.raises(DataError, match="quantization"):
        PolicyParams.load(path)


def test_checkpoint_tensor_line_without_shape_raises_data_error(tmp_path):
    path = _edited_checkpoint(tmp_path, lambda lines: lines[:2] + ["lstm_wx"] + lines[3:])
    with pytest.raises(DataError, match="no shape"):
        PolicyParams.load(path)


def test_checkpoint_unknown_tensor_raises_data_error(tmp_path):
    path = _edited_checkpoint(tmp_path, lambda lines: lines + ["extra 1 0x1.0p+0"])
    with pytest.raises(DataError, match="unknown tensor 'extra'"):
        PolicyParams.load(path)


def test_checkpoint_inconsistent_shapes_raise_data_error(tmp_path):
    wq_5x5 = "wq 5x5 " + " ".join([(0.0).hex()] * 25)

    def edit(lines):
        return [wq_5x5 if line.startswith("wq ") else line for line in lines]

    path = _edited_checkpoint(tmp_path, edit)
    with pytest.raises(DataError, match=r"wq has shape \(5, 5\), expected \(6, 6\)"):
        PolicyParams.load(path)


def test_checkpoint_blank_lines_are_skipped(tmp_path):
    path = _edited_checkpoint(tmp_path, lambda lines: lines[:3] + ["", "  "] + lines[3:] + [""])
    loaded, params = PolicyParams.load(path), small_params(32)
    for name in PARAM_ORDER:
        assert loaded[name].data.tobytes() == params[name].data.tobytes()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda t: {n: x.data for n, x in t.items()}, "must be Tensors"),
        (lambda t: {**t, "lstm_wx": Tensor(np.zeros((7, 25)))},
         r"lstm_wx \(7, 25\) must be \(F, 4H\)"),
        (lambda t: {**t, "rank_emb": Tensor(np.zeros(8))}, r"rank_emb \(8,\) must be \(E, L\)"),
    ],
    ids=["plain_arrays", "gate_width_not_4h", "one_d_rank_emb"],
)
def test_policy_params_reject_plain_arrays_and_unshaped_tensors(edit, message):
    # plain arrays used to be accepted, and the first forward then failed
    # with a bare AttributeError
    params = small_params(60)
    with pytest.raises(DataError, match=message):
        PolicyParams(edit(params.tensors()), params.q)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda p: policy_forward(np.zeros((3, 7)), p), r"windows must be \(I, K, F\)"),
        (lambda p: lstm_encode(np.zeros((3, 2, 5)), p), "window has 5 features, parameters expect"),
        (lambda p: history_attention([], p), "no hidden states"),
        (lambda p: history_attention([Tensor(np.zeros(6))], p), r"states must be \(I, H\)"),
    ],
    ids=["two_d_windows", "feature_count", "no_states", "one_d_states"],
)
def test_windows_and_states_of_the_wrong_shape_raise_shape_error(call, message):
    with pytest.raises(ShapeError, match=message):
        call(small_params(61))
