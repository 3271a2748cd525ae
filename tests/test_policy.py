"""Scoring network: component oracles, equivariance, gradient checks."""

import re
import sys
import threading

import numpy as np
import pytest

from bwsl import autodiff as ad
from bwsl import policy
from bwsl.autodiff import Tensor
from bwsl.errors import DataError, NonFiniteError, ShapeError
from bwsl.policy import (
    ENCODER_PARAMS,
    PARAM_ORDER,
    SCORE_PARAMS,
    PolicyParams,
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
        lambda: score(Tensor(rep), ranks, params),
        lambda: own_score_grads(rep, ranks, params),
        lambda: caan_forward(Tensor(rep), ranks, params),
        lambda: rank_distance(ranks, params.q, params.l_cols),
    ):
        with pytest.raises(DataError, match="ranks"):
            fn()


def test_integral_ranks_of_any_dtype_score_alike():
    params = small_params(18)
    rep = Tensor(np.random.default_rng(19).normal(size=(3, params.hidden)))
    expected = score(rep, np.array([1, 7, 3]), params).data
    for ranks in ([1.0, 7.0, 3.0], np.array([1, 7, 3], np.uint8), np.array([1, 7, 3], np.int32)):
        assert score(rep, ranks, params).data.tobytes() == expected.tobytes()


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
    ranks = np.array([2, 4, 1, 3])
    scores = policy_forward(windows, ranks, params).data
    np.testing.assert_allclose(scores, reference_forward(windows, ranks, params), atol=1e-12)
    assert np.all((scores > 0) & (scores < 1))


def test_policy_forward_identical_inputs_give_identical_scores():
    params = small_params(25)
    one = np.random.default_rng(26).normal(size=(3, 7))
    windows = np.stack([one] * 4)
    ranks = np.array([1, 2, 3, 4])  # equal PR ties broken by id
    scores = policy_forward(windows, ranks, params).data
    # identical windows but distinct ranks: scores need not all match; with
    # identical ranks distance structure is symmetric for (1,2,3,4) only
    # pairwise, so check the truly symmetric construction instead
    same_rank_scores = policy_forward(windows, np.array([1, 1, 1, 1]), params).data
    np.testing.assert_allclose(same_rank_scores, same_rank_scores[0], atol=1e-12)
    assert scores.shape == (4,)


def test_policy_forward_end_to_end_permutation_equivariance():
    params = small_params(27)
    rng = np.random.default_rng(28)
    n = 16
    windows = rng.normal(size=(n, 6, 7))
    ranks = 1 + rng.permutation(n)
    base = policy_forward(windows, ranks, params).data
    for _ in range(10):
        perm = rng.permutation(n)
        permuted = policy_forward(windows[perm], ranks[perm], params).data
        assert np.max(np.abs(permuted - base[perm])) <= 1e-10


def test_policy_gradients_match_finite_differences():
    params = small_params(29, hidden=8, embed=4, l_cols=8)
    rng = np.random.default_rng(30)
    windows = rng.normal(size=(5, 4, 7))
    ranks = 1 + rng.permutation(5)
    worst = 0.0
    for name in PARAM_ORDER:
        original = params[name]

        def score_one(t, name=name):
            swapped = dict(params.tensors())
            swapped[name] = t
            trial = PolicyParams(swapped, params.q)
            return policy_forward(windows, ranks, trial)[0]

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
    ranks = 1 + rng.permutation(5)
    rep = Tensor(encode(windows, params).data, requires_grad=True)
    cot = rng.normal(size=rep.shape)
    worst = max(
        ad.finite_diff_check(
            lambda x: (encode(x, params) * Tensor(cot)).sum(), windows, eps=1e-6,
            max_coords=30, rng=rng,
        ),
        ad.finite_diff_check(lambda r: score(r, ranks, params)[2], rep, eps=1e-6),
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


_ROLES = {"act", "cells", "states", "u", "d_gates", "d_states", "d_pre"}


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


def _primitive_score(rep, ranks, params):
    return winner_scores(caan_forward(rep, np.asarray(ranks), params), params)


def _score_and_grads(scorer, rep, ranks, params, cot):
    """Scores, then the gradients of sum(scores * cot) w.r.t. the
    representations and the seven head parameters, from one backward."""
    x = Tensor(rep, requires_grad=True)
    tape = ad.Tape()
    with tape:
        scores = scorer(x, ranks, params)
        root = (scores * Tensor(cot)).sum()
    grads = tape.gradients(root)
    return [scores.data, grads[x]] + [grads[params[n]] for n in SCORE_PARAMS]


_SCORE_CASES = {
    # name: (I, q, L, ranks)
    "two_stocks": (2, 4, 8, [3, 8]),
    "q_one": (6, 1, 8, [1, 2, 3, 4, 5, 6]),
    "gaps_and_duplicates": (7, 2, 5, [1, 4, 4, 9, 2, 9, 4]),
    "wider_than_q_l": (5, 4, 8, [1, 100000, 40, 2, 33]),
    "one_bin": (4, 3, 1, [1, 2, 7, 3]),
    "paper_width": (40, 4, 16, list(range(40, 0, -1))),
}


@pytest.mark.parametrize("block", [1 << 14, 12], ids=["one_block", "row_blocks"])
@pytest.mark.parametrize("case", list(_SCORE_CASES), ids=list(_SCORE_CASES))
def test_fused_score_matches_the_primitive_composition(case, block, monkeypatch):
    # 12 elements per block splits every case into row blocks, the last
    # one partial for I = 5 and 7
    monkeypatch.setattr(policy, "_PRIOR_BLOCK", block)
    n, q, l_cols, ranks = _SCORE_CASES[case]
    params = small_params(70 + n, hidden=6, embed=4, l_cols=l_cols, q=q)
    rng = np.random.default_rng(71 + n)
    rep = rng.normal(size=(n, params.hidden))
    ranks = np.asarray(ranks)
    cot = rng.normal(size=n)
    untaped = score(Tensor(rep), ranks, params).data
    assert untaped.tobytes() == _primitive_score(Tensor(rep), ranks, params).data.tobytes()
    fused = _score_and_grads(score, rep, ranks, params, cot)
    oracle = _score_and_grads(_primitive_score, rep, ranks, params, cot)
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
        score(rep, [2, 5, 1, 4, 3], params)
    assert len(tape) == 1


def test_score_values_and_gradients_repeat_bitwise():
    params = small_params(74)
    rng = np.random.default_rng(75)
    rep = rng.normal(size=(9, params.hidden))
    ranks = 1 + rng.permutation(9)
    cot = rng.normal(size=9)
    first = _score_and_grads(score, rep, ranks, params, cot)
    second = _score_and_grads(score, rep, ranks, params, cot)
    for a, b in zip(first, second):
        assert a.tobytes() == b.tobytes()


def test_each_backward_over_one_score_record_sweeps_its_own_cotangent(monkeypatch):
    params = small_params(78)
    rng = np.random.default_rng(79)
    rep = rng.normal(size=(6, params.hidden))
    ranks = 1 + rng.permutation(6)
    cots = [rng.normal(size=6) for _ in range(2)]
    expected = [_score_and_grads(score, rep, ranks, params, c)[1:] for c in cots]
    sweeps = _count_calls(monkeypatch, "_score_sweep")
    x = Tensor(rep, requires_grad=True)
    tape = ad.Tape()
    with tape:
        scores = score(x, ranks, params)
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
    [score, _primitive_score, lambda rep, ranks, params: own_score_grads(rep.data, ranks, params)],
    ids=["fused", "primitive", "own_score_grads"],
)
def test_overflow_in_the_score_raises_non_finite(case, scorer):
    params = small_params(76)
    rep, what = case(params)
    match = f"score: non-finite {what}" if scorer is not _primitive_score else "matmul"
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError, match=match):
        scorer(Tensor(rep), [1, 2, 3, 4], params)


def _replayed_own_score_grads(rep, ranks, params):
    """Oracle: one tape over ``score``, replayed once per stock, keeping row i."""
    leaf = Tensor(rep, requires_grad=True)
    tape = ad.Tape()
    with tape:
        scores = score(leaf, ranks, params)
        roots = [scores[i] for i in range(len(rep))]
    return np.stack([tape.gradients(r)[leaf][i] for i, r in enumerate(roots)])


_REP_RNG = np.random.default_rng(47)
_SAME_ROWS = _REP_RNG.normal(size=(4, 6))
_SAME_ROWS[3] = _SAME_ROWS[1]


@pytest.mark.parametrize(
    "rep, ranks",
    [
        (_REP_RNG.normal(size=(2, 6)), [3, 8]),  # I = 2
        (_REP_RNG.normal(size=(5, 6)), [4, 4, 4, 4, 4]),  # tied ranks, distance 0
        (_REP_RNG.normal(size=(5, 6)), [1, 400, 2, 900, 37]),  # clamped last column
        (_SAME_ROWS, [1, 5, 9, 5]),  # two identical representation rows
    ],
    ids=["two_stocks", "tied_ranks", "clamped_distance", "identical_rows"],
)
def test_own_score_grads_match_per_stock_replays_of_score(rep, ranks):
    params = small_params(48)
    ranks = np.asarray(ranks)
    d = rank_distance(ranks, params.q, params.l_cols)
    if len(set(ranks)) == 1:
        assert not d.any()
    if ranks.max() - ranks.min() > params.q * params.l_cols:
        assert d.max() == params.l_cols - 1
    expected = _replayed_own_score_grads(rep, ranks, params)
    np.testing.assert_allclose(own_score_grads(rep, ranks, params), expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "rep, ranks",
    [
        (np.ones((3, 6)), [1, 2]),
        (np.ones((1, 6)), [1]),
        (np.ones((3, 5)), [1, 2, 3]),
        (np.ones((3, 6)), [[1], [2], [3]]),  # len() matches, so only a 1-d check catches it
    ],
    ids=["misaligned_ranks", "single_stock", "wrong_width", "two_d_ranks"],
)
def test_own_score_grads_raise_the_caan_shape_errors(rep, ranks):
    params = small_params(49)
    with pytest.raises(ShapeError) as caan_error:
        caan_forward(Tensor(rep), np.asarray(ranks), params)
    with pytest.raises(ShapeError, match=f"^{re.escape(str(caan_error.value))}$"):
        own_score_grads(rep, ranks, params)
    with pytest.raises(ShapeError, match=f"^{re.escape(str(caan_error.value))}$"):
        score(Tensor(rep), ranks, params)


def test_own_score_grads_record_nothing_on_an_active_tape():
    params = small_params(50)
    rep = np.random.default_rng(51).normal(size=(4, 6))
    tape = ad.Tape()
    with tape:
        own_score_grads(rep, [1, 2, 3, 4], params)
    assert len(tape) == 0


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
