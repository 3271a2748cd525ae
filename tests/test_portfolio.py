"""Portfolio generation and return realization."""

import numpy as np
import pytest

from bwsl import autodiff as ad
from bwsl.errors import DataError, MissingReturnError, ShapeError
from bwsl.policy import WinnerScores
from bwsl.portfolio import (
    LONG_ONLY,
    LONG_SHORT,
    MODES,
    generate,
    leg_logprob,
    realize_return,
    select_legs,
)


def scores_of(values, ids=None):
    values = np.asarray(values, dtype=float)
    if ids is None:
        ids = tuple(f"S{i}" for i in range(len(values)))
    return WinnerScores(tuple(ids), values)


def test_singleton_legs_get_full_weight():
    pair = generate(scores_of([0.9, 0.7, 0.4, 0.1]), g=1)
    assert pair.long_weights() == {"S0": 1.0}
    assert pair.short_weights() == {"S3": 1.0}
    np.testing.assert_allclose(pair.b_c, [1.0, 0.0, 0.0, 1.0])


def test_equal_scores_split_leg_evenly():
    pair = generate(scores_of([0.8, 0.8, 0.2, 0.1]), g=2)
    np.testing.assert_allclose(pair.b_plus, [0.5, 0.5])


def test_long_weights_are_within_leg_softmax():
    pair = generate(scores_of([0.8, 0.6, 0.3, 0.1]), g=2)
    denom = np.exp(0.8) + np.exp(0.6)
    np.testing.assert_allclose(pair.b_plus, [np.exp(0.8) / denom, np.exp(0.6) / denom])
    assert pair.b_plus[0] == pytest.approx(0.549834, abs=1e-6)
    assert pair.b_plus[1] == pytest.approx(0.450166, abs=1e-6)


def test_short_weights_use_one_minus_score():
    pair = generate(scores_of([0.9, 0.8, 0.3, 0.1]), g=2)
    denom = np.exp(1 - 0.3) + np.exp(1 - 0.1)
    np.testing.assert_allclose(
        pair.short_weights()["S3"], np.exp(0.9) / denom
    )


def test_ties_break_by_ascending_stock_id():
    pair = generate(scores_of([0.5, 0.5, 0.5, 0.5], ids=("D", "C", "B", "A")), g=1)
    assert pair.long_indices == (3,)   # "A" wins the long seat
    assert pair.short_indices == (0,)  # "D" takes the short seat


def test_leg_weights_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(4, 20))
        g = int(rng.integers(1, n // 2 + 1))
        pair = generate(scores_of(rng.uniform(0.01, 0.99, size=n)), g=g)
        assert pair.b_plus.sum() == pytest.approx(1.0, abs=1e-12)
        assert pair.b_minus.sum() == pytest.approx(1.0, abs=1e-12)
        assert set(pair.long_indices).isdisjoint(pair.short_indices)
        assert pair.b_c.sum() == pytest.approx(2.0, abs=1e-12)


def test_score_shift_leaves_membership_and_weights_unchanged():
    rng = np.random.default_rng(1)
    values = rng.uniform(0.2, 0.8, size=10)
    base = generate(scores_of(values), g=3)
    shifted = generate(scores_of(values + 0.05), g=3)
    assert base.long_indices == shifted.long_indices
    assert base.short_indices == shifted.short_indices
    np.testing.assert_allclose(base.b_plus, shifted.b_plus, atol=1e-12)
    np.testing.assert_allclose(base.b_minus, shifted.b_minus, atol=1e-12)


def test_overlapping_legs_rejected():
    with pytest.raises(DataError, match="overlap"):
        generate(scores_of([0.9, 0.1, 0.5]), g=2)
    with pytest.raises(DataError):
        generate(scores_of([0.9, 0.1]), g=0)


@pytest.mark.parametrize(
    "mode, g, message",
    [
        ("long-long", 1, "unknown portfolio mode 'long-long'"),
        (LONG_ONLY, 5, "leg size 5 exceeds 4 stocks"),
    ],
    ids=["unknown_mode", "long_only_too_wide"],
)
def test_select_legs_rejects_an_unknown_mode_or_a_too_wide_long_leg(mode, g, message):
    with pytest.raises(DataError, match=message):
        select_legs(np.array([0.9, 0.7, 0.4, 0.1]), ("A", "B", "C", "D"), g, mode)


def test_long_only_emits_only_long_leg():
    pair = generate(scores_of([0.9, 0.7, 0.4, 0.1]), g=2, mode=LONG_ONLY)
    assert pair.short_indices == ()
    assert pair.b_minus.size == 0
    assert pair.b_c.sum() == pytest.approx(1.0, abs=1e-12)


def test_realize_return_two_sided():
    pair = generate(scores_of([0.9, 0.1], ids=("A", "B")), g=1)
    r = realize_return(pair, {"A": 1.1, "B": 0.9})
    assert r == pytest.approx(0.2, abs=1e-15)


def test_realize_return_cancels_on_equal_rates():
    rng = np.random.default_rng(2)
    for _ in range(20):
        pair = generate(scores_of(rng.uniform(0.1, 0.9, size=8)), g=2)
        z = {s: 1.07 for s in pair.stock_ids}
        assert realize_return(pair, z) == pytest.approx(0.0, abs=1e-12)


def test_realize_return_long_only_is_mean_ratio_minus_one():
    pair = generate(scores_of([0.5, 0.5], ids=("A", "B")), g=2, mode=LONG_ONLY)
    assert realize_return(pair, {"A": 1.1, "B": 0.9}) == pytest.approx(0.0, abs=1e-15)


def test_realize_return_requires_all_supported_rates():
    pair = generate(scores_of([0.9, 0.1], ids=("A", "B")), g=1)
    with pytest.raises(MissingReturnError):
        realize_return(pair, {"A": 1.1})


def test_return_monotonicity():
    pair = generate(scores_of([0.9, 0.6, 0.4, 0.1]), g=1)
    z = {s: 1.0 for s in pair.stock_ids}
    base = realize_return(pair, z)
    up_long = dict(z, S0=1.05)
    assert realize_return(pair, up_long) > base
    up_short = dict(z, S3=1.05)
    assert realize_return(pair, up_short) < base


def test_realize_return_rejects_non_positive():
    pair = generate(scores_of([0.9, 0.1], ids=("A", "B")), g=1)
    with pytest.raises(DataError):
        realize_return(pair, {"A": 0.0, "B": 1.0})


@pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf])
def test_realize_return_rejects_non_finite_rates(rate):
    # a NaN rate used to give a NaN return and +inf a return of -inf
    pair = generate(scores_of([0.9, 0.1], ids=("A", "B")), g=1)
    with pytest.raises(DataError, match="finite"):
        realize_return(pair, {"A": 1.1, "B": rate})


def test_select_legs_descending_with_tail_short():
    long_idx, short_idx = select_legs(
        np.array([0.2, 0.9, 0.5, 0.7]), ("A", "B", "C", "D"), g=1, mode=LONG_SHORT
    )
    assert long_idx == (1,)
    assert short_idx == (0,)


@pytest.mark.parametrize("mode", MODES)
def test_select_legs_breaks_score_ties_by_id_whatever_the_input_order(mode):
    # ids out of order, and a block of tied scores across each leg's boundary
    ids = ("K", "B", "Z", "A", "M", "C", "Y", "D", "E")
    scores = np.array([0.7, 0.9, 0.2, 0.7, 0.7, 0.2, 0.2, 0.5, 0.2])
    expected = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    assert [ids[i] for i in expected] == ["B", "A", "K", "M", "D", "C", "E", "Y", "Z"]
    long_idx, short_idx = select_legs(scores, ids, g=3, mode=mode)
    assert long_idx == tuple(expected[:3])
    assert short_idx == (tuple(expected[-3:]) if mode == LONG_SHORT else ())


@pytest.mark.parametrize("ids", [("A", "B", "C"), ("A", "B", "C", "D", "E")])
def test_select_legs_rejects_scores_misaligned_with_ids(ids):
    # np.lexsort used to raise a bare ValueError here
    with pytest.raises(ShapeError, match="4 scores for"):
        select_legs(np.array([0.2, 0.9, 0.5, 0.7]), ids, g=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_select_legs_and_generate_reject_non_finite_scores(bad):
    # a NaN score used to be sorted into a leg: it was shorted at g=1
    values = [bad, 0.2, 0.3, 0.4]
    with pytest.raises(DataError, match="finite"):
        select_legs(np.array(values), ("A", "B", "C", "D"), g=1)
    with pytest.raises(DataError, match="finite"):
        generate(scores_of(values), g=1)


@pytest.mark.parametrize("mode", MODES)
def test_leg_logprob_value_is_read_from_the_pair(mode):
    rng = np.random.default_rng(21)
    values = rng.uniform(0.05, 0.95, size=9)
    pair = generate(scores_of(values), g=3, mode=mode)
    value = leg_logprob(ad.Tensor(values, requires_grad=True), pair)
    expected = np.log(pair.b_plus).sum() + np.log(pair.b_minus).sum()
    assert value.data.tobytes() == np.float64(expected).tobytes()


@pytest.mark.parametrize("mode", MODES)
def test_leg_logprob_gradient_matches_finite_differences_at_fixed_legs(mode):
    rng = np.random.default_rng(22)
    worst = 0.0
    for g in (1, 2, 4):
        values = rng.uniform(0.05, 0.95, size=9)
        base = generate(scores_of(values), g=g, mode=mode)

        def surrogate(t):
            pair = generate(scores_of(t.data), g=g, mode=mode)
            assert (pair.long_indices, pair.short_indices) == (
                base.long_indices,
                base.short_indices,
            )
            return leg_logprob(t, pair)

        point = ad.Tensor(values, requires_grad=True)
        worst = max(worst, ad.finite_diff_check(surrogate, point, eps=1e-6))
    assert worst <= 1e-8
