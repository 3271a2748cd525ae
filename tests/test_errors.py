"""The one array-of-reals check, ``errors.real_array``, at every public
entry point that takes an array: malformed values raise DataError."""

import numpy as np
import pytest

from bwsl import autodiff as ad
from bwsl import errors
from bwsl.errors import DataError
from bwsl.features import N_FEATURES, zscore_crosssection
from bwsl.interpret import input_sensitivity
from bwsl.market import MarketPanel
from bwsl.metrics import cumulative_wealth, max_drawdown, report_or_degenerate, sharpe
from bwsl.policy import PolicyParams, WinnerScores, own_score_grads, policy_forward
from bwsl.portfolio import generate, realize_return, select_legs

PARAMS = PolicyParams.init(0, hidden=4, embed=2, l_cols=4)
IDS = ("A", "B", "C", "D")
PAIR = generate(WinnerScores(IDS, np.array([0.9, 0.6, 0.4, 0.1])), 1)
FIELDS = {name: np.ones((2, 3)) for name in ("close", "vol", "volume", "mcap", "pe", "bm", "div")}

# name -> (call on the malformed value, shape of a well-formed value)
ENTRY_POINTS = {
    "policy_forward": (lambda v: policy_forward(v, PARAMS), (3, 2, N_FEATURES)),
    "input_sensitivity": (lambda v: input_sensitivity(v, PARAMS, 0), (3, 2, N_FEATURES)),
    "own_score_grads": (lambda v: own_score_grads(v, PARAMS), (3, 4)),
    "apply_update": (lambda v: PARAMS.copy().apply_update({"w_score": v}), (4,)),
    "tensor": (ad.Tensor, (2, 2)),
    "select_legs": (lambda v: select_legs(v, IDS, 1), (4,)),
    "generate": (lambda v: generate(WinnerScores(IDS, v), 1), (4,)),
    "realize_return": (lambda v: realize_return(PAIR, dict(zip(IDS, v))), (4,)),
    "sharpe": (sharpe, (4,)),
    "cumulative_wealth": (cumulative_wealth, (4,)),
    "max_drawdown": (max_drawdown, (4,)),
    "report_or_degenerate": (report_or_degenerate, (4,)),
    "zscore_crosssection": (zscore_crosssection, (3, N_FEATURES)),
    "market_panel_field": (
        lambda v: MarketPanel(("A", "B"), 0, {**FIELDS, "close": v}, np.ones((2, 3), bool)),
        (2, 3),
    ),
}


def _malformed(kind: str, shape: tuple) -> list:
    """Nested lists of ``shape`` holding only values of ``kind``, or, for
    "ragged", ones with the first entry nested one level deeper."""
    if kind == "ragged":
        rows = np.ones(shape).tolist()
        rows[0] = [rows[0], rows[0]]
        return rows
    fill = {"str": "1.0", "none": None, "bool": True, "complex": 1.0 + 0j}[kind]
    return np.full(shape, fill, dtype=object).tolist()


@pytest.mark.parametrize("kind", ["str", "none", "bool", "complex", "ragged"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_reject_arrays_that_are_not_real(entry, kind):
    # None, complex numbers and ragged nesting used to fail with a bare
    # ValueError or TypeError, and bools and numeric strings were read as
    # numbers
    call, shape = ENTRY_POINTS[entry]
    with pytest.raises(DataError, match="must be an array of real numbers"):
        call(_malformed(kind, shape))


@pytest.mark.parametrize(
    "mask",
    [np.full((2, 3), "a"), np.full((2, 3), 2), np.full((2, 3), 0.5), [[1, 1, 1], [1, 1]]],
    ids=["str", "two", "half", "ragged"],
)
def test_market_panel_rejects_a_mask_that_is_not_bools_or_zeros_and_ones(mask):
    # the first three built a panel with every bar present, the ragged one
    # raised a bare ValueError
    with pytest.raises(DataError, match="panel: mask"):
        MarketPanel(("A", "B"), 0, FIELDS, mask)


def test_market_panel_reads_a_0_1_mask_as_bools():
    mask = np.array([[1, 0, 1], [1, 1, 0]], dtype=np.uint8)
    panel = MarketPanel(("A", "B"), 0, FIELDS, mask)
    assert panel.mask.dtype == bool and panel.mask.tolist() == mask.astype(bool).tolist()


def test_whole_array_passes_integers_and_whole_floats_and_never_truncates():
    for values in ([True, False], np.arange(3, dtype=np.uint16), [2.0, -1.0]):
        out = errors.whole_array(values, "x")
        assert out.dtype == np.int64 and out.tolist() == np.asarray(values).astype(int).tolist()
    for values in ([1.5], [np.nan], [np.inf], [2.0**63], ["1"], [None], [[1], [1, 2]]):
        with pytest.raises(DataError, match="^x must be an array of whole numbers"):
            errors.whole_array(values, "x")


def test_real_array_passes_ints_and_floats_of_any_width():
    arr = np.arange(3.0)
    assert errors.real_array(arr, "x") is arr  # so zscore_crosssection works in place
    for dtype in (np.int8, np.uint64, np.float16, np.float32, np.longdouble):
        out = errors.real_array(np.arange(3, dtype=dtype), "x")
        assert out.dtype == np.float64 and out.tolist() == [0.0, 1.0, 2.0]
    assert errors.real_array([1, 2.5], "x").tolist() == [1.0, 2.5]


@pytest.mark.parametrize(
    "deltas, message",
    [
        ({"w_score": np.zeros(4), "nope": np.zeros(4)}, "^apply_update: unknown tensor 'nope'$"),
        ({"w_score": np.zeros(4), "b_score": np.zeros(3)},
         r"^apply_update: b_score delta has shape \(3,\), expected \(\)$"),
        ({"wq": np.zeros((4, 1))}, r"^apply_update: wq delta has shape \(4, 1\), expected \(4, 4\)$"),
        ({"w_score": "0.5"}, "^apply_update: w_score delta must be an array of real numbers"),
    ],
    ids=["unknown_name", "broadcast_scalar", "broadcast_matrix", "string"],
)
def test_apply_update_rejects_a_bad_delta_before_changing_any_tensor(deltas, message):
    # an unknown name raised a bare KeyError and a string a bare
    # UFuncTypeError; a (3,) delta turned the scalar b_score into shape (3,),
    # so the next forward raised NumPy's ValueError and a saved checkpoint
    # could not be loaded
    params = PARAMS.copy()
    before = {name: t.data for name, t in params.tensors().items()}
    with pytest.raises(DataError, match=message):
        params.apply_update(deltas)
    for name, t in params.tensors().items():
        assert t.data is before[name], name
